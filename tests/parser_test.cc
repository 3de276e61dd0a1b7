#include "sql/parser.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class ParserTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
  }

  StatusOr<ParsedStatement> Parse(const std::string& sql) {
    return ParseStatement(sql, db_);
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
};

TEST_F(ParserTest, SimpleAggregateSelect) {
  auto stmt = Parse(
      "SELECT FiscalYear, SUM(Amount) AS revenue, COUNT(*) AS n "
      "FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID "
      "GROUP BY FiscalYear");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, ParsedStatement::Kind::kSelect);
  const AggregateQuery& q = stmt->select;
  ASSERT_EQ(q.tables.size(), 2u);
  EXPECT_EQ(q.tables[0].table_name, "Header");
  ASSERT_EQ(q.joins.size(), 1u);
  EXPECT_EQ(q.joins[0].left_table, 0u);
  EXPECT_EQ(q.joins[0].right_table, 1u);
  ASSERT_EQ(q.group_by.size(), 1u);
  EXPECT_EQ(q.group_by[0].table_index, 0u);  // FiscalYear is Header's.
  ASSERT_EQ(q.aggregates.size(), 2u);
  EXPECT_EQ(q.aggregates[0].fn, AggregateFunction::kSum);
  EXPECT_EQ(q.aggregates[0].output_name, "revenue");
  EXPECT_EQ(q.aggregates[1].fn, AggregateFunction::kCountStar);
}

TEST_F(ParserTest, FiltersWithCoercion) {
  auto stmt = Parse(
      "SELECT SUM(Amount) FROM Item "
      "WHERE Amount > 10 AND HeaderID <> 5 GROUP BY HeaderID");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  const AggregateQuery& q = stmt->select;
  ASSERT_EQ(q.filters.size(), 2u);
  // Amount is a DOUBLE column: the integer literal 10 was coerced.
  EXPECT_TRUE(q.filters[0].operand.is_double());
  EXPECT_EQ(q.filters[0].op, CompareOp::kGt);
  EXPECT_TRUE(q.filters[1].operand.is_int64());
  EXPECT_EQ(q.filters[1].op, CompareOp::kNe);
}

TEST_F(ParserTest, QualifiedAndUnqualifiedColumns) {
  auto stmt = Parse(
      "SELECT Header.FiscalYear, AVG(Item.Amount) AS a FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID GROUP BY Header.FiscalYear");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->select.aggregates[0].table_index, 1u);
}

TEST_F(ParserTest, AmbiguousColumnRejected) {
  // HeaderID exists in both tables.
  auto stmt = Parse(
      "SELECT SUM(Amount) FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID GROUP BY HeaderID");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("ambiguous"), std::string::npos);
}

TEST_F(ParserTest, UnknownColumnRejected) {
  EXPECT_FALSE(Parse("SELECT SUM(Nope) FROM Item GROUP BY HeaderID").ok());
}

TEST_F(ParserTest, BareColumnMustBeGrouped) {
  auto stmt = Parse(
      "SELECT Amount, COUNT(*) FROM Item GROUP BY HeaderID");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("GROUP BY"), std::string::npos);
}

TEST_F(ParserTest, SelectWithoutAggregateRejected) {
  EXPECT_FALSE(Parse("SELECT HeaderID FROM Item GROUP BY HeaderID").ok());
}

TEST_F(ParserTest, JoinMustUseEquality) {
  auto stmt = Parse(
      "SELECT COUNT(*) FROM Header, Item "
      "WHERE Header.HeaderID < Item.HeaderID GROUP BY FiscalYear");
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("'='"), std::string::npos);
}

TEST_F(ParserTest, CountStarOnlyForCount) {
  EXPECT_FALSE(Parse("SELECT SUM(*) FROM Item GROUP BY HeaderID").ok());
}

TEST_F(ParserTest, ParsedSelectExecutes) {
  int64_t next_item = 1;
  for (int64_t h = 1; h <= 3; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, h,
                                                 2013, 2, 10.0, &next_item));
  }
  auto stmt = Parse(
      "SELECT FiscalYear, SUM(Amount) AS revenue FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID GROUP BY FiscalYear;");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  AggregateCacheManager cache(&db_);
  Transaction txn = db_.Begin();
  auto result = cache.Execute(stmt->select, txn);
  ASSERT_TRUE(result.ok());
  auto rows = result->Rows(stmt->select.AggregateFunctions());
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 60.0);
}

TEST_F(ParserTest, ExplainAggregateSelect) {
  auto stmt = Parse(
      "EXPLAIN AGGREGATE SELECT FiscalYear, SUM(Amount) AS revenue "
      "FROM Header, Item WHERE Header.HeaderID = Item.HeaderID "
      "GROUP BY FiscalYear");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, ParsedStatement::Kind::kExplain);
  EXPECT_FALSE(stmt->explain_json);
  // The wrapped SELECT parses exactly as it would stand-alone.
  ASSERT_EQ(stmt->select.tables.size(), 2u);
  ASSERT_EQ(stmt->select.aggregates.size(), 1u);
  EXPECT_EQ(stmt->select.aggregates[0].output_name, "revenue");
}

TEST_F(ParserTest, ExplainAggregateJson) {
  auto stmt = Parse(
      "explain aggregate json SELECT COUNT(*) FROM Item GROUP BY HeaderID");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, ParsedStatement::Kind::kExplain);
  EXPECT_TRUE(stmt->explain_json);
}

TEST_F(ParserTest, ExplainRequiresAggregateSelect) {
  EXPECT_FALSE(Parse("EXPLAIN SELECT COUNT(*) FROM Item "
                     "GROUP BY HeaderID").ok());
  EXPECT_FALSE(Parse("EXPLAIN AGGREGATE INSERT INTO Header VALUES (1, 2)")
                   .ok());
  EXPECT_FALSE(Parse("EXPLAIN AGGREGATE").ok());
}

TEST_F(ParserTest, ApplyRejectsExplain) {
  auto stmt = Parse(
      "EXPLAIN AGGREGATE SELECT COUNT(*) FROM Item GROUP BY HeaderID");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_FALSE(ApplyStatement(*stmt, &db_).ok());
}

TEST_F(ParserTest, InsertStatement) {
  auto stmt = Parse("INSERT INTO Header VALUES (7, 2015)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, ParsedStatement::Kind::kInsert);
  EXPECT_EQ(stmt->insert_table, "Header");
  ASSERT_EQ(stmt->insert_values.size(), 2u);
  ASSERT_OK(ApplyStatement(*stmt, &db_));
  EXPECT_TRUE(header_->FindByPk(Value(int64_t{7})).has_value());
}

TEST_F(ParserTest, InsertCoercesToColumnTypes) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{1}), Value(int64_t{2013})}));
  // Amount is DOUBLE; the integer 5 must be coerced.
  auto stmt = Parse("INSERT INTO Item VALUES (1, 1, 5)");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_TRUE(stmt->insert_values[2].is_double());
  ASSERT_OK(ApplyStatement(*stmt, &db_));
}

TEST_F(ParserTest, InsertArityChecked) {
  EXPECT_FALSE(Parse("INSERT INTO Header VALUES (1)").ok());
  EXPECT_FALSE(Parse("INSERT INTO Header VALUES (1, 2, 3)").ok());
}

TEST_F(ParserTest, InsertUnknownTable) {
  EXPECT_FALSE(Parse("INSERT INTO Nope VALUES (1)").ok());
}

TEST_F(ParserTest, CreateTableWithObjectAwareness) {
  auto stmt = Parse(
      "CREATE TABLE Warehouse ("
      "  WarehouseID BIGINT PRIMARY KEY,"
      "  Name VARCHAR(32),"
      "  OWN TID tid_Warehouse"
      ")");
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->kind, ParsedStatement::Kind::kCreateTable);
  ASSERT_OK(ApplyStatement(*stmt, &db_));

  auto movement = Parse(
      "CREATE TABLE Movement ("
      "  MovementID BIGINT PRIMARY KEY,"
      "  WarehouseID BIGINT REFERENCES Warehouse TID tid_Warehouse,"
      "  Quantity DOUBLE,"
      "  OWN TID tid_Movement"
      ")");
  ASSERT_TRUE(movement.ok()) << movement.status();
  const TableSchema& schema = movement->create_schema;
  ASSERT_EQ(schema.foreign_keys.size(), 1u);
  EXPECT_EQ(schema.foreign_keys[0].ref_table, "Warehouse");
  EXPECT_TRUE(schema.foreign_keys[0].tid_column.has_value());
  EXPECT_TRUE(schema.own_tid_column.has_value());
  ASSERT_OK(ApplyStatement(*movement, &db_));

  // The created tables behave object-aware end to end.
  Transaction txn = db_.Begin();
  Table* warehouse = db_.GetTable("Warehouse").value();
  Table* table = db_.GetTable("Movement").value();
  ASSERT_OK(warehouse->Insert(txn, {Value(int64_t{1}), Value("Main")}));
  ASSERT_OK(table->Insert(txn, {Value(int64_t{1}), Value(int64_t{1}),
                                Value(10.0)}));
  auto loc = table->FindByPk(Value(int64_t{1}));
  ASSERT_TRUE(loc.has_value());
  // tid_Warehouse column carries the warehouse row's tid.
  auto tid_col = table->schema().ColumnIndex("tid_Warehouse");
  ASSERT_TRUE(tid_col.ok());
  EXPECT_EQ(table->ValueAt(*loc, *tid_col),
            Value(static_cast<int64_t>(txn.tid())));
}

TEST_F(ParserTest, CreateTableBadSchemaReported) {
  // Duplicate column name must come back as a Status, not a crash.
  auto stmt = Parse("CREATE TABLE T (a BIGINT, a DOUBLE)");
  ASSERT_FALSE(stmt.ok());
}

TEST_F(ParserTest, GarbageRejected) {
  EXPECT_FALSE(Parse("DROP TABLE Header").ok());
  EXPECT_FALSE(Parse("SELECT FROM").ok());
  EXPECT_FALSE(Parse("SELECT COUNT(*) FROM Item GROUP BY HeaderID extra")
                   .ok());
}

TEST_F(ParserTest, ApplyRejectsSelect) {
  auto stmt = Parse("SELECT COUNT(*) FROM Item GROUP BY HeaderID");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(ApplyStatement(*stmt, &db_).ok());
}

// --- Statement cache ---------------------------------------------------

TEST_F(ParserTest, FailedParseIsNotCachedAndSucceedsAfterCreateTable) {
  const std::string sql =
      "SELECT Tag.Lang, COUNT(*) AS n FROM Tag GROUP BY Tag.Lang";
  EXPECT_FALSE(Parse(sql).ok());
  ASSERT_OK(ApplyStatement(
      Parse("CREATE TABLE Tag (TagID BIGINT PRIMARY KEY, Lang VARCHAR)")
          .value(),
      &db_));
  auto stmt = Parse(sql);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->select.tables[0].table_name, "Tag");
  // The second parse is served from the cache and is the same statement.
  auto again = Parse(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->select.CanonicalString(), stmt->select.CanonicalString());
}

TEST_F(ParserTest, NewDatabaseNeverSeesAnotherDatabasesStatement) {
  // One SQL text, bound against two catalogs that disagree about it: in the
  // first, Item has a DOUBLE column Amount; in the second it has none. The
  // second database is created right after the first is freed, so it often
  // lands at the same address; its instance id still differs.
  const std::string sql =
      "SELECT HeaderID, SUM(Amount) AS s FROM Item GROUP BY HeaderID";
  auto make_item_db = [](bool with_amount) {
    auto db = std::make_unique<Database>();
    SchemaBuilder item("Item");
    item.AddColumn("HeaderID", ColumnType::kInt64);
    if (with_amount) item.AddColumn("Amount", ColumnType::kDouble);
    EXPECT_TRUE(db->CreateTable(item.Build()).ok());
    return db;
  };
  for (int round = 0; round < 3; ++round) {
    auto first = make_item_db(true);
    const uint64_t first_id = first->instance_id();
    ASSERT_TRUE(ParseStatement(sql, *first).ok());
    ASSERT_TRUE(ParseStatement(sql, *first).ok());  // Now a cache hit.
    first.reset();
    auto second = make_item_db(false);
    EXPECT_NE(second->instance_id(), first_id);
    EXPECT_FALSE(ParseStatement(sql, *second).ok());
  }
}

TEST_F(ParserTest, StatementCacheStaysWithinCapacity) {
  for (size_t i = 0; i < kStatementCacheCapacity + 10; ++i) {
    auto stmt = Parse(
        "SELECT FiscalYear, COUNT(*) FROM Header WHERE HeaderID <> " +
        std::to_string(i) + " GROUP BY FiscalYear");
    ASSERT_TRUE(stmt.ok()) << stmt.status();
    ASSERT_LE(StatementCacheSize(), kStatementCacheCapacity);
  }
  EXPECT_GT(StatementCacheSize(), 0u);
  // Only SELECT and EXPLAIN are kept; INSERT and CREATE TABLE are not.
  size_t before = StatementCacheSize();
  ASSERT_TRUE(Parse("INSERT INTO Header VALUES (1, 2013)").ok());
  EXPECT_EQ(StatementCacheSize(), before);
}

}  // namespace
}  // namespace aggcache
