#include "storage/snapshot.h"

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/string_util.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
  }

  std::string Dump() {
    std::ostringstream out;
    Status status = WriteSnapshot(db_, out);
    AGGCACHE_CHECK(status.ok()) << status.ToString();
    return out.str();
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
};

TEST_F(SnapshotTest, EmptyDatabaseRoundTrips) {
  std::string snapshot = Dump();
  Database restored;
  std::istringstream in(snapshot);
  ASSERT_OK(ReadSnapshot(in, &restored));
  EXPECT_EQ(restored.TableNames(), db_.TableNames());
  EXPECT_EQ(restored.txn_manager().last_committed(), 0u);
}

TEST_F(SnapshotTest, DataAndTidsRoundTrip) {
  for (int64_t h = 1; h <= 5; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2010 + h % 3, 2, 7.25, &next_item_id_));
  }
  ASSERT_OK(db_.Merge("Header"));  // Mixed state: Header main, Item delta.

  Database restored;
  std::istringstream in(Dump());
  ASSERT_OK(ReadSnapshot(in, &restored));

  Table* restored_header = restored.GetTable("Header").value();
  Table* restored_item = restored.GetTable("Item").value();
  EXPECT_EQ(restored_header->group(0).main.num_rows(), 5u);
  EXPECT_TRUE(restored_header->group(0).delta.empty());
  EXPECT_EQ(restored_item->group(0).delta.num_rows(), 10u);

  // Create tids are preserved exactly (the basis of tid-range pruning).
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_EQ(restored_header->group(0).main.create_tid(r),
              header_->group(0).main.create_tid(r));
  }
  // The transaction counter continues after the snapshot.
  EXPECT_EQ(restored.txn_manager().last_committed(),
            db_.txn_manager().last_committed());

  // Query results agree.
  Executor original_exec(&db_);
  Executor restored_exec(&restored);
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto a = original_exec.ExecuteUncached(
      query, db_.txn_manager().GlobalSnapshot());
  auto b = restored_exec.ExecuteUncached(
      query, restored.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(a.ok() && b.ok());
  std::string diff;
  EXPECT_TRUE(a->ApproxEquals(*b, 1e-12, &diff)) << diff;
}

TEST_F(SnapshotTest, InvalidationsAndHistoryRoundTrip) {
  for (int64_t h = 1; h <= 4; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2013, 1, 1.0, &next_item_id_));
  }
  MergeOptions keep;
  keep.keep_invalidated = true;
  ASSERT_OK(db_.MergeTables({"Header", "Item"}, keep));
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{2})));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}, keep));

  Database restored;
  std::istringstream in(Dump());
  ASSERT_OK(ReadSnapshot(in, &restored));
  Table* restored_header = restored.GetTable("Header").value();
  // The invalidated row version is preserved in main.
  EXPECT_EQ(restored_header->group(0).main.num_rows(), 4u);
  EXPECT_EQ(restored_header->MainInvalidationCount(), 1u);
  Snapshot now = restored.txn_manager().GlobalSnapshot();
  EXPECT_EQ(restored_header->VisibleRows(now), 3u);
  // Temporal query: the old snapshot still sees the deleted row.
  EXPECT_EQ(restored_header->VisibleRows(Snapshot{txn.tid() - 1}), 4u);
  // The pk index excludes the deleted row.
  EXPECT_FALSE(restored_header->FindByPk(Value(int64_t{2})).has_value());
}

TEST_F(SnapshotTest, HotColdLayoutAndAgingGroupsRoundTrip) {
  for (int64_t h = 1; h <= 8; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2013, 1, 1.0, &next_item_id_));
  }
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{5})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{5})));
  db_.RegisterAgingGroup({"Header", "Item"});

  Database restored;
  std::istringstream in(Dump());
  ASSERT_OK(ReadSnapshot(in, &restored));
  Table* restored_header = restored.GetTable("Header").value();
  ASSERT_EQ(restored_header->num_groups(), 2u);
  EXPECT_EQ(restored_header->group(0).age, AgeClass::kHot);
  EXPECT_EQ(restored_header->group(1).age, AgeClass::kCold);
  EXPECT_EQ(restored_header->group(1).main.num_rows(), 4u);
  EXPECT_TRUE(restored.InSameAgingGroup("Header", "Item"));
}

TEST_F(SnapshotTest, StringsWithSpecialCharactersRoundTrip) {
  Database db;
  auto table = db.CreateTable(SchemaBuilder("Notes")
                                  .AddColumn("id", ColumnType::kInt64)
                                  .PrimaryKey()
                                  .AddColumn("text", ColumnType::kString)
                                  .Build());
  ASSERT_TRUE(table.ok());
  Transaction txn = db.Begin();
  std::string tricky = "line1\nline2 \"quoted\" back\\slash\r";
  ASSERT_OK((*table)->Insert(txn, {Value(int64_t{1}), Value(tricky)}));
  ASSERT_OK((*table)->Insert(txn, {Value(int64_t{2}), Value("")}));

  std::ostringstream out;
  ASSERT_OK(WriteSnapshot(db, out));
  Database restored;
  std::istringstream in(out.str());
  ASSERT_OK(ReadSnapshot(in, &restored));
  Table* restored_table = restored.GetTable("Notes").value();
  auto loc = restored_table->FindByPk(Value(int64_t{1}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(restored_table->ValueAt(*loc, 1), Value(tricky));
  loc = restored_table->FindByPk(Value(int64_t{2}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(restored_table->ValueAt(*loc, 1), Value(""));
}

TEST_F(SnapshotTest, MatchingDependenciesSurviveRestore) {
  for (int64_t h = 1; h <= 3; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2013, 2, 1.0, &next_item_id_));
  }
  Database restored;
  std::istringstream in(Dump());
  ASSERT_OK(ReadSnapshot(in, &restored));
  auto holds = VerifyMdHolds(restored, "Header", "Item");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
  // And the restored database keeps enforcing them for new inserts.
  Transaction txn = restored.Begin();
  Table* restored_item = restored.GetTable("Item").value();
  ASSERT_OK(restored_item->Insert(
      txn, {Value(int64_t{999}), Value(int64_t{1}), Value(2.0)}));
  holds = VerifyMdHolds(restored, "Header", "Item");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
}

TEST_F(SnapshotTest, RestoreRequiresEmptyDatabase) {
  std::string snapshot = Dump();
  std::istringstream in(snapshot);
  // db_ already has tables.
  EXPECT_EQ(ReadSnapshot(in, &db_).code(), StatusCode::kFailedPrecondition);
}

TEST_F(SnapshotTest, CorruptSnapshotsRejectedWithLineNumbers) {
  Database restored;
  std::istringstream bad_magic("NOT_A_SNAPSHOT\n");
  EXPECT_FALSE(ReadSnapshot(bad_magic, &restored).ok());

  std::string snapshot = Dump();
  // Truncate mid-way.
  std::istringstream truncated(snapshot.substr(0, snapshot.size() / 2));
  Database restored2;
  auto status = ReadSnapshot(truncated, &restored2);
  EXPECT_FALSE(status.ok());

  // Corrupt a row line.
  std::string corrupted = snapshot;
  size_t pos = corrupted.find("end_table");
  ASSERT_NE(pos, std::string::npos);
  corrupted.insert(pos, "row garbage\n");
  std::istringstream bad_row(corrupted);
  Database restored3;
  EXPECT_FALSE(ReadSnapshot(bad_row, &restored3).ok());
}

TEST_F(SnapshotTest, MalformedCellsRejected) {
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 1, 2013,
                                               2, 1.5, &next_item_id_));
  const std::string snapshot = Dump();
  {
    // The untouched text restores and dumps back byte for byte.
    Database restored;
    std::istringstream in(snapshot);
    ASSERT_OK(ReadSnapshot(in, &restored));
    std::ostringstream again;
    ASSERT_OK(WriteSnapshot(restored, again));
    EXPECT_EQ(again.str(), snapshot);
  }
  // Replaces the value of `column` in the first row of `table` ("row
  // <create tid> <invalidate tid> <values...>"; these tables hold no
  // strings, so values split on spaces).
  auto with_cell = [&](const Table* table, const std::string& column,
                       const std::string& cell) {
    size_t row = snapshot.find("\nrow ", snapshot.find("table " +
                                                       table->name())) +
                 1;
    size_t eol = snapshot.find('\n', row);
    std::istringstream fields(snapshot.substr(row, eol - row));
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    tokens[3 + table->schema().ColumnIndex(column).value()] = cell;
    return snapshot.substr(0, row) + StrJoin(tokens, " ") +
           snapshot.substr(eol);
  };
  for (const auto& [table, column, cell] :
       std::vector<std::tuple<const Table*, std::string, std::string>>{
           {header_, "HeaderID", "12x"},
           {header_, "FiscalYear", "abc"},
           {header_, "FiscalYear", "2013.5"},
           {item_, "Amount", "1.5x"},
           {item_, "Amount", "abc"},
           {item_, "tid_Item", "5 5"}}) {
    Database restored;
    std::istringstream in(with_cell(table, column, cell));
    EXPECT_EQ(ReadSnapshot(in, &restored).code(),
              StatusCode::kInvalidArgument)
        << table->name() << "." << column << " = " << cell;
  }
}

}  // namespace
}  // namespace aggcache
