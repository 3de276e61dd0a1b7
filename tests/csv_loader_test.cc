#include "workload/csv_loader.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class CsvLoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
};

TEST_F(CsvLoaderTest, LoadsRowsWithHeader) {
  auto loaded = LoadCsvFromString(&db_, "Header",
                                  "HeaderID,FiscalYear\n"
                                  "1,2013\n"
                                  "2,2014\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 2u);
  EXPECT_TRUE(header_->FindByPk(Value(int64_t{1})).has_value());
  auto loc = header_->FindByPk(Value(int64_t{2}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(header_->ValueAt(*loc, 1), Value(int64_t{2014}));
}

// strtod parses "nan"; the load must stop at that row instead of putting
// NaN into a dictionary.
TEST_F(CsvLoaderTest, RejectsNaN) {
  ASSERT_TRUE(
      LoadCsvFromString(&db_, "Header", "HeaderID,FiscalYear\n1,2013\n")
          .ok());
  auto loaded = LoadCsvFromString(&db_, "Item",
                                  "ItemID,HeaderID,Amount\n"
                                  "10,1,3.5\n"
                                  "11,1,nan\n"
                                  "12,1,1.5\n");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(item_->FindByPk(Value(int64_t{10})).has_value());
  EXPECT_FALSE(item_->FindByPk(Value(int64_t{11})).has_value());
  EXPECT_FALSE(item_->FindByPk(Value(int64_t{12})).has_value());
  ASSERT_OK(db_.Merge("Item"));
  EXPECT_EQ(item_->group(0).main.column(3).dictionary().values(),
            std::vector<Value>{Value(3.5)});
}

TEST_F(CsvLoaderTest, HeaderValidation) {
  auto wrong_name = LoadCsvFromString(&db_, "Header",
                                      "HeaderID,Year\n1,2013\n");
  EXPECT_FALSE(wrong_name.ok());
  auto wrong_count =
      LoadCsvFromString(&db_, "Header", "HeaderID\n1\n");
  EXPECT_FALSE(wrong_count.ok());
  auto empty = LoadCsvFromString(&db_, "Header", "");
  EXPECT_FALSE(empty.ok());
}

TEST_F(CsvLoaderTest, NoHeaderMode) {
  CsvLoadOptions options;
  options.has_header = false;
  auto loaded = LoadCsvFromString(&db_, "Header", "5,2012\n", options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, 1u);
}

TEST_F(CsvLoaderTest, TypedParsingAndErrors) {
  ASSERT_TRUE(LoadCsvFromString(&db_, "Header",
                                "HeaderID,FiscalYear\n1,2013\n")
                  .ok());
  // Item: ItemID, HeaderID, Amount(double).
  auto ok = LoadCsvFromString(&db_, "Item",
                              "ItemID,HeaderID,Amount\n10,1,12.5\n");
  ASSERT_TRUE(ok.ok()) << ok.status();
  auto loc = item_->FindByPk(Value(int64_t{10}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(item_->ValueAt(*loc, 3), Value(12.5));

  auto bad_int = LoadCsvFromString(&db_, "Item",
                                   "ItemID,HeaderID,Amount\nxx,1,1.0\n");
  EXPECT_FALSE(bad_int.ok());
  auto bad_double = LoadCsvFromString(&db_, "Item",
                                      "ItemID,HeaderID,Amount\n11,1,abc\n");
  EXPECT_FALSE(bad_double.ok());
  auto bad_arity = LoadCsvFromString(&db_, "Item",
                                     "ItemID,HeaderID,Amount\n11,1\n");
  EXPECT_FALSE(bad_arity.ok());
}

TEST_F(CsvLoaderTest, QuotedFields) {
  Database db;
  auto table = db.CreateTable(SchemaBuilder("Notes")
                                  .AddColumn("id", ColumnType::kInt64)
                                  .PrimaryKey()
                                  .AddColumn("text", ColumnType::kString)
                                  .Build());
  ASSERT_TRUE(table.ok());
  auto loaded = LoadCsvFromString(
      &db, "Notes",
      "id,text\n"
      "1,\"hello, world\"\n"
      "2,\"she said \"\"hi\"\"\"\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto loc = (*table)->FindByPk(Value(int64_t{1}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ((*table)->ValueAt(*loc, 1), Value("hello, world"));
  loc = (*table)->FindByPk(Value(int64_t{2}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ((*table)->ValueAt(*loc, 1), Value("she said \"hi\""));
}

TEST_F(CsvLoaderTest, UnterminatedQuoteFails) {
  Database db;
  ASSERT_TRUE(db.CreateTable(SchemaBuilder("T")
                                 .AddColumn("s", ColumnType::kString)
                                 .Build())
                  .ok());
  CsvLoadOptions options;
  options.has_header = false;
  EXPECT_FALSE(LoadCsvFromString(&db, "T", "\"oops\n", options).ok());
}

TEST_F(CsvLoaderTest, RowsPerTransactionSharesTids) {
  CsvLoadOptions options;
  options.rows_per_transaction = 2;
  auto loaded = LoadCsvFromString(&db_, "Header",
                                  "HeaderID,FiscalYear\n"
                                  "1,2013\n2,2013\n3,2013\n",
                                  options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  // Rows 1 and 2 share a tid (one transaction); row 3 has a new one.
  const Partition& delta = header_->group(0).delta;
  EXPECT_EQ(delta.create_tid(0), delta.create_tid(1));
  EXPECT_NE(delta.create_tid(1), delta.create_tid(2));
}

TEST_F(CsvLoaderTest, CustomDelimiter) {
  CsvLoadOptions options;
  options.delimiter = '\t';
  auto loaded = LoadCsvFromString(&db_, "Header",
                                  "HeaderID\tFiscalYear\n7\t2010\n",
                                  options);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(header_->FindByPk(Value(int64_t{7})).has_value());
}

TEST_F(CsvLoaderTest, ForeignKeysEnforcedDuringLoad) {
  // Item rows referencing a missing header are rejected.
  auto loaded = LoadCsvFromString(&db_, "Item",
                                  "ItemID,HeaderID,Amount\n1,999,1.0\n");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(CsvLoaderTest, UnknownTable) {
  EXPECT_FALSE(LoadCsvFromString(&db_, "Nope", "a\n1\n").ok());
}

}  // namespace
}  // namespace aggcache
