#include "objectaware/matching_dependency.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class MatchingDependencyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
};

TEST_F(MatchingDependencyTest, ResolvesHeaderItemMd) {
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  const std::vector<MdBinding>& mds = bound->mds;
  ASSERT_EQ(mds.size(), 1u);
  EXPECT_EQ(mds[0].join_index, 0u);
  EXPECT_EQ(mds[0].left_table, 0u);   // Header (pk side).
  EXPECT_EQ(mds[0].right_table, 1u);  // Item (fk side).
  // Header columns: HeaderID, FiscalYear, tid_Header -> index 2.
  EXPECT_EQ(mds[0].left_tid_column, 2u);
  // Item columns: ItemID, HeaderID, tid_Header, Amount, tid_Item -> 2.
  EXPECT_EQ(mds[0].right_tid_column, 2u);
  EXPECT_NE(mds[0].ToString().find("MD(join#0"), std::string::npos);
}

TEST_F(MatchingDependencyTest, ResolvesRegardlessOfJoinDirection) {
  // Item first: the join condition is written Item.HeaderID =
  // Header.HeaderID but the MD must still resolve with Header as pk side.
  AggregateQuery query = QueryBuilder()
                             .From("Item")
                             .Join("Header", "HeaderID", "HeaderID")
                             .GroupBy("Header", "FiscalYear")
                             .Sum("Item", "Amount", "s")
                             .Build();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  const std::vector<MdBinding>& mds = bound->mds;
  ASSERT_EQ(mds.size(), 1u);
  EXPECT_EQ(mds[0].left_table, 1u);   // Header is query table 1 here.
  EXPECT_EQ(mds[0].right_table, 0u);  // Item.
}

TEST_F(MatchingDependencyTest, NoMdWithoutTidColumns) {
  Database db;
  auto h = db.CreateTable(SchemaBuilder("H")
                              .AddColumn("id", ColumnType::kInt64)
                              .PrimaryKey()
                              .Build());
  ASSERT_TRUE(h.ok());
  auto i = db.CreateTable(SchemaBuilder("I")
                              .AddColumn("id", ColumnType::kInt64)
                              .PrimaryKey()
                              .AddColumn("h_id", ColumnType::kInt64)
                              .References("H")  // FK without MD tid.
                              .AddColumn("v", ColumnType::kInt64)
                              .Build());
  ASSERT_TRUE(i.ok());
  AggregateQuery query = QueryBuilder()
                             .From("H")
                             .Join("I", "id", "h_id")
                             .GroupBy("H", "id")
                             .Sum("I", "v", "s")
                             .Build();
  auto bound = BoundQuery::Bind(db, query);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->mds.empty());
}

TEST_F(MatchingDependencyTest, NoMdForNonKeyJoin) {
  // Join on a non-pk column of Header: no MD applies.
  AggregateQuery query = QueryBuilder()
                             .From("Header")
                             .Join("Item", "FiscalYear", "ItemID")
                             .GroupBy("Header", "FiscalYear")
                             .CountStar("n")
                             .Build();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  EXPECT_TRUE(bound->mds.empty());
}

TEST_F(MatchingDependencyTest, VerifyMdHoldsOnTransactionalInserts) {
  for (int64_t h = 1; h <= 5; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, h,
                                                 2013, 3, 1.0,
                                                 &next_item_id_));
  }
  auto holds = VerifyMdHolds(db_, "Header", "Item");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
  // Still holds across a merge and new inserts.
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 6,
                                               2014, 2, 1.0,
                                               &next_item_id_));
  holds = VerifyMdHolds(db_, "Header", "Item");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
}

TEST_F(MatchingDependencyTest, MdHoldsAcrossHeaderUpdates) {
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 1, 2013,
                                               3, 1.0, &next_item_id_));
  Transaction txn = db_.Begin();
  // Updating the header preserves its object tid, so the MD keeps holding.
  ASSERT_OK(header_->UpdateByPk(txn, Value(int64_t{1}),
                                {Value(int64_t{1}), Value(int64_t{2099})}));
  auto holds = VerifyMdHolds(db_, "Header", "Item");
  ASSERT_TRUE(holds.ok());
  EXPECT_TRUE(*holds);
}

TEST_F(MatchingDependencyTest, ViolatedMdDetected) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{1}), Value(int64_t{2013})}));
  InsertOptions no_md;
  no_md.maintain_tid_columns = false;
  ASSERT_OK(item_->Insert(
      txn, {Value(int64_t{1}), Value(int64_t{1}), Value(1.0)}, no_md));
  auto holds = VerifyMdHolds(db_, "Header", "Item");
  ASSERT_TRUE(holds.ok());
  EXPECT_FALSE(*holds);
}

TEST_F(MatchingDependencyTest, VerifyRequiresMdSchema) {
  EXPECT_FALSE(VerifyMdHolds(db_, "Item", "Header").ok());
}

}  // namespace
}  // namespace aggcache
