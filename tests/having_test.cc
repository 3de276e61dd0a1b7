#include "gtest/gtest.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class HavingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    cache_ = std::make_unique<AggregateCacheManager>(&db_);
    // Header 1 (2013) has 4 items of 10; header 2 (2014) has 1 item of 10.
    ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 1,
                                                 2013, 4, 10.0,
                                                 &next_item_id_));
    ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 2,
                                                 2014, 1, 10.0,
                                                 &next_item_id_));
  }

  AggregateQuery RevenueWithHaving(double min_revenue) {
    return QueryBuilder()
        .From("Header")
        .Join("Item", "HeaderID", "HeaderID")
        .GroupBy("Header", "FiscalYear")
        .Sum("Item", "Amount", "revenue")
        .Having(CompareOp::kGt, Value(min_revenue))
        .CountStar("n")
        .Build();
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  std::unique_ptr<AggregateCacheManager> cache_;
  int64_t next_item_id_ = 1;
};

TEST_F(HavingTest, FiltersGroupsOnFinalizedValues) {
  Transaction txn = db_.Begin();
  auto result = cache_->Execute(RevenueWithHaving(20.0), txn);
  ASSERT_TRUE(result.ok()) << result.status();
  // Only 2013 (revenue 40) survives; 2014 (revenue 10) is filtered.
  ASSERT_EQ(result->num_groups(), 1u);
  EXPECT_TRUE(result->groups().contains(GroupKey{{Value(int64_t{2013})}}));
}

TEST_F(HavingTest, NoHavingKeepsAllGroups) {
  Transaction txn = db_.Begin();
  auto result = cache_->Execute(RevenueWithHaving(0.0), txn);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 2u);
}

TEST_F(HavingTest, CachedAndUncachedAgreeUnderHaving) {
  AggregateQuery query = RevenueWithHaving(20.0);
  Transaction txn = db_.Begin();
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto baseline = cache_->Execute(query, txn, uncached);
  auto cached = cache_->Execute(query, txn);
  ASSERT_TRUE(baseline.ok() && cached.ok());
  std::string diff;
  EXPECT_TRUE(cached->ApproxEquals(*baseline, 1e-9, &diff)) << diff;
}

TEST_F(HavingTest, HavingAppliesAfterCompensation) {
  // 2014 revenue is 10 before, 30 after two new delta items: HAVING > 20
  // must see the compensated value, not the cached one.
  AggregateQuery query = RevenueWithHaving(20.0);
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache_->Execute(query, warm).ok());
  Transaction txn = db_.Begin();
  ASSERT_OK(item_->Insert(
      txn, {Value(next_item_id_++), Value(int64_t{2}), Value(10.0)}));
  ASSERT_OK(item_->Insert(
      txn, {Value(next_item_id_++), Value(int64_t{2}), Value(10.0)}));
  Transaction reader = db_.Begin();
  auto result = cache_->Execute(query, reader);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 2u);
  EXPECT_TRUE(result->groups().contains(GroupKey{{Value(int64_t{2014})}}));
}

TEST_F(HavingTest, QueriesDifferingOnlyInHavingShareAnEntry) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(cache_->Execute(RevenueWithHaving(20.0), txn).ok());
  EXPECT_EQ(cache_->num_entries(), 1u);
  CacheExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  ASSERT_TRUE(cache_->Execute(RevenueWithHaving(35.0), txn, options).ok());
  EXPECT_EQ(cache_->num_entries(), 1u);  // Same underlying aggregate.
  EXPECT_TRUE(stats.cache_hit);
}

TEST_F(HavingTest, ValidateChecksAggregateIndex) {
  AggregateQuery query = RevenueWithHaving(1.0);
  query.having[0].aggregate_index = 9;
  EXPECT_FALSE(query.Validate(db_).ok());
}

TEST_F(HavingTest, CountStarHaving) {
  AggregateQuery query = QueryBuilder()
                             .From("Item")
                             .GroupBy("Item", "HeaderID")
                             .CountStar("n")
                             .Having(CompareOp::kGe, Value(int64_t{2}))
                             .Build();
  Transaction txn = db_.Begin();
  auto result = cache_->Execute(query, txn);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->num_groups(), 1u);  // Only header 1 has >= 2 items.
  EXPECT_TRUE(result->groups().contains(GroupKey{{Value(int64_t{1})}}));
}

TEST_F(HavingTest, SqlHavingParses) {
  auto stmt = ParseStatement(
      "SELECT FiscalYear, SUM(Amount) AS revenue FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID GROUP BY FiscalYear "
      "HAVING SUM(Amount) > 20",
      db_);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  ASSERT_EQ(stmt->select.having.size(), 1u);
  EXPECT_EQ(stmt->select.having[0].aggregate_index, 0u);
  EXPECT_EQ(stmt->select.having[0].op, CompareOp::kGt);
  Transaction txn = db_.Begin();
  auto result = cache_->Execute(stmt->select, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_groups(), 1u);
}

TEST_F(HavingTest, SqlHavingCountStar) {
  auto stmt = ParseStatement(
      "SELECT HeaderID, COUNT(*) AS n FROM Item GROUP BY HeaderID "
      "HAVING COUNT(*) >= 2 AND COUNT(*) <= 10;",
      db_);
  ASSERT_TRUE(stmt.ok()) << stmt.status();
  EXPECT_EQ(stmt->select.having.size(), 2u);
}

TEST_F(HavingTest, SqlHavingMustMatchSelectList) {
  auto stmt = ParseStatement(
      "SELECT FiscalYear, SUM(Amount) AS r FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID GROUP BY FiscalYear "
      "HAVING AVG(Amount) > 5",
      db_);
  ASSERT_FALSE(stmt.ok());
  EXPECT_NE(stmt.status().message().find("SELECT list"), std::string::npos);
}

TEST_F(HavingTest, SqlHavingRequiresAggregate) {
  auto stmt = ParseStatement(
      "SELECT FiscalYear, SUM(Amount) AS r FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID GROUP BY FiscalYear "
      "HAVING FiscalYear > 2010",
      db_);
  EXPECT_FALSE(stmt.ok());
}

TEST_F(HavingTest, ToSqlRendersHaving) {
  std::string sql = RevenueWithHaving(20.0).ToSql();
  EXPECT_NE(sql.find("HAVING SUM(Item.Amount) > 20"), std::string::npos);
}

TEST_F(HavingTest, SummaryTableViewsRejectHaving) {
  AggregateQuery query = QueryBuilder()
                             .From("Item")
                             .GroupBy("Item", "HeaderID")
                             .Sum("Item", "Amount", "s")
                             .Having(CompareOp::kGt, Value(5.0))
                             .Build();
  auto view = CreateMaterializedAggregate(
      MaintenanceStrategy::kEagerIncremental, &db_, query, nullptr);
  EXPECT_FALSE(view.ok());
}

}  // namespace
}  // namespace aggcache
