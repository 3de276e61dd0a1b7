#include "workload/chbench.h"

#include "gtest/gtest.h"
#include "objectaware/matching_dependency.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

ChBenchConfig TinyConfig() {
  ChBenchConfig config;
  config.num_warehouses = 1;
  config.num_items = 50;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 5;
  config.orders_per_customer = 4;
  config.avg_orderlines_per_order = 3;
  return config;
}

class ChBenchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dataset_or = ChBenchDataset::Create(&db_, TinyConfig());
    ASSERT_TRUE(dataset_or.ok()) << dataset_or.status();
    dataset_ = std::make_unique<ChBenchDataset>(std::move(dataset_or).value());
  }

  Database db_;
  std::unique_ptr<ChBenchDataset> dataset_;
};

TEST_F(ChBenchTest, AllTablesPopulated) {
  for (const char* name :
       {"region", "nation", "supplier", "warehouse", "district", "customer",
        "item", "stock", "orders", "neworder", "orderline"}) {
    auto table = db_.GetTable(name);
    ASSERT_TRUE(table.ok()) << name;
    EXPECT_GT((*table)->TotalRows(), 0u) << name;
  }
}

TEST_F(ChBenchTest, DeltaFractionRespected) {
  auto orders = db_.GetTable("orders");
  ASSERT_TRUE(orders.ok());
  size_t main_rows = (*orders)->group(0).main.num_rows();
  size_t delta_rows = (*orders)->group(0).delta.num_rows();
  EXPECT_GT(delta_rows, 0u);
  double fraction = static_cast<double>(delta_rows) /
                    static_cast<double>(main_rows + delta_rows);
  EXPECT_NEAR(fraction, 0.05, 0.02);
}

TEST_F(ChBenchTest, MatchingDependenciesHold) {
  for (auto [ref, fk] :
       std::vector<std::pair<const char*, const char*>>{
           {"customer", "orders"},
           {"orders", "neworder"},
           {"orders", "orderline"},
           {"stock", "orderline"}}) {
    auto holds = VerifyMdHolds(db_, ref, fk);
    ASSERT_TRUE(holds.ok()) << ref << "->" << fk;
    EXPECT_TRUE(*holds) << ref << "->" << fk;
  }
}

TEST_F(ChBenchTest, QueriesValidateAndQualifyForCache) {
  for (auto& [number, query] : dataset_->AllQueries()) {
    EXPECT_OK(query.Validate(db_));
    EXPECT_TRUE(query.IsCacheable()) << "Q" << number;
    EXPECT_GE(query.tables.size(), 4u) << "Q" << number;
  }
}

TEST_F(ChBenchTest, QueriesReturnData) {
  Executor executor(&db_);
  for (auto& [number, query] : dataset_->AllQueries()) {
    auto result = executor.ExecuteUncached(
        query, db_.txn_manager().GlobalSnapshot());
    ASSERT_TRUE(result.ok()) << "Q" << number << ": " << result.status();
    EXPECT_GT(result->num_groups(), 0u) << "Q" << number;
  }
}

TEST_F(ChBenchTest, CachedStrategiesMatchUncached) {
  AggregateCacheManager cache(&db_);
  for (auto& [number, query] : dataset_->AllQueries()) {
    SCOPED_TRACE(number);
    testing_util::ExpectAllStrategiesAgree(&db_, &cache, query);
  }
}

TEST_F(ChBenchTest, SingleTableQueriesSupported) {
  AggregateCacheManager cache(&db_);
  for (AggregateQuery query : {dataset_->Q1(), dataset_->Q6()}) {
    EXPECT_OK(query.Validate(db_));
    EXPECT_TRUE(query.IsCacheable());
    EXPECT_EQ(query.tables.size(), 1u);
    testing_util::ExpectAllStrategiesAgree(&db_, &cache, query);
  }
}

TEST_F(ChBenchTest, Q1AveragesAreConsistent) {
  Executor executor(&db_);
  auto result = executor.ExecuteUncached(
      dataset_->Q1(), db_.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(result.ok());
  // AVG equals SUM / COUNT(*) in every group (no NULLs in this engine).
  for (const auto& [key, entry] : result->groups()) {
    double sum = entry.states[0].sum_double;
    double avg = entry.states[1]
                     .Finalize(AggregateFunction::kAvg)
                     .AsDouble();
    EXPECT_NEAR(avg, sum / static_cast<double>(entry.count_star), 1e-9)
        << key.ToString();
  }
}

TEST_F(ChBenchTest, FullPruningSkipsMostSubjoins) {
  AggregateCacheManager cache(&db_);
  Transaction txn = db_.Begin();
  AggregateQuery q5 = dataset_->Q5();
  CacheExecStats stats;
  ExecutionOptions full;
  full.strategy = ExecutionStrategy::kCachedFullPruning;
  full.stats = &stats;
  ASSERT_TRUE(cache.Execute(q5, txn, full).ok());  // Warm.
  // A hit with a cold delta memo plans every compensation combination.
  cache.Clear();
  ASSERT_OK(cache.Prewarm(q5));
  ASSERT_TRUE(cache.Execute(q5, txn, full).ok());
  ASSERT_TRUE(stats.cache_hit);
  // Q5 joins 7 tables: 127 compensation subjoins; pruning must remove the
  // overwhelming majority.
  EXPECT_EQ(stats.subjoins_executed + stats.subjoins_pruned, 127u);
  EXPECT_GT(stats.subjoins_pruned, 100u);
}

}  // namespace
}  // namespace aggcache
