// Parameterized sweeps over workload-generator configurations: for every
// scale the invariants must hold — matching dependencies, cache/uncached
// agreement, delta-population accounting, and pruning effectiveness under
// perfect temporal locality.

#include <tuple>

#include "gtest/gtest.h"
#include "objectaware/matching_dependency.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

// --- ERP generator sweep ----------------------------------------------------

using ErpParam = std::tuple<size_t /*headers*/, size_t /*categories*/,
                            size_t /*items_per_header*/>;

class ErpSweepTest : public ::testing::TestWithParam<ErpParam> {};

TEST_P(ErpSweepTest, InvariantsHoldAtEveryScale) {
  auto [headers, categories, items_per_header] = GetParam();
  Database db;
  ErpConfig config;
  config.num_headers_main = headers;
  config.num_categories = categories;
  config.avg_items_per_header = items_per_header;
  auto dataset_or = ErpDataset::Create(&db, config);
  ASSERT_TRUE(dataset_or.ok()) << dataset_or.status();
  ErpDataset& dataset = dataset_or.value();

  // Structure: everything merged, row counts plausible.
  EXPECT_EQ(dataset.header()->group(0).main.num_rows(), headers);
  EXPECT_TRUE(dataset.item()->group(0).delta.empty());
  size_t items = dataset.item()->group(0).main.num_rows();
  EXPECT_GE(items, headers);  // At least one item per header.
  EXPECT_LE(items, headers * (2 * items_per_header));

  // Matching dependencies hold after the bulk load.
  auto md = VerifyMdHolds(db, "Header", "Item");
  ASSERT_TRUE(md.ok());
  EXPECT_TRUE(*md);

  // The profit query agrees across strategies after fresh inserts.
  AggregateCacheManager cache(&db);
  Rng rng(headers);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(dataset.InsertBusinessObject(rng).ok());
  }
  testing_util::ExpectAllStrategiesAgree(&db, &cache,
                                         dataset.ProfitByCategoryQuery(2013));

  // Perfect temporal locality: full pruning executes exactly one subjoin
  // (delta x delta x empty-category-delta is itself pruned, leaving
  // header-delta x item-delta x category-main).
  // (measured on a hit with a cold delta memo, which plans all seven).
  CacheExecStats stats;
  ExecutionOptions full;
  full.strategy = ExecutionStrategy::kCachedFullPruning;
  full.stats = &stats;
  cache.Clear();
  ASSERT_TRUE(cache.Prewarm(dataset.ProfitByCategoryQuery(2013)).ok());
  Transaction txn = db.Begin();
  auto result = cache.Execute(dataset.ProfitByCategoryQuery(2013), txn, full);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(stats.subjoins_executed, 1u);
  EXPECT_EQ(stats.subjoins_pruned, 6u);
}

INSTANTIATE_TEST_SUITE_P(
    Scales, ErpSweepTest,
    ::testing::Values(ErpParam{50, 3, 2}, ErpParam{200, 10, 4},
                      ErpParam{500, 25, 6}, ErpParam{1000, 50, 10}));

// --- CH-benCHmark sweep ------------------------------------------------------

using ChParam = std::tuple<size_t /*warehouses*/, size_t /*items*/,
                           double /*delta fraction*/>;

class ChBenchSweepTest : public ::testing::TestWithParam<ChParam> {};

TEST_P(ChBenchSweepTest, InvariantsHoldAtEveryScale) {
  auto [warehouses, items, delta_fraction] = GetParam();
  Database db;
  ChBenchConfig config;
  config.num_warehouses = warehouses;
  config.num_items = items;
  config.districts_per_warehouse = 2;
  config.customers_per_district = 5;
  config.orders_per_customer = 4;
  config.avg_orderlines_per_order = 3;
  config.delta_fraction = delta_fraction;
  auto dataset_or = ChBenchDataset::Create(&db, config);
  ASSERT_TRUE(dataset_or.ok()) << dataset_or.status();
  ChBenchDataset& dataset = dataset_or.value();

  // Delta population tracks the configured fraction.
  const Table* orders = db.GetTable("orders").value();
  size_t main_rows = orders->group(0).main.num_rows();
  size_t delta_rows = orders->group(0).delta.num_rows();
  double fraction = static_cast<double>(delta_rows) /
                    static_cast<double>(main_rows + delta_rows);
  EXPECT_NEAR(fraction, delta_fraction, 0.03);

  // MDs hold on the order business object.
  for (auto [ref, fk] : {std::pair{"customer", "orders"},
                         std::pair{"orders", "orderline"}}) {
    auto holds = VerifyMdHolds(db, ref, fk);
    ASSERT_TRUE(holds.ok()) << ref << "->" << fk;
    EXPECT_TRUE(*holds) << ref << "->" << fk;
  }

  // Q3 agrees across strategies at every scale.
  AggregateCacheManager cache(&db);
  testing_util::ExpectAllStrategiesAgree(&db, &cache, dataset.Q3());
}

INSTANTIATE_TEST_SUITE_P(Scales, ChBenchSweepTest,
                         ::testing::Values(ChParam{1, 20, 0.05},
                                           ChParam{2, 50, 0.05},
                                           ChParam{1, 50, 0.20},
                                           ChParam{3, 30, 0.10}));

}  // namespace
}  // namespace aggcache
