// Figure 9 — CH-benCHmark queries Q3, Q5, Q9, Q10 under the four execution
// strategies, with 5% of orders/orderlines/neworders/stock rows populated
// into the delta partitions.
//
// Paper result: for aggregate queries joining more than three tables the
// cache benefit is only marginal without dynamic join pruning; full pruning
// accelerates execution by up to an order of magnitude over uncached.

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

constexpr int kReps = 3;

void Run(BenchContext& ctx) {
  PrintBanner("Figure 9", "CH-benCHmark Q3/Q5/Q9/Q10 join strategies",
              "without pruning the cache is marginal for >3-table joins; "
              "full pruning up to ~10x vs uncached");

  Database db;
  ChBenchConfig config;
  config.num_warehouses = 2;
  config.num_items = ctx.QuickOr<size_t>(500, 2000);
  config.districts_per_warehouse = ctx.QuickOr<size_t>(4, 10);
  config.customers_per_district = ctx.QuickOr<size_t>(10, 30);
  config.orders_per_customer = ctx.QuickOr<size_t>(5, 10);
  config.avg_orderlines_per_order = 10;  // ~60K orderlines.
  ChBenchDataset dataset =
      CheckOk(ChBenchDataset::Create(&db, config), "chbench");
  AggregateCacheManager cache(&db);

  ctx.report().SetConfig("warehouses",
                         static_cast<int64_t>(config.num_warehouses));
  ctx.report().SetConfig("items", static_cast<int64_t>(config.num_items));
  ctx.report().SetConfig("reps", static_cast<int64_t>(kReps));

  std::vector<StrategySpec> strategies = JoinStrategies();
  std::vector<std::string> columns = {"query", "tables"};
  for (const StrategySpec& s : strategies) {
    columns.push_back(std::string(s.label) + "_ms");
  }
  columns.push_back("pruned/total");
  columns.push_back("speedup_vs_uncached");
  ResultTable table(columns);

  for (auto& [number, query] : dataset.AllQueries()) {
    CheckOk(cache.Prewarm(query), "prewarm");
    std::vector<std::string> row = {StrFormat("Q%d", number),
                                    StrFormat("%zu", query.tables.size())};
    std::vector<double> times;
    uint64_t pruned = 0;
    uint64_t total = 0;
    for (const StrategySpec& s : strategies) {
      CacheExecStats exec_stats;
      ExecutionOptions options;
      options.strategy = s.strategy;
      options.stats = &exec_stats;
      LatencyStats stats = MeasureMs(
          kReps,
          [&] {
            Transaction txn = db.Begin();
            CheckOk(cache.Execute(query, txn, options).status(), "execute");
          },
          ColdMemo(cache, query));
      if (s.strategy == ExecutionStrategy::kCachedFullPruning) {
        pruned = exec_stats.subjoins_pruned;
        total = pruned + exec_stats.subjoins_executed;
      }
      ctx.report().AddLatency("query_ms",
                              {{"strategy", s.label},
                               {"query", StrFormat("Q%d", number)}},
                              stats);
      times.push_back(stats.median_ms);
      row.push_back(FormatMs(stats.median_ms));
    }
    row.push_back(StrFormat("%llu/%llu",
                            static_cast<unsigned long long>(pruned),
                            static_cast<unsigned long long>(total)));
    ctx.report().AddScalar("speedup_vs_uncached",
                           {{"query", StrFormat("Q%d", number)}},
                           times[0] / times[3]);
    row.push_back(StrFormat("%.1fx", times[0] / times[3]));
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  size_t threads = aggcache::bench::ApplyThreadsFlag(argc, argv);
  std::printf("threads: %zu\n", threads);
  aggcache::BenchContext ctx(argc, argv, "fig9_chbench");
  ctx.report().SetConfig("threads", static_cast<int64_t>(threads));
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
