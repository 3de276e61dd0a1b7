// Figure 7 — Join performance of the four execution strategies as a
// function of the Item delta size (Header delta ~ Item delta / 10, empty
// ProductCategory delta), on the three-table profit query of Listing 1.
//
// Paper result: with small deltas the cached aggregate is an order of
// magnitude faster than uncached execution; empty-delta pruning brings
// ~10%; full pruning is on average ~4x faster than cached-without-pruning;
// all strategies degrade as the delta grows (the delta must be aggregated
// either way).

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

constexpr size_t kHeadersMain = 20000;  // ~200K items in main.
constexpr size_t kQuickHeadersMain = 2000;
constexpr int kReps = 3;

void Run(BenchContext& ctx) {
  PrintBanner("Figure 7",
              "join strategies vs Item-delta size (3-table join)",
              "cached ~10x uncached at small deltas; full pruning ~4x over "
              "cached-without-pruning");

  Database db;
  ErpConfig config;
  config.num_headers_main = ctx.QuickOr(kQuickHeadersMain, kHeadersMain);
  config.num_categories = 50;
  config.avg_items_per_header = 10;
  ErpDataset dataset = CheckOk(ErpDataset::Create(&db, config), "erp");
  AggregateCacheManager cache(&db);
  AggregateQuery query = dataset.ProfitByCategoryQuery(2013);
  CheckOk(cache.Prewarm(query), "prewarm");

  std::vector<size_t> delta_targets =
      ctx.quick() ? std::vector<size_t>{300, 1000, 3000}
                  : std::vector<size_t>{3000, 10000, 30000, 100000, 300000};
  ctx.report().SetConfig("headers_main",
                         static_cast<int64_t>(config.num_headers_main));
  const int reps = ctx.Reps(kReps, kReps);
  ctx.report().SetConfig("reps", static_cast<int64_t>(reps));
  std::vector<StrategySpec> strategies = JoinStrategies();

  std::vector<std::string> columns = {"item_delta_rows"};
  for (const StrategySpec& s : strategies) {
    columns.push_back(std::string(s.label) + "_ms");
  }
  for (const StrategySpec& s : strategies) {
    columns.push_back(std::string(s.label) + "_norm");
  }
  ResultTable table(columns);

  Rng rng(41);
  size_t inserted_items = 0;
  double norm_base = 0.0;  // Uncached time at the smallest delta.
  std::vector<double> full_pruning_speedup;
  for (size_t target : delta_targets) {
    while (inserted_items < target) {
      inserted_items += CheckOk(dataset.InsertBusinessObject(rng), "insert");
    }
    std::vector<std::string> row = {
        StrFormat("%zu", dataset.item()->group(0).delta.num_rows())};
    std::vector<double> times;
    for (const StrategySpec& s : strategies) {
      ExecutionOptions options;
      options.strategy = s.strategy;
      options.use_predicate_pushdown = s.pushdown;
      LatencyStats stats = MeasureMs(
          reps,
          [&] {
            Transaction txn = db.Begin();
            CheckOk(cache.Execute(query, txn, options).status(), "execute");
          },
          ColdMemo(cache, query));
      ctx.report().AddLatency("query_ms",
                              {{"strategy", s.label},
                               {"item_delta_target", StrFormat("%zu", target)}},
                              stats);
      times.push_back(stats.median_ms);
      row.push_back(FormatMs(stats.median_ms));
    }
    if (norm_base == 0.0) norm_base = times[0];
    for (double ms : times) row.push_back(FormatNorm(ms / norm_base));
    full_pruning_speedup.push_back(times[1] / times[3]);
    table.AddRow(std::move(row));
  }
  table.Print();

  double avg_speedup = 0.0;
  for (double s : full_pruning_speedup) avg_speedup += s;
  avg_speedup /= static_cast<double>(full_pruning_speedup.size());
  ctx.report().AddScalar("full_pruning_avg_speedup", {}, avg_speedup);
  std::printf("\nfull pruning vs cached-no-pruning: avg %.1fx speedup "
              "(paper: ~4x)\n",
              avg_speedup);
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  size_t threads = aggcache::bench::ApplyThreadsFlag(argc, argv);
  std::printf("threads: %zu\n", threads);
  aggcache::BenchContext ctx(argc, argv, "fig7_join_pruning");
  ctx.report().SetConfig("threads", static_cast<int64_t>(threads));
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
