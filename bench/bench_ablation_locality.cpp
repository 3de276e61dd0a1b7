// Ablation (Section 5 analysis) — sensitivity of object-aware pruning to
// the temporal soft-constraint.
//
// The paper's dynamic pruning is always correct but only *succeeds* when
// matching tuples are inserted temporally close ("when this temporal
// constraint holds, using the proposed MDs will guarantee dynamic
// pruning"). This ablation quantifies the degradation: a fraction of items
// is inserted late (attached to already-merged headers), breaking the
// locality. Pruning of the Header_main x Item_delta subjoin fails as soon
// as a single late item exists; predicate pushdown then recovers part of
// the cost, depending on how much of the main the MD range still excludes.

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

constexpr size_t kHeadersMain = 10000;
constexpr size_t kNewObjects = 500;
constexpr int kReps = 3;

void Run(BenchContext& ctx) {
  const size_t headers_main = ctx.QuickOr<size_t>(2000, kHeadersMain);
  const size_t new_objects = ctx.QuickOr<size_t>(100, kNewObjects);
  const std::vector<int> late_percents =
      ctx.quick() ? std::vector<int>{0, 5, 25}
                  : std::vector<int>{0, 1, 5, 10, 25, 50};
  ctx.report().SetConfig("headers_main", static_cast<int64_t>(headers_main));
  ctx.report().SetConfig("new_objects", static_cast<int64_t>(new_objects));
  PrintBanner("Ablation: temporal locality (Section 5)",
              "pruning and pushdown vs late-item rate",
              "pruning succeeds under temporal locality; once violated, "
              "the non-prunable subjoin costs return and pushdown recovers "
              "part of them");

  ResultTable table({"late_item_%", "pruned/considered", "full_pruning_ms",
                     "with_pushdown_ms", "no_pruning_ms"});

  for (int late_percent : late_percents) {
    Database db;
    ErpConfig config;
    config.num_headers_main = headers_main;
    config.num_categories = 50;
    ErpDataset dataset = CheckOk(ErpDataset::Create(&db, config), "erp");
    AggregateCacheManager cache(&db);
    AggregateQuery query = dataset.ProfitByCategoryQuery(2013);
    CheckOk(cache.Prewarm(query), "prewarm");

    // New business objects plus the configured share of late items.
    Rng rng(late_percent + 1);
    size_t new_items = 0;
    for (size_t i = 0; i < new_objects; ++i) {
      new_items += CheckOk(dataset.InsertBusinessObject(rng), "insert");
    }
    size_t late_items = new_items * late_percent / 100;
    CheckOk(dataset.InsertLateItems(rng, late_items), "late items");

    CacheExecStats exec_stats;
    auto measure = [&](ExecutionStrategy strategy, bool pushdown) {
      ExecutionOptions options;
      options.strategy = strategy;
      options.use_predicate_pushdown = pushdown;
      options.stats = &exec_stats;
      return MeasureMs(kReps, [&] {
        Transaction txn = db.Begin();
        CheckOk(cache.Execute(query, txn, options).status(), "execute");
      });
    };

    LatencyStats full = measure(ExecutionStrategy::kCachedFullPruning, false);
    uint64_t pruned = exec_stats.subjoins_pruned;
    uint64_t considered = pruned + exec_stats.subjoins_executed;
    LatencyStats pushed =
        measure(ExecutionStrategy::kCachedFullPruning, true);
    LatencyStats none = measure(ExecutionStrategy::kCachedNoPruning, false);

    std::map<std::string, std::string> labels = {
        {"late_item_percent", StrFormat("%d", late_percent)}};
    auto with_mode = [&labels](const char* mode) {
      std::map<std::string, std::string> l = labels;
      l["mode"] = mode;
      return l;
    };
    ctx.report().AddLatency("query_ms", with_mode("full_pruning"), full);
    ctx.report().AddLatency("query_ms", with_mode("with_pushdown"), pushed);
    ctx.report().AddLatency("query_ms", with_mode("no_pruning"), none);
    ctx.report().AddScalar("subjoins_pruned", labels,
                           static_cast<double>(pruned));
    ctx.report().AddScalar("subjoins_considered", labels,
                           static_cast<double>(considered));

    table.AddRow({StrFormat("%d", late_percent),
                  StrFormat("%llu/%llu",
                            static_cast<unsigned long long>(pruned),
                            static_cast<unsigned long long>(considered)),
                  FormatMs(full.median_ms), FormatMs(pushed.median_ms),
                  FormatMs(none.median_ms)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  aggcache::bench::ApplyThreadsFlag(argc, argv);
  aggcache::BenchContext ctx(argc, argv, "ablation_locality");
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
