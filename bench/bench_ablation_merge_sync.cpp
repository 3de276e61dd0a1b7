// Ablation (Section 5.2) — merge synchronization and pruning success.
//
// The paper argues that synchronizing the delta merges of related
// transactional tables maximizes the join-pruning success rate: merged
// together, matching tuples stay on the same side of the main/delta
// boundary; merged independently, one table's merge strands matching
// tuples across the boundary (the Fig. 5 situation) and the corresponding
// subjoin can no longer be pruned.

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

constexpr size_t kInitialObjects = 10000;
constexpr size_t kPhaseObjects = 2000;
constexpr int kReps = 3;
size_t g_initial_objects = kInitialObjects;
size_t g_phase_objects = kPhaseObjects;

struct Scenario {
  std::unique_ptr<Database> db;
  std::unique_ptr<ErpDataset> dataset;
};

Scenario BuildScenario(bool synchronized_merges) {
  Scenario scenario;
  scenario.db = std::make_unique<Database>();
  ErpConfig config;
  config.num_headers_main = g_initial_objects;
  config.num_categories = 50;
  scenario.dataset = std::make_unique<ErpDataset>(
      CheckOk(ErpDataset::Create(scenario.db.get(), config), "erp"));

  Rng rng(23);
  // Phase 1: new business objects arrive.
  for (size_t i = 0; i < g_phase_objects; ++i) {
    CheckOk(scenario.dataset->InsertBusinessObject(rng).status(), "insert");
  }
  // Merge: synchronized merges move Header and Item together; independent
  // merges move only the Item table (as when per-table thresholds trigger
  // merges at different times).
  if (synchronized_merges) {
    CheckOk(scenario.db->MergeTables({"Header", "Item"}), "merge");
  } else {
    CheckOk(scenario.db->Merge("Item"), "merge item");
  }
  // Phase 2: more objects arrive after the merge.
  for (size_t i = 0; i < g_phase_objects; ++i) {
    CheckOk(scenario.dataset->InsertBusinessObject(rng).status(), "insert");
  }
  return scenario;
}

void Run(BenchContext& ctx) {
  g_initial_objects = ctx.QuickOr<size_t>(1000, kInitialObjects);
  g_phase_objects = ctx.QuickOr<size_t>(200, kPhaseObjects);
  ctx.report().SetConfig("initial_objects",
                         static_cast<int64_t>(g_initial_objects));
  ctx.report().SetConfig("phase_objects",
                         static_cast<int64_t>(g_phase_objects));
  ctx.report().SetConfig("reps", static_cast<int64_t>(kReps));
  PrintBanner("Ablation: merge synchronization (Section 5.2)",
              "pruning success with synchronized vs independent merges",
              "synchronized merges of related tables maximize the pruning "
              "success rate; independent merges strand matching tuples "
              "across the main/delta boundary");

  ResultTable table({"merge_mode", "subjoins_pruned", "subjoins_total",
                     "success_rate_%", "full_pruning_ms",
                     "no_pruning_ms"});

  for (bool synchronized_merges : {true, false}) {
    Scenario scenario = BuildScenario(synchronized_merges);
    Database& db = *scenario.db;
    AggregateCacheManager cache(&db);
    AggregateQuery query = scenario.dataset->ProfitByCategoryQuery(2013);
    CheckOk(cache.Prewarm(query), "prewarm");

    CacheExecStats exec_stats;
    ExecutionOptions full;
    full.strategy = ExecutionStrategy::kCachedFullPruning;
    full.stats = &exec_stats;
    LatencyStats full_stats = MeasureMs(kReps, [&] {
      Transaction txn = db.Begin();
      CheckOk(cache.Execute(query, txn, full).status(), "full");
    });
    double full_ms = full_stats.median_ms;
    uint64_t pruned = exec_stats.subjoins_pruned;
    uint64_t total = pruned + exec_stats.subjoins_executed;

    ExecutionOptions no_pruning;
    no_pruning.strategy = ExecutionStrategy::kCachedNoPruning;
    LatencyStats no_pruning_stats = MeasureMs(kReps, [&] {
      Transaction txn = db.Begin();
      CheckOk(cache.Execute(query, txn, no_pruning).status(), "np");
    });
    double no_pruning_ms = no_pruning_stats.median_ms;

    const char* mode = synchronized_merges ? "synchronized" : "independent";
    ctx.report().AddLatency(
        "query_ms",
        {{"merge_mode", mode}, {"strategy", "cached-full-pruning"}},
        full_stats);
    ctx.report().AddLatency(
        "query_ms",
        {{"merge_mode", mode}, {"strategy", "cached-no-pruning"}},
        no_pruning_stats);
    ctx.report().AddScalar(
        "pruning_success_rate", {{"merge_mode", mode}},
        100.0 * static_cast<double>(pruned) / static_cast<double>(total),
        "percent");

    table.AddRow(
        {synchronized_merges ? "synchronized" : "independent",
         StrFormat("%llu", static_cast<unsigned long long>(pruned)),
         StrFormat("%llu", static_cast<unsigned long long>(total)),
         StrFormat("%.0f",
                   100.0 * static_cast<double>(pruned) /
                       static_cast<double>(total)),
         FormatMs(full_ms), FormatMs(no_pruning_ms)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  aggcache::bench::ApplyThreadsFlag(argc, argv);
  aggcache::BenchContext ctx(argc, argv, "ablation_merge_sync");
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
