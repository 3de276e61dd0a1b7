// Hot/cold data aging (Section 5.4): split header and item tables into a
// hot and a cold temperature class under a consistent aging definition,
// register the aging group, and watch the optimizer prune cross-temperature
// subjoins logically while per-temperature cache partials are maintained
// independently.

#include <cstdio>

#include "aggcache/aggcache.h"
#include "common/stopwatch.h"

namespace {

using namespace aggcache;  // NOLINT(build/namespaces) — example brevity.

}  // namespace

int main() {
  Database db;
  ErpConfig config;
  config.num_headers_main = 8000;
  config.num_categories = 20;
  auto dataset_or = ErpDataset::Create(&db, config);
  if (!dataset_or.ok()) return 1;
  ErpDataset dataset = std::move(dataset_or).value();

  // Age the oldest 3/4 of the business objects into cold partitions. Both
  // tables split on the same HeaderID boundary, so matching header and item
  // rows always share a temperature — a consistent aging definition.
  const int64_t cold_below = 6000;
  if (!dataset.header()->SplitHotCold("HeaderID", Value(cold_below)).ok()) {
    return 1;
  }
  if (!dataset.item()->SplitHotCold("HeaderID", Value(cold_below)).ok()) {
    return 1;
  }
  db.RegisterAgingGroup({"Header", "Item"});

  for (const char* name : {"Header", "Item"}) {
    const Table* table = db.GetTable(name).value();
    std::printf("%s: ", name);
    for (size_t g = 0; g < table->num_groups(); ++g) {
      std::printf("%s main=%zu rows  ", AgeClassToString(table->group(g).age),
                  table->group(g).main.num_rows());
    }
    std::printf("\n");
  }

  // New business objects land in the hot deltas only.
  AggregateCacheManager cache(&db);
  Rng rng(3);
  for (int i = 0; i < 300; ++i) {
    if (!dataset.InsertBusinessObject(rng).ok()) return 1;
  }

  AggregateQuery query = dataset.RevenueByYearQuery();
  std::printf("\nQuery: %s\n\n", query.ToSql().c_str());

  // With two groups per table, the join has 4 x 4 = 16 subjoins, of which
  // 4 all-main combinations are cached; the aging group lets the pruner
  // drop the cross-temperature ones logically.
  for (ExecutionStrategy strategy :
       {ExecutionStrategy::kUncached, ExecutionStrategy::kCachedNoPruning,
        ExecutionStrategy::kCachedFullPruning}) {
    CacheExecStats stats;
    ExecutionOptions options;
    options.strategy = strategy;
    options.stats = &stats;
    Stopwatch watch;
    Transaction txn = db.Begin();
    auto result = cache.Execute(query, txn, options);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%-22s %8.3f ms  (%llu subjoins executed, %llu pruned)\n",
                ExecutionStrategyToString(strategy), watch.ElapsedMillis(),
                static_cast<unsigned long long>(stats.subjoins_executed),
                static_cast<unsigned long long>(stats.subjoins_pruned));
  }

  // The cache entry keeps one partial result per all-main combination;
  // merging the hot group only touches the partials that involve it.
  const CacheEntry* entry = cache.Find(query);
  if (entry == nullptr) return 1;
  std::printf("\ncache entry holds %zu per-temperature partial results\n",
              entry->main_partials().size());
  if (!db.MergeTables({"Header", "Item"}).ok()) return 1;
  Transaction txn = db.Begin();
  auto after_merge = cache.Execute(query, txn);
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto baseline = cache.Execute(query, txn, uncached);
  if (!after_merge.ok() || !baseline.ok()) return 1;
  bool equal = after_merge->ApproxEquals(*baseline, 1e-9);
  std::printf("after merge, cached == uncached: %s\n", equal ? "yes" : "NO");
  return equal ? 0 : 1;
}
