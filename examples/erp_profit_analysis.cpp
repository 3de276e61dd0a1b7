// ERP profit analysis: the paper's motivating scenario. A financial
// accounting dataset (header/item/category) answers the Listing 1 profit
// query while business objects keep arriving. The example compares the four
// execution strategies, shows how object-aware pruning reacts to temporal
// locality, and demonstrates what happens when late item inserts break it.

#include <cstdio>

#include "aggcache/aggcache.h"
#include "common/stopwatch.h"

namespace {

using namespace aggcache;  // NOLINT(build/namespaces) — example brevity.

struct StrategyRun {
  const char* label;
  ExecutionStrategy strategy;
};

void CompareStrategies(AggregateCacheManager& cache,
                       Database& db, const AggregateQuery& query) {
  const StrategyRun runs[] = {
      {"uncached", ExecutionStrategy::kUncached},
      {"cached, no pruning", ExecutionStrategy::kCachedNoPruning},
      {"cached, empty-delta pruning",
       ExecutionStrategy::kCachedEmptyDeltaPruning},
      {"cached, full pruning", ExecutionStrategy::kCachedFullPruning},
  };
  for (const StrategyRun& run : runs) {
    CacheExecStats stats;
    ExecutionOptions options;
    options.strategy = run.strategy;
    options.stats = &stats;
    Stopwatch watch;
    Transaction txn = db.Begin();
    auto result = cache.Execute(query, txn, options);
    if (!result.ok()) {
      std::fprintf(stderr, "  %s failed: %s\n", run.label,
                   result.status().ToString().c_str());
      return;
    }
    std::printf("  %-30s %8.3f ms   (%llu subjoins executed, %llu pruned)\n",
                run.label, watch.ElapsedMillis(),
                static_cast<unsigned long long>(stats.subjoins_executed),
                static_cast<unsigned long long>(stats.subjoins_pruned));
  }
}

}  // namespace

int main() {
  Database db;
  ErpConfig config;
  config.num_headers_main = 10000;
  config.num_categories = 50;
  auto dataset_or = ErpDataset::Create(&db, config);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset_or.status().ToString().c_str());
    return 1;
  }
  ErpDataset dataset = std::move(dataset_or).value();
  AggregateCacheManager cache(&db);
  AggregateQuery query = dataset.ProfitByCategoryQuery(2013);

  std::printf("Profit & loss analysis\n%s\n\n", query.ToSql().c_str());

  // Warm the cache, then compare strategies on a clean (merged) state.
  if (!cache.Prewarm(query).ok()) return 1;
  std::printf("1. Clean state — all deltas empty:\n");
  CompareStrategies(cache, db, query);

  // New business objects arrive transactionally (header + items together):
  // the temporal locality of Section 3.2.
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    if (!dataset.InsertBusinessObject(rng).ok()) return 1;
  }
  std::printf("\n2. After 1000 new business objects (perfect temporal "
              "locality — main x delta subjoins prune):\n");
  CompareStrategies(cache, db, query);

  // Late item additions attach items to old (merged) headers: temporal
  // locality is violated, the Header_main x Item_delta subjoin becomes
  // non-empty, and full pruning loses one of its prunes. Predicate
  // pushdown recovers part of the cost (Section 5.3).
  if (!dataset.InsertLateItems(rng, 200).ok()) return 1;
  std::printf("\n3. After 200 late item additions (locality violated):\n");
  CompareStrategies(cache, db, query);
  {
    ExecutionOptions options;
    options.strategy = ExecutionStrategy::kCachedFullPruning;
    options.use_predicate_pushdown = true;
    Stopwatch watch;
    Transaction txn = db.Begin();
    auto result = cache.Execute(query, txn, options);
    if (!result.ok()) return 1;
    std::printf("  %-30s %8.3f ms\n", "  + predicate pushdown",
                watch.ElapsedMillis());
  }

  // Synchronized delta merge: cache entries are maintained incrementally
  // and the pruning success rate is restored.
  if (!db.MergeTables({"Header", "Item", "ProductCategory"}).ok()) return 1;
  std::printf("\n4. After a synchronized delta merge:\n");
  CompareStrategies(cache, db, query);

  // Verify the final cached answer against uncached execution.
  Transaction txn = db.Begin();
  ExecutionOptions cached_opts;
  auto cached = cache.Execute(query, txn, cached_opts);
  ExecutionOptions uncached_opts;
  uncached_opts.strategy = ExecutionStrategy::kUncached;
  auto uncached = cache.Execute(query, txn, uncached_opts);
  if (!cached.ok() || !uncached.ok()) return 1;
  bool equal = cached->ApproxEquals(*uncached, 1e-9);
  std::printf("\ncached result == uncached result: %s\n",
              equal ? "yes" : "NO");
  return equal ? 0 : 1;
}
