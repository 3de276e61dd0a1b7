// Cache management internals: entry metrics (the profit model of Fig. 2),
// admission control, and profit-based eviction — the machinery behind the
// paper's dynamic cache admission and eviction decisions.

#include <cstdio>

#include "aggcache/aggcache.h"

namespace {

using namespace aggcache;  // NOLINT(build/namespaces) — example brevity.

void PrintEntry(const AggregateCacheManager& cache,
                const AggregateQuery& query, const char* label) {
  const CacheEntry* entry = cache.Find(query);
  if (entry == nullptr) {
    std::printf("  %-12s (not cached)\n", label);
    return;
  }
  const CacheEntryMetrics& m = entry->metrics();
  std::printf(
      "  %-12s size=%-9zu hits=%-4llu build=%.3fms avg_delta=%.3fms "
      "maint=%.3fms profit=%.3f\n",
      label, static_cast<size_t>(m.size_bytes),
      static_cast<unsigned long long>(m.hit_count),
      static_cast<double>(m.main_exec_ms), m.AvgDeltaCompMs(),
      static_cast<double>(m.maintenance_ms), m.Profit());
}

}  // namespace

int main() {
  Database db;
  ErpConfig config;
  config.num_headers_main = 5000;
  config.num_categories = 30;
  auto dataset_or = ErpDataset::Create(&db, config);
  if (!dataset_or.ok()) return 1;
  ErpDataset dataset = std::move(dataset_or).value();

  // A small cache: at most two entries, everything admitted.
  AggregateCacheManager::Config cache_config;
  cache_config.max_entries = 2;
  AggregateCacheManager cache(&db, cache_config);

  AggregateQuery profit_2013 = dataset.ProfitByCategoryQuery(2013);
  AggregateQuery profit_2014 = dataset.ProfitByCategoryQuery(2014);
  AggregateQuery revenue = dataset.RevenueByYearQuery();

  // Use the 2013 query often, the 2014 query once.
  Transaction txn = db.Begin();
  for (int i = 0; i < 5; ++i) {
    if (!cache.Execute(profit_2013, txn).ok()) return 1;
  }
  if (!cache.Execute(profit_2014, txn).ok()) return 1;

  std::printf("entries after warm-up (%zu / max 2, %zu bytes total):\n",
              cache.num_entries(), cache.total_bytes());
  PrintEntry(cache, profit_2013, "2013-profit");
  PrintEntry(cache, profit_2014, "2014-profit");

  // A third query forces an eviction; the least profitable entry (the
  // single-use 2014 query) goes.
  if (!cache.Execute(revenue, txn).ok()) return 1;
  std::printf("\nafter caching a third aggregate (eviction ran):\n");
  PrintEntry(cache, profit_2013, "2013-profit");
  PrintEntry(cache, profit_2014, "2014-profit");
  PrintEntry(cache, revenue, "revenue");

  // Admission control: a manager with a high profitability bar refuses to
  // store cheap aggregates and falls back to uncached execution.
  AggregateCacheManager::Config picky_config;
  picky_config.min_main_exec_ms = 1e6;
  AggregateCacheManager picky(&db, picky_config);
  CacheExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  if (!picky.Execute(profit_2013, txn, options).ok()) return 1;
  std::printf("\npicky cache admitted %zu entries (used_cache=%d)\n",
              picky.num_entries(), stats.used_cache);

  // Queries with non-self-maintainable aggregates never qualify (Fig. 3's
  // "qualifies for aggregate cache" gate).
  AggregateQuery minmax = QueryBuilder()
                              .From("Item")
                              .GroupBy("Item", "CategoryID")
                              .Max("Item", "Price", "max_price")
                              .Build();
  if (!cache.Execute(minmax, txn, options).ok()) return 1;
  std::printf("MIN/MAX query executed without the cache (used_cache=%d)\n",
              stats.used_cache);
  return 0;
}
