// Quickstart: build a tiny ERP dataset, run the paper's Listing 1 profit
// query uncached and through the aggregate cache, insert new business
// objects, and watch delta compensation and the delta merge keep results
// consistent.

#include <cstdio>

#include "aggcache/aggcache.h"

namespace {

using aggcache::AggregateCacheManager;
using aggcache::AggregateQuery;
using aggcache::AggregateResult;
using aggcache::CacheExecStats;
using aggcache::Database;
using aggcache::ErpConfig;
using aggcache::ErpDataset;
using aggcache::ExecutionOptions;
using aggcache::ExecutionStrategy;
using aggcache::Rng;
using aggcache::Transaction;
using aggcache::Value;

void PrintResult(const char* title, const AggregateQuery& query,
                 const AggregateResult& result) {
  std::printf("%s\n", title);
  for (const std::vector<Value>& row : result.Rows(
           query.AggregateFunctions())) {
    std::printf(" ");
    for (const Value& v : row) std::printf(" %-14s", v.ToString().c_str());
    std::printf("\n");
  }
}

}  // namespace

int main() {
  Database db;
  ErpConfig config;
  config.num_headers_main = 500;
  config.num_categories = 5;
  auto dataset_or = ErpDataset::Create(&db, config);
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "dataset: %s\n",
                 dataset_or.status().ToString().c_str());
    return 1;
  }
  ErpDataset dataset = std::move(dataset_or).value();

  AggregateCacheManager cache(&db);
  AggregateQuery query = dataset.ProfitByCategoryQuery(2013);
  std::printf("Query: %s\n\n", query.ToSql().c_str());

  // First execution: cache miss, entry is built on the main partitions.
  {
    Transaction txn = db.Begin();
    CacheExecStats stats;
    ExecutionOptions options;
    options.stats = &stats;
    auto result = cache.Execute(query, txn, options);
    if (!result.ok()) {
      std::fprintf(stderr, "execute: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    PrintResult("Initial result (cache miss, entry created):", query,
                result.value());
    std::printf("  [entry_created=%d, cache entries=%zu]\n\n",
                stats.entry_created, cache.num_entries());
  }

  // Insert new business objects; they land in the delta partitions only.
  Rng rng(2024);
  for (int i = 0; i < 50; ++i) {
    auto inserted = dataset.InsertBusinessObject(rng);
    if (!inserted.ok()) {
      std::fprintf(stderr, "insert: %s\n",
                   inserted.status().ToString().c_str());
      return 1;
    }
  }

  // Second execution: cache hit; the delta is compensated on the fly and
  // the object-aware pruning skips the main x delta subjoins.
  {
    Transaction txn = db.Begin();
    CacheExecStats stats;
    ExecutionOptions options;
    options.strategy = ExecutionStrategy::kCachedFullPruning;
    options.stats = &stats;
    auto result = cache.Execute(query, txn, options);
    if (!result.ok()) return 1;
    PrintResult("After 50 new business objects (cache hit + compensation):",
                query, result.value());
    std::printf("  [cache_hit=%d, subjoins executed=%llu, pruned=%llu]\n\n",
                stats.cache_hit,
                static_cast<unsigned long long>(stats.subjoins_executed),
                static_cast<unsigned long long>(stats.subjoins_pruned));
  }

  // Merge: deltas move into the mains; the cache entry is maintained
  // incrementally during the merge.
  auto merge_status = db.MergeTables({"Header", "Item", "ProductCategory"});
  if (!merge_status.ok()) return 1;
  {
    Transaction txn = db.Begin();
    auto result = cache.Execute(query, txn);
    if (!result.ok()) return 1;
    PrintResult("After delta merge (entry maintained incrementally):", query,
                result.value());

    // Cross-check against uncached execution.
    ExecutionOptions uncached;
    uncached.strategy = ExecutionStrategy::kUncached;
    auto baseline = cache.Execute(query, txn, uncached);
    if (!baseline.ok()) return 1;
    std::string diff;
    bool equal = result.value().ApproxEquals(baseline.value(), 1e-9, &diff);
    std::printf("\nCached result == uncached result: %s%s\n",
                equal ? "yes" : "NO — ", diff.c_str());
    return equal ? 0 : 1;
  }
}
