#include "cache/aggregate_cache_manager.h"

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/engine_metrics.h"
#include "tests/test_util.h"
#include "verify/fault_injector.h"
#include "verify/oracle.h"

namespace aggcache {
namespace {

using testing_util::ExpectAllStrategiesAgree;

class CacheManagerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    cache_ = std::make_unique<AggregateCacheManager>(&db_);
    for (int64_t h = 1; h <= 10; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, h % 2 == 0 ? 2014 : 2013, 2, 10.0,
          &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  }

  /// Executes with `stats_` receiving the call's stats.
  StatusOr<AggregateResult> Execute(AggregateCacheManager& cache,
                                    const AggregateQuery& query,
                                    const Transaction& txn,
                                    ExecutionOptions options = {}) {
    options.stats = &stats_;
    return cache.Execute(query, txn, options);
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  std::unique_ptr<AggregateCacheManager> cache_;
  int64_t next_item_id_ = 1;
  AggregateQuery query_ = testing_util::HeaderItemQuery();
  CacheExecStats stats_;
};

TEST_F(CacheManagerTest, MissCreatesEntryHitReuses) {
  Transaction txn = db_.Begin();
  auto first = Execute(*cache_, query_, txn);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(stats_.entry_created);
  EXPECT_FALSE(stats_.cache_hit);
  EXPECT_EQ(cache_->num_entries(), 1u);

  auto second = Execute(*cache_, query_, txn);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(stats_.cache_hit);
  EXPECT_FALSE(stats_.entry_created);
  std::string diff;
  EXPECT_TRUE(first->ApproxEquals(*second, 1e-9, &diff)) << diff;
}

TEST_F(CacheManagerTest, CachedEqualsUncachedOnCleanState) {
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, CachedEqualsUncachedWithDeltaRows) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  for (int64_t h = 11; h <= 14; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2014, 3, 5.0, &next_item_id_));
  }
  Transaction txn = db_.Begin();
  ASSERT_OK(item_->Insert(
      txn, {Value(next_item_id_++), Value(int64_t{1}), Value(7.0)}));
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, FullPruningSkipsSubjoins) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 20,
                                               2014, 2, 1.0,
                                               &next_item_id_));
  // Each strategy's read starts from a cold delta memo, so it plans every
  // compensation combination.
  auto cold_memo = [&] {
    cache_->Clear();
    ASSERT_OK(cache_->Prewarm(query_));
  };
  Transaction txn = db_.Begin();
  ExecutionOptions no_pruning;
  no_pruning.strategy = ExecutionStrategy::kCachedNoPruning;
  cold_memo();
  ASSERT_TRUE(Execute(*cache_, query_, txn, no_pruning).ok());
  uint64_t subjoins_no_pruning = stats_.subjoins_executed;

  ExecutionOptions full;
  full.strategy = ExecutionStrategy::kCachedFullPruning;
  cold_memo();
  ASSERT_TRUE(Execute(*cache_, query_, txn, full).ok());
  uint64_t subjoins_full = stats_.subjoins_executed;
  EXPECT_EQ(subjoins_no_pruning, 3u);  // 2^2 - 1.
  EXPECT_EQ(subjoins_full, 1u);        // Only delta x delta.
  EXPECT_EQ(stats_.subjoins_pruned, 2u);
  // The memo-warm repeat of either strategy has nothing new to compensate.
  ASSERT_TRUE(Execute(*cache_, query_, txn, no_pruning).ok());
  EXPECT_EQ(stats_.subjoins_executed, 0u);
  EXPECT_EQ(stats_.subjoins_pruned, 0u);
}

TEST_F(CacheManagerTest, OlderReaderLeavesNewerInvalidationsPending) {
  // A reader whose snapshot predates one update but not another
  // compensates the entry while both invalidations are already in main. The
  // entry must still count the newer one as pending, or every later reader
  // sees that header's old version in the cached main result and its new
  // one in the delta.
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  Transaction seen = db_.Begin();
  ASSERT_OK(header_->UpdateColumnByPk(seen, Value(int64_t{3}), "FiscalYear",
                                      Value(int64_t{2014})));
  Transaction old_reader = db_.Begin();
  Transaction unseen = db_.Begin();
  ASSERT_OK(header_->UpdateColumnByPk(unseen, Value(int64_t{5}),
                                      "FiscalYear", Value(int64_t{2014})));
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto baseline = cache_->Execute(query_, old_reader, uncached);
  auto cached = Execute(*cache_, query_, old_reader);
  ASSERT_TRUE(baseline.ok() && cached.ok());
  EXPECT_TRUE(stats_.cache_hit);
  std::string diff;
  EXPECT_TRUE(cached->ApproxEquals(*baseline, 1e-9, &diff)) << diff;
  EXPECT_TRUE(cache_->Find(query_)->IsDirty());
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, MainCompensationAfterDelete) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  // Delete a header (its items become dangling but the join drops them).
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{1})));
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, SingleTableMainCompensationIsIncremental) {
  AggregateQuery single = QueryBuilder()
                              .From("Item")
                              .GroupBy("Item", "HeaderID")
                              .Sum("Item", "Amount", "total")
                              .CountStar("n")
                              .Build();
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, single, warm).ok());
  // Delete two items from main.
  Transaction txn = db_.Begin();
  ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{1})));
  ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{2})));
  Transaction query_txn = db_.Begin();
  auto result = Execute(*cache_, single, query_txn);
  ASSERT_TRUE(result.ok());
  // Single-table entries are compensated, not rebuilt.
  EXPECT_FALSE(stats_.entry_rebuilt);
  EXPECT_GT(stats_.main_comp_ms, 0.0);
  ExpectAllStrategiesAgree(&db_, cache_.get(), single);
}

TEST_F(CacheManagerTest, FilteredSingleTableEntryCorrectedAtEveryPoolSize) {
  // Main items on both sides of the filter: the fixture's 10.0 items pass,
  // one 5.0 item per header (ids 21..30, header h gets id 20 + h) fails.
  for (int64_t h = 1; h <= 10; ++h) {
    Transaction txn = db_.Begin();
    ASSERT_OK(item_->Insert(txn, {Value(int64_t{20 + h}), Value(h), Value(5.0)}));
  }
  ASSERT_OK(db_.MergeTables({"Item"}));
  next_item_id_ = 31;
  AggregateQuery single = QueryBuilder()
                              .From("Item")
                              .Filter("Item", "Amount", CompareOp::kGt,
                                      Value(7.0))
                              .GroupBy("Item", "HeaderID")
                              .Sum("Item", "Amount", "total")
                              .CountStar("n")
                              .Build();
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, single, warm).ok());

  for (int64_t round : {0, 1}) {
    ThreadPool::SetGlobalParallelism(round == 0 ? 1 : 4);
    Transaction txn = db_.Begin();
    // Passing -> failing, failing -> passing, and one delete on each side.
    ASSERT_OK(item_->UpdateColumnByPk(txn, Value(int64_t{1 + 4 * round}),
                                      "Amount", Value(4.0)));
    ASSERT_OK(item_->UpdateColumnByPk(txn, Value(int64_t{21 + round}),
                                      "Amount", Value(12.0)));
    ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{3 + 4 * round})));
    ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{23 + round})));
    // Fresh delta rows on both sides of the filter.
    ASSERT_OK(item_->Insert(
        txn, {Value(next_item_id_++), Value(int64_t{2}), Value(8.0)}));
    ASSERT_OK(item_->Insert(
        txn, {Value(next_item_id_++), Value(int64_t{2}), Value(6.0)}));

    Transaction query_txn = db_.Begin();
    ASSERT_TRUE(Execute(*cache_, single, query_txn).ok());
    EXPECT_FALSE(stats_.entry_rebuilt) << "round " << round;
    EXPECT_GT(stats_.main_comp_ms, 0.0) << "round " << round;
    ExpectAllStrategiesAgree(&db_, cache_.get(), single);
  }
  ThreadPool::SetGlobalParallelism(1);
}

TEST_F(CacheManagerTest, JoinEntryCompensatedIncrementallyByDefault) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->UpdateByPk(txn, Value(int64_t{2}),
                                {Value(int64_t{2}), Value(int64_t{2013})}));
  Transaction query_txn = db_.Begin();
  auto result = Execute(*cache_, query_, query_txn);
  ASSERT_TRUE(result.ok());
  // The default config corrects the entry via negative-delta joins, no
  // rebuild (the Section 8 extension).
  EXPECT_FALSE(stats_.entry_rebuilt);
  EXPECT_GT(stats_.main_comp_ms, 0.0);
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, JoinEntryRebuiltWhenIncrementalDisabled) {
  AggregateCacheManager::Config config;
  config.incremental_join_main_compensation = false;
  AggregateCacheManager rebuild_cache(&db_, config);
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(rebuild_cache, query_, warm).ok());
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->UpdateByPk(txn, Value(int64_t{2}),
                                {Value(int64_t{2}), Value(int64_t{2013})}));
  Transaction query_txn = db_.Begin();
  auto result = Execute(rebuild_cache, query_, query_txn);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats_.entry_rebuilt);
  ExpectAllStrategiesAgree(&db_, &rebuild_cache, query_);
}

TEST_F(CacheManagerTest, IncrementalAndRebuildCompensationAgree) {
  AggregateCacheManager::Config rebuild_config;
  rebuild_config.incremental_join_main_compensation = false;
  AggregateCacheManager rebuild_cache(&db_, rebuild_config);
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  ASSERT_TRUE(Execute(rebuild_cache, query_, warm).ok());

  // A batch of updates and deletes on both join sides.
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->UpdateByPk(txn, Value(int64_t{1}),
                                {Value(int64_t{1}), Value(int64_t{2014})}));
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{3})));
  ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{5})));
  ASSERT_OK(item_->DeleteByPk(txn, Value(int64_t{6})));

  Transaction query_txn = db_.Begin();
  auto incremental = Execute(*cache_, query_, query_txn);
  auto rebuilt = Execute(rebuild_cache, query_, query_txn);
  ASSERT_TRUE(incremental.ok() && rebuilt.ok());
  std::string diff;
  EXPECT_TRUE(incremental->ApproxEquals(*rebuilt, 1e-9, &diff)) << diff;
}

TEST_F(CacheManagerTest, MergeMaintainsEntryIncrementally) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  for (int64_t h = 30; h <= 32; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2013, 2, 4.0, &next_item_id_));
  }
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  // Entry was maintained during the merge: using it is a plain hit with no
  // rebuild, and the result matches uncached execution.
  Transaction txn = db_.Begin();
  auto result = Execute(*cache_, query_, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats_.cache_hit);
  EXPECT_FALSE(stats_.entry_rebuilt);
  const CacheEntry* entry = cache_->Find(query_);
  ASSERT_NE(entry, nullptr);
  EXPECT_GT(entry->metrics().maintenance_ms, 0.0);
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, EntryBuiltAtOldSnapshotSeesLaterMainChanges) {
  // A reader whose snapshot predates a main change (rows merged in, or a
  // main row deleted) misses first: the entry it builds must still be
  // exact for every later reader.
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto expect_exact = [&](const Transaction& old_reader) {
    cache_->Clear();
    auto old_result = Execute(*cache_, query_, old_reader);
    ASSERT_TRUE(old_result.ok()) << old_result.status();
    EXPECT_TRUE(stats_.entry_created);
    EXPECT_FALSE(stats_.used_cache) << "the caller is older than the entry";
    auto old_baseline = cache_->Execute(query_, old_reader, uncached);
    ASSERT_TRUE(old_baseline.ok());
    EXPECT_TRUE(old_result->ApproxEquals(*old_baseline));

    Transaction reader = db_.Begin();
    auto result = Execute(*cache_, query_, reader);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(stats_.cache_hit);
    auto baseline = cache_->Execute(query_, reader, uncached);
    ASSERT_TRUE(baseline.ok());
    std::string diff;
    EXPECT_TRUE(result->ApproxEquals(*baseline, 1e-9, &diff)) << diff;
  };

  Transaction before_merge = db_.Begin();
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 40,
                                               2013, 3, 2.0, &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  expect_exact(before_merge);

  Transaction before_delete = db_.Begin();
  Transaction writer = db_.Begin();
  ASSERT_OK(item_->DeleteByPk(writer, Value(int64_t{1})));
  expect_exact(before_delete);
}

TEST_F(CacheManagerTest, MergeWithKeepInvalidated) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{3})));
  MergeOptions keep;
  keep.keep_invalidated = true;
  ASSERT_OK(db_.Merge("Header", keep));
  ASSERT_OK(db_.Merge("Item", keep));
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, NonCacheableQueryFallsBack) {
  AggregateQuery minmax = QueryBuilder()
                              .From("Item")
                              .GroupBy("Item", "HeaderID")
                              .Max("Item", "Amount", "m")
                              .Build();
  Transaction txn = db_.Begin();
  auto result = Execute(*cache_, minmax, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(stats_.used_cache);
  EXPECT_EQ(cache_->num_entries(), 0u);
}

TEST_F(CacheManagerTest, AdmissionRejectsCheapAggregates) {
  AggregateCacheManager::Config config;
  config.min_main_exec_ms = 1e9;  // Nothing is ever this expensive.
  AggregateCacheManager picky(&db_, config);
  Transaction txn = db_.Begin();
  auto result = Execute(picky, query_, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(picky.num_entries(), 0u);
  EXPECT_FALSE(stats_.used_cache);
  // The result is still correct.
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto baseline = Execute(picky, query_, txn, uncached);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(result->ApproxEquals(*baseline));
}

TEST_F(CacheManagerTest, EvictionRespectsMaxEntries) {
  AggregateCacheManager::Config config;
  config.max_entries = 2;
  AggregateCacheManager small(&db_, config);
  Transaction txn = db_.Begin();
  for (int64_t year : {2013, 2014, 2015}) {
    AggregateQuery q = QueryBuilder()
                           .From("Header")
                           .Join("Item", "HeaderID", "HeaderID")
                           .Filter("Header", "FiscalYear", CompareOp::kEq,
                                   Value(year))
                           .GroupBy("Header", "FiscalYear")
                           .Sum("Item", "Amount", "s")
                           .Build();
    ASSERT_TRUE(small.Execute(q, txn).ok());
  }
  EXPECT_EQ(small.num_entries(), 2u);
}

TEST_F(CacheManagerTest, ClearRemovesEntries) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  EXPECT_EQ(cache_->num_entries(), 1u);
  EXPECT_GT(cache_->total_bytes(), 0u);
  cache_->Clear();
  EXPECT_EQ(cache_->num_entries(), 0u);
  EXPECT_EQ(cache_->total_bytes(), 0u);
}

TEST_F(CacheManagerTest, PrewarmBuildsEntry) {
  ASSERT_OK(cache_->Prewarm(query_));
  EXPECT_EQ(cache_->num_entries(), 1u);
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  EXPECT_TRUE(stats_.cache_hit);
}

TEST_F(CacheManagerTest, PrewarmRejectsNonCacheable) {
  AggregateQuery minmax = QueryBuilder()
                              .From("Item")
                              .GroupBy("Item", "HeaderID")
                              .Min("Item", "Amount", "m")
                              .Build();
  EXPECT_FALSE(cache_->Prewarm(minmax).ok());
}

TEST_F(CacheManagerTest, EntryRebuiltAfterHotColdSplit) {
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{6})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{6})));
  db_.RegisterAgingGroup({"Header", "Item"});
  Transaction txn = db_.Begin();
  auto result = Execute(*cache_, query_, txn);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(stats_.entry_rebuilt);
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
}

TEST_F(CacheManagerTest, MetricsAccumulate) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  const CacheEntry* entry = cache_->Find(query_);
  ASSERT_NE(entry, nullptr);
  // The first Execute is the miss that created the entry; only the second
  // is a hit that exercises delta compensation for profit accounting.
  EXPECT_EQ(entry->metrics().delta_comp_count, 1u);
  EXPECT_EQ(entry->metrics().hit_count, 1u);
  EXPECT_GT(entry->metrics().size_bytes, 0u);
  EXPECT_GT(entry->metrics().main_rows_aggregated, 0u);
}

TEST_F(CacheManagerTest, ColdExecuteLeavesHitCountZero) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  ASSERT_TRUE(stats_.entry_created);
  const CacheEntry* entry = cache_->Find(query_);
  ASSERT_NE(entry, nullptr);
  // The miss that created the entry saved nothing: it must not be credited
  // as a hit, nor may its compensation time skew AvgDeltaCompMs().
  EXPECT_EQ(entry->metrics().hit_count, 0u);
  EXPECT_EQ(entry->metrics().delta_comp_count, 0u);
  EXPECT_EQ(entry->metrics().total_delta_comp_ms, 0.0);
}

TEST_F(CacheManagerTest, CreateAndRebuildSurfaceMainExecMs) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  ASSERT_TRUE(stats_.entry_created);
  EXPECT_GT(stats_.main_exec_ms, 0.0);

  // A hot/cold split changes the partition layout, forcing the rebuild path
  // of GetOrCreateEntry; callers must see the build cost there too.
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{6})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{6})));
  db_.RegisterAgingGroup({"Header", "Item"});
  Transaction txn2 = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn2).ok());
  ASSERT_TRUE(stats_.entry_rebuilt);
  EXPECT_GT(stats_.main_exec_ms, 0.0);
}

TEST_F(CacheManagerTest, EvictionByteAccountingMatchesRecomputation) {
  AggregateCacheManager::Config config;
  config.max_bytes = 1;  // Every insertion triggers an eviction storm.
  AggregateCacheManager small(&db_, config);
  Transaction txn = db_.Begin();
  for (int64_t year : {2013, 2014, 2015}) {
    AggregateQuery q = QueryBuilder()
                           .From("Header")
                           .Join("Item", "HeaderID", "HeaderID")
                           .Filter("Header", "FiscalYear", CompareOp::kEq,
                                   Value(year))
                           .GroupBy("Header", "FiscalYear")
                           .Sum("Item", "Amount", "s")
                           .Build();
    ASSERT_TRUE(small.Execute(q, txn).ok());
    EXPECT_EQ(small.total_bytes(), small.RecomputeTotalBytes());
  }
  // The byte budget keeps exactly the one unevictable entry alive.
  EXPECT_EQ(small.num_entries(), 1u);
  EXPECT_EQ(small.total_bytes(), small.RecomputeTotalBytes());

  // Mutations that resize resident entries keep the running total in step.
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 40,
                                               2015, 2, 3.0,
                                               &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  EXPECT_EQ(small.total_bytes(), small.RecomputeTotalBytes());
}

TEST_F(CacheManagerTest, MergeSkipsEntriesNotReferencingMergedTable) {
  // An entry on an unrelated table must not be bound or maintained when
  // Header/Item merge.
  auto other_or = db_.CreateTable(SchemaBuilder("Other")
                                      .AddColumn("K", ColumnType::kInt64)
                                      .PrimaryKey()
                                      .AddColumn("V", ColumnType::kInt64)
                                      .Build());
  ASSERT_TRUE(other_or.ok()) << other_or.status();
  Table* other = other_or.value();
  Transaction setup = db_.Begin();
  ASSERT_OK(other->Insert(setup, {Value(int64_t{1}), Value(int64_t{7})}));
  AggregateQuery other_query = QueryBuilder()
                                   .From("Other")
                                   .GroupBy("Other", "K")
                                   .Sum("Other", "V", "s")
                                   .Build();
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, other_query, warm).ok());
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());

  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 50,
                                               2014, 2, 2.0,
                                               &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));

  const CacheEntry* other_entry = cache_->Find(other_query);
  ASSERT_NE(other_entry, nullptr);
  EXPECT_EQ(other_entry->metrics().maintenance_ms, 0.0);
  EXPECT_EQ(other_entry->metrics().maintenance_failures, 0u);
  ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
  ExpectAllStrategiesAgree(&db_, cache_.get(), other_query);
}

TEST_F(CacheManagerTest, MergingAnUnreferencedTableLeavesEveryEntryUntouched) {
  auto other_or = db_.CreateTable(SchemaBuilder("Other")
                                      .AddColumn("K", ColumnType::kInt64)
                                      .PrimaryKey()
                                      .AddColumn("V", ColumnType::kInt64)
                                      .Build());
  ASSERT_TRUE(other_or.ok()) << other_or.status();
  AggregateQuery header_query = QueryBuilder()
                                    .From("Header")
                                    .GroupBy("Header", "FiscalYear")
                                    .CountStar("n")
                                    .Build();
  Transaction warm = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, warm).ok());
  ASSERT_TRUE(Execute(*cache_, header_query, warm).ok());
  const CacheEntry* entries[] = {cache_->Find(query_),
                                 cache_->Find(header_query)};
  ASSERT_NE(entries[0], nullptr);
  ASSERT_NE(entries[1], nullptr);
  const Tid base_tids[] = {entries[0]->base_tid(), entries[1]->base_tid()};

  Transaction write = db_.Begin();
  ASSERT_OK(other_or.value()->Insert(write,
                                     {Value(int64_t{1}), Value(int64_t{7})}));
  // Any maintenance step run on an entry would fail and mark it.
  for (const char* point :
       {"maintenance.compensate", "maintenance.fold"}) {
    FaultInjector::Global().Arm(point, {/*probability=*/1.0});
  }
  Status merged = db_.Merge("Other");
  FaultInjector::Global().DisarmAll();
  FaultInjector::Global().ResetCounters();
  ASSERT_OK(merged);

  const AggregateQuery* queries[] = {&query_, &header_query};
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE(queries[i]->ToSql());
    EXPECT_EQ(entries[i]->metrics().maintenance_ms, 0.0);
    EXPECT_EQ(entries[i]->metrics().maintenance_failures, 0u);
    EXPECT_FALSE(entries[i]->needs_rebuild());
    EXPECT_EQ(entries[i]->base_tid(), base_tids[i]);
    Transaction read = db_.Begin();
    ASSERT_TRUE(Execute(*cache_, *queries[i], read).ok());
    EXPECT_TRUE(stats_.cache_hit);
    EXPECT_FALSE(stats_.entry_rebuilt);
  }
}

// --- Exact cache keys -------------------------------------------------------

// Two filters a hair either side of a real price are different queries. A
// key that rendered doubles with 6 significant digits gave both one entry,
// so the second query was answered with the first one's cached groups.
TEST_F(CacheManagerTest, NearbyDoubleFiltersGetTheirOwnEntries) {
  const double price = 12.34;
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 30, 2014,
                                               3, price, &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  AggregateQuery below = query_;
  below.filters.push_back(
      FilterPredicate{1, "Amount", CompareOp::kGt, Value(price - 1e-9)});
  AggregateQuery above = query_;
  above.filters.push_back(
      FilterPredicate{1, "Amount", CompareOp::kGt, Value(price + 1e-9)});
  ASSERT_NE(MakeCacheKey(below).canonical, MakeCacheKey(above).canonical);

  Transaction txn = db_.Begin();
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  for (const AggregateQuery* q : {&below, &above}) {
    auto cached = Execute(*cache_, *q, txn);
    ASSERT_TRUE(cached.ok()) << cached.status();
    EXPECT_TRUE(stats_.entry_created);
    auto expected = cache_->Execute(*q, txn, uncached);
    ASSERT_TRUE(expected.ok()) << expected.status();
    std::string diff;
    EXPECT_TRUE(cached->ApproxEquals(*expected, 1e-9, &diff)) << diff;
  }
  EXPECT_EQ(cache_->num_entries(), 2u);
}

// A string literal that spells out the rendering of two filters must not
// share the entry of the two-filter query.
TEST_F(CacheManagerTest, CraftedStringLiteralDoesNotShareTwoFilterEntry) {
  ASSERT_OK_AND_ASSIGN(Table * tag,
                       db_.CreateTable(SchemaBuilder("Tag")
                                           .AddColumn("TagID",
                                                      ColumnType::kInt64)
                                           .PrimaryKey()
                                           .AddColumn("Lang",
                                                      ColumnType::kString)
                                           .AddColumn("Region",
                                                      ColumnType::kString)
                                           .Build()));
  const std::string crafted = "ENG'|F:t0.Region = 'X";
  Transaction load = db_.Begin();
  ASSERT_OK(tag->Insert(load, {Value(int64_t{1}), Value("ENG"), Value("X")}));
  ASSERT_OK(tag->Insert(load, {Value(int64_t{2}), Value("ENG"), Value("X")}));
  ASSERT_OK(tag->Insert(load, {Value(int64_t{3}), Value(crafted), Value("Y")}));
  ASSERT_OK(db_.Merge("Tag"));

  AggregateQuery one_filter = QueryBuilder()
                                  .From("Tag")
                                  .Filter("Tag", "Lang", CompareOp::kEq,
                                          Value(crafted))
                                  .GroupBy("Tag", "Lang")
                                  .CountStar("n")
                                  .Build();
  AggregateQuery two_filters = QueryBuilder()
                                   .From("Tag")
                                   .Filter("Tag", "Lang", CompareOp::kEq,
                                           Value("ENG"))
                                   .Filter("Tag", "Region", CompareOp::kEq,
                                           Value("X"))
                                   .GroupBy("Tag", "Lang")
                                   .CountStar("n")
                                   .Build();
  ASSERT_NE(MakeCacheKey(one_filter).canonical,
            MakeCacheKey(two_filters).canonical);
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, one_filter, txn).ok());
  ExpectAllStrategiesAgree(&db_, cache_.get(), one_filter);
  ExpectAllStrategiesAgree(&db_, cache_.get(), two_filters);
}

// --- The published main result -----------------------------------------------

std::vector<std::vector<Value>> RowsOf(const AggregateResult& result) {
  return result.Rows({AggregateFunction::kSum, AggregateFunction::kCountStar});
}

/// The entry's published result must equal a fresh union of its partials.
void ExpectPublishedMatchesPartials(const CacheEntry& entry) {
  AggregateResult fresh(entry.query().aggregates.size());
  for (const auto& [combo, partial] : entry.main_partials()) {
    fresh.MergeFrom(partial);
  }
  std::string diff;
  EXPECT_TRUE(entry.main_result().ApproxEquals(fresh, 0.0, &diff)) << diff;
}

TEST_F(CacheManagerTest, MutatingAHitDoesNotChangeTheNextHit) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  auto first = Execute(*cache_, query_, txn);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(stats_.cache_hit);
  const auto expected = RowsOf(*first);

  AggregateResult extra(2);
  extra.Accumulate(GroupKey{{Value(int64_t{2013})}},
                   {Value(100.0), Value(int64_t{0})});
  extra.Accumulate(GroupKey{{Value(int64_t{1999})}},
                   {Value(1.0), Value(int64_t{0})});
  first->MergeFrom(extra);
  auto second = Execute(*cache_, query_, txn);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(RowsOf(*second), expected);

  AggregateResult all = *second;
  ASSERT_OK(second->SubtractFrom(all));  // Empties the caller's copy.
  EXPECT_TRUE(second->empty());
  auto third = Execute(*cache_, query_, txn);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(RowsOf(*third), expected);
  ExpectPublishedMatchesPartials(*cache_->Find(query_));
}

TEST_F(CacheManagerTest, ResultTakenBeforeMaintenanceKeepsItsGroups) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  auto held = Execute(*cache_, query_, txn);
  ASSERT_TRUE(held.ok());
  const auto held_rows = RowsOf(*held);
  auto expect_maintained = [&](const char* what) {
    SCOPED_TRACE(what);
    ExpectAllStrategiesAgree(&db_, cache_.get(), query_);
    const CacheEntry* entry = cache_->Find(query_);
    ASSERT_NE(entry, nullptr);
    ExpectPublishedMatchesPartials(*entry);
    EXPECT_EQ(RowsOf(*held), held_rows);
  };

  // Merge fold: the merging delta is folded into the partials.
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 11, 2013,
                                               2, 3.0, &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  expect_maintained("merge fold");

  // Main correction: a header in main is deleted.
  Transaction del = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(del, Value(int64_t{1})));
  Transaction after_delete = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, after_delete).ok());
  EXPECT_FALSE(stats_.entry_rebuilt);
  expect_maintained("main correction");

  // Hot/cold split: the entry's shape changes and it is rebuilt.
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{6})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{6})));
  db_.RegisterAgingGroup({"Header", "Item"});
  Transaction after_split = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, after_split).ok());
  EXPECT_TRUE(stats_.entry_rebuilt);
  expect_maintained("hot/cold rebuild");
}

TEST_F(CacheManagerTest, StrategyNames) {
  EXPECT_STREQ(ExecutionStrategyToString(ExecutionStrategy::kUncached),
               "uncached");
  EXPECT_STREQ(
      ExecutionStrategyToString(ExecutionStrategy::kCachedNoPruning),
      "cached-no-pruning");
  EXPECT_STREQ(
      ExecutionStrategyToString(ExecutionStrategy::kCachedEmptyDeltaPruning),
      "cached-empty-delta-pruning");
  EXPECT_STREQ(
      ExecutionStrategyToString(ExecutionStrategy::kCachedFullPruning),
      "cached-full-pruning");
}

// --- Delta memo (DESIGN.md §6c) ---------------------------------------------

/// Differential steps for the delta memo: after each, every cached strategy
/// x pushdown x thread count agrees with uncached execution and with the
/// oracle, and the traced read names the memo's verdict.
class DeltaMemoTest : public CacheManagerTest {
 protected:
  void TearDown() override { ThreadPool::SetGlobalParallelism(1); }

  Status InsertObject(int64_t header_id, int num_items = 2) {
    return testing_util::InsertBusinessObject(&db_, header_, item_, header_id,
                                              2013 + header_id % 2, num_items,
                                              1.25 * header_id,
                                              &next_item_id_);
  }

  /// Every cached strategy x pushdown at 1 and 4 threads, at `txn`, against
  /// uncached execution and the oracle.
  void ExpectAgrees(const Transaction& txn) {
    ASSERT_OK_AND_ASSIGN(AggregateResult oracle,
                         OracleExecute(db_, query_, txn.snapshot()));
    ExecutionOptions uncached;
    uncached.strategy = ExecutionStrategy::kUncached;
    ASSERT_OK_AND_ASSIGN(AggregateResult baseline,
                         cache_->Execute(query_, txn, uncached));
    const std::vector<AggregateFunction> functions = {AggregateFunction::kSum,
                                                      AggregateFunction::kCountStar};
    for (size_t threads : {1, 4}) {
      ThreadPool::SetGlobalParallelism(threads);
      for (ExecutionStrategy strategy :
           {ExecutionStrategy::kCachedNoPruning,
            ExecutionStrategy::kCachedEmptyDeltaPruning,
            ExecutionStrategy::kCachedFullPruning}) {
        for (bool pushdown : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << ExecutionStrategyToString(strategy)
                       << " pushdown=" << pushdown << " threads=" << threads);
          ExecutionOptions options;
          options.strategy = strategy;
          options.use_predicate_pushdown = pushdown;
          ASSERT_OK_AND_ASSIGN(AggregateResult result,
                               cache_->Execute(query_, txn, options));
          std::string diff;
          EXPECT_TRUE(result.ApproxEquals(baseline, 1e-9, &diff)) << diff;
          std::optional<std::string> oracle_diff =
              DiffResults(oracle, result, functions);
          EXPECT_FALSE(oracle_diff.has_value()) << *oracle_diff;
        }
      }
    }
    ThreadPool::SetGlobalParallelism(1);
  }
  void ExpectAgrees() { ExpectAgrees(db_.Begin()); }

  /// One traced full-pruning read at `txn`.
  QueryTrace TracedRead(const Transaction& txn) {
    QueryTrace trace;
    ExecutionOptions options;
    options.trace = &trace;
    options.stats = &stats_;
    EXPECT_TRUE(cache_->Execute(query_, txn, options).ok());
    return trace;
  }
  QueryTrace TracedRead() { return TracedRead(db_.Begin()); }

  /// The Header delta prefix the read's memo served.
  static uint64_t HeaderPrefix(const QueryTrace& trace) {
    return trace.memo_prefixes.empty() ? 0 : trace.memo_prefixes[0].second;
  }

  static uint64_t Resets(MemoReset reason) {
    return EngineMetrics::Get()
        .memo_resets[static_cast<size_t>(reason)]
        ->Value();
  }
};

TEST_F(DeltaMemoTest, ReadsInterleavedWithInsertsAdvanceThePrefix) {
  ASSERT_OK(InsertObject(11));
  EXPECT_EQ(TracedRead().memo_verdict, "cold");
  for (int64_t h = 12; h <= 16; ++h) {
    ASSERT_OK(InsertObject(h, static_cast<int>(h % 3) + 1));
    QueryTrace trace = TracedRead();
    EXPECT_EQ(trace.memo_verdict, "used");
    // The memo covered the objects before this one; only the new header
    // is compensated, and Eq. 5 prunes it against every older partition.
    EXPECT_EQ(HeaderPrefix(trace), static_cast<uint64_t>(h - 11));
    EXPECT_EQ(stats_.subjoins_executed, 1u);
    ExpectAgrees();
  }
  // Nothing new: the memo answers alone.
  QueryTrace trace = TracedRead();
  EXPECT_EQ(trace.memo_verdict, "used");
  EXPECT_TRUE(trace.subjoins.empty());
}

TEST_F(DeltaMemoTest, PrefixUpdatesAndDeletesResetTheMemo) {
  for (int64_t h = 11; h <= 13; ++h) ASSERT_OK(InsertObject(h));
  ExpectAgrees();
  const uint64_t resets = Resets(MemoReset::kInvalidation);

  Transaction update = db_.Begin();
  ASSERT_OK(header_->UpdateColumnByPk(update, Value(int64_t{12}),
                                      "FiscalYear", Value(int64_t{2020})));
  QueryTrace trace = TracedRead();
  EXPECT_EQ(trace.memo_verdict, "reset");
  EXPECT_EQ(trace.memo_reason, "invalidation");
  EXPECT_EQ(Resets(MemoReset::kInvalidation), resets + 1);
  ExpectAgrees();

  // The first item of object 11 sits in the Item delta's prefix.
  const int64_t item_of_11 = 21;
  ASSERT_EQ(item_->FindByPk(Value(item_of_11))->kind, PartitionKind::kDelta);
  Transaction remove = db_.Begin();
  ASSERT_OK(item_->DeleteByPk(remove, Value(item_of_11)));
  trace = TracedRead();
  EXPECT_EQ(trace.memo_verdict, "reset");
  EXPECT_EQ(trace.memo_reason, "invalidation");
  ExpectAgrees();
  EXPECT_EQ(TracedRead().memo_verdict, "used");
}

TEST_F(DeltaMemoTest, MainUpdateOutsideTheMemoKeepsIt) {
  for (int64_t h = 11; h <= 12; ++h) ASSERT_OK(InsertObject(h));
  ExpectAgrees();
  // The memo's only non-empty combination is Header delta x Item delta, so
  // it records no main: updating a Header main row leaves it valid, and
  // only the new header version past the prefix is compensated.
  Transaction update = db_.Begin();
  ASSERT_OK(header_->UpdateColumnByPk(update, Value(int64_t{3}), "FiscalYear",
                                      Value(int64_t{2014})));
  QueryTrace trace = TracedRead();
  EXPECT_EQ(trace.memo_verdict, "used");
  EXPECT_EQ(HeaderPrefix(trace), 2u);
  ExpectAgrees();

  // Now the memo also reads Item main (the updated header's items): a
  // second Header main update still keeps it, an Item main update resets.
  Transaction update2 = db_.Begin();
  ASSERT_OK(header_->UpdateColumnByPk(update2, Value(int64_t{4}),
                                      "FiscalYear", Value(int64_t{2013})));
  EXPECT_EQ(TracedRead().memo_verdict, "used");
  ExpectAgrees();
  Transaction remove = db_.Begin();
  ASSERT_OK(item_->DeleteByPk(remove, Value(int64_t{5})));
  trace = TracedRead();
  EXPECT_EQ(trace.memo_verdict, "reset");
  EXPECT_EQ(trace.memo_reason, "invalidation");
  ExpectAgrees();
}

TEST_F(DeltaMemoTest, MergeSplitAndRebuildMarkDropTheMemo) {
  ASSERT_OK(InsertObject(11));
  ExpectAgrees();
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  QueryTrace trace = TracedRead();
  EXPECT_EQ(trace.memo_verdict, "reset");
  EXPECT_EQ(trace.memo_reason, "merge");
  ExpectAgrees();

  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{6})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{6})));
  db_.RegisterAgingGroup({"Header", "Item"});
  ASSERT_OK(InsertObject(12));
  trace = TracedRead();
  EXPECT_TRUE(stats_.entry_rebuilt);
  EXPECT_EQ(trace.memo_verdict, "reset");
  EXPECT_EQ(trace.memo_reason, "rebuild");
  ExpectAgrees();
  trace = TracedRead();
  EXPECT_EQ(trace.memo_verdict, "used");
  EXPECT_EQ(trace.memo_prefixes.size(), 4u);  // Two groups per table.

  // MarkForRebuild is what a failed maintenance step does to an entry.
  const_cast<CacheEntry*>(cache_->Find(query_))->MarkForRebuild();
  ASSERT_OK(InsertObject(13));
  trace = TracedRead();
  EXPECT_TRUE(stats_.entry_rebuilt);
  EXPECT_EQ(trace.memo_reason, "rebuild");
  ExpectAgrees();
}

TEST_F(DeltaMemoTest, OlderReaderBypassesTheMemo) {
  ASSERT_OK(InsertObject(11));
  ExpectAgrees();
  Transaction old_reader = db_.Begin();
  ASSERT_OK(InsertObject(12));
  EXPECT_EQ(TracedRead().memo_verdict, "used");  // Memo now holds 12.

  const uint64_t bypasses = Resets(MemoReset::kOlderSnapshot);
  QueryTrace trace = TracedRead(old_reader);
  EXPECT_EQ(trace.memo_verdict, "reset");
  EXPECT_EQ(trace.memo_reason, "older-snapshot");
  EXPECT_EQ(Resets(MemoReset::kOlderSnapshot), bypasses + 1);
  ExpectAgrees(old_reader);
  // The bypass published nothing: a current reader still uses the memo.
  EXPECT_EQ(TracedRead().memo_verdict, "used");
  ExpectAgrees();
}

TEST_F(DeltaMemoTest, InFlightScopeRowsStayOutOfThePrefix) {
  ASSERT_OK(InsertObject(11));
  ExpectAgrees();
  {
    ScopedTransaction scope = db_.BeginAtomic();
    ASSERT_OK(header_->Insert(scope, {Value(int64_t{12}), Value(int64_t{2013})}));
    ASSERT_OK(item_->Insert(
        scope, {Value(next_item_id_++), Value(int64_t{12}), Value(9.0)}));
    // Readers exclude the scope: its rows are the unstable tail.
    QueryTrace trace = TracedRead();
    EXPECT_EQ(trace.memo_verdict, "used");
    ExpectAgrees();
    trace = TracedRead();
    EXPECT_EQ(HeaderPrefix(trace), 1u);
    // A scope whose second statement fails leaves what it wrote before.
    EXPECT_FALSE(item_->Insert(scope, {Value(next_item_id_), Value(int64_t{99}),
                                       Value(1.0)})
                     .ok());
  }
  // Ended: the scope's rows are stable for new snapshots and join the
  // prefix on the next read.
  ExpectAgrees();
  EXPECT_EQ(HeaderPrefix(TracedRead()), 2u);
}

TEST_F(DeltaMemoTest, CleanHitOverEmptyDeltasConsidersNoCombination) {
  Transaction txn = db_.Begin();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());  // Cold: plans all three.
  cache_->ResetPruneStats();
  ASSERT_TRUE(Execute(*cache_, query_, txn).ok());
  EXPECT_TRUE(stats_.cache_hit);
  EXPECT_EQ(cache_->prune_stats().considered, 0u);
  EXPECT_EQ(stats_.subjoins_executed, 0u);
}

}  // namespace
}  // namespace aggcache
