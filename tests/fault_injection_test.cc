// Mark-for-rebuild under injected maintenance failures: a cache entry whose
// merge-time maintenance fails must degrade to a rebuild on next access —
// never crash, never serve a stale hit — and the rebuilding Execute must
// report entry_rebuilt with main_exec_ms populated.

#include <string>

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "verify/fault_injector.h"

namespace aggcache {
namespace {

using testing_util::CreateHeaderItemTables;
using testing_util::HeaderItemQuery;
using testing_util::InsertBusinessObject;

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateHeaderItemTables(&db_, &header_, &item_);
    for (int64_t h = 1; h <= 4; ++h) {
      ASSERT_OK(InsertBusinessObject(&db_, header_, item_, h, 2014 + h % 2,
                                     /*num_items=*/2, /*amount=*/7.25 * h,
                                     &next_item_id_));
    }
  }

  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().ResetCounters();
  }

  // Warms the cache for the canonical header/item query and returns its
  // entry.
  const CacheEntry* WarmEntry(AggregateCacheManager* cache) {
    const AggregateQuery query = HeaderItemQuery();
    Transaction txn = db_.Begin();
    auto result = cache->Execute(query, txn, ExecutionOptions());
    EXPECT_TRUE(result.ok()) << result.status();
    const CacheEntry* entry = cache->Find(query);
    EXPECT_NE(entry, nullptr);
    return entry;
  }

  // Fails the maintenance of every merge: MergeAll merges Header, whose
  // compensation fails and marks the entry; the Item merge leaves the
  // marked entry to the next access.
  void FailEveryMergeMaintenance() {
    FaultInjector::Global().Arm("maintenance.compensate",
                                {/*probability=*/1.0});
  }

  // Asserts that a fresh cached execution agrees with uncached execution,
  // was NOT served from the (stale) cached partials, and rebuilt the entry
  // with timing recorded.
  void ExpectRebuildWithCorrectResult(AggregateCacheManager* cache) {
    const AggregateQuery query = HeaderItemQuery();
    Transaction txn = db_.Begin();
    ExecutionOptions uncached;
    uncached.strategy = ExecutionStrategy::kUncached;
    auto baseline = cache->Execute(query, txn, uncached);
    ASSERT_TRUE(baseline.ok()) << baseline.status();

    CacheExecStats stats;
    ExecutionOptions options;
    options.stats = &stats;
    auto cached = cache->Execute(query, txn, options);
    ASSERT_TRUE(cached.ok()) << cached.status();
    EXPECT_FALSE(stats.cache_hit);
    EXPECT_TRUE(stats.entry_rebuilt);
    EXPECT_GT(stats.main_exec_ms, 0.0);

    std::string diff;
    EXPECT_TRUE(cached->ApproxEquals(*baseline, 1e-9, &diff)) << diff;
    const CacheEntry* entry = cache->Find(query);
    ASSERT_NE(entry, nullptr);
    EXPECT_FALSE(entry->needs_rebuild());
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
};

TEST_F(FaultInjectionTest, FailedCompensationDuringMergeMarksForRebuild) {
  AggregateCacheManager cache(&db_);
  const CacheEntry* entry = WarmEntry(&cache);
  ASSERT_FALSE(entry->needs_rebuild());

  FailEveryMergeMaintenance();
  ASSERT_OK(db_.MergeAll());  // Merge succeeds; entry maintenance does not.
  EXPECT_TRUE(entry->needs_rebuild());
  FaultInjector::Global().DisarmAll();

  ASSERT_OK(InsertBusinessObject(&db_, header_, item_, 5, 2015, 2, 99.0,
                                 &next_item_id_));
  ExpectRebuildWithCorrectResult(&cache);
}

TEST_F(FaultInjectionTest, MarkedEntryWaitsForItsNextReadToRebuild) {
  // The Header merge's compensation fails and marks the entry. The Item
  // merge must leave the marked entry alone (no rebuild under the merge's
  // table locks); the next read rebuilds it exactly once.
  AggregateCacheManager cache(&db_);
  const CacheEntry* entry = WarmEntry(&cache);
  ASSERT_OK(InsertBusinessObject(&db_, header_, item_, 5, 2015, 2, 99.0,
                                 &next_item_id_));
  FaultInjector::PointConfig count_only;
  count_only.probability = 0.0;
  FaultInjector::Global().Arm("cache.build", count_only);
  FaultInjector::Global().Arm("maintenance.compensate",
                              {/*probability=*/1.0});
  ASSERT_OK(db_.MergeAll());
  FaultInjector::Global().Disarm("maintenance.compensate");
  EXPECT_TRUE(entry->needs_rebuild());
  EXPECT_EQ(entry->metrics().maintenance_failures, 1u);
  EXPECT_EQ(FaultInjector::Global().stats("cache.build").hits, 0u);

  ExpectRebuildWithCorrectResult(&cache);
  EXPECT_EQ(FaultInjector::Global().stats("cache.build").hits, 1u);
  Transaction txn = db_.Begin();
  CacheExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  ASSERT_TRUE(cache.Execute(HeaderItemQuery(), txn, options).ok());
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(FaultInjector::Global().stats("cache.build").hits, 1u);
}

TEST_F(FaultInjectionTest, RebuildByAnOlderReaderKeepsMergedRows) {
  // The merge's maintenance fails, so the next access rebuilds the entry.
  // When that access is a reader whose snapshot predates the merge, the
  // rebuilt entry must still hold the merged rows for later readers.
  AggregateCacheManager cache(&db_);
  WarmEntry(&cache);
  Transaction old_reader = db_.Begin();
  ASSERT_OK(InsertBusinessObject(&db_, header_, item_, 5, 2015, 2, 99.0,
                                 &next_item_id_));
  FailEveryMergeMaintenance();
  ASSERT_OK(db_.MergeAll());
  FaultInjector::Global().DisarmAll();

  const AggregateQuery query = HeaderItemQuery();
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto expect_exact = [&](const Transaction& txn) {
    auto cached = cache.Execute(query, txn, ExecutionOptions());
    auto baseline = cache.Execute(query, txn, uncached);
    ASSERT_TRUE(cached.ok() && baseline.ok());
    std::string diff;
    EXPECT_TRUE(cached->ApproxEquals(*baseline, 1e-9, &diff)) << diff;
  };
  expect_exact(old_reader);
  Transaction reader = db_.Begin();
  expect_exact(reader);
}

TEST_F(FaultInjectionTest, FailedDeltaFoldMarksForRebuild) {
  AggregateCacheManager cache(&db_);
  const CacheEntry* entry = WarmEntry(&cache);

  // New rows in the deltas give the merge-time fold real work to fail at.
  ASSERT_OK(InsertBusinessObject(&db_, header_, item_, 5, 2014, 3, 12.5,
                                 &next_item_id_));
  FaultInjector::Global().Arm("maintenance.fold", {/*probability=*/1.0});
  ASSERT_OK(db_.MergeAll());
  EXPECT_TRUE(entry->needs_rebuild());
  EXPECT_GT(FaultInjector::Global().stats("maintenance.fold").fired, 0u);
  FaultInjector::Global().DisarmAll();

  ExpectRebuildWithCorrectResult(&cache);
}

TEST_F(FaultInjectionTest, AbortedMergeMarksForRebuild) {
  AggregateCacheManager cache(&db_);
  const CacheEntry* entry = WarmEntry(&cache);

  // storage.merge fires after OnBeforeMerge folded the delta forward but
  // before the merge itself: the surviving delta would be double-counted by
  // the entry, so the abort notification must degrade it to a rebuild.
  ASSERT_OK(InsertBusinessObject(&db_, header_, item_, 5, 2015, 2, 31.0,
                                 &next_item_id_));
  FaultInjector::Global().Arm("storage.merge", {/*probability=*/1.0});
  Status merge = db_.MergeAll();
  ASSERT_FALSE(merge.ok());
  EXPECT_TRUE(FaultInjector::IsInjectedFault(merge)) << merge.ToString();
  EXPECT_TRUE(entry->needs_rebuild());
  FaultInjector::Global().DisarmAll();

  ExpectRebuildWithCorrectResult(&cache);
}

TEST_F(FaultInjectionTest, EvictionFaultDropsEntriesWithoutWrongResults) {
  AggregateCacheManager cache(&db_);
  WarmEntry(&cache);
  EXPECT_EQ(cache.num_entries(), 1u);

  // Simulated memory pressure on the next admission: everything evictable
  // is dropped, only the entry being admitted survives.
  FaultInjector::Global().Arm("cache.evict_all", {/*probability=*/1.0});
  AggregateQuery other = QueryBuilder()
                             .From("Item")
                             .GroupBy("Item", "HeaderID")
                             .Sum("Item", "Amount", "Total")
                             .Build();
  Transaction txn = db_.Begin();
  auto result = cache.Execute(other, txn, ExecutionOptions());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_NE(cache.Find(other), nullptr);
  EXPECT_EQ(cache.Find(HeaderItemQuery()), nullptr);
  EXPECT_EQ(cache.total_bytes(), cache.RecomputeTotalBytes());
  FaultInjector::Global().DisarmAll();

  // The evicted query re-enters the cache as a fresh, correct entry.
  testing_util::ExpectAllStrategiesAgree(&db_, &cache, HeaderItemQuery());
  EXPECT_NE(cache.Find(HeaderItemQuery()), nullptr);
}

}  // namespace
}  // namespace aggcache
