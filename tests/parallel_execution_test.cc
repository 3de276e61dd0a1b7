// Multi-threaded execution tests: the subjoin fan-outs must produce results
// identical to sequential execution at any pool size, and the pool itself
// must tolerate concurrent top-level callers. Run under
// -DAGGCACHE_SANITIZE=thread to validate the threading model.

#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

using testing_util::ExpectAllStrategiesAgree;

class ParallelExecutionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    for (int64_t h = 1; h <= 20; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2010 + h % 5, 3, 2.5 * h,
          &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    // Delta rows on both tables so compensation has real subjoins to run.
    for (int64_t h = 21; h <= 26; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2010 + h % 5, 2, 1.5 * h,
          &next_item_id_));
    }
  }

  void TearDown() override { ThreadPool::SetGlobalParallelism(1); }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
  AggregateQuery query_ = testing_util::HeaderItemQuery();
};

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  ParallelFor(
      touched.size(), [&](size_t i) { touched[i].fetch_add(1); }, pool);
  for (size_t i = 0; i < touched.size(); ++i) {
    EXPECT_EQ(touched[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, SerialPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.num_workers(), 0u);
  std::thread::id caller = std::this_thread::get_id();
  ParallelFor(
      8, [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      pool);
}

TEST(ThreadPoolTest, TaskGroupWaitsForAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  TaskGroup group(pool);
  for (int i = 0; i < 64; ++i) {
    group.Run([&done] { done.fetch_add(1); });
  }
  group.Wait();
  EXPECT_EQ(done.load(), 64);
}

TEST_F(ParallelExecutionTest, ResultsIdenticalToSequentialPerStrategy) {
  // Reference results computed with the serial pool — the exact sequential
  // engine.
  ThreadPool::SetGlobalParallelism(1);
  AggregateCacheManager sequential_cache(&db_);
  std::vector<ExecutionStrategy> strategies = {
      ExecutionStrategy::kUncached, ExecutionStrategy::kCachedNoPruning,
      ExecutionStrategy::kCachedEmptyDeltaPruning,
      ExecutionStrategy::kCachedFullPruning};
  std::vector<AggregateResult> reference;
  for (ExecutionStrategy strategy : strategies) {
    ExecutionOptions options;
    options.strategy = strategy;
    Transaction txn = db_.Begin();
    auto result = sequential_cache.Execute(query_, txn, options);
    ASSERT_TRUE(result.ok()) << result.status();
    reference.push_back(std::move(result).value());
  }

  ThreadPool::SetGlobalParallelism(4);
  AggregateCacheManager parallel_cache(&db_);
  for (size_t s = 0; s < strategies.size(); ++s) {
    ExecutionOptions options;
    options.strategy = strategies[s];
    Transaction txn = db_.Begin();
    auto result = parallel_cache.Execute(query_, txn, options);
    ASSERT_TRUE(result.ok()) << result.status();
    // Tolerance 0: enumeration-order merging makes the parallel result bit
    // for bit equal to the sequential one.
    std::string diff;
    EXPECT_TRUE(result->ApproxEquals(reference[s], 0.0, &diff))
        << "strategy " << static_cast<int>(strategies[s]) << ": " << diff;
  }
}

TEST_F(ParallelExecutionTest, MixedWorkloadStressAtFourThreads) {
  ThreadPool::SetGlobalParallelism(4);
  AggregateCacheManager cache(&db_);
  AggregateQuery single_table = QueryBuilder()
                                    .From("Item")
                                    .GroupBy("Item", "HeaderID")
                                    .Sum("Item", "Amount", "total")
                                    .CountStar("n")
                                    .Build();
  // Interleave mutations, merges, and queries across every strategy; each
  // round cross-checks all strategies (including uncached) against each
  // other through the shared helper.
  for (int round = 0; round < 4; ++round) {
    int64_t h = 100 + round;
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, h, 2012 + round, 2, 4.0 + round,
        &next_item_id_));
    ExpectAllStrategiesAgree(&db_, &cache, query_);
    ExpectAllStrategiesAgree(&db_, &cache, single_table);
    Transaction txn = db_.Begin();
    ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{1 + round})));
    ExpectAllStrategiesAgree(&db_, &cache, query_);
    if (round % 2 == 1) {
      ASSERT_OK(db_.MergeTables({"Header", "Item"}));
      ExpectAllStrategiesAgree(&db_, &cache, query_);
      ExpectAllStrategiesAgree(&db_, &cache, single_table);
    }
  }
}

TEST_F(ParallelExecutionTest, HotColdSplitRebuildsUnderParallelPool) {
  ThreadPool::SetGlobalParallelism(4);
  AggregateCacheManager cache(&db_);
  Transaction warm = db_.Begin();
  ASSERT_TRUE(cache.Execute(query_, warm).ok());
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{10})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{10})));
  db_.RegisterAgingGroup({"Header", "Item"});
  // More partition groups -> more all-main combinations in the rebuild
  // fan-out and more compensation subjoins per query.
  ExpectAllStrategiesAgree(&db_, &cache, query_);
}

TEST_F(ParallelExecutionTest, ConcurrentExecutorsProduceIdenticalResults) {
  // Top-level concurrency: four threads, each with its own Executor, all
  // fanning subjoins into the same global pool against one immutable
  // snapshot.
  ThreadPool::SetGlobalParallelism(4);
  Snapshot snapshot = db_.Begin().snapshot();
  Executor reference_exec(&db_);
  auto reference = reference_exec.ExecuteUncached(query_, snapshot);
  ASSERT_TRUE(reference.ok()) << reference.status();

  constexpr int kThreads = 4;
  constexpr int kRepsPerThread = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Executor executor(&db_);
      for (int r = 0; r < kRepsPerThread; ++r) {
        auto result = executor.ExecuteUncached(query_, snapshot);
        if (!result.ok() || !result->ApproxEquals(*reference, 0.0)) {
          mismatches.fetch_add(1);
        }
      }
      (void)t;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ParallelExecutionTest, ConcurrentDeltaScansMatchSoloResultAndStats) {
  // Concurrent calls on one shared Executor, each scanning a Header delta
  // of several 1024-row selection blocks: every call must return the solo
  // answer and count, in its own ExecutorStats, exactly the solo work.
  ThreadPool::SetGlobalParallelism(4);
  Transaction txn = db_.Begin();
  for (int64_t h = 1001; h <= 7000; ++h) {
    ASSERT_OK(header_->Insert(txn, {Value(h), Value(2010 + h % 5)}));
  }
  ASSERT_GE(header_->group(0).delta.num_rows(), 6000u);
  Snapshot snapshot = db_.Begin().snapshot();
  const std::vector<AggregateQuery> queries = {
      QueryBuilder()
          .From("Header")
          .Filter("Header", "FiscalYear", CompareOp::kGe,
                  Value(int64_t{2012}))
          .GroupBy("Header", "FiscalYear")
          .CountStar("n")
          .Build(),
      query_,
  };

  Executor executor(&db_);
  std::vector<AggregateResult> solo_results;
  std::vector<ExecutorStats> solo_stats(queries.size());
  for (size_t q = 0; q < queries.size(); ++q) {
    auto solo = executor.ExecuteUncached(queries[q], snapshot, &solo_stats[q]);
    ASSERT_TRUE(solo.ok()) << solo.status();
    solo_results.push_back(std::move(solo).value());
  }
  ASSERT_GE(solo_stats[0].rows_scanned, 6000u);

  constexpr int kThreads = 6;
  constexpr int kRepsPerThread = 8;
  std::atomic<int> result_mismatches{0};
  std::atomic<int> stats_mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepsPerThread; ++r) {
        size_t q = static_cast<size_t>(t + r) % queries.size();
        ExecutorStats stats;
        auto result = executor.ExecuteUncached(queries[q], snapshot, &stats);
        if (!result.ok() || !result->ApproxEquals(solo_results[q], 0.0)) {
          result_mismatches.fetch_add(1);
        }
        if (!(stats == solo_stats[q])) stats_mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(result_mismatches.load(), 0);
  EXPECT_EQ(stats_mismatches.load(), 0);
}

}  // namespace
}  // namespace aggcache
