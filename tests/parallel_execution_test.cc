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
#include "workload/erp_generator.h"

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

// One Header ⋈ Item ⋈ ProductCategory entry driven through every phase that
// runs subjoins: entry build, delta compensation with pushdown, main
// correction joins, the merge-time fold and an uncached read. Each phase
// goes through the same planner and runner, so at pool parallelism 1 and 4
// the answers and the per-call counts must be identical.
TEST(SubjoinRunnerParityTest, EveryPhaseIdenticalAtPoolSizesOneAndFour) {
  struct Call {
    AggregateResult result;
    CacheExecStats stats;
    QueryTrace trace;
    // "phase combination verdict" per recorded subjoin.
    std::vector<std::string> Verdicts() const {
      std::vector<std::string> out;
      for (const SubjoinTrace& s : trace.subjoins) {
        out.push_back(s.phase + " " + s.combination + " " +
                      std::to_string(static_cast<int>(s.verdict)));
      }
      return out;
    }
  };
  auto run_phases = [](size_t parallelism) {
    ThreadPool::SetGlobalParallelism(parallelism);
    Database db;
    ErpConfig config;
    config.num_headers_main = 300;
    config.num_categories = 12;
    auto dataset = ErpDataset::Create(&db, config);
    EXPECT_TRUE(dataset.ok()) << dataset.status();
    AggregateCacheManager cache(&db);
    const AggregateQuery query = dataset->ProfitByCategoryQuery(2013);
    std::vector<Call> calls;
    auto execute = [&](ExecutionStrategy strategy) {
      ExecutionOptions options;
      options.strategy = strategy;
      options.use_predicate_pushdown = true;
      Call call;
      options.stats = &call.stats;
      options.trace = &call.trace;
      Transaction txn = db.Begin();
      auto result = cache.Execute(query, txn, options);
      EXPECT_TRUE(result.ok()) << result.status();
      if (result.ok()) call.result = std::move(result).value();
      calls.push_back(std::move(call));
    };

    execute(ExecutionStrategy::kCachedFullPruning);  // Entry build.
    // New objects plus late items: a main x delta subjoin survives pruning
    // and carries pushdown filters.
    Rng rng(11);
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(dataset->InsertBusinessObject(rng).ok());
    }
    EXPECT_OK(dataset->InsertLateItems(rng, 8));
    execute(ExecutionStrategy::kCachedFullPruning);  // Delta compensation.
    {
      // Main updates on Header and Item: correction joins.
      Transaction txn = db.Begin();
      EXPECT_OK(dataset->header()->UpdateColumnByPk(
          txn, Value(int64_t{3}), "FiscalYear", Value(int64_t{2013})));
      EXPECT_OK(dataset->header()->UpdateColumnByPk(
          txn, Value(int64_t{4}), "FiscalYear", Value(int64_t{2014})));
      EXPECT_OK(dataset->item()->UpdateColumnByPk(txn, Value(int64_t{10}),
                                                  "Price", Value(99.5)));
      EXPECT_OK(dataset->item()->DeleteByPk(txn, Value(int64_t{20})));
    }
    execute(ExecutionStrategy::kCachedFullPruning);  // Main correction.
    EXPECT_OK(db.MergeAll());                         // Merge-time fold.
    execute(ExecutionStrategy::kCachedFullPruning);
    execute(ExecutionStrategy::kUncached);
    return calls;
  };

  std::vector<Call> serial = run_phases(1);
  std::vector<Call> parallel = run_phases(4);
  ThreadPool::SetGlobalParallelism(1);
  ASSERT_EQ(serial.size(), 5u);
  ASSERT_EQ(parallel.size(), serial.size());
  // The correction ran incrementally and the fold kept the entry: no call
  // after the build rebuilt it.
  EXPECT_TRUE(serial[0].stats.entry_created);
  EXPECT_GT(serial[2].stats.main_comp_ms, 0.0);
  for (const Call& call : serial) EXPECT_FALSE(call.stats.entry_rebuilt);
  EXPECT_TRUE(serial[3].stats.cache_hit);
  auto has_event = [](const Call& call, const std::string& phase,
                      SubjoinTrace::Verdict verdict) {
    for (const SubjoinTrace& s : call.trace.subjoins) {
      if (s.phase == phase && s.verdict == verdict) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_event(serial[1], "delta-compensation",
                        SubjoinTrace::Verdict::kPushdown));
  EXPECT_TRUE(has_event(serial[2], "main-correction",
                        SubjoinTrace::Verdict::kExecuted));
  std::string diff;
  EXPECT_TRUE(serial[3].result.ApproxEquals(serial[4].result, 1e-9, &diff))
      << "post-merge cached answer vs uncached: " << diff;
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(parallel[i].result.ApproxEquals(serial[i].result, 0.0, &diff))
        << "call " << i << ": " << diff;
    const CacheExecStats& a = serial[i].stats;
    const CacheExecStats& b = parallel[i].stats;
    EXPECT_EQ(a.used_cache, b.used_cache) << "call " << i;
    EXPECT_EQ(a.cache_hit, b.cache_hit) << "call " << i;
    EXPECT_EQ(a.entry_created, b.entry_created) << "call " << i;
    EXPECT_EQ(a.entry_rebuilt, b.entry_rebuilt) << "call " << i;
    EXPECT_EQ(a.subjoins_executed, b.subjoins_executed) << "call " << i;
    EXPECT_EQ(a.subjoins_pruned, b.subjoins_pruned) << "call " << i;
    EXPECT_EQ(serial[i].Verdicts(), parallel[i].Verdicts()) << "call " << i;
  }
}

}  // namespace
}  // namespace aggcache
