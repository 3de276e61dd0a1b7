// Deterministic concurrency tests for the serving path: single-flight
// materialization, readers racing merges and eviction, merge-daemon
// shutdown, and exclusion-list snapshot isolation (atomic write scopes).
// Run under -DAGGCACHE_SANITIZE=thread to validate the threading model;
// the randomized wall-clock companion is bench/stress_concurrent.

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "storage/merge_daemon.h"
#include "tests/test_util.h"
#include "txn/epoch.h"
#include "verify/fault_injector.h"

namespace aggcache {
namespace {

class ConcurrentStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    for (int64_t h = 1; h <= 20; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2010 + h % 5, 3, 2.5 * h, &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    // Leave delta rows so cached execution has real compensation to run.
    for (int64_t h = 21; h <= 24; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2010 + h % 5, 2, 1.5 * h, &next_item_id_));
    }
  }

  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    FaultInjector::Global().ResetCounters();
  }

  /// Executes `query` cached and uncached in one transaction and bumps
  /// `mismatches` when they disagree — the invariant every concurrent
  /// reader below asserts.
  void CheckOnce(AggregateCacheManager* cache, const AggregateQuery& query,
                 ExecutionStrategy strategy, std::atomic<int>* mismatches) {
    Transaction txn = db_.Begin();
    ExecutionOptions uncached;
    uncached.strategy = ExecutionStrategy::kUncached;
    auto baseline = cache->Execute(query, txn, uncached);
    ExecutionOptions options;
    options.strategy = strategy;
    auto result = cache->Execute(query, txn, options);
    if (!baseline.ok() || !result.ok() ||
        !result->ApproxEquals(*baseline, 1e-9)) {
      mismatches->fetch_add(1);
    }
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
  AggregateQuery query_ = testing_util::HeaderItemQuery();
};

TEST_F(ConcurrentStressTest, ConcurrentMissesMaterializeOnce) {
  // cache.build is hit once per entry materialization; armed at
  // probability 0 it never fires but still counts, turning the injector
  // into a build counter.
  FaultInjector::PointConfig count_only;
  count_only.probability = 0.0;
  FaultInjector::Global().Arm("cache.build", count_only);

  AggregateCacheManager cache(&db_);
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      Transaction txn = db_.Begin();
      auto result = cache.Execute(query_, txn);
      if (!result.ok()) failures.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache.num_entries(), 1u);
  // Single-flight: one creator built the entry, the other seven waited.
  EXPECT_EQ(FaultInjector::Global().stats("cache.build").hits, 1u);
}

TEST_F(ConcurrentStressTest, ReadersAgreeWithUncachedDuringMerges) {
  AggregateCacheManager cache(&db_);
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ExecutionStrategy strategy = t % 2 == 0
                                       ? ExecutionStrategy::kCachedFullPruning
                                       : ExecutionStrategy::kCachedNoPruning;
      while (!stop.load(std::memory_order_relaxed)) {
        CheckOnce(&cache, query_, strategy, &mismatches);
      }
    });
  }
  // Interleave writes and synchronized merges with the running readers.
  for (int round = 0; round < 6; ++round) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, 100 + round, 2012 + round % 3, 2, 4.0 + round,
        &next_item_id_));
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  }
  stop.store(true);
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrentStressTest, MemoReadersAgreeWhileWriterInsertsAndMerges) {
  // Readers hit one entry while the writer grows the deltas (each hit after
  // an insert advances the delta memo) and merges every few objects (which
  // drops the memo). Each reader's own snapshot is taken before its
  // uncached read, so a racing reader often publishes a newer memo first
  // and the cached read must bypass it. (Updates stay out: a plain
  // transaction's write lands after readers whose snapshots already cover
  // its tid, so two reads under one snapshot may differ with no cache
  // involved; DeltaMemoTest covers updates sequentially.)
  AggregateCacheManager cache(&db_);
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const ExecutionStrategy strategies[] = {
          ExecutionStrategy::kCachedFullPruning,
          ExecutionStrategy::kCachedNoPruning,
          ExecutionStrategy::kCachedEmptyDeltaPruning};
      while (!stop.load(std::memory_order_relaxed)) {
        CheckOnce(&cache, query_, strategies[t], &mismatches);
      }
    });
  }
  for (int round = 0; round < 24; ++round) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, 200 + round, 2010 + round % 5, 1 + round % 3,
        0.5 + round, &next_item_id_));
    if (round % 8 == 7) ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  testing_util::ExpectAllStrategiesAgree(&db_, &cache, query_);
}

TEST_F(ConcurrentStressTest, ReadersParseAndShareHitsWhileWriterMerges) {
  // Readers go through the statement cache and take the entries' shared
  // main results, then write to their copies; a writer inserts, deletes
  // main rows and merges, so the entries are folded, corrected and
  // republished under the readers. Every cached answer must still equal
  // the uncached one at the same snapshot.
  //
  // A plain delete becomes visible when its statement ends, even to a
  // snapshot taken after its Begin, so the two Execute calls of a reader
  // that overlaps a delete may see different states. delete_epoch is odd
  // while a delete is in flight; only readers that saw it even and
  // unchanged around both calls compare their answers.
  AggregateCacheManager cache(&db_);
  std::atomic<uint64_t> delete_epoch{0};
  const std::vector<std::string> statements = {
      "SELECT FiscalYear, SUM(Amount) AS r, COUNT(*) AS n FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID GROUP BY FiscalYear",
      "SELECT FiscalYear, SUM(Amount) AS r, COUNT(*) AS n FROM Header, Item "
      "WHERE Header.HeaderID = Item.HeaderID AND Amount > 20.0 "
      "GROUP BY FiscalYear",
  };
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  constexpr int kReaders = 4;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      ExecutionOptions uncached;
      uncached.strategy = ExecutionStrategy::kUncached;
      for (size_t i = t; !stop.load(std::memory_order_relaxed); ++i) {
        auto stmt = ParseStatement(statements[i % statements.size()], db_);
        if (!stmt.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        const uint64_t epoch = delete_epoch.load();
        Transaction txn = db_.Begin();
        auto expected = cache.Execute(stmt->select, txn, uncached);
        auto hit = cache.Execute(stmt->select, txn);
        if (!expected.ok() || !hit.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        if (delete_epoch.load() == epoch && epoch % 2 == 0 &&
            !hit->ApproxEquals(*expected, 1e-9)) {
          mismatches.fetch_add(1);
        }
        // Writing to the copy must reach neither the entry nor any other
        // reader's copy.
        AggregateResult copy = *hit;
        hit->MergeFrom(copy);
      }
    });
  }
  for (int round = 0; round < 6; ++round) {
    ASSERT_OK(testing_util::InsertBusinessObject(
        &db_, header_, item_, 100 + round, 2012 + round % 3, 2, 30.0 + round,
        &next_item_id_));
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    delete_epoch.fetch_add(1);
    {
      Transaction del = db_.Begin();
      ASSERT_OK(header_->DeleteByPk(del, Value(int64_t{round + 1})));
    }
    delete_epoch.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  for (std::thread& thread : readers) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrentStressTest, EvictionChurnNeverCorruptsReaders) {
  // One slot, two cacheable queries: every other execution evicts the
  // peer's entry while its readers may still hold the value shared_ptr.
  AggregateCacheManager::Config config;
  config.max_entries = 1;
  AggregateCacheManager cache(&db_, config);
  AggregateQuery by_header = QueryBuilder()
                                 .From("Item")
                                 .GroupBy("Item", "HeaderID")
                                 .Sum("Item", "Amount", "total")
                                 .CountStar("n")
                                 .Build();
  std::atomic<int> mismatches{0};
  constexpr int kThreads = 4;
  constexpr int kRepsPerThread = 12;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRepsPerThread; ++r) {
        const AggregateQuery& query = (t + r) % 2 == 0 ? query_ : by_header;
        CheckOnce(&cache, query, ExecutionStrategy::kCachedFullPruning,
                  &mismatches);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(cache.num_entries(), 1u);
}

TEST_F(ConcurrentStressTest, PerCallStatsStayExactUnderConcurrency) {
  // Each call's stats count only its own work: threads running an uncached
  // query beside threads hitting a cached one must each report exactly
  // what the same call reports single-threaded.
  AggregateCacheManager cache(&db_);
  AggregateQuery by_header = QueryBuilder()
                                 .From("Item")
                                 .GroupBy("Item", "HeaderID")
                                 .Sum("Item", "Amount", "total")
                                 .Build();
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  ExecutionOptions cached;
  cached.strategy = ExecutionStrategy::kCachedFullPruning;
  // The cached calls read at a snapshot older than the entry's delta memo,
  // so each bypasses it and compensates every delta row: the same work on
  // every call, whichever thread publishes first.
  std::optional<Transaction> old_reader;
  auto run = [&](const AggregateQuery& query, ExecutionOptions options,
                 CacheExecStats* stats) {
    options.stats = stats;
    Transaction txn = db_.Begin();
    return cache.Execute(query, old_reader ? *old_reader : txn, options).ok();
  };
  CacheExecStats warm;
  ASSERT_TRUE(run(query_, cached, &warm));
  ASSERT_TRUE(warm.entry_created);
  Transaction reader = db_.Begin();
  ASSERT_OK(testing_util::InsertBusinessObject(
      &db_, header_, item_, 25, 2012, 2, 4.0, &next_item_id_));
  ASSERT_TRUE(run(query_, cached, &warm));  // Memo now newer than `reader`.
  old_reader.emplace(reader);
  CacheExecStats expect_uncached;
  CacheExecStats expect_cached;
  ASSERT_TRUE(run(by_header, uncached, &expect_uncached));
  ASSERT_TRUE(run(query_, cached, &expect_cached));
  ASSERT_FALSE(expect_uncached.used_cache);
  ASSERT_GT(expect_uncached.subjoins_executed, 0u);
  ASSERT_TRUE(expect_cached.cache_hit);
  ASSERT_GT(expect_cached.subjoins_executed, 0u);
  ASSERT_GT(expect_cached.subjoins_pruned, 0u);

  constexpr int kThreads = 4;
  constexpr int kRepsPerThread = 25;
  std::atomic<int> failures{0};
  std::atomic<int> diverged{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const bool is_cached = t % 2 == 1;
      const CacheExecStats& expect =
          is_cached ? expect_cached : expect_uncached;
      for (int r = 0; r < kRepsPerThread; ++r) {
        CacheExecStats got;
        if (!run(is_cached ? query_ : by_header,
                 is_cached ? cached : uncached, &got)) {
          failures.fetch_add(1);
          continue;
        }
        if (got.used_cache != expect.used_cache ||
            got.cache_hit != expect.cache_hit ||
            got.subjoins_executed != expect.subjoins_executed ||
            got.subjoins_pruned != expect.subjoins_pruned) {
          diverged.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(diverged.load(), 0);
}

TEST_F(ConcurrentStressTest, DaemonStopsCleanlyMidMerge) {
  // Hold every merge publish open for a while so Stop() reliably lands
  // while a merge is in flight; Stop must wait for it, not abandon it.
  FaultInjector::PointConfig slow_publish;
  slow_publish.kind = FaultInjector::FaultKind::kDelay;
  slow_publish.delay_ms = 30.0;
  FaultInjector::Global().Arm("storage.merge.publish", slow_publish);

  db_.RegisterMergeGroup({"Header", "Item"}, 1);
  MergeDaemonOptions options;
  options.poll_interval = std::chrono::milliseconds(1);
  MergeDaemon daemon(db_, options);
  daemon.Start();
  // The delta already exceeds the threshold, so the first tick merges.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  daemon.Stop();
  EXPECT_FALSE(daemon.running());
  MergeDaemonStats stats = daemon.stats();
  EXPECT_GE(stats.merges_attempted, 1u);
  EXPECT_EQ(stats.merges_aborted, 0u);
  FaultInjector::Global().DisarmAll();
  // The interrupted-at-publish merge must have committed whole groups
  // only: results still agree with a fresh uncached execution.
  AggregateCacheManager cache(&db_);
  std::atomic<int> mismatches{0};
  CheckOnce(&cache, query_, ExecutionStrategy::kCachedFullPruning,
            &mismatches);
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrentStressTest, AtomicScopeInvisibleUntilEnd) {
  Executor executor(&db_);
  auto rows_for_year = [&](const Snapshot& snapshot, int64_t year) {
    auto result = executor.ExecuteUncached(query_, snapshot);
    EXPECT_TRUE(result.ok()) << result.status();
    for (const auto& [key, entry] : result->groups()) {
      if (key.values[0].AsInt64() == year) return true;
    }
    return false;
  };

  Snapshot during;
  {
    ScopedTransaction txn = db_.BeginAtomic();
    ASSERT_OK(header_->Insert(txn, {Value(int64_t{500}),
                                    Value(int64_t{2099})}));
    // A snapshot taken mid-scope includes the tid range but excludes the
    // scope: the half-inserted object must be invisible to it...
    during = db_.Begin().snapshot();
    ASSERT_OK(item_->Insert(txn, {Value(next_item_id_++),
                                  Value(int64_t{500}), Value(9.0)}));
    EXPECT_FALSE(rows_for_year(during, 2099));
    // ...while the scope itself sees its own writes.
    EXPECT_TRUE(rows_for_year(txn.snapshot(), 2099));
  }
  // The exclusion is permanent for that snapshot — repeatable reads even
  // after the scope has ended...
  EXPECT_FALSE(rows_for_year(during, 2099));
  // ...and snapshots taken after the scope ends see the whole object.
  EXPECT_TRUE(rows_for_year(db_.Begin().snapshot(), 2099));
}

TEST_F(ConcurrentStressTest, AtomicScopeIsInsertOnly) {
  ScopedTransaction txn = db_.BeginAtomic();
  Status update = header_->UpdateByPk(
      txn, Value(int64_t{1}), {Value(int64_t{1}), Value(int64_t{2020})});
  EXPECT_EQ(update.code(), StatusCode::kFailedPrecondition);
  Status del = item_->DeleteByPk(txn, Value(int64_t{1}));
  EXPECT_EQ(del.code(), StatusCode::kFailedPrecondition);
}

TEST_F(ConcurrentStressTest, CachedReadersNeverSeeHalfAnObject) {
  // Writers insert whole business objects through atomic scopes while
  // readers pin one snapshot and execute twice; both executions must
  // agree with each other (repeatable) and with the uncached engine.
  AggregateCacheManager cache(&db_);
  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    int64_t h = 300;
    int64_t item_id = 100000;  // Clear of the fixture's item-id range.
    while (!stop.load(std::memory_order_relaxed)) {
      ScopedTransaction txn = db_.BeginAtomic();
      if (!header_->Insert(txn, {Value(h), Value(int64_t{2015})}).ok() ||
          !item_->Insert(txn, {Value(item_id++), Value(h), Value(1.0)})
               .ok() ||
          !item_->Insert(txn, {Value(item_id++), Value(h), Value(2.0)})
               .ok()) {
        mismatches.fetch_add(1);
        break;
      }
      ++h;
    }
  });
  constexpr int kReaders = 3;
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      for (int r = 0; r < 16; ++r) {
        CheckOnce(&cache, query_, ExecutionStrategy::kCachedFullPruning,
                  &mismatches);
      }
    });
  }
  for (std::thread& thread : readers) thread.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST_F(ConcurrentStressTest, MetricsRegistryIsThreadSafe) {
  // Updaters hammer one registry over relaxed atomics while other threads
  // concurrently register new metrics and render expositions (both take
  // the registry mutex). TSAN validates the locking discipline; the final
  // totals validate that no update was lost.
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("stress_total", "stress counter");
  Gauge* gauge = registry.GetGauge("stress_gauge", "stress gauge");
  Histogram* histogram = registry.GetHistogram("stress_us", "stress hist");

  constexpr int kUpdaters = 4;
  constexpr int kIters = 20000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kUpdaters; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter->Increment();
        gauge->Add(t % 2 == 0 ? 1 : -1);
        histogram->Observe(static_cast<uint64_t>(i));
      }
    });
  }
  // Registrations race the updates and the renders.
  workers.emplace_back([&] {
    for (int i = 0; i < 64; ++i) {
      registry.GetCounter("side_" + std::to_string(i), "side")->Increment();
    }
  });
  std::atomic<bool> stop{false};
  std::thread renderer([&] {
    // do-while: on a loaded single-core host this thread (spawned last) can
    // be starved until the updaters finish; it must still render at least
    // once so the totals below are checked against a concurrent exposition.
    int renders = 0;
    do {
      std::string text = registry.RenderPrometheus();
      std::string json = registry.RenderJson();
      if (text.empty() || json.empty()) break;
      ++renders;
    } while (!stop.load(std::memory_order_relaxed));
    EXPECT_GT(renders, 0);
  });
  for (std::thread& worker : workers) worker.join();
  stop.store(true);
  renderer.join();

  EXPECT_EQ(counter->Value(), uint64_t{kUpdaters} * kIters);
  EXPECT_EQ(gauge->Value(), 0);  // Two +1 updaters, two -1 updaters.
  EXPECT_EQ(histogram->TotalCount(), uint64_t{kUpdaters} * kIters);
  EXPECT_EQ(registry.num_metrics(), 3u + 64u);
}

// The flight recorder claims lock-freedom and torn-read safety; here real
// engine activity (cached readers + merges, which record merge/entry-state/
// snapshot events internally) races direct Record() writers and a dumper.
// Run under -DAGGCACHE_SANITIZE=thread for the memory-model proof.
TEST_F(ConcurrentStressTest, FlightRecorderSurvivesConcurrentWritersAndDumps) {
  FlightRecorder& recorder = FlightRecorder::Global();
  const uint64_t recorded_before = recorder.recorded_events();

  AggregateCacheManager cache(&db_);
  ASSERT_OK(cache.Prewarm(query_));

  std::atomic<int> mismatches{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  // Engine traffic: readers (entry-state + snapshot events inside the
  // manager) racing a merge loop (merge start/commit events).
  for (int r = 0; r < 2; ++r) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        CheckOnce(&cache, query_, ExecutionStrategy::kCachedFullPruning,
                  &mismatches);
      }
    });
  }
  workers.emplace_back([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Status merged = db_.MergeTables({"Header", "Item"});
      if (!merged.ok()) break;  // nothing to merge is fine
    }
  });
  // Direct writers hammering Record() with a recognizable payload.
  for (int w = 0; w < 2; ++w) {
    workers.emplace_back([&recorder, &stop, w] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        recorder.Record(FlightEventType::kFaultInjected,
                        static_cast<uint64_t>(w), ++i, "stress");
      }
    });
  }
  // A dumper racing all of the above through the seq-validation protocol.
  std::thread dumper([&recorder, &stop] {
    int dumps = 0;
    while (!stop.load(std::memory_order_relaxed) && dumps < 50) {
      std::string json = recorder.DumpJson(/*max_events=*/256);
      EXPECT_NE(json.find("\"schema\":\"aggcache-flight-v1\""),
                std::string::npos);
      ++dumps;
    }
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  stop.store(true);
  dumper.join();
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(recorder.recorded_events(), recorded_before);
  // Post-quiesce harvest must be internally consistent: strictly increasing
  // seqs and valid event types end to end.
  std::vector<FlightRecorder::Event> events = recorder.Collect(1024);
  ASSERT_FALSE(events.empty());
  uint64_t last_seq = 0;
  for (const FlightRecorder::Event& event : events) {
    EXPECT_GT(event.seq, last_seq);
    last_seq = event.seq;
    EXPECT_LE(static_cast<uint8_t>(event.type),
              static_cast<uint8_t>(FlightEventType::kMaintenanceFailure));
  }
}

// A merge that adds no value to a column hands the new main the old main's
// dictionary. A reader that captured that dictionary under an epoch guard
// keeps reading it, without any table lock, while later merges retire every
// main holding it; the retired mains (and so the dictionary) live until the
// guard is released.
TEST(SharedDictionaryTest, OutlivesRetiredMainsWhileAGuardedReaderHoldsIt) {
  Database db;
  Table* header = nullptr;
  Table* item = nullptr;
  testing_util::CreateHeaderItemTables(&db, &header, &item);
  auto insert_headers = [&](int64_t first, int64_t count, int64_t year) {
    for (int64_t h = first; h < first + count; ++h) {
      ASSERT_OK(header->Insert(db.Begin(), {Value(h), Value(year)}));
    }
  };
  insert_headers(1, 200, 2013);
  insert_headers(201, 200, 2014);
  ASSERT_OK(db.Merge("Header"));
  std::weak_ptr<const Dictionary> weak =
      header->group(0).main.column(1).shared_dictionary();

  std::atomic<bool> captured{false};
  std::atomic<bool> merged{false};
  std::atomic<int> wrong{0};
  std::thread reader([&] {
    EpochManager::Guard guard;
    const Dictionary* years = nullptr;
    {
      std::shared_lock<std::shared_mutex> lock(header->storage_mutex());
      guard = db.epochs().Enter();
      years = &header->group(0).main.column(1).dictionary();
    }
    captured.store(true);
    auto read_all = [&] {
      for (ValueId id = 0; id < years->size(); ++id) {
        if (years->Find(years->value(id)) != std::optional<ValueId>(id)) {
          wrong.fetch_add(1);
        }
      }
      if (years->min_value() != Value(int64_t{2013})) wrong.fetch_add(1);
    };
    while (!merged.load()) read_all();
    read_all();
  });
  while (!captured.load()) std::this_thread::yield();

  insert_headers(401, 100, 2014);  // No new year: the dictionary is shared.
  ASSERT_OK(db.Merge("Header"));
  EXPECT_EQ(header->group(0).main.column(1).shared_dictionary(), weak.lock());
  insert_headers(501, 100, 2015);  // A new year: a new dictionary.
  ASSERT_OK(db.Merge("Header"));
  EXPECT_NE(header->group(0).main.column(1).shared_dictionary(), weak.lock());
  db.epochs().Collect();
  EXPECT_FALSE(weak.expired());  // Pinned by the reader's epoch.
  merged.store(true);
  reader.join();
  EXPECT_EQ(wrong.load(), 0);
  db.epochs().Collect();
  EXPECT_TRUE(weak.expired());
}

}  // namespace
}  // namespace aggcache
