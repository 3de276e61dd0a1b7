// Tests for span tracing (src/obs/span.h) and the cache cost/benefit
// ledger: seq-publication and wraparound semantics of the recorder, loss
// accounting, the Chrome-trace JSON dump (golden — Perfetto and tooling
// load these), RAII parent-child chaining across threads, sampling, EWMA
// ledger math, and an end-to-end reconciliation of a traced query's span
// tree against its QueryTrace timings.

#include "obs/span.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache_metrics.h"
#include "gtest/gtest.h"
#include "obs/active_queries.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

using testing_util::CreateHeaderItemTables;
using testing_util::HeaderItemQuery;
using testing_util::InsertBusinessObject;

SpanRecorder::Options SmallOptions(size_t spans_per_segment,
                                   size_t max_segments) {
  SpanRecorder::Options options;
  options.spans_per_segment = spans_per_segment;
  options.max_segments = max_segments;
  options.enabled = true;
  return options;
}

TEST(SpanRecorderTest, KindNamesAreStable) {
  EXPECT_STREQ(SpanKindToString(SpanKind::kQuery), "query");
  EXPECT_STREQ(SpanKindToString(SpanKind::kAdmissionWait), "admission_wait");
  EXPECT_STREQ(SpanKindToString(SpanKind::kCacheLookup), "cache_lookup");
  EXPECT_STREQ(SpanKindToString(SpanKind::kSingleFlightWait),
               "singleflight_wait");
  EXPECT_STREQ(SpanKindToString(SpanKind::kEntryBuild), "entry_build");
  EXPECT_STREQ(SpanKindToString(SpanKind::kMainCorrection),
               "main_correction");
  EXPECT_STREQ(SpanKindToString(SpanKind::kDeltaCompensation),
               "delta_compensation");
  EXPECT_STREQ(SpanKindToString(SpanKind::kUncachedExec), "uncached_exec");
  EXPECT_STREQ(SpanKindToString(SpanKind::kSubjoinTask), "subjoin_task");
  EXPECT_STREQ(SpanKindToString(SpanKind::kMerge), "merge");
  EXPECT_STREQ(SpanKindToString(SpanKind::kCheckpoint), "checkpoint");
  EXPECT_STREQ(SpanKindToString(SpanKind::kWalSync), "wal_sync");
  EXPECT_STREQ(SpanKindToString(SpanKind::kRecoveryReplay),
               "recovery_replay");
}

TEST(SpanRecorderTest, RecordsAndCollectsInOrder) {
  SpanRecorder recorder(SmallOptions(64, 4));
  for (uint64_t i = 1; i <= 10; ++i) {
    recorder.Record(SpanKind::kSubjoinTask, /*span_id=*/i,
                    /*parent_id=*/100, /*query_id=*/7, /*start_us=*/i * 10,
                    /*end_us=*/i * 10 + 5, "build");
  }
  EXPECT_EQ(recorder.recorded_spans(), 10u);
  EXPECT_EQ(recorder.lost_spans(), 0u);

  std::vector<SpanRecorder::Span> spans = recorder.Collect();
  ASSERT_EQ(spans.size(), 10u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, i + 1) << "1-based, gap-free, oldest first";
    EXPECT_EQ(spans[i].kind, SpanKind::kSubjoinTask);
    EXPECT_EQ(spans[i].span_id, i + 1);
    EXPECT_EQ(spans[i].parent_id, 100u);
    EXPECT_EQ(spans[i].query_id, 7u);
    EXPECT_EQ(spans[i].start_us, (i + 1) * 10);
    EXPECT_EQ(spans[i].dur_us, 5u);
    EXPECT_STREQ(spans[i].detail, "build");
  }
}

TEST(SpanRecorderTest, WraparoundKeepsMostRecentSpansInOrder) {
  // 8-slot segment, 30 spans from one thread: the ring has been lapped and
  // must retain exactly the newest 8, still in sequence order. Overwrite is
  // not loss.
  SpanRecorder recorder(SmallOptions(8, 2));
  for (uint64_t i = 1; i <= 30; ++i) {
    recorder.Record(SpanKind::kQuery, i, 0, i, i, i + 1);
  }
  EXPECT_EQ(recorder.recorded_spans(), 30u);
  EXPECT_EQ(recorder.lost_spans(), 0u);

  std::vector<SpanRecorder::Span> spans = recorder.Collect();
  ASSERT_EQ(spans.size(), 8u);
  for (size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].seq, 23 + i);      // seqs 23..30 survive
    EXPECT_EQ(spans[i].span_id, 23 + i);  // payload moved with its seq
  }
}

TEST(SpanRecorderTest, LossCounterCountsSegmentExhaustionExactly) {
  // One segment total, taken by the main thread's first record; every span
  // from any other thread is counted lost — no more, no less.
  SpanRecorder recorder(SmallOptions(8, 1));
  recorder.Record(SpanKind::kQuery, 1, 0, 1, 0, 1);
  std::thread starved([&recorder] {
    for (uint64_t i = 0; i < 10; ++i) {
      recorder.Record(SpanKind::kSubjoinTask, 2 + i, 1, 1, 0, 1);
    }
  });
  starved.join();
  EXPECT_EQ(recorder.lost_spans(), 10u);
  EXPECT_EQ(recorder.recorded_spans(), 1u);
  ASSERT_EQ(recorder.Collect().size(), 1u);
}

TEST(SpanRecorderTest, SegmentIsReleasedAtThreadExitAndReused) {
  SpanRecorder recorder(SmallOptions(8, 1));
  std::thread first(
      [&recorder] { recorder.Record(SpanKind::kMerge, 1, 0, 1, 0, 1); });
  first.join();
  EXPECT_EQ(recorder.active_segments(), 0u);
  std::thread second(
      [&recorder] { recorder.Record(SpanKind::kMerge, 2, 0, 2, 0, 1); });
  second.join();
  EXPECT_EQ(recorder.lost_spans(), 0u);
  EXPECT_EQ(recorder.recorded_spans(), 2u);
}

TEST(SpanRecorderTest, DisabledRecorderRecordsNothing) {
  SpanRecorder::Options options = SmallOptions(8, 2);
  options.enabled = false;
  SpanRecorder recorder(options);
  recorder.Record(SpanKind::kQuery, 1, 0, 1, 0, 1);
  EXPECT_EQ(recorder.recorded_spans(), 0u);
  EXPECT_TRUE(recorder.Collect().empty());

  recorder.set_enabled(true);
  recorder.Record(SpanKind::kQuery, 1, 0, 1, 0, 1);
  EXPECT_EQ(recorder.recorded_spans(), 1u);
}

TEST(SpanRecorderTest, DetailIsTruncatedTo15Bytes) {
  SpanRecorder recorder(SmallOptions(8, 1));
  recorder.Record(SpanKind::kSubjoinTask, 1, 0, 1, 0, 1,
                  "0123456789012345678901234567890");
  std::vector<SpanRecorder::Span> spans = recorder.Collect();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].detail, "012345678901234");
}

TEST(SpanRecorderTest, SampleTickHonorsSampleEvery) {
  SpanRecorder::Options options = SmallOptions(8, 1);
  options.sample_every = 4;
  SpanRecorder recorder(options);
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    if (recorder.SampleTick()) ++sampled;
  }
  EXPECT_EQ(sampled, 4);
}

TEST(SpanRecorderTest, DumpJsonMatchesChromeTraceGolden) {
  // The dump schema is a contract: Perfetto / chrome://tracing load these
  // files, and CI validates them. Byte-exact golden over a deterministic
  // manually-recorded two-span timeline.
  SpanRecorder recorder(SmallOptions(8, 1));
  recorder.Record(SpanKind::kQuery, /*span_id=*/1, /*parent_id=*/0,
                  /*query_id=*/1, /*start_us=*/100, /*end_us=*/300,
                  "full");
  recorder.Record(SpanKind::kDeltaCompensation, /*span_id=*/2,
                  /*parent_id=*/1, /*query_id=*/1, /*start_us=*/150,
                  /*end_us=*/250, "a\"b\\c");
  EXPECT_EQ(recorder.DumpJson(),
            "{\"schema\":\"aggcache-spans-v1\",\"recorded\":2,\"lost\":0,"
            "\"displayTimeUnit\":\"ms\",\"traceEvents\":["
            "{\"name\":\"query\",\"cat\":\"aggcache\",\"ph\":\"X\","
            "\"ts\":100,\"dur\":200,\"pid\":1,\"tid\":0,"
            "\"args\":{\"id\":1,\"parent\":0,\"detail\":\"full\"}},"
            "{\"name\":\"delta_compensation\",\"cat\":\"aggcache\","
            "\"ph\":\"X\",\"ts\":150,\"dur\":100,\"pid\":1,\"tid\":0,"
            "\"args\":{\"id\":2,\"parent\":1,\"detail\":\"a\\\"b\\\\c\"}}"
            "]}");
}

// ---------------------------------------------------------------------------
// RAII wrappers. These always target the process-global recorder, so the
// tests flip its enabled bit and filter collected spans by their own query
// ids (other tests in the binary may have recorded too).

/// Enables the global recorder for the test's scope; restores the previous
/// state so the (default-off) recorder stays off for everyone else.
class ScopedGlobalSpans {
 public:
  ScopedGlobalSpans() : was_enabled_(SpanRecorder::Global().enabled()) {
    SpanRecorder::Global().set_enabled(true);
  }
  ~ScopedGlobalSpans() { SpanRecorder::Global().set_enabled(was_enabled_); }

 private:
  bool was_enabled_;
};

/// Collects every span of `query_id` from the global recorder.
std::vector<SpanRecorder::Span> SpansOfQuery(uint64_t query_id) {
  std::vector<SpanRecorder::Span> mine;
  for (const SpanRecorder::Span& span : SpanRecorder::Global().Collect()) {
    if (span.query_id == query_id) mine.push_back(span);
  }
  return mine;
}

TEST(ScopedSpanTest, NestedSpansChainParentIds) {
  ScopedGlobalSpans enable;
  uint64_t query_id = 0;
  uint64_t root_id = 0;
  uint64_t lookup_id = 0;
  {
    QueryRootSpan root("golden");
    ASSERT_TRUE(root.active());
    query_id = root.link().query_id;
    root_id = root.link().span_id;
    EXPECT_EQ(CurrentSpanLink().span_id, root_id);
    {
      ScopedSpan lookup(SpanKind::kCacheLookup);
      ASSERT_TRUE(lookup.active());
      lookup_id = lookup.link().span_id;
      EXPECT_EQ(CurrentSpanLink().span_id, lookup_id);
      ScopedSpan build(SpanKind::kEntryBuild);
      EXPECT_EQ(CurrentSpanLink().span_id, build.link().span_id);
    }
    EXPECT_EQ(CurrentSpanLink().span_id, root_id)
        << "inner spans restore the thread-current link";
  }
  EXPECT_FALSE(CurrentSpanLink().sampled()) << "root restores no-span state";

  std::vector<SpanRecorder::Span> spans = SpansOfQuery(query_id);
  ASSERT_EQ(spans.size(), 3u);
  std::map<uint64_t, SpanRecorder::Span> by_id;
  for (const SpanRecorder::Span& span : spans) by_id[span.span_id] = span;
  EXPECT_EQ(by_id[root_id].parent_id, 0u);
  EXPECT_EQ(by_id[root_id].kind, SpanKind::kQuery);
  EXPECT_STREQ(by_id[root_id].detail, "golden");
  EXPECT_EQ(by_id[lookup_id].parent_id, root_id);
  for (const SpanRecorder::Span& span : spans) {
    if (span.kind == SpanKind::kEntryBuild) {
      EXPECT_EQ(span.parent_id, lookup_id);
    }
  }
}

TEST(ScopedSpanTest, CrossThreadSpanLinkParentsWorkerSpans) {
  ScopedGlobalSpans enable;
  uint64_t query_id = 0;
  uint64_t root_id = 0;
  {
    QueryRootSpan root;
    ASSERT_TRUE(root.active());
    query_id = root.link().query_id;
    root_id = root.link().span_id;
    SpanLink parent = CurrentSpanLink();
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back([parent] {
        ScopedSpan task(SpanKind::kSubjoinTask, parent, "worker");
      });
    }
    for (std::thread& w : workers) w.join();
  }
  std::vector<SpanRecorder::Span> spans = SpansOfQuery(query_id);
  ASSERT_EQ(spans.size(), 4u);
  int tasks = 0;
  for (const SpanRecorder::Span& span : spans) {
    if (span.kind != SpanKind::kSubjoinTask) continue;
    ++tasks;
    EXPECT_EQ(span.parent_id, root_id);
    EXPECT_EQ(span.query_id, query_id);
  }
  EXPECT_EQ(tasks, 3);
}

TEST(ScopedSpanTest, UnsampledParentMakesChildrenNoOps) {
  ScopedGlobalSpans enable;
  uint64_t before = SpanRecorder::Global().recorded_spans();
  {
    // No QueryRootSpan installed: thread-current link is unsampled, so
    // child spans and explicit unsampled links record nothing.
    ScopedSpan orphan(SpanKind::kCacheLookup);
    EXPECT_FALSE(orphan.active());
    ScopedSpan linked(SpanKind::kSubjoinTask, SpanLink{}, "x");
    EXPECT_FALSE(linked.active());
    RecordSpanSince(SpanKind::kSingleFlightWait, 0);
  }
  EXPECT_EQ(SpanRecorder::Global().recorded_spans(), before);
}

TEST(ScopedSpanTest, BackgroundSpanGetsOwnLaneAndNests) {
  ScopedGlobalSpans enable;
  uint64_t merge_query = 0;
  {
    BackgroundSpan merge(SpanKind::kMerge, "g0");
    ASSERT_TRUE(merge.active());
    merge_query = CurrentSpanLink().query_id;
    ASSERT_NE(merge_query, 0u) << "background span installs thread-current";
    ScopedSpan child(SpanKind::kEntryBuild);
    EXPECT_TRUE(child.active());
  }
  std::vector<SpanRecorder::Span> spans = SpansOfQuery(merge_query);
  ASSERT_EQ(spans.size(), 2u);
  uint64_t merge_id = 0;
  for (const SpanRecorder::Span& span : spans) {
    if (span.kind == SpanKind::kMerge) {
      EXPECT_EQ(span.parent_id, 0u);
      merge_id = span.span_id;
    }
  }
  for (const SpanRecorder::Span& span : spans) {
    if (span.kind == SpanKind::kEntryBuild) {
      EXPECT_EQ(span.parent_id, merge_id)
          << "maintenance under a merge nests beneath the merge span";
    }
  }
}

TEST(PhaseTest, SetsTheActiveQueryPhase) {
  ActiveQueryGuard guard("SELECT phase", "uncached", nullptr);
  ASSERT_NE(guard.id(), 0u);
  auto listed_phase = [&guard] {
    for (const ActiveQueryRegistry::Info& info :
         ActiveQueryRegistry::Global().List()) {
      if (info.id == guard.id()) return info.phase;
    }
    return std::string("unregistered");
  };
  EXPECT_EQ(listed_phase(), "queued");
  {
    Phase phase(SpanKind::kDeltaCompensation);
    EXPECT_EQ(listed_phase(), "delta_compensation");
  }
  Phase exec(SpanKind::kUncachedExec);
  EXPECT_EQ(listed_phase(), "uncached_exec");
}

TEST(PhaseTest, SpanDurationIsTheElapsedReading) {
  ScopedGlobalSpans enable;
  uint64_t query_id = 0;
  uint64_t root_id = 0;
  uint64_t elapsed_us = 0;
  {
    QueryRootSpan root;
    ASSERT_TRUE(root.active());
    query_id = root.link().query_id;
    root_id = root.link().span_id;
    Phase phase(SpanKind::kMainCorrection);
    EXPECT_NE(CurrentSpanLink().span_id, root_id) << "phase span is current";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    phase.End();
    elapsed_us = phase.elapsed_us();
    EXPECT_EQ(CurrentSpanLink().span_id, root_id)
        << "End() restores the parent link";
  }
  EXPECT_GE(elapsed_us, 2000u);
  std::vector<SpanRecorder::Span> spans = SpansOfQuery(query_id);
  ASSERT_EQ(spans.size(), 2u);
  int phases = 0;
  for (const SpanRecorder::Span& span : spans) {
    if (span.kind != SpanKind::kMainCorrection) continue;
    ++phases;
    EXPECT_EQ(span.parent_id, root_id);
    EXPECT_NEAR(static_cast<double>(span.dur_us),
                static_cast<double>(elapsed_us), 1.0);
  }
  EXPECT_EQ(phases, 1);
}

TEST(PhaseTest, RecordsNothingWithSpansOff) {
  SpanRecorder& recorder = SpanRecorder::Global();
  bool was_enabled = recorder.enabled();
  recorder.set_enabled(false);
  uint64_t before = recorder.recorded_spans();
  {
    QueryRootSpan root;
    EXPECT_FALSE(root.active());
    Phase phase(SpanKind::kCacheLookup);
    EXPECT_FALSE(CurrentSpanLink().sampled());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    phase.End();
    EXPECT_GE(phase.elapsed_us(), 1000u) << "the duration is still measured";
  }
  EXPECT_EQ(recorder.recorded_spans(), before);
  recorder.set_enabled(was_enabled);
}

// ---------------------------------------------------------------------------
// Ledger EWMA math (cache_metrics.h).

TEST(CacheEntryMetricsTest, EwmaSeedsDirectlyThenConverges) {
  std::atomic<double> field{0.0};
  CacheEntryMetrics::Ewma(field, 10.0);
  EXPECT_DOUBLE_EQ(field.load(), 10.0) << "first sample seeds, no decay";
  CacheEntryMetrics::Ewma(field, 20.0);
  EXPECT_DOUBLE_EQ(field.load(), 10.0 + 0.2 * 10.0);
  // Feeding a constant converges to it.
  for (int i = 0; i < 200; ++i) CacheEntryMetrics::Ewma(field, 5.0);
  EXPECT_NEAR(field.load(), 5.0, 1e-6);
}

TEST(CacheEntryMetricsTest, EwmaIsThreadSafeUnderConcurrentSamples) {
  // Concurrent EWMA updates must never lose the field to a torn state: the
  // result of hammering a constant from many threads is that constant.
  std::atomic<double> field{0.0};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&field] {
      for (int i = 0; i < 1000; ++i) CacheEntryMetrics::Ewma(field, 8.0);
    });
  }
  for (std::thread& w : writers) w.join();
  EXPECT_NEAR(field.load(), 8.0, 1e-6);
}

// ---------------------------------------------------------------------------
// End-to-end: a traced query over Header ⋈ Item, spans on. The span tree
// must reconcile with the QueryTrace — one root per execution, children
// parented into it, and the root's children covering the bulk of the
// end-to-end latency (admission wait + lookup + compensation tile; only
// inter-phase glue is uncovered).

class SpanTreeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateHeaderItemTables(&db_, &header_, &item_);
    // A moderately sized dataset so phase timings dominate the glue code
    // between spans: 40 merged objects plus 10 delta-resident ones.
    for (int64_t h = 1; h <= 40; ++h) {
      ASSERT_OK(InsertBusinessObject(&db_, header_, item_, h, 2013 + h % 3,
                                     /*num_items=*/20, 1.0, &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    for (int64_t h = 41; h <= 50; ++h) {
      ASSERT_OK(InsertBusinessObject(&db_, header_, item_, h, 2014,
                                     /*num_items=*/20, 1.0, &next_item_id_));
    }
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
};

TEST_F(SpanTreeTest, QueryTreeReconcilesWithQueryTrace) {
  AggregateCacheManager cache(&db_);
  ScopedGlobalSpans enable;

  // Warm the entry (records a build-flavored tree), then trace a hit. The
  // entry is rebuilt first, so the hit starts from a cold delta memo and
  // compensates the deltas through subjoin tasks.
  {
    Transaction txn = db_.Begin();
    auto warm = cache.Execute(HeaderItemQuery(), txn, ExecutionOptions());
    ASSERT_TRUE(warm.ok()) << warm.status();
    cache.Clear();
    ASSERT_OK(cache.Prewarm(HeaderItemQuery()));
  }
  uint64_t queries_before = SpanRecorder::Global().recorded_spans();
  QueryTrace trace;
  ExecutionOptions options;
  options.trace = &trace;
  Transaction txn = db_.Begin();
  auto result = cache.Execute(HeaderItemQuery(), txn, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_GT(SpanRecorder::Global().recorded_spans(), queries_before);
  EXPECT_EQ(trace.cache_outcome, "hit");

  // The traced execution's tree is the one with the newest kQuery root.
  std::vector<SpanRecorder::Span> all = SpanRecorder::Global().Collect();
  const SpanRecorder::Span* root = nullptr;
  for (const SpanRecorder::Span& span : all) {
    if (span.kind == SpanKind::kQuery &&
        (root == nullptr || span.seq > root->seq)) {
      root = &span;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_STREQ(root->detail, "cached-full-pru")
      << "strategy label, truncated to the 15-byte detail budget";

  std::vector<SpanRecorder::Span> tree = SpansOfQuery(root->query_id);
  std::set<uint64_t> ids;
  for (const SpanRecorder::Span& span : tree) ids.insert(span.span_id);
  std::set<SpanKind> kinds;
  uint64_t direct_children_us = 0;
  for (const SpanRecorder::Span& span : tree) {
    kinds.insert(span.kind);
    if (span.span_id == root->span_id) continue;
    EXPECT_TRUE(ids.count(span.parent_id))
        << "span " << SpanKindToString(span.kind)
        << " parents outside its own tree";
    if (span.parent_id == root->span_id) {
      direct_children_us += span.dur_us;
      EXPECT_GE(span.start_us, root->start_us);
      EXPECT_LE(span.start_us + span.dur_us,
                root->start_us + root->dur_us + 1)
          << "child escapes the root interval";
    }
  }
  // A cache hit's lifecycle: admission, the lookup tile, then delta
  // compensation with its fan-out tasks.
  EXPECT_TRUE(kinds.count(SpanKind::kAdmissionWait));
  EXPECT_TRUE(kinds.count(SpanKind::kCacheLookup));
  EXPECT_TRUE(kinds.count(SpanKind::kDeltaCompensation));
  EXPECT_TRUE(kinds.count(SpanKind::kSubjoinTask));

  // Coverage: the root's direct children tile the execution; only glue
  // (stats plumbing, result move) is uncovered. Tolerate scheduler noise
  // but require the tree to explain most of the measured latency.
  EXPECT_GE(direct_children_us + 1,
            static_cast<uint64_t>(root->dur_us * 0.80))
      << "span tree explains too little of the query latency";
  // The root span and the QueryTrace's end-to-end time come from the same
  // two clock readings; they differ only by microsecond truncation.
  EXPECT_NEAR(static_cast<double>(root->dur_us), trace.total_ms * 1000.0, 1.0);
}

TEST_F(SpanTreeTest, MissRecordsEntryBuildUnderLookup) {
  AggregateCacheManager cache(&db_);
  ScopedGlobalSpans enable;
  Transaction txn = db_.Begin();
  auto result = cache.Execute(HeaderItemQuery(), txn, ExecutionOptions());
  ASSERT_TRUE(result.ok()) << result.status();

  std::vector<SpanRecorder::Span> all = SpanRecorder::Global().Collect();
  const SpanRecorder::Span* root = nullptr;
  for (const SpanRecorder::Span& span : all) {
    if (span.kind == SpanKind::kQuery &&
        (root == nullptr || span.seq > root->seq)) {
      root = &span;
    }
  }
  ASSERT_NE(root, nullptr);
  std::map<SpanKind, const SpanRecorder::Span*> by_kind;
  for (const SpanRecorder::Span& span : all) {
    if (span.query_id == root->query_id) by_kind[span.kind] = &span;
  }
  ASSERT_TRUE(by_kind.count(SpanKind::kEntryBuild));
  ASSERT_TRUE(by_kind.count(SpanKind::kCacheLookup));
  EXPECT_EQ(by_kind[SpanKind::kEntryBuild]->parent_id,
            by_kind[SpanKind::kCacheLookup]->span_id)
      << "the build nests inside the lookup span";
}

}  // namespace
}  // namespace aggcache
