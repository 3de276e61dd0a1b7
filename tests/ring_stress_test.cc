// Concurrency stress for the event ring (src/obs/event_ring.h) through its
// two front-ends, the flight recorder and the span recorder. Lives in the
// parallel_tests binary so the TSAN CI job covers the lock-free
// publication path: the seqlock unpublish / payload / publish discipline,
// segment lease and release under contention, and harvesting concurrently
// with writers. Functional tests (goldens, RAII semantics, tree
// reconciliation) live in tests/flight_recorder_test.cc and
// tests/span_test.cc under the obs_tests binary.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"

namespace aggcache {
namespace {

FlightRecorder::Options SmallOptions(size_t events_per_segment,
                                     size_t max_segments) {
  FlightRecorder::Options options;
  options.events_per_segment = events_per_segment;
  options.max_segments = max_segments;
  return options;
}

SpanRecorder::Options StressOptions(size_t spans_per_segment,
                                    size_t max_segments) {
  SpanRecorder::Options options;
  options.spans_per_segment = spans_per_segment;
  options.max_segments = max_segments;
  options.enabled = true;
  return options;
}

TEST(FlightRecorderTest, ConcurrentWritersPublishTornFreeEvents) {
  // Runs under TSAN via the parallel_tests binary. Each writer stamps its payload
  // with a thread tag so a torn slot (payload from one write, seq from
  // another) is detectable after the fact.
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  FlightRecorder recorder(SmallOptions(1024, kThreads + 1));
  // Every writer leases (first Record) and then waits for the others: all
  // four segments are live simultaneously even on a single-core host where
  // threads would otherwise run back-to-back and reuse one freed segment.
  std::latch leased(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, &leased, t] {
      recorder.Record(FlightEventType::kEntryState, static_cast<uint64_t>(t),
                      static_cast<uint64_t>(t) << 32);
      leased.arrive_and_wait();
      for (uint64_t i = 1; i < kPerThread; ++i) {
        recorder.Record(FlightEventType::kEntryState,
                        static_cast<uint64_t>(t), (static_cast<uint64_t>(t)
                                                   << 32) |
                                                      i);
      }
    });
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(recorder.recorded_events(), kThreads * kPerThread);
  EXPECT_EQ(recorder.lost_events(), 0u);
  std::vector<FlightRecorder::Event> events = recorder.Collect();
  EXPECT_EQ(events.size(), static_cast<size_t>(kThreads) * 1024)
      << "every segment ring full";
  std::set<uint64_t> seqs;
  for (const FlightRecorder::Event& event : events) {
    EXPECT_TRUE(seqs.insert(event.seq).second) << "duplicate seq";
    EXPECT_LE(event.seq, kThreads * kPerThread);
    ASSERT_LT(event.a, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(event.b >> 32, event.a) << "torn slot: payload halves disagree";
    EXPECT_EQ(event.type, FlightEventType::kEntryState);
  }
  EXPECT_TRUE(std::is_sorted(
      events.begin(), events.end(),
      [](const FlightRecorder::Event& x, const FlightRecorder::Event& y) {
        return x.seq < y.seq;
      }));
}

TEST(SpanStressTest, ConcurrentWritersPublishTornFreeSpans) {
  // Each writer tags every field of its spans with its thread index, so a
  // torn slot (payload words from two different writers, or a seq from a
  // third) is detectable after the fact.
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 5000;
  SpanRecorder recorder(StressOptions(1024, kThreads + 1));
  // Every writer leases its segment (first Record) and then waits for the
  // others, so all segments are live simultaneously even on a single-core
  // host where threads would otherwise run back-to-back and share one.
  std::latch leased(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, &leased, t] {
      const uint64_t tag = static_cast<uint64_t>(t);
      auto record = [&](uint64_t i) {
        uint64_t now = recorder.NowMicros();
        recorder.Record(SpanKind::kSubjoinTask, /*span_id=*/(tag << 32) | i,
                        /*parent_id=*/(tag << 32) | i,
                        /*query_id=*/tag + 1, now, now + 1, "stress");
      };
      record(0);
      leased.arrive_and_wait();
      for (uint64_t i = 1; i < kPerThread; ++i) record(i);
    });
  }
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(recorder.recorded_spans(), kThreads * kPerThread);
  EXPECT_EQ(recorder.lost_spans(), 0u);
  std::vector<SpanRecorder::Span> spans = recorder.Collect();
  EXPECT_EQ(spans.size(), static_cast<size_t>(kThreads) * 1024)
      << "every segment ring full after wraparound";
  std::set<uint64_t> seqs;
  for (const SpanRecorder::Span& span : spans) {
    EXPECT_TRUE(seqs.insert(span.seq).second) << "duplicate seq";
    EXPECT_LE(span.seq, kThreads * kPerThread);
    uint64_t tag = span.span_id >> 32;
    ASSERT_LT(tag, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(span.parent_id, span.span_id) << "torn slot: ids disagree";
    EXPECT_EQ(span.query_id, tag + 1) << "torn slot: query id from another "
                                         "writer";
    EXPECT_EQ(span.kind, SpanKind::kSubjoinTask);
    EXPECT_EQ(span.dur_us, 1u);
    EXPECT_STREQ(span.detail, "stress");
  }
  EXPECT_TRUE(std::is_sorted(spans.begin(), spans.end(),
                             [](const SpanRecorder::Span& x,
                                const SpanRecorder::Span& y) {
                               return x.seq < y.seq;
                             }));
}

TEST(SpanStressTest, HarvestingWhileWritingNeverYieldsTornSlots) {
  // Collect() must be safe against writers mid-publication: slots observed
  // torn are discarded, never returned half-written. The harvester races
  // the writers for the whole run and validates every span it sees.
  constexpr int kThreads = 3;
  constexpr uint64_t kPerThread = 20000;
  SpanRecorder recorder(StressOptions(256, kThreads + 1));
  std::atomic<bool> done{false};
  // Writers start only after the harvester's first Collect(), so the
  // harvest overlaps the writes even when the harvester thread is
  // scheduled late (a loaded host can otherwise finish every writer first).
  std::latch harvesting(1);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, &harvesting, t] {
      harvesting.wait();
      const uint64_t tag = static_cast<uint64_t>(t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t now = recorder.NowMicros();
        recorder.Record(SpanKind::kSubjoinTask, (tag << 32) | i,
                        (tag << 32) | i, tag + 1, now, now);
      }
    });
  }
  uint64_t harvested = 0;
  std::thread harvester([&recorder, &done, &harvesting, &harvested] {
    auto harvest = [&] {
      std::vector<SpanRecorder::Span> spans = recorder.Collect(512);
      harvested += spans.size();
      for (const SpanRecorder::Span& span : spans) {
        uint64_t tag = span.span_id >> 32;
        ASSERT_LT(tag, static_cast<uint64_t>(kThreads));
        ASSERT_EQ(span.parent_id, span.span_id);
        ASSERT_EQ(span.query_id, tag + 1);
      }
    };
    harvest();
    harvesting.count_down();
    while (!done.load(std::memory_order_acquire)) harvest();
    harvest();  // one pass after the writers finished
  });
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  harvester.join();
  EXPECT_GT(harvested, 0u) << "harvester never saw a published span";
  EXPECT_EQ(recorder.recorded_spans(), kThreads * kPerThread);
}

TEST(SpanStressTest, SegmentExhaustionCountsLossesWithoutCorruption) {
  // More writers than segments: the starved writers' spans are counted as
  // lost, and the winners' spans remain intact.
  constexpr int kThreads = 6;
  constexpr size_t kSegments = 2;
  constexpr uint64_t kPerThread = 2000;
  SpanRecorder recorder(StressOptions(64, kSegments));
  std::latch start(kThreads);
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&recorder, &start, t] {
      start.arrive_and_wait();
      const uint64_t tag = static_cast<uint64_t>(t);
      for (uint64_t i = 0; i < kPerThread; ++i) {
        uint64_t now = recorder.NowMicros();
        recorder.Record(SpanKind::kSubjoinTask, (tag << 32) | i,
                        (tag << 32) | i, tag + 1, now, now);
      }
    });
  }
  for (std::thread& w : writers) w.join();

  // Every span is accounted for exactly once, recorded or lost. (How the
  // total splits depends on scheduling; with only two segments at least
  // the slotless overflow threads must have lost everything they wrote
  // while all segments were leased.)
  EXPECT_EQ(recorder.recorded_spans() + recorder.lost_spans(),
            kThreads * kPerThread);
  for (const SpanRecorder::Span& span : recorder.Collect()) {
    uint64_t tag = span.span_id >> 32;
    ASSERT_LT(tag, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(span.parent_id, span.span_id);
    EXPECT_EQ(span.query_id, tag + 1);
  }
}

TEST(SpanStressTest, ScopedSpanFanOutAcrossThreadsChainsOneParent) {
  // The RAII layer under contention: one sampled root, many workers opening
  // cross-thread children against it through SpanLink — the exact shape of
  // a ParallelFor subjoin fan-out. Exercises NextSpanId contention and the
  // thread-local current-span save/restore on every worker.
  SpanRecorder& global = SpanRecorder::Global();
  bool was_enabled = global.enabled();
  global.set_enabled(true);
  constexpr int kThreads = 4;
  constexpr int kSpansPerThread = 500;
  uint64_t root_query = 0;
  uint64_t root_span = 0;
  {
    QueryRootSpan root("stress");
    ASSERT_TRUE(root.active());
    SpanLink link = root.link();
    root_query = link.query_id;
    root_span = link.span_id;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([link] {
        for (int i = 0; i < kSpansPerThread; ++i) {
          ScopedSpan task(SpanKind::kSubjoinTask, link, "fanout");
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }
  global.set_enabled(was_enabled);

  int tasks = 0;
  bool saw_root = false;
  for (const SpanRecorder::Span& span : global.Collect()) {
    if (span.query_id != root_query) continue;
    if (span.span_id == root_span) {
      saw_root = true;
      EXPECT_EQ(span.kind, SpanKind::kQuery);
      continue;
    }
    EXPECT_EQ(span.kind, SpanKind::kSubjoinTask);
    EXPECT_EQ(span.parent_id, root_span);
    ++tasks;
  }
  EXPECT_TRUE(saw_root);
  // Global() is sized from the environment (possibly small); wraparound may
  // have evicted early tasks but whatever survives must be intact, and on
  // the default 4096-slot segments everything fits.
  EXPECT_GT(tasks, 0);
  EXPECT_LE(tasks, kThreads * kSpansPerThread);
}

}  // namespace
}  // namespace aggcache
