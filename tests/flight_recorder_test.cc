// Tests for the engine flight recorder (src/obs/flight_recorder.h): ring
// wraparound keeps the most recent events in order, the loss counter only
// counts segment-pool exhaustion, and the JSON dump matches its documented
// schema (golden — tooling parses these dumps). The concurrent-writer test
// lives in tests/ring_stress_test.cc, which the TSAN CI job runs.

#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/flight_recorder.h"

namespace aggcache {
namespace {

FlightRecorder::Options SmallOptions(size_t events_per_segment,
                                     size_t max_segments) {
  FlightRecorder::Options options;
  options.events_per_segment = events_per_segment;
  options.max_segments = max_segments;
  return options;
}

TEST(FlightRecorderTest, EventTypeNamesAreStable) {
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kMergeStart),
               "merge_start");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kMergeCommit),
               "merge_commit");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kMergeAbort),
               "merge_abort");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kMergeBackoff),
               "merge_backoff");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kEntryState),
               "entry_state");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kAdmissionReject),
               "admission_reject");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kSingleFlightWait),
               "singleflight_wait");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kFaultInjected),
               "fault_injected");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kSnapshotIssued),
               "snapshot_issued");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kCheckFailure),
               "check_failure");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kPoolResize),
               "pool_resize");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kMaintenanceFailure),
               "maintenance_failure");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kWalAppend),
               "wal_append");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kWalSync), "wal_sync");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kCheckpointPublish),
               "checkpoint_publish");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kRecoveryReplay),
               "recovery_replay");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kQueryAbort),
               "query_abort");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kAdmissionShed),
               "admission_shed");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kDegradedFlip),
               "degraded_flip");
  EXPECT_STREQ(FlightEventTypeToString(FlightEventType::kPressureYield),
               "pressure_yield");
}

TEST(FlightRecorderTest, RecordsAndCollectsInOrder) {
  FlightRecorder recorder(SmallOptions(64, 4));
  for (uint64_t i = 0; i < 10; ++i) {
    recorder.Record(FlightEventType::kMergeStart, i, i * 2, "Header");
  }
  EXPECT_EQ(recorder.recorded_events(), 10u);
  EXPECT_EQ(recorder.lost_events(), 0u);

  std::vector<FlightRecorder::Event> events = recorder.Collect();
  ASSERT_EQ(events.size(), 10u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i + 1) << "1-based, gap-free, oldest first";
    EXPECT_EQ(events[i].type, FlightEventType::kMergeStart);
    EXPECT_EQ(events[i].a, i);
    EXPECT_EQ(events[i].b, i * 2);
    EXPECT_STREQ(events[i].detail, "Header");
  }
}

TEST(FlightRecorderTest, WraparoundKeepsMostRecentEventsInOrder) {
  // 8-slot segment, 30 events from one thread: the ring has been lapped
  // several times and must retain exactly the newest 8, still ordered.
  FlightRecorder recorder(SmallOptions(8, 2));
  for (uint64_t i = 1; i <= 30; ++i) {
    recorder.Record(FlightEventType::kEntryState, i);
  }
  EXPECT_EQ(recorder.recorded_events(), 30u);
  EXPECT_EQ(recorder.lost_events(), 0u) << "overwrite is not loss";

  std::vector<FlightRecorder::Event> events = recorder.Collect();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 23 + i);  // seqs 23..30 survive
    EXPECT_EQ(events[i].a, 23 + i);    // payload moved with its seq
  }
}

TEST(FlightRecorderTest, CollectHonorsMaxEvents) {
  FlightRecorder recorder(SmallOptions(64, 2));
  for (uint64_t i = 1; i <= 20; ++i) {
    recorder.Record(FlightEventType::kSnapshotIssued, i);
  }
  std::vector<FlightRecorder::Event> events = recorder.Collect(5);
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().seq, 16u) << "keeps the newest, drops the oldest";
  EXPECT_EQ(events.back().seq, 20u);
}

TEST(FlightRecorderTest, LossCounterCountsSegmentExhaustionExactly) {
  // One segment total, and the main thread takes it with its first record.
  // Every event from any other thread must then be counted lost — no more,
  // no less.
  FlightRecorder recorder(SmallOptions(8, 1));
  recorder.Record(FlightEventType::kMergeStart, 1);
  std::thread starved([&recorder] {
    for (uint64_t i = 0; i < 10; ++i) {
      recorder.Record(FlightEventType::kMergeCommit, i);
    }
  });
  starved.join();
  EXPECT_EQ(recorder.lost_events(), 10u);
  EXPECT_EQ(recorder.recorded_events(), 1u);
  std::vector<FlightRecorder::Event> events = recorder.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, FlightEventType::kMergeStart);
}

TEST(FlightRecorderTest, SegmentIsReleasedAtThreadExitAndReused) {
  FlightRecorder recorder(SmallOptions(8, 1));
  std::thread first([&recorder] {
    recorder.Record(FlightEventType::kMergeStart, 7);
  });
  first.join();
  EXPECT_EQ(recorder.active_segments(), 0u);
  // A later thread reuses the freed segment instead of being starved.
  std::thread second([&recorder] {
    recorder.Record(FlightEventType::kMergeCommit, 8);
  });
  second.join();
  EXPECT_EQ(recorder.lost_events(), 0u);
  EXPECT_EQ(recorder.recorded_events(), 2u);
}

TEST(FlightRecorderTest, ThreadKeepsOneLeasePerRecorder) {
  // A thread that alternates between recorders (the flight and span
  // recorders share one ring implementation) keeps a segment in each
  // instead of releasing and re-leasing on every switch.
  FlightRecorder first(SmallOptions(8, 1));
  FlightRecorder second(SmallOptions(8, 1));
  for (uint64_t i = 0; i < 3; ++i) {
    first.Record(FlightEventType::kMergeStart, i);
    second.Record(FlightEventType::kMergeCommit, i);
  }
  EXPECT_EQ(first.active_segments(), 1u);
  EXPECT_EQ(second.active_segments(), 1u);
  EXPECT_EQ(first.Collect().size(), 3u);
  EXPECT_EQ(second.Collect().size(), 3u);
  EXPECT_EQ(first.lost_events() + second.lost_events(), 0u);
}

TEST(FlightRecorderTest, DisabledRecorderRecordsNothing) {
  FlightRecorder::Options options = SmallOptions(8, 2);
  options.enabled = false;
  FlightRecorder recorder(options);
  recorder.Record(FlightEventType::kMergeStart);
  EXPECT_EQ(recorder.recorded_events(), 0u);
  EXPECT_EQ(recorder.lost_events(), 0u);
  EXPECT_TRUE(recorder.Collect().empty());

  recorder.set_enabled(true);
  recorder.Record(FlightEventType::kMergeStart);
  EXPECT_EQ(recorder.recorded_events(), 1u);
}

TEST(FlightRecorderTest, DetailIsTruncatedTo23Bytes) {
  FlightRecorder recorder(SmallOptions(8, 1));
  recorder.Record(FlightEventType::kMaintenanceFailure, 0, 0,
                  "0123456789012345678901234567890");
  std::vector<FlightRecorder::Event> events = recorder.Collect();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].detail, "01234567890123456789012");
}

TEST(FlightRecorderTest, DumpJsonMatchesSchemaGolden) {
  // The dump schema is a contract: tools and humans parse it from stderr
  // after a crash. Byte-exact golden on a deterministic two-event timeline,
  // modulo the wall-clock t_us fields which are asserted separately.
  FlightRecorder recorder(SmallOptions(8, 1));
  recorder.Record(FlightEventType::kMergeStart, 1, 2, "Header");
  recorder.Record(FlightEventType::kAdmissionReject, 42, 0, "a\"b\\c");
  std::string json = recorder.DumpJson();

  // Scrub the timing fields, which are the only nondeterminism.
  std::string scrubbed;
  size_t pos = 0;
  while (pos < json.size()) {
    size_t t = json.find("\"t_us\":", pos);
    if (t == std::string::npos) {
      scrubbed += json.substr(pos);
      break;
    }
    t += 7;
    scrubbed += json.substr(pos, t - pos);
    scrubbed += "T";
    while (t < json.size() && json[t] >= '0' && json[t] <= '9') ++t;
    pos = t;
  }
  EXPECT_EQ(scrubbed,
            "{\"schema\":\"aggcache-flight-v1\",\"recorded\":2,\"lost\":0,"
            "\"events\":["
            "{\"seq\":1,\"t_us\":T,\"thread\":0,\"type\":\"merge_start\","
            "\"a\":1,\"b\":2,\"detail\":\"Header\"},"
            "{\"seq\":2,\"t_us\":T,\"thread\":0,"
            "\"type\":\"admission_reject\",\"a\":42,\"b\":0,"
            "\"detail\":\"a\\\"b\\\\c\"}"
            "]}");

  std::vector<FlightRecorder::Event> events = recorder.Collect();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LE(events[0].t_us, events[1].t_us);
}

TEST(FlightRecorderTest, GlobalRecorderIsEnabledAndUsable) {
  // The process-global instance: the free-function wrapper must land events
  // in it (other tests in this binary may also have recorded — only the
  // delta is asserted).
  uint64_t before = FlightRecorder::Global().recorded_events();
  RecordFlightEvent(FlightEventType::kSnapshotIssued, 123, 0, "Header");
  EXPECT_GE(FlightRecorder::Global().recorded_events(), before + 1);
}

}  // namespace
}  // namespace aggcache
