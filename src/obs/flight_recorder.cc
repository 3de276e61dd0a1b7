#include "obs/flight_recorder.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#define AGGCACHE_FLIGHT_HAS_SIGNALS 1
#endif

#include "common/logging.h"
#include "common/string_util.h"
#include "obs/span.h"

namespace aggcache {

namespace {

uint64_t NowMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Event-timestamp clock. The precise steady_clock read costs ~25 ns — half
/// a Record() — but per-event precision buys nothing: `seq` already totally
/// orders events, and t_us only correlates the timeline with wall-clock
/// phases (merges, checkpoints), where jiffy resolution is plenty. Use the
/// kernel's coarse monotonic clock (a vDSO memory read, ~5 ns) when
/// available.
uint64_t EventMicros() {
#if defined(CLOCK_MONOTONIC_COARSE)
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC_COARSE, &ts) == 0) {
    return static_cast<uint64_t>(ts.tv_sec) * 1000000 +
           static_cast<uint64_t>(ts.tv_nsec) / 1000;
  }
#endif
  return NowMicros();
}

std::atomic<bool> g_dump_requested{false};

#ifdef AGGCACHE_FLIGHT_HAS_SIGNALS
void FlightSignalHandler(int) {
  // Async-signal-safe: just raise the flag; the owning binary polls it.
  g_dump_requested.store(true, std::memory_order_relaxed);
}
#endif

}  // namespace

const char* FlightEventTypeToString(FlightEventType type) {
  switch (type) {
    case FlightEventType::kMergeStart:
      return "merge_start";
    case FlightEventType::kMergeCommit:
      return "merge_commit";
    case FlightEventType::kMergeAbort:
      return "merge_abort";
    case FlightEventType::kMergeBackoff:
      return "merge_backoff";
    case FlightEventType::kEntryState:
      return "entry_state";
    case FlightEventType::kAdmissionReject:
      return "admission_reject";
    case FlightEventType::kSingleFlightWait:
      return "singleflight_wait";
    case FlightEventType::kFaultInjected:
      return "fault_injected";
    case FlightEventType::kSnapshotIssued:
      return "snapshot_issued";
    case FlightEventType::kCheckFailure:
      return "check_failure";
    case FlightEventType::kPoolResize:
      return "pool_resize";
    case FlightEventType::kMaintenanceFailure:
      return "maintenance_failure";
    case FlightEventType::kWalAppend:
      return "wal_append";
    case FlightEventType::kWalSync:
      return "wal_sync";
    case FlightEventType::kCheckpointPublish:
      return "checkpoint_publish";
    case FlightEventType::kRecoveryReplay:
      return "recovery_replay";
    case FlightEventType::kQueryAbort:
      return "query_abort";
    case FlightEventType::kAdmissionShed:
      return "admission_shed";
    case FlightEventType::kDegradedFlip:
      return "degraded_flip";
    case FlightEventType::kPressureYield:
      return "pressure_yield";
  }
  return "unknown";
}

FlightRecorder::FlightRecorder(Options options)
    : ring_(options.events_per_segment, options.max_segments,
            options.enabled),
      t0_us_(EventMicros()) {}

void FlightRecorder::Record(FlightEventType type, uint64_t a, uint64_t b,
                            const char* detail) {
  if (!ring_.enabled()) return;
  Ring::Payload p = {EventMicros() - t0_us_, static_cast<uint64_t>(type), a,
                     b};
  PackText<3>(detail, &p[4]);
  ring_.Record(p);
}

std::vector<FlightRecorder::Event> FlightRecorder::Collect(
    size_t max_events) const {
  std::vector<Event> events;
  for (const Ring::Entry& entry : ring_.Collect(max_events)) {
    Event& event = events.emplace_back();
    event.seq = entry.seq;
    event.thread = entry.thread;
    event.t_us = entry.words[0];
    event.type = static_cast<FlightEventType>(entry.words[1]);
    event.a = entry.words[2];
    event.b = entry.words[3];
    UnpackText<3>(&entry.words[4], event.detail);
  }
  return events;
}

std::string FlightRecorder::DumpJson(size_t max_events) const {
  std::vector<Event> events = Collect(max_events);
  std::string out;
  out.reserve(128 + events.size() * 96);
  out += "{\"schema\":\"aggcache-flight-v1\",\"recorded\":";
  out += std::to_string(recorded_events());
  out += ",\"lost\":";
  out += std::to_string(lost_events());
  out += ",\"events\":[";
  bool first = true;
  for (const Event& event : events) {
    if (!first) out += ",";
    first = false;
    out += "{\"seq\":";
    out += std::to_string(event.seq);
    out += ",\"t_us\":";
    out += std::to_string(event.t_us);
    out += ",\"thread\":";
    out += std::to_string(event.thread);
    out += ",\"type\":\"";
    out += FlightEventTypeToString(event.type);
    out += "\",\"a\":";
    out += std::to_string(event.a);
    out += ",\"b\":";
    out += std::to_string(event.b);
    out += ",\"detail\":\"";
    AppendJsonEscaped(&out, event.detail);
    out += "\"}";
  }
  out += "]}";
  return out;
}

void FlightRecorder::DumpToStderr(size_t max_events) const {
  std::string dump = DumpJson(max_events);
  std::fprintf(stderr, "--- aggcache flight recorder dump ---\n%s\n",
               dump.c_str());
  std::fflush(stderr);
}

void FlightRecorder::InstallSignalHandler() {
#ifdef AGGCACHE_FLIGHT_HAS_SIGNALS
  struct sigaction action = {};
  action.sa_handler = FlightSignalHandler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = SA_RESTART;
  sigaction(SIGUSR1, &action, nullptr);
#endif
}

bool FlightRecorder::RequestedDumpPending() {
  return g_dump_requested.exchange(false, std::memory_order_relaxed);
}

namespace {

FlightRecorder::Options ParseFlightEnv() {
  FlightRecorder::Options options;
  const char* env = std::getenv("AGGCACHE_FLIGHT");
  if (env == nullptr) return options;
  std::string spec(env);
  if (spec == "off" || spec == "0") {
    options.enabled = false;
    return options;
  }
  for (const auto& [key, text] : SplitKeyValueSpec(spec)) {
    long value = std::strtol(text.c_str(), nullptr, 10);
    if (key == "events" && value > 0) {
      options.events_per_segment = static_cast<size_t>(value);
    } else if (key == "threads" && value > 0) {
      options.max_segments = static_cast<size_t>(value);
    }
  }
  return options;
}

/// AGGCACHE_CHECK failure hook: ship the timeline before the abort so a
/// crashed stress or fuzz run leaves its black box behind. Guarded against
/// re-entrant CHECK failures inside the dump itself. There is exactly one
/// hook slot, so the span recorder's crash dump chains from here rather
/// than registering its own hook.
void DumpFlightOnCheckFailure() {
  static std::atomic<bool> dumping{false};
  if (dumping.exchange(true, std::memory_order_relaxed)) return;
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.Record(FlightEventType::kCheckFailure);
  recorder.DumpToStderr();
  DumpSpansOnCheckFailureIfEnabled();
  dumping.store(false, std::memory_order_relaxed);
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = [] {
    FlightRecorder* r = new FlightRecorder(ParseFlightEnv());
    internal_logging::SetCheckFailureHook(&DumpFlightOnCheckFailure);
    return r;
  }();
  return *recorder;
}

void RecordFlightEvent(FlightEventType type, uint64_t a, uint64_t b,
                       const char* detail) {
  FlightRecorder::Global().Record(type, a, b, detail);
}

}  // namespace aggcache
