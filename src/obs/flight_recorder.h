#ifndef AGGCACHE_OBS_FLIGHT_RECORDER_H_
#define AGGCACHE_OBS_FLIGHT_RECORDER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_ring.h"

namespace aggcache {

/// Typed engine events the flight recorder understands. The taxonomy is the
/// cross-query counterpart of the per-query EXPLAIN trace: it answers "what
/// was the *engine* doing in the seconds before this failure", not "why did
/// this query do what it did". Kept in one enum so the event-name table,
/// DESIGN.md §7 and the golden schema test stay trivially in sync.
enum class FlightEventType : uint8_t {
  kMergeStart = 0,       ///< a = attempt; b = group size; detail = 1st table
  kMergeCommit,          ///< a = attempt; b = group size; detail = 1st table
  kMergeAbort,           ///< a = attempt; b = group size; detail = 1st table
  kMergeBackoff,         ///< a = backoff ms; b = attempt; detail = 1st table
  kEntryState,           ///< a = entry id; b = from<<8|to (EntryState)
  kAdmissionReject,      ///< a = entry id; detail = reason
  kSingleFlightWait,     ///< a = entry id
  kFaultInjected,        ///< a = fire #; b = 1 delay / 0 error; detail = point
  kSnapshotIssued,       ///< a = snapshot tid; b = group; detail = table
  kCheckFailure,         ///< detail = failing file:line (best effort)
  kPoolResize,           ///< a = new parallelism; b = old parallelism
  kMaintenanceFailure,   ///< a = entry id; detail = table / cause
  kWalAppend,            ///< a = lsn; b = frame bytes; detail = record type
  kWalSync,              ///< a = durable lsn; b = sync µs
  kCheckpointPublish,    ///< a = checkpoint lsn; b = payload bytes
  kRecoveryReplay,       ///< a = records replayed; b = replay µs
  kQueryAbort,           ///< a = QueryAbortReason; detail = cause
  kAdmissionShed,        ///< a = 0 timeout/1 capacity/2 aborted; b = queue
  kDegradedFlip,         ///< a = 1 entered / 0 left degraded mode
  kPressureYield,        ///< a = tracker used MiB; b = tracker limit MiB
};

/// Event-type name used in JSON dumps (stable contract, golden-tested).
const char* FlightEventTypeToString(FlightEventType type);

/// The engine's black box: a bounded, lock-free ring (obs/event_ring.h)
/// of typed engine events. Recording is a few relaxed atomics, no lock, no
/// allocation, no syscall, so the hot paths it instruments (entry state
/// flips, merges, WAL syncs) pay nanoseconds. Wraparound keeps the recent
/// past; events are only *lost* (counted in lost_events()) when more
/// threads record at once than there are segments.
///
/// Dumps are loose snapshots that discard torn slots, never emit them.
/// Dumping is expected at three moments — on demand (shell `\flight`,
/// replayer `!flightdump`), from the AGGCACHE_CHECK failure hook, and from
/// the SIGUSR1 handler — so a dying stress run ships its last-N thousand
/// events instead of a bare counter dump.
class FlightRecorder {
 public:
  struct Options {
    /// Events per thread segment; rounded up to a power of two.
    size_t events_per_segment = 2048;
    /// Maximum simultaneously-recording threads.
    size_t max_segments = 64;
    bool enabled = true;
  };

  explicit FlightRecorder(Options options);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// The process-wide recorder, configured from AGGCACHE_FLIGHT
  /// ("off" | "events=4096" | "events=4096,threads=32") on first use and
  /// intentionally leaked so worker threads may record during static
  /// teardown. First use also installs the AGGCACHE_CHECK failure hook.
  static FlightRecorder& Global();

  /// Records one event. ~3 relaxed atomic RMW/stores when enabled; a single
  /// relaxed load when disabled. `detail` is truncated to 23 bytes.
  void Record(FlightEventType type, uint64_t a = 0, uint64_t b = 0,
              const char* detail = nullptr);

  void set_enabled(bool enabled) { ring_.set_enabled(enabled); }
  bool enabled() const { return ring_.enabled(); }

  /// Events dropped because every segment was leased by some other thread.
  uint64_t lost_events() const { return ring_.lost(); }
  /// Events successfully recorded (including ones since overwritten).
  uint64_t recorded_events() const { return ring_.recorded(); }

  /// One harvested event, already validated (sequence stable across the
  /// payload read).
  struct Event {
    uint64_t seq = 0;
    uint64_t t_us = 0;  ///< microseconds since recorder construction
    uint32_t thread = 0;
    FlightEventType type = FlightEventType::kMergeStart;
    uint64_t a = 0;
    uint64_t b = 0;
    char detail[24] = {};
  };

  /// Harvests up to `max_events` of the most recent events, oldest first
  /// (global sequence order).
  std::vector<Event> Collect(size_t max_events = SIZE_MAX) const;

  /// Renders the last `max_events` events as a JSON object:
  ///   {"schema":"aggcache-flight-v1","recorded":N,"lost":N,
  ///    "events":[{"seq":..,"t_us":..,"thread":..,"type":"..",
  ///               "a":..,"b":..,"detail":".."}, ...]}
  std::string DumpJson(size_t max_events = 4096) const;

  /// Writes DumpJson(max_events) to stderr with a banner. Safe to call from
  /// the CHECK-failure path (allocates, so not async-signal-safe; the
  /// SIGUSR1 handler only sets a flag consumed by RequestedDumpPending()).
  void DumpToStderr(size_t max_events = 4096) const;

  /// Installs a SIGUSR1 handler that requests a dump; long-running binaries
  /// (stress, fuzz, shell) poll RequestedDumpPending() on their main loop
  /// and call DumpToStderr() when it reports true. POSIX-only no-op
  /// elsewhere.
  static void InstallSignalHandler();
  static bool RequestedDumpPending();

  /// Number of segments currently leased (tests).
  size_t active_segments() const { return ring_.active_segments(); }

 private:
  /// Payload words: t_us, type, a, b, detail[3].
  using Ring = EventRing<7>;
  Ring ring_;
  uint64_t t0_us_ = 0;
};

/// Convenience wrapper: FlightRecorder::Global().Record(...). Defined out
/// of line so instrumented headers need only this one declaration.
void RecordFlightEvent(FlightEventType type, uint64_t a = 0, uint64_t b = 0,
                       const char* detail = nullptr);

}  // namespace aggcache

#endif  // AGGCACHE_OBS_FLIGHT_RECORDER_H_
