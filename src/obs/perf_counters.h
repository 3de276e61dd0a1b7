#ifndef AGGCACHE_OBS_PERF_COUNTERS_H_
#define AGGCACHE_OBS_PERF_COUNTERS_H_

#include <cstdint>
#include <string>

namespace aggcache {

/// One hardware-counter reading (or the difference of two): the five
/// events the engine samples per query — cycles, instructions, last-level
/// cache misses, branch misses, and task clock (the thread's on-CPU
/// nanoseconds, derived from the group's time_running). `valid` is false
/// when the counters could not be read (perf_event_open denied, non-Linux
/// build, or the test hook simulating either); consumers must omit the
/// fields entirely rather than report zeros.
struct PerfDelta {
  uint64_t cycles = 0;
  uint64_t instructions = 0;
  uint64_t llc_misses = 0;
  uint64_t branch_misses = 0;
  uint64_t task_clock_ns = 0;
  bool valid = false;

  /// Instructions per cycle; 0 when cycles is 0.
  double Ipc() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(instructions) /
                             static_cast<double>(cycles);
  }
};

/// Per-thread hardware performance counters over perf_event_open.
///
/// Design: opening a counter group per query would cost two syscalls plus
/// fd churn on every Execute, so instead each thread lazily opens ONE
/// always-running counter group on its first Read() and keeps it for the
/// thread's lifetime. A measured region is then two Read() calls — each a
/// single read(2) of the group fd — and a subtraction, cheap enough for
/// the per-query root sample and the per-phase samples EXPLAIN and the
/// span recorder take.
///
/// The counters observe only the calling thread (the query's orchestration
/// thread). Work fanned out to pool workers is NOT attributed — the
/// numbers explain where the orchestration thread's time went, and the
/// task-clock field makes the cycle counts interpretable next to wall
/// time. DESIGN.md §7 documents the undercount.
///
/// Degradation: the first open that fails with EACCES/EPERM (the
/// kernel.perf_event_paranoid default in containers and CI) or ENOSYS
/// latches a process-wide "unavailable" state — one stderr warning, the
/// aggcache_perf_counters_unavailable gauge set to 1, and every later
/// Read() returns {valid=false} after a single relaxed load. Multiplexed
/// groups (more events than counters) are scaled by enabled/running time,
/// the standard perf correction.
class PerfCounters {
 public:
  /// True when this process can read hardware counters (attempts the
  /// first open if no thread has tried yet).
  static bool Available();

  /// Reads the calling thread's counter group. {valid=false} when
  /// unavailable; otherwise cumulative counts since this thread first
  /// called Read().
  static PerfDelta Read();

  /// end - begin, field-wise; valid only when both inputs are.
  static PerfDelta Delta(const PerfDelta& begin, const PerfDelta& end);

  /// Test hook: makes every subsequent open fail with `err` (e.g. EACCES,
  /// ENOSYS), as if the kernel denied perf_event_open. Existing
  /// thread-local groups are invalidated via a generation bump so the
  /// simulated failure takes effect on the calling thread immediately.
  static void SimulateOpenFailureForTest(int err);

  /// Test hook: clears the simulated failure AND the latched unavailable
  /// state, letting the next Read() retry a real open.
  static void ResetForTest();

  /// True once the process has latched the degraded (no-counters) state.
  static bool unavailable();
};

}  // namespace aggcache

#endif  // AGGCACHE_OBS_PERF_COUNTERS_H_
