#include "obs/perf_counters.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#define AGGCACHE_HAS_PERF_EVENTS 1
#endif

#include "obs/engine_metrics.h"

namespace aggcache {

namespace {

/// Process-wide degraded latch: 0 = unknown (no open attempted), 1 =
/// available, 2 = unavailable. Reads on the hot path are one relaxed load.
std::atomic<int> g_state{0};

/// Simulated open failure (0 = none). Checked before the real syscall so
/// tests exercise the exact EACCES/ENOSYS paths without touching
/// kernel.perf_event_paranoid.
std::atomic<int> g_simulated_errno{0};

/// Bumped by the test hooks; thread-local groups re-open (or re-fail)
/// when their generation is stale.
std::atomic<uint64_t> g_generation{1};

void LatchUnavailable(int err) {
  g_state.store(2, std::memory_order_relaxed);
  EngineMetrics::Get().perf_counters_unavailable->Set(1);
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "aggcache: hardware perf counters unavailable (%s); "
                 "per-query cycle/cache-miss telemetry disabled\n",
                 std::strerror(err));
  }
}

#ifdef AGGCACHE_HAS_PERF_EVENTS

/// The five sampled events, in group-read order. The group leader is
/// cycles; task clock comes from the group's time_running field rather
/// than a sixth (software) event, which keeps the whole sample one
/// read(2).
struct EventSpec {
  uint32_t type;
  uint64_t config;
};
constexpr EventSpec kEvents[] = {
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES},
};
constexpr size_t kNumEvents = sizeof(kEvents) / sizeof(kEvents[0]);

int OpenEvent(const EventSpec& spec, int group_fd) {
  int simulated = g_simulated_errno.load(std::memory_order_relaxed);
  if (simulated != 0) {
    errno = simulated;
    return -1;
  }
  perf_event_attr attr;
  std::memset(&attr, 0, sizeof(attr));
  attr.size = sizeof(attr);
  attr.type = spec.type;
  attr.config = spec.config;
  attr.disabled = 0;  // Counting from open; regions are read() deltas.
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                     PERF_FORMAT_TOTAL_TIME_RUNNING;
  return static_cast<int>(::syscall(__NR_perf_event_open, &attr, /*pid=*/0,
                                    /*cpu=*/-1, group_fd, /*flags=*/0UL));
}

/// One thread's counter group. Siblings that fail to open individually
/// (an emulated event on a VM, say) are skipped — their slot reads 0 —
/// while a failed LEADER open latches process-wide unavailability.
struct ThreadGroup {
  uint64_t generation = 0;
  int fds[kNumEvents] = {-1, -1, -1, -1};
  /// opened[i] true when kEvents[i] is present in the group read buffer.
  bool opened[kNumEvents] = {};

  ~ThreadGroup() { Close(); }

  void Close() {
    // Sibling fds first, leader last — each event stops counting when its
    // own fd closes.
    for (size_t i = kNumEvents; i-- > 0;) {
      if (fds[i] >= 0) ::close(fds[i]);
      fds[i] = -1;
      opened[i] = false;
    }
  }

  bool Open() {
    fds[0] = OpenEvent(kEvents[0], -1);
    if (fds[0] < 0) {
      LatchUnavailable(errno);
      return false;
    }
    opened[0] = true;
    for (size_t i = 1; i < kNumEvents; ++i) {
      // A sibling that fails (an event the host cannot count) is skipped;
      // its slot reads 0 instead of poisoning the whole group.
      fds[i] = OpenEvent(kEvents[i], fds[0]);
      opened[i] = fds[i] >= 0;
    }
    g_state.store(1, std::memory_order_relaxed);
    return true;
  }

  bool Ensure() {
    uint64_t current = g_generation.load(std::memory_order_relaxed);
    if (generation == current) return fds[0] >= 0;
    // Stale generation: retry (covers ResetForTest and
    // SimulateOpenFailureForTest).
    Close();
    generation = current;
    return Open();
  }

  PerfDelta ReadNow() {
    PerfDelta out;
    if (fds[0] < 0) return out;
    // read_format with PERF_FORMAT_GROUP:
    //   u64 nr; u64 time_enabled; u64 time_running; u64 values[nr];
    uint64_t buf[3 + kNumEvents] = {};
    ssize_t n = ::read(fds[0], buf, sizeof(buf));
    if (n < static_cast<ssize_t>(3 * sizeof(uint64_t))) return out;
    uint64_t nr = buf[0];
    uint64_t enabled = buf[1];
    uint64_t running = buf[2];
    // Multiplexing correction: with more groups than hardware counters the
    // kernel time-slices; scale counts to the full enabled window.
    double scale = 1.0;
    if (running > 0 && running < enabled) {
      scale = static_cast<double>(enabled) / static_cast<double>(running);
    }
    uint64_t values[kNumEvents] = {};
    size_t cursor = 0;
    for (size_t i = 0; i < kNumEvents && cursor < nr; ++i) {
      if (!opened[i]) continue;
      values[i] = static_cast<uint64_t>(
          static_cast<double>(buf[3 + cursor]) * scale);
      ++cursor;
    }
    out.cycles = values[0];
    out.instructions = values[1];
    out.llc_misses = values[2];
    out.branch_misses = values[3];
    out.task_clock_ns = running;
    out.valid = true;
    return out;
  }
};

ThreadGroup& LocalGroup() {
  thread_local ThreadGroup group;
  return group;
}

#endif  // AGGCACHE_HAS_PERF_EVENTS

}  // namespace

bool PerfCounters::Available() {
#ifdef AGGCACHE_HAS_PERF_EVENTS
  int state = g_state.load(std::memory_order_relaxed);
  if (state == 1) return true;
  if (state == 2) return false;
  return LocalGroup().Ensure();
#else
  LatchUnavailable(ENOSYS);
  return false;
#endif
}

PerfDelta PerfCounters::Read() {
#ifdef AGGCACHE_HAS_PERF_EVENTS
  if (g_state.load(std::memory_order_relaxed) == 2) return PerfDelta{};
  ThreadGroup& group = LocalGroup();
  if (!group.Ensure()) return PerfDelta{};
  return group.ReadNow();
#else
  LatchUnavailable(ENOSYS);
  return PerfDelta{};
#endif
}

PerfDelta PerfCounters::Delta(const PerfDelta& begin, const PerfDelta& end) {
  PerfDelta out;
  if (!begin.valid || !end.valid) return out;
  auto sub = [](uint64_t a, uint64_t b) { return a >= b ? a - b : 0; };
  out.cycles = sub(end.cycles, begin.cycles);
  out.instructions = sub(end.instructions, begin.instructions);
  out.llc_misses = sub(end.llc_misses, begin.llc_misses);
  out.branch_misses = sub(end.branch_misses, begin.branch_misses);
  out.task_clock_ns = sub(end.task_clock_ns, begin.task_clock_ns);
  out.valid = true;
  return out;
}

void PerfCounters::SimulateOpenFailureForTest(int err) {
  g_simulated_errno.store(err, std::memory_order_relaxed);
  g_state.store(0, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_relaxed);
}

void PerfCounters::ResetForTest() {
  g_simulated_errno.store(0, std::memory_order_relaxed);
  g_state.store(0, std::memory_order_relaxed);
  g_generation.fetch_add(1, std::memory_order_relaxed);
  EngineMetrics::Get().perf_counters_unavailable->Set(0);
}

bool PerfCounters::unavailable() {
  return g_state.load(std::memory_order_relaxed) == 2;
}

}  // namespace aggcache
