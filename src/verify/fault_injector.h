#ifndef AGGCACHE_VERIFY_FAULT_INJECTOR_H_
#define AGGCACHE_VERIFY_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/status.h"

namespace aggcache {

/// Process-wide fault-injection registry consulted by the failure-handling
/// paths of the engine (cache maintenance, entry rebuild, eviction, delta
/// merge). Production code calls MaybeFail("point") at each hook; when the
/// point is armed the call returns an error Status with a recognizable
/// message, and the surrounding code must degrade gracefully — the property
/// the differential harness (src/verify/fuzzer.h) asserts under randomized
/// fault schedules.
///
/// Points shipped with the engine:
///   storage.merge           Database::Merge, before a group merge runs.
///   storage.merge.publish   Delta merge, just before the rebuilt main is
///                           swapped in (after the expensive copy work).
///   maintenance.compensate  Merge-time main compensation of an entry.
///   maintenance.fold        Folding the merging delta into a cached partial.
///   cache.build             Entry materialization (RebuildEntry), covering
///                           both the single-flight creator and rebuilds.
///   cache.evict_all         EvictIfNeeded; firing simulates memory pressure
///                           by dropping every evictable entry.
///   cache.delta_comp        Each delta-compensation subjoin task, before it
///                           executes. Armed as kDelay it holds queries
///                           inside the phase (how the tests park a query so
///                           the active-query registry and remote cancel can
///                           observe it mid-flight); as kError it fails the
///                           fan-out.
///   runtime.alloc           QueryContext::ChargeMemory; firing simulates a
///                           refused reservation — the query aborts with a
///                           typed kResourceExhausted and must unwind with
///                           no side effects.
///   runtime.deadline        QueryContext::Check; firing simulates deadline
///                           expiry at a cooperative check point (typed
///                           kDeadlineExceeded).
///
/// A point fires in one of two ways:
///   kError  MaybeFail returns an Internal error tagged kInjectedFaultTag;
///           the surrounding code must degrade gracefully.
///   kDelay  MaybeFail sleeps delay_ms plus seeded jitter and returns OK —
///           a schedule perturbator for the concurrent stress harness: it
///           widens race windows (e.g. holding a merge mid-publish while
///           readers run) without changing any result.
///
/// Arming is programmatic (Arm/ArmFromSpec) or via the AGGCACHE_FAULT
/// environment variable, read once on first use:
///
///   AGGCACHE_FAULT="maintenance.fold:0.5,storage.merge:0.1:3"
///   AGGCACHE_FAULT="storage.merge.publish:delay:5:10:0.5"
///
/// Each comma-separated element is point:probability[:max_fires] for error
/// faults, or point:delay:delay_ms[:jitter_ms[:probability]] for delays.
/// The draw sequence is deterministic for a given seed (AGGCACHE_FAULT_SEED,
/// default 42) and arming order; delays themselves sleep outside the
/// injector lock so concurrent hooks are never serialized by a sleeping
/// peer.
///
/// With nothing armed, MaybeFail is a single relaxed atomic load — cheap
/// enough to leave the hooks in production builds.
class FaultInjector {
 public:
  /// What an armed point does when it fires.
  enum class FaultKind : uint8_t {
    kError = 0,  ///< Return an injected-fault Status.
    kDelay = 1,  ///< Sleep (schedule perturbation), then return OK.
  };

  struct PointConfig {
    /// Chance that one MaybeFail call at this point fires.
    double probability = 1.0;
    /// Maximum number of fires this point may produce since it was last
    /// armed (Arm resets the budget); < 0 = unlimited.
    int64_t max_fires = -1;
    FaultKind kind = FaultKind::kError;
    /// kDelay only: base sleep per fire, plus uniform jitter in
    /// [0, jitter_ms] drawn from the injector's seeded rng.
    double delay_ms = 0.0;
    double jitter_ms = 0.0;
  };

  /// Counters for one point, for tests and the fuzz report.
  struct PointStats {
    uint64_t hits = 0;   ///< MaybeFail calls while armed.
    uint64_t fired = 0;  ///< Calls that returned an error.
  };

  /// The process-wide injector. First use parses AGGCACHE_FAULT.
  static FaultInjector& Global();

  /// Arms `point`; MaybeFail(point) then fails per `config`.
  void Arm(const std::string& point, PointConfig config);

  /// Disarms one point / every point. Counters survive until
  /// ResetCounters().
  void Disarm(const std::string& point);
  void DisarmAll();

  /// Parses "point:prob[:max],point:prob[:max],..." and arms each element.
  /// "off" (or an empty spec) disarms everything.
  Status ArmFromSpec(const std::string& spec);

  /// Reseeds the deterministic draw sequence.
  void Reseed(uint64_t seed);

  /// Consulted by engine hooks: OK when the point is not armed or the draw
  /// passes, an Internal error carrying kInjectedFaultTag otherwise.
  Status MaybeFail(const char* point);

  /// True when any point is currently armed (cheap pre-check; also lets
  /// replay tooling decide whether a failed merge was expected).
  bool AnyArmed() const;

  PointStats stats(const std::string& point) const;
  uint64_t TotalFired() const;
  void ResetCounters();

  /// Marker embedded in every injected error message.
  static constexpr const char* kInjectedFaultTag = "[injected-fault]";

  /// True when `status` was produced by MaybeFail (vs. a genuine failure).
  static bool IsInjectedFault(const Status& status);

 private:
  FaultInjector();

  struct Point {
    PointConfig config;
    PointStats stats;
    bool armed = false;
  };

  mutable std::mutex mu_;
  std::map<std::string, Point> points_;
  /// Fires from earlier armings of since-rearmed points, so TotalFired()
  /// stays monotonic even though Arm() resets per-point budgets.
  uint64_t retired_fired_ = 0;
  std::mt19937_64 rng_;
  /// Lock-free fast path: set iff any point is armed.
  std::atomic<bool> any_armed_{false};
};

}  // namespace aggcache

#endif  // AGGCACHE_VERIFY_FAULT_INJECTOR_H_
