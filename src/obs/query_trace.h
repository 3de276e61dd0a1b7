#ifndef AGGCACHE_OBS_QUERY_TRACE_H_
#define AGGCACHE_OBS_QUERY_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/perf_counters.h"

namespace aggcache {

/// One subjoin-level span of a traced execution: the combination, which
/// phase emitted it, the pruning verdict with its reason, the MD tid ranges
/// the verdict was decided on, and any pushed-down predicates. Events are
/// recorded on the orchestration thread in enumeration order — never inside
/// pool workers — so a trace is deterministic at any thread count.
struct SubjoinTrace {
  /// The three-way outcome for a combination: executed as-is, executed with
  /// MD-derived pushdown predicates (Section 5.3), or pruned (Eq. 5 and
  /// friends). kPushdown and kExecuted both reach the executor.
  enum class Verdict : uint8_t { kExecuted, kPushdown, kPruned };

  /// Which code path emitted the event: "build" (entry materialization),
  /// "delta-compensation", "main-correction" (negative-delta correction
  /// joins), "fold" (merge-time maintenance), or "uncached".
  std::string phase;
  /// CombinationToString rendering, e.g. "[g0/main, g0/delta]".
  std::string combination;
  Verdict verdict = Verdict::kExecuted;
  /// The pruning rule that fired ("empty-partition", "aging-group",
  /// "tid-range"); empty unless pruned.
  std::string prune_reason;

  /// Dictionary min/max of one MD tid column in the partition this
  /// combination picked, e.g. column "Item[g0/delta].tid_Header". Two
  /// entries per MD-covered join edge (both sides).
  struct TidRange {
    std::string column;
    bool empty = false;  ///< Partition has no rows; min/max are undefined.
    int64_t min = 0;
    int64_t max = 0;
  };
  std::vector<TidRange> tid_ranges;

  /// Rendered pushdown predicates attached to this subjoin.
  std::vector<std::string> pushdown_filters;
};

const char* VerdictToString(SubjoinTrace::Verdict verdict);

/// A structured record of one cache-manager execution: lookup outcome,
/// snapshot, per-phase timings, and every subjoin decision. Filled through
/// the thread-local TraceContext; rendered by EXPLAIN AGGREGATE as text or
/// JSON.
struct QueryTrace {
  /// The statement being explained (SQL text, or the canonical cache key
  /// when executed through the C++ API).
  std::string statement;
  std::string strategy;
  bool use_pushdown = false;
  uint64_t snapshot_tid = 0;
  /// "hit", "miss", "rebuilt", "uncached", "not-cacheable",
  /// "admission-rejected", or "snapshot-fallback".
  std::string cache_outcome;

  /// The delta memo's verdict on this read (DESIGN.md §6c): "used",
  /// "reset" or "cold" (the entry has had none yet); empty when delta
  /// compensation did not run. Rendered only when set.
  std::string memo_verdict;
  /// Why it was reset: "invalidation", "merge", "rebuild",
  /// "older-snapshot" or "unstable-rows".
  std::string memo_reason;
  /// When used: each delta's prefix the memo served, e.g. {"Item[g0]", 36012}.
  std::vector<std::pair<std::string, uint64_t>> memo_prefixes;

  double build_ms = 0.0;       ///< Entry (re)build time, on miss/rebuild.
  double main_comp_ms = 0.0;   ///< Main compensation time.
  double delta_comp_ms = 0.0;  ///< Delta compensation time.
  double total_ms = 0.0;       ///< End-to-end wall time.

  // Governance: how the run interacted with admission control and memory
  // accounting — these reconcile with the aggcache_admission_* counters.
  uint64_t admission_wait_us = 0;  ///< Time spent in the admission gate.
  uint64_t mem_peak_bytes = 0;     ///< Query-context memory high water.
  std::string abort_cause;         ///< QueryAbortReason name; empty if none.

  // Hardware counters (orchestration thread only). perf_available stays
  // false when perf_event_open is denied, and renders then omit every
  // counter field — absent, never zero.
  bool perf_available = false;
  PerfDelta perf_total;  ///< Whole-execution delta.
  /// One delta per measured phase, in the order the phases end (a nested
  /// phase, e.g. entry_build inside cache_lookup, comes first); `phase`
  /// names have static storage duration (span-kind strings).
  struct PhasePerf {
    const char* phase;
    PerfDelta delta;
  };
  std::vector<PhasePerf> perf_phases;

  std::vector<SubjoinTrace> subjoins;

  size_t CountVerdict(SubjoinTrace::Verdict verdict) const;

  /// Human-readable rendering (the default EXPLAIN AGGREGATE output).
  std::string ToText() const;
  /// Single-line JSON rendering (EXPLAIN AGGREGATE JSON).
  std::string ToJson() const;
};

/// RAII installer of the calling thread's active trace. The engine's
/// orchestration paths check TraceContext::Current() — a thread-local read,
/// nullptr when tracing is off — and record into it when installed. Scopes
/// nest (the previous trace is restored on destruction). Pool workers never
/// see the caller's trace: recording happens only on the thread that owns
/// the scope, which is what keeps trace updates race-free without locks.
class TraceContext {
 public:
  explicit TraceContext(QueryTrace* trace);
  ~TraceContext();

  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  /// The calling thread's active trace, or nullptr.
  static QueryTrace* Current();

 private:
  QueryTrace* prev_;
};

}  // namespace aggcache

#endif  // AGGCACHE_OBS_QUERY_TRACE_H_
