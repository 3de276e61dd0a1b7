#ifndef AGGCACHE_RUNTIME_QUERY_CONTEXT_H_
#define AGGCACHE_RUNTIME_QUERY_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "runtime/memory_tracker.h"

namespace aggcache {

/// Why a query unwound early. kNone means the query is live.
enum class QueryAbortReason : uint8_t {
  kNone = 0,
  kCancelled,          ///< Cancel() was called (client disconnect, shed).
  kDeadlineExceeded,   ///< The wall-clock deadline passed at a check point.
  kMemoryExceeded,     ///< A memory charge was refused (budget or process).
};

const char* QueryAbortReasonToString(QueryAbortReason reason);

/// Per-query resource-governance state: a memory budget charged against the
/// process tracker tree, a wall-clock deadline, and a cooperative
/// cancellation token. One QueryContext is shared by every thread working
/// on the query — the calling thread plus all pool tasks of its fan-outs —
/// so all state is atomic and Check()/ChargeMemory() are safe to call
/// concurrently.
///
/// The executor consults the context at block granularity: once per
/// selection/probe block (kSelectionBlockRows rows) inside the vector
/// kernels via IsAborted(), and once per phase (selection, join level,
/// group-by flush) via Check(), which converts the abort into a typed
/// Status (kCancelled / kDeadlineExceeded / kResourceExhausted). Whichever
/// thread observes the abort first records it; every sibling task then
/// unwinds at its next check, and Executor::ExecuteSubjoins returns the
/// first error in task order, exactly as on other error paths.
///
/// Memory charges go through MemoryTracker::Queries(): a charge that would
/// exceed the per-query budget or any tracker limit aborts the query with
/// kMemoryExceeded instead of allocating. The context releases every
/// still-outstanding byte on destruction, so the Queries() subtree is back
/// to zero once no query is running — the tracker-balance invariant the
/// fuzz and stress harnesses assert at exit.
///
/// Fault points (verify/fault_injector.h): `runtime.alloc` fires inside
/// ChargeMemory and `runtime.deadline` inside Check, letting the harnesses
/// exercise mid-query OOM/deadline unwinding deterministically.
class QueryContext {
 public:
  struct Options {
    /// Per-query byte budget; 0 = no per-query cap (tracker limits still
    /// apply).
    size_t memory_budget = 0;
    /// Wall-clock deadline in milliseconds from construction; 0 = none.
    double deadline_ms = 0;
  };

  /// Env-default options: deadline from AGGCACHE_QUERY_DEADLINE_MS, budget
  /// from AGGCACHE_QUERY_MEM_BUDGET (bytes, K/M/G suffix allowed). Read
  /// once per call so harnesses can reconfigure between phases.
  static Options FromEnv();

  QueryContext();
  explicit QueryContext(Options options);
  ~QueryContext();
  QueryContext(const QueryContext&) = delete;
  QueryContext& operator=(const QueryContext&) = delete;

  /// Trips the cancellation token. Safe from any thread, including ones
  /// not working on the query. First abort cause wins; later causes are
  /// ignored.
  void Cancel();

  /// Cheap poll for kernel block loops: one relaxed load, no clock read.
  bool IsAborted() const {
    return reason_.load(std::memory_order_relaxed) !=
           static_cast<uint8_t>(QueryAbortReason::kNone);
  }

  QueryAbortReason abort_reason() const {
    return static_cast<QueryAbortReason>(
        reason_.load(std::memory_order_relaxed));
  }

  /// Phase-granularity check: polls the token, the fault injector's
  /// `runtime.deadline` point, and the deadline clock. OK while the query
  /// is live, the typed abort Status afterwards.
  Status Check();

  /// The typed Status for the current abort reason (OK when live). Does
  /// not consult the clock — use Check() at check points.
  Status status() const;

  /// Charges `bytes` against the per-query budget and the Queries()
  /// tracker. On refusal the query is aborted with kMemoryExceeded and the
  /// typed error is returned; nothing is charged.
  Status ChargeMemory(size_t bytes);

  /// Returns `bytes` of a prior successful charge. Any remainder is
  /// released by the destructor.
  void ReleaseMemory(size_t bytes);

  size_t memory_used() const {
    return memory_used_.load(std::memory_order_relaxed);
  }
  size_t memory_high_water() const {
    return memory_high_water_.load(std::memory_order_relaxed);
  }

  /// Progress accounting for the active-query registry: rows visited by
  /// this query's subjoin selections, summed across all of its fan-out
  /// tasks (each task adds its per-subjoin total once, after the subjoin
  /// completes — not per block).
  void AddRowsScanned(uint64_t rows) {
    rows_scanned_.fetch_add(rows, std::memory_order_relaxed);
  }
  uint64_t rows_scanned() const {
    return rows_scanned_.load(std::memory_order_relaxed);
  }

  /// The context installed on this thread (nullptr outside any query).
  /// Fan-out sites capture Current() and re-install it on pool workers
  /// with ScopedQueryContext.
  static QueryContext* Current();

  /// Check() on the installed context; OK when none is installed.
  static Status CheckCurrent();

  /// IsAborted() on the installed context; false when none is installed.
  /// This is the one-load poll the vector kernels use per block.
  static bool CurrentAborted();

 private:
  /// Records the first abort cause (CAS; first writer wins) and bumps the
  /// matching metric + flight event exactly once.
  void Abort(QueryAbortReason reason, const char* detail);

  const Options options_;
  const std::chrono::steady_clock::time_point deadline_;
  const bool has_deadline_;
  std::atomic<uint8_t> reason_{
      static_cast<uint8_t>(QueryAbortReason::kNone)};
  std::atomic<size_t> memory_used_{0};
  std::atomic<size_t> memory_high_water_{0};
  std::atomic<uint64_t> rows_scanned_{0};
};

/// RAII installation of a QueryContext as the thread's Current(). Used by
/// the query entry point (cache manager Execute) and re-applied inside
/// every pool task of the query's fan-outs. Nests: the previous context is
/// restored on destruction.
class ScopedQueryContext {
 public:
  explicit ScopedQueryContext(QueryContext* context);
  ~ScopedQueryContext();
  ScopedQueryContext(const ScopedQueryContext&) = delete;
  ScopedQueryContext& operator=(const ScopedQueryContext&) = delete;

 private:
  QueryContext* previous_;
};

}  // namespace aggcache

#endif  // AGGCACHE_RUNTIME_QUERY_CONTEXT_H_
