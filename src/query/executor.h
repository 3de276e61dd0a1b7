#ifndef AGGCACHE_QUERY_EXECUTOR_H_
#define AGGCACHE_QUERY_EXECUTOR_H_

#include <atomic>
#include <vector>

#include "query/aggregate_query.h"
#include "query/aggregate_result.h"
#include "query/subjoin.h"
#include "storage/database.h"
#include "txn/types.h"

namespace aggcache {

/// An AggregateQuery with every table and column reference resolved against
/// the catalog. Binding happens once per execution; the pruning and
/// pushdown modules consume the same structure.
struct BoundQuery {
  const AggregateQuery* query = nullptr;
  std::vector<const Table*> tables;

  struct BoundJoin {
    size_t outer_table = 0;  ///< Earlier table in query order.
    size_t outer_column = 0;
    size_t inner_table = 0;  ///< Later table in query order.
    size_t inner_column = 0;
  };
  std::vector<BoundJoin> joins;

  struct BoundFilter {
    size_t table = 0;
    size_t column = 0;
    CompareOp op = CompareOp::kEq;
    Value operand;
  };
  std::vector<BoundFilter> filters;

  struct BoundGroupBy {
    size_t table = 0;
    size_t column = 0;
  };
  std::vector<BoundGroupBy> group_by;

  struct BoundAggregate {
    AggregateFunction fn = AggregateFunction::kSum;
    size_t table = 0;
    size_t column = 0;
    bool is_count_star = false;
  };
  std::vector<BoundAggregate> aggregates;

  /// Validates `query` and resolves all references.
  static StatusOr<BoundQuery> Bind(const Database& db,
                                   const AggregateQuery& query);
};

/// Counters accumulated across executor calls; benches and tests reset and
/// read them to observe how much work each strategy performed.
struct ExecutorStats {
  uint64_t subjoins_executed = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_selected = 0;
  uint64_t tuples_joined = 0;
  /// 1024-row blocks processed by the batched selection kernels.
  uint64_t selection_batches = 0;
  /// Join levels executed through the code-space hash table.
  uint64_t code_joins = 0;
  /// Aggregations that packed all group-by codes into one 64-bit key.
  uint64_t packed_groupings = 0;
  /// Aggregations that fell back to materialized group keys (> 64 bits).
  uint64_t fallback_groupings = 0;
  /// Cooperative delta scans this executor led / attached to.
  uint64_t shared_scan_leads = 0;
  uint64_t shared_scan_attaches = 0;

  void Reset() { *this = ExecutorStats(); }

  /// Folds another stats block in; used to merge per-task counters
  /// collected by parallel subjoin fan-outs back into the shared totals.
  void MergeFrom(const ExecutorStats& other) {
    subjoins_executed += other.subjoins_executed;
    rows_scanned += other.rows_scanned;
    rows_selected += other.rows_selected;
    tuples_joined += other.tuples_joined;
    selection_batches += other.selection_batches;
    code_joins += other.code_joins;
    packed_groupings += other.packed_groupings;
    fallback_groupings += other.fallback_groupings;
    shared_scan_leads += other.shared_scan_leads;
    shared_scan_attaches += other.shared_scan_attaches;
  }
};

/// The executor's shared counters: same fields as ExecutorStats, but atomic
/// so concurrent top-level executions on one Executor can all feed them.
/// Relaxed ordering — these are statistics, not synchronization. Reads
/// convert implicitly, so `executor.stats().subjoins_executed` keeps
/// working in tests and benches.
struct SharedExecutorStats {
  std::atomic<uint64_t> subjoins_executed{0};
  std::atomic<uint64_t> rows_scanned{0};
  std::atomic<uint64_t> rows_selected{0};
  std::atomic<uint64_t> tuples_joined{0};
  std::atomic<uint64_t> selection_batches{0};
  std::atomic<uint64_t> code_joins{0};
  std::atomic<uint64_t> packed_groupings{0};
  std::atomic<uint64_t> fallback_groupings{0};
  std::atomic<uint64_t> shared_scan_leads{0};
  std::atomic<uint64_t> shared_scan_attaches{0};

  void Reset() {
    subjoins_executed.store(0, std::memory_order_relaxed);
    rows_scanned.store(0, std::memory_order_relaxed);
    rows_selected.store(0, std::memory_order_relaxed);
    tuples_joined.store(0, std::memory_order_relaxed);
    selection_batches.store(0, std::memory_order_relaxed);
    code_joins.store(0, std::memory_order_relaxed);
    packed_groupings.store(0, std::memory_order_relaxed);
    fallback_groupings.store(0, std::memory_order_relaxed);
    shared_scan_leads.store(0, std::memory_order_relaxed);
    shared_scan_attaches.store(0, std::memory_order_relaxed);
  }

  void MergeFrom(const ExecutorStats& other) {
    subjoins_executed.fetch_add(other.subjoins_executed,
                                std::memory_order_relaxed);
    rows_scanned.fetch_add(other.rows_scanned, std::memory_order_relaxed);
    rows_selected.fetch_add(other.rows_selected, std::memory_order_relaxed);
    tuples_joined.fetch_add(other.tuples_joined, std::memory_order_relaxed);
    selection_batches.fetch_add(other.selection_batches,
                                std::memory_order_relaxed);
    code_joins.fetch_add(other.code_joins, std::memory_order_relaxed);
    packed_groupings.fetch_add(other.packed_groupings,
                               std::memory_order_relaxed);
    fallback_groupings.fetch_add(other.fallback_groupings,
                                 std::memory_order_relaxed);
    shared_scan_leads.fetch_add(other.shared_scan_leads,
                                std::memory_order_relaxed);
    shared_scan_attaches.fetch_add(other.shared_scan_attaches,
                                   std::memory_order_relaxed);
  }

  /// One coherent copy of all four counters. Callers that dump or diff
  /// stats should snapshot once instead of reading fields one by one, so
  /// the reported set comes from a single point in time (each field is
  /// still a relaxed load; the snapshot is consistent for quiesced
  /// executors and self-consistent code, not a fence).
  ExecutorStats Snapshot() const {
    ExecutorStats s;
    s.subjoins_executed = subjoins_executed.load(std::memory_order_relaxed);
    s.rows_scanned = rows_scanned.load(std::memory_order_relaxed);
    s.rows_selected = rows_selected.load(std::memory_order_relaxed);
    s.tuples_joined = tuples_joined.load(std::memory_order_relaxed);
    s.selection_batches = selection_batches.load(std::memory_order_relaxed);
    s.code_joins = code_joins.load(std::memory_order_relaxed);
    s.packed_groupings = packed_groupings.load(std::memory_order_relaxed);
    s.fallback_groupings = fallback_groupings.load(std::memory_order_relaxed);
    s.shared_scan_leads = shared_scan_leads.load(std::memory_order_relaxed);
    s.shared_scan_attaches =
        shared_scan_attaches.load(std::memory_order_relaxed);
    return s;
  }
};

/// Aggregate query executor over the main-delta columnar store: per-table
/// selection (with dictionary-range static pruning of filters), left-deep
/// hash joins in query-table order, and hash aggregation.
///
/// Threading model: ExecuteSubjoin is const and re-entrant — concurrent
/// calls on one instance are safe as long as each passes its own
/// ExecutorStats out-parameter (with `stats == nullptr` the call falls back
/// to the shared member counters and must not run concurrently). Top-level
/// entry points (ExecuteUncached and the cache manager) fan subjoins out
/// across the global ThreadPool with per-task stats and merge both results
/// and counters in enumeration order, so results and stats are
/// deterministic at any thread count.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  /// Optional per-table row restriction for ExecuteSubjoin: when
  /// `rows[t]` is set, table t's selection considers only those row ids of
  /// its partition (visibility and filters still apply on top). Used by the
  /// incremental main compensation of join entries, whose correction joins
  /// restrict some tables to their invalidated ("negative delta") rows.
  struct RowRestriction {
    std::vector<std::optional<std::vector<uint32_t>>> rows;
    /// When true, restricted tables skip the per-row visibility check: the
    /// caller vouches for the row set. Main compensation passes the rows
    /// invalidated since the entry snapshot, which are exactly the rows a
    /// current snapshot would hide.
    bool bypass_visibility_for_restricted = false;
  };

  /// Executes the query over one subjoin combination under `snapshot`.
  /// `extra_filters` carries pushed-down predicates (Section 5.3) that
  /// apply only to this subjoin; `restriction`, when non-null, limits the
  /// candidate rows per table. Work counters accumulate into `stats` when
  /// given, otherwise into the shared stats() member; parallel callers must
  /// pass a per-task block.
  StatusOr<AggregateResult> ExecuteSubjoin(
      const BoundQuery& bound, const SubjoinCombination& combination,
      Snapshot snapshot,
      const std::vector<FilterPredicate>& extra_filters = {},
      const RowRestriction* restriction = nullptr,
      ExecutorStats* stats = nullptr) const;

  /// Uncached execution (Section 2.3.1): evaluates and unions every
  /// partition combination, fanning the subjoins out across the global
  /// ThreadPool and merging partials in enumeration order.
  StatusOr<AggregateResult> ExecuteUncached(const AggregateQuery& query,
                                            Snapshot snapshot) const;

  /// Same, for an already-bound query — used by callers that bind first to
  /// learn the table set (and take table locks) before executing. Adds the
  /// number of subjoins it ran to `subjoins_executed` when given.
  StatusOr<AggregateResult> ExecuteUncachedBound(
      const BoundQuery& bound, Snapshot snapshot,
      uint64_t* subjoins_executed = nullptr) const;

  SharedExecutorStats& stats() const { return stats_; }

 private:
  const Database* db_;
  /// Mutable so the const, re-entrant execution paths can keep feeding the
  /// shared counters that benches and the cache manager read. Atomic fields
  /// make the accumulation safe under concurrent top-level executions.
  mutable SharedExecutorStats stats_;
};

}  // namespace aggcache

#endif  // AGGCACHE_QUERY_EXECUTOR_H_
