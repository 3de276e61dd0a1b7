#ifndef AGGCACHE_QUERY_EXECUTOR_H_
#define AGGCACHE_QUERY_EXECUTOR_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "query/aggregate_query.h"
#include "query/aggregate_result.h"
#include "query/subjoin.h"
#include "storage/database.h"
#include "txn/types.h"

namespace aggcache {

/// A matching dependency (Definition 2 / Eq. 3 of the paper) bound to a
/// query's join condition:
///
///   MD = (R, S, (R[pk] = S[fk]) => (R[tid] = S[tid]))
///
/// i.e., whenever two tuples join on pk = fk, their tid columns agree as
/// well, because inserts copy the referenced row's own-tid into the
/// referencing row (storage/table.cc, BuildRow). The binding carries the
/// query-table indexes and the schema column indexes of the two tid
/// columns, which is all the pruner and the pushdown need.
struct MdBinding {
  size_t join_index = 0;       ///< Index into the query's join list.
  size_t left_table = 0;       ///< Query table index (referenced side, pk).
  size_t left_tid_column = 0;  ///< Own-tid column of the referenced table.
  size_t right_table = 0;      ///< Query table index (referencing side, fk).
  size_t right_tid_column = 0; ///< MD tid column of the referencing table.

  std::string ToString() const;
};

/// An AggregateQuery with every table and column reference resolved against
/// the catalog, its matching dependencies included. The catalog only grows,
/// so a binding never goes stale: a cache entry binds once when it is
/// created and keeps that binding for life, and the pruning and pushdown
/// modules read the MDs from it instead of re-deriving them.
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

  /// One binding per join condition that implies a matching dependency: the
  /// join equates one table's primary key with another table's foreign key
  /// that declares an MD tid column, and the referenced table has an
  /// own-tid column.
  std::vector<MdBinding> mds;

  /// Validates `query` and resolves all references and MDs, in one pass
  /// over the catalog.
  static StatusOr<BoundQuery> Bind(const Database& db,
                                   const AggregateQuery& query);
};

/// Work counters of executor calls. A caller that wants to see how much
/// work a call performed passes its own block; every call also adds the same
/// counts to the global metrics registry.
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

  /// Folds another stats block in; ExecuteSubjoins merges its per-task
  /// counters into the caller's block with it.
  void MergeFrom(const ExecutorStats& other) {
    subjoins_executed += other.subjoins_executed;
    rows_scanned += other.rows_scanned;
    rows_selected += other.rows_selected;
    tuples_joined += other.tuples_joined;
    selection_batches += other.selection_batches;
    code_joins += other.code_joins;
    packed_groupings += other.packed_groupings;
    fallback_groupings += other.fallback_groupings;
  }

  bool operator==(const ExecutorStats&) const = default;
};

struct SubjoinTask;

/// Rows [begin, end) of one partition; `end` is clamped to the partition's
/// row count, so the default range covers every row.
struct RowRange {
  static constexpr uint32_t kEnd = UINT32_MAX;
  uint32_t begin = 0;
  uint32_t end = kEnd;

  bool whole() const { return begin == 0 && end == kEnd; }
  bool operator==(const RowRange&) const = default;
};

/// Aggregate query executor over the main-delta columnar store: per-table
/// selection (with dictionary-range static pruning of filters), left-deep
/// hash joins in query-table order, and hash aggregation.
///
/// Threading model: the executor holds no mutable state, so every entry
/// point is const and fully re-entrant — concurrent calls on one instance
/// are safe, with or without a stats block (a block passed to one call must
/// not be shared with a concurrent one). ExecuteSubjoins is the one place
/// subjoins fan out across the global ThreadPool: per-task stats and
/// partials come back in task order, so results and stats are deterministic
/// at any thread count.
class Executor {
 public:
  explicit Executor(const Database* db) : db_(db) {}

  /// Optional per-table row restriction for ExecuteSubjoin: when
  /// `rows[t]` is set, table t's selection considers only those row ids of
  /// its partition and applies the filters, but not the visibility check:
  /// the caller vouches for the row set. Used by incremental main
  /// compensation, whose correction joins restrict some tables to the rows
  /// invalidated since the entry snapshot ("negative delta" rows), exactly
  /// the rows a current snapshot would hide.
  ///
  /// Otherwise table t scans `ranges[t]` of its partition (every row when
  /// `ranges` is empty), with visibility and filters applied: delta
  /// compensation splits a delta into the rows its entry's memo covers and
  /// the rows past them (DESIGN.md §6c).
  struct RowRestriction {
    std::vector<std::optional<std::vector<uint32_t>>> rows;
    std::vector<RowRange> ranges;
  };

  /// Executes the query over one subjoin combination under `snapshot`.
  /// `extra_filters` carries pushed-down predicates (Section 5.3) that
  /// apply only to this subjoin; `restriction`, when non-null, limits the
  /// candidate rows per table. Work counters go to the metrics registry and,
  /// when given, are added to `stats`.
  StatusOr<AggregateResult> ExecuteSubjoin(
      const BoundQuery& bound, const SubjoinCombination& combination,
      Snapshot snapshot,
      const std::vector<FilterPredicate>& extra_filters = {},
      const RowRestriction* restriction = nullptr,
      ExecutorStats* stats = nullptr) const;

  /// Runs every task through ExecuteSubjoin, fanned out across the global
  /// ThreadPool, and returns one partial per task in task order. Each task
  /// runs under the caller's QueryContext, in a kSubjoinTask span (detail
  /// `span_detail`) under the caller's span, first consults `fault_point`
  /// when it is non-null, and adds its scanned rows to the QueryContext.
  /// Stats of every task merge into `stats` in task order; the first error
  /// in task order is returned. Partials are not merged: each caller unions
  /// them the way it needs.
  StatusOr<std::vector<AggregateResult>> ExecuteSubjoins(
      const BoundQuery& bound, std::span<const SubjoinTask> tasks,
      Snapshot snapshot, const char* span_detail, const char* fault_point,
      ExecutorStats* stats) const;

  /// Uncached execution (Section 2.3.1): evaluates and unions every
  /// partition combination through ExecuteSubjoins, then applies HAVING.
  /// Adds the work of every subjoin it ran to `stats` when given.
  StatusOr<AggregateResult> ExecuteUncached(
      const AggregateQuery& query, Snapshot snapshot,
      ExecutorStats* stats = nullptr) const;

 private:
  const Database* db_;
};

/// One subjoin to run: the partition combination, the pushed-down filters
/// that apply only to it, and the per-table restricted rows or row ranges
/// (empty = every table reads its whole partition).
struct SubjoinTask {
  SubjoinCombination combination;
  std::vector<FilterPredicate> extra_filters;
  Executor::RowRestriction restriction;
};

}  // namespace aggcache

#endif  // AGGCACHE_QUERY_EXECUTOR_H_
