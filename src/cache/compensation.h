#ifndef AGGCACHE_CACHE_COMPENSATION_H_
#define AGGCACHE_CACHE_COMPENSATION_H_

#include <vector>

#include "objectaware/join_pruning.h"
#include "query/executor.h"

namespace aggcache {

/// The one subjoin planner. For each combination, in order: asks `pruner`
/// (when non-null) whether it can be skipped, derives MD pushdown filters
/// for a survivor when `use_pushdown` is set (Section 5.3), and records the
/// EXPLAIN event under `phase`, pruned combinations included. Returns one
/// task per surviving combination, in combination order.
std::vector<SubjoinTask> PlanSubjoins(const BoundQuery& bound,
                                      std::vector<SubjoinCombination> combos,
                                      JoinPruner* pruner, bool use_pushdown,
                                      const char* phase);

/// Appends the EXPLAIN event for one subjoin to the calling thread's active
/// trace; no-op (a thread-local null check) without one. The event carries
/// the combination, the verdict (pruned when `decision` fired, pushdown
/// when `pushdown_filters` is non-empty, executed otherwise) and, when
/// `md_tid_ranges` is set, the tid ranges of `bound.mds` the verdict was
/// decided on. Must run on the orchestration thread (trace updates are
/// unlocked).
void RecordSubjoin(const BoundQuery& bound,
                   const SubjoinCombination& combination, const char* phase,
                   const PruneDecision& decision,
                   const std::vector<FilterPredicate>& pushdown_filters,
                   bool md_tid_ranges);

/// Delta compensation (Section 2.3.2): executes the non-all-main subjoin
/// combinations under `snapshot`, skipping those the pruner proves empty
/// and, when `use_pushdown` is set, applying MD-derived local predicates to
/// the non-prunable ones (Section 5.3). The union of the returned result
/// with the cached main result is the consistent query answer. The work of
/// the executed subjoins is added to `stats` when given; the considered and
/// pruned counts are in `pruner.stats()`.
StatusOr<AggregateResult> DeltaCompensate(const Executor& executor,
                                          const BoundQuery& bound,
                                          JoinPruner& pruner,
                                          bool use_pushdown, Snapshot snapshot,
                                          ExecutorStats* stats);

}  // namespace aggcache

#endif  // AGGCACHE_CACHE_COMPENSATION_H_
