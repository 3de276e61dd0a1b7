#ifndef AGGCACHE_CACHE_COMPENSATION_H_
#define AGGCACHE_CACHE_COMPENSATION_H_

#include <vector>

#include "objectaware/join_pruning.h"
#include "objectaware/matching_dependency.h"
#include "query/executor.h"

namespace aggcache {

/// The one subjoin planner. For each combination, in order: asks `pruner`
/// (when non-null) whether it can be skipped, derives MD pushdown filters
/// for a survivor when `use_pushdown` is set (Section 5.3), and records the
/// EXPLAIN event under `phase`, pruned combinations included. Returns one
/// task per surviving combination, in combination order. `mds` must come
/// from ResolveMds(bound) when a pruner or pushdown is used; it also
/// supplies the tid ranges of the EXPLAIN events.
std::vector<SubjoinTask> PlanSubjoins(const BoundQuery& bound,
                                      const std::vector<MdBinding>& mds,
                                      std::vector<SubjoinCombination> combos,
                                      JoinPruner* pruner, bool use_pushdown,
                                      const char* phase);

/// Appends the EXPLAIN event for one subjoin to the calling thread's active
/// trace; no-op (a thread-local null check) without one. The event carries
/// the combination, the verdict (pruned when `decision` fired, pushdown
/// when `pushdown_filters` is non-empty, executed otherwise) and the MD tid
/// ranges the verdict was decided on. Must run on the orchestration thread
/// (trace updates are unlocked).
void RecordSubjoin(const BoundQuery& bound, const std::vector<MdBinding>& mds,
                   const SubjoinCombination& combination, const char* phase,
                   const PruneDecision& decision,
                   const std::vector<FilterPredicate>& pushdown_filters);

/// Delta compensation (Section 2.3.2): executes the non-all-main subjoin
/// combinations under `snapshot`, skipping those the pruner proves empty
/// and, when `use_pushdown` is set, applying MD-derived local predicates to
/// the non-prunable ones (Section 5.3). The union of the returned result
/// with the cached main result is the consistent query answer. The work of
/// the executed subjoins is added to `stats` when given; the considered and
/// pruned counts are in `pruner.stats()`.
StatusOr<AggregateResult> DeltaCompensate(const Executor& executor,
                                          const BoundQuery& bound,
                                          const std::vector<MdBinding>& mds,
                                          JoinPruner& pruner,
                                          bool use_pushdown, Snapshot snapshot,
                                          ExecutorStats* stats);

}  // namespace aggcache

#endif  // AGGCACHE_CACHE_COMPENSATION_H_
