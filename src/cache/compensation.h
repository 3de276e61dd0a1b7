#ifndef AGGCACHE_CACHE_COMPENSATION_H_
#define AGGCACHE_CACHE_COMPENSATION_H_

#include <vector>

#include "objectaware/join_pruning.h"
#include "objectaware/matching_dependency.h"
#include "query/executor.h"

namespace aggcache {

/// Work counters for one compensation pass.
struct CompensationStats {
  uint64_t subjoins_considered = 0;
  uint64_t subjoins_executed = 0;
  uint64_t subjoins_pruned = 0;
  /// Delta rows read across all executed subjoins — the ledger's measure of
  /// how much delta volume this compensation had to chew through.
  uint64_t rows_scanned = 0;
};

/// Delta compensation (Section 2.3.2): executes the non-all-main subjoin
/// combinations under `snapshot`, skipping those the pruner proves empty
/// and, when `use_pushdown` is set, applying MD-derived local predicates to
/// the non-prunable ones (Section 5.3). The union of the returned result
/// with the cached main result is the consistent query answer.
StatusOr<AggregateResult> DeltaCompensate(const Executor& executor,
                                          const BoundQuery& bound,
                                          const std::vector<MdBinding>& mds,
                                          JoinPruner& pruner,
                                          bool use_pushdown, Snapshot snapshot,
                                          CompensationStats* stats);

}  // namespace aggcache

#endif  // AGGCACHE_CACHE_COMPENSATION_H_
