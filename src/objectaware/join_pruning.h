#ifndef AGGCACHE_OBJECTAWARE_JOIN_PRUNING_H_
#define AGGCACHE_OBJECTAWARE_JOIN_PRUNING_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "query/executor.h"
#include "query/subjoin.h"

namespace aggcache {

/// How aggressively subjoins are pruned during delta compensation. The
/// levels mirror the paper's Section 6.4 strategies.
enum class PruneLevel : uint8_t {
  kNone = 0,             ///< Execute every compensation subjoin.
  kEmptyPartitions = 1,  ///< Skip subjoins containing an empty partition.
  kFull = 2,             ///< Empty + MD tid-range + aging-group pruning.
};

const char* PruneLevelToString(PruneLevel level);

/// Outcome of a pruning test for one subjoin combination.
struct PruneDecision {
  bool pruned = false;
  /// Which rule fired: "empty-partition", "aging-group", "tid-range", or
  /// empty when not pruned.
  std::string reason;
};

/// Min and max of one tid column over the rows a subjoin reads of one
/// partition: the interval Eq. 5 compares. `empty` when no row is read.
struct TidBounds {
  bool empty = true;
  int64_t min = 0;
  int64_t max = 0;

  /// Over `rows` of `p`: the dictionary's min/max when the range covers the
  /// whole partition (Eq. 5 as the paper states it), else a scan of the
  /// range's values.
  static TidBounds Of(const Partition& p, size_t column, RowRange rows = {});

  /// Widens these bounds to cover `other` as well.
  void Extend(const TidBounds& other);

  /// True when the two intervals share no tid (or either is empty).
  bool Disjoint(const TidBounds& other) const {
    return empty || other.empty || max < other.min || other.max < min;
  }
};

/// The tid bounds of (query table, tid column) over the rows one planned
/// subjoin reads of that table.
using TidBoundsFn = std::function<TidBounds(size_t table, size_t column)>;

/// Per-query statistics for benches and tests.
struct PruneStats {
  uint64_t considered = 0;
  uint64_t pruned_empty = 0;
  uint64_t pruned_aging = 0;
  uint64_t pruned_tid_range = 0;

  uint64_t total_pruned() const {
    return pruned_empty + pruned_aging + pruned_tid_range;
  }
};

/// Dynamic join partition pruner (Sections 4 and 5.1).
///
/// For a subjoin combination it applies, in order:
///  1. empty-partition pruning (a cheap dynamic rule: any empty partition
///     makes the subjoin empty),
///  2. logical aging-group pruning: with a consistent aging definition,
///     matching tuples share a temperature, so a hot partition of one table
///     never joins a cold partition of another (Section 5.4),
///  3. the MD tid-range prefilter of Eq. 5: for each join edge with a
///     matching dependency, the subjoin is empty when the tid ranges of the
///     two partitions (dictionary min/max) do not overlap.
///
/// Rules 2 and 3 are only consulted at PruneLevel::kFull; rule 1 also runs
/// at kEmptyPartitions. Every rule is conservative: a pruned subjoin is
/// provably empty, so pruning never changes query results.
class JoinPruner {
 public:
  JoinPruner(const Database* db, PruneLevel level);

  /// Decides whether `combination` can be skipped; rule 3 reads the
  /// query's MDs from `bound.mds` and compares, per MD edge, the bounds
  /// `tid_bounds` gives (the whole partitions' when it is empty). A planner
  /// whose subjoin reads only a row range of some partition passes the
  /// bounds of that range: new objects' items then join only new headers.
  PruneDecision ShouldPrune(const BoundQuery& bound,
                            const SubjoinCombination& combination,
                            const TidBoundsFn& tid_bounds = nullptr);

  PruneLevel level() const { return level_; }
  const PruneStats& stats() const { return stats_; }
  void ResetStats() { stats_ = PruneStats(); }

 private:
  const Database* db_;
  PruneLevel level_;
  PruneStats stats_;
};

/// The Eq. 5 prefilter in isolation: true when the tid ranges of the two
/// partitions' tid columns are disjoint (or either partition is empty), so
/// the MD-joined pair is provably empty. Exposed for tests and the merge-
/// synchronization ablation.
bool TidRangesDisjoint(const Partition& left, size_t left_tid_column,
                       const Partition& right, size_t right_tid_column);

}  // namespace aggcache

#endif  // AGGCACHE_OBJECTAWARE_JOIN_PRUNING_H_
