#include "objectaware/join_pruning.h"

#include "obs/engine_metrics.h"

namespace aggcache {

const char* PruneLevelToString(PruneLevel level) {
  switch (level) {
    case PruneLevel::kNone:
      return "none";
    case PruneLevel::kEmptyPartitions:
      return "empty-partitions";
    case PruneLevel::kFull:
      return "full";
  }
  return "?";
}

JoinPruner::JoinPruner(const Database* db, PruneLevel level)
    : db_(db), level_(level) {}

bool TidRangesDisjoint(const Partition& left, size_t left_tid_column,
                       const Partition& right, size_t right_tid_column) {
  // Empty partitions have empty ranges; the paper defines min()/max() so
  // the prefilter is true for all pairs involving an empty partition.
  if (left.empty() || right.empty()) return true;
  const Dictionary& ld = left.column(left_tid_column).dictionary();
  const Dictionary& rd = right.column(right_tid_column).dictionary();
  return ld.max_value() < rd.min_value() || rd.max_value() < ld.min_value();
}

PruneDecision JoinPruner::ShouldPrune(const BoundQuery& bound,
                                      const SubjoinCombination& combination) {
  ++stats_.considered;
  const EngineMetrics& metrics = EngineMetrics::Get();
  metrics.prune_considered->Increment();
  if (level_ == PruneLevel::kNone) return PruneDecision{};

  // Rule 1: any empty partition empties the whole subjoin.
  for (size_t t = 0; t < combination.size(); ++t) {
    if (ResolvePartition(*bound.tables[t], combination[t]).empty()) {
      ++stats_.pruned_empty;
      metrics.pruned_empty->Increment();
      return PruneDecision{true, "empty-partition"};
    }
  }
  if (level_ != PruneLevel::kFull) return PruneDecision{};

  // Rule 2: logical pruning across temperatures under a consistent aging
  // definition (Section 5.4).
  for (const BoundQuery::BoundJoin& join : bound.joins) {
    const PartitionRef& a = combination[join.outer_table];
    const PartitionRef& b = combination[join.inner_table];
    const Table& ta = *bound.tables[join.outer_table];
    const Table& tb = *bound.tables[join.inner_table];
    if (ta.group(a.group).age == tb.group(b.group).age) continue;
    if (db_->InSameAgingGroup(ta.name(), tb.name())) {
      ++stats_.pruned_aging;
      metrics.pruned_aging->Increment();
      return PruneDecision{true, "aging-group"};
    }
  }

  // Rule 3: the Eq. 5 tid-range prefilter on every MD-covered join edge.
  for (const MdBinding& md : bound.mds) {
    const Partition& left =
        ResolvePartition(*bound.tables[md.left_table],
                         combination[md.left_table]);
    const Partition& right =
        ResolvePartition(*bound.tables[md.right_table],
                         combination[md.right_table]);
    if (TidRangesDisjoint(left, md.left_tid_column, right,
                          md.right_tid_column)) {
      ++stats_.pruned_tid_range;
      metrics.pruned_tid_range->Increment();
      return PruneDecision{true, "tid-range"};
    }
  }
  return PruneDecision{};
}

}  // namespace aggcache
