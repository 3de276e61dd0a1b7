#include "objectaware/join_pruning.h"

#include <algorithm>

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

TidBounds TidBounds::Of(const Partition& p, size_t column, RowRange rows) {
  TidBounds bounds;
  const Column& col = p.column(column);
  const uint32_t end =
      static_cast<uint32_t>(std::min<size_t>(rows.end, p.num_rows()));
  if (rows.begin >= end) return bounds;
  if (rows.begin == 0 && end == p.num_rows()) {
    bounds.empty = false;
    bounds.min = col.dictionary().min_value().AsInt64();
    bounds.max = col.dictionary().max_value().AsInt64();
    return bounds;
  }
  for (uint32_t r = rows.begin; r < end; ++r) {
    int64_t tid = col.GetValue(r).AsInt64();
    bounds.Extend(TidBounds{false, tid, tid});
  }
  return bounds;
}

void TidBounds::Extend(const TidBounds& other) {
  if (other.empty) return;
  if (empty) {
    *this = other;
    return;
  }
  min = std::min(min, other.min);
  max = std::max(max, other.max);
}

bool TidRangesDisjoint(const Partition& left, size_t left_tid_column,
                       const Partition& right, size_t right_tid_column) {
  // Empty partitions have empty ranges; the paper defines min()/max() so
  // the prefilter is true for all pairs involving an empty partition.
  return TidBounds::Of(left, left_tid_column)
      .Disjoint(TidBounds::Of(right, right_tid_column));
}

PruneDecision JoinPruner::ShouldPrune(const BoundQuery& bound,
                                      const SubjoinCombination& combination,
                                      const TidBoundsFn& tid_bounds) {
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
  auto bounds_of = [&](size_t table, size_t column) {
    if (tid_bounds) return tid_bounds(table, column);
    return TidBounds::Of(
        ResolvePartition(*bound.tables[table], combination[table]), column);
  };
  for (const MdBinding& md : bound.mds) {
    if (bounds_of(md.left_table, md.left_tid_column)
            .Disjoint(bounds_of(md.right_table, md.right_tid_column))) {
      ++stats_.pruned_tid_range;
      metrics.pruned_tid_range->Increment();
      return PruneDecision{true, "tid-range"};
    }
  }
  return PruneDecision{};
}

}  // namespace aggcache
