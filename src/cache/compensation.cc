#include "cache/compensation.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "objectaware/predicate_pushdown.h"
#include "obs/engine_metrics.h"
#include "obs/query_trace.h"

namespace aggcache {

namespace {

/// The range `task` reads of query table `t` (every row when unsplit).
RowRange TaskRange(const SubjoinTask& task, size_t t) {
  const std::vector<RowRange>& ranges = task.restriction.ranges;
  return t < ranges.size() ? ranges[t] : RowRange{};
}

/// "g0/delta", or "g0/delta[120,131)" for a split partition.
std::string PartitionLabel(const PartitionRef& ref, RowRange range) {
  std::string label =
      StrFormat("g%u/%s", ref.group, PartitionKindToString(ref.kind));
  if (!range.whole()) label += StrFormat("[%u,%u)", range.begin, range.end);
  return label;
}

SubjoinTrace::TidRange MakeTidRange(const BoundQuery& bound,
                                    const SubjoinTask& task,
                                    size_t table_index, size_t column_index,
                                    const TidBoundsFn& tid_bounds) {
  const Table& table = *bound.tables[table_index];
  const PartitionRef& ref = task.combination[table_index];
  SubjoinTrace::TidRange range;
  // "Item[g0/delta].tid_Header": table, the partition (and rows) the
  // combination picked for it, and the tid column the MD binds.
  range.column = StrFormat(
      "%s[%s].%s", table.name().c_str(),
      PartitionLabel(ref, TaskRange(task, table_index)).c_str(),
      table.schema().columns[column_index].name.c_str());
  TidBounds bounds =
      tid_bounds ? tid_bounds(table_index, column_index)
                 : TidBounds::Of(ResolvePartition(table, ref), column_index);
  range.empty = bounds.empty;
  range.min = bounds.min;
  range.max = bounds.max;
  return range;
}

SubjoinTrace MakeSubjoinTrace(const BoundQuery& bound, const SubjoinTask& task,
                              const char* phase, const PruneDecision& decision,
                              bool md_tid_ranges,
                              const TidBoundsFn& tid_bounds) {
  SubjoinTrace trace;
  trace.phase = phase;
  std::vector<std::string> parts;
  parts.reserve(task.combination.size());
  for (size_t t = 0; t < task.combination.size(); ++t) {
    parts.push_back(PartitionLabel(task.combination[t], TaskRange(task, t)));
  }
  trace.combination = "[" + StrJoin(parts, ", ") + "]";
  if (decision.pruned) {
    trace.verdict = SubjoinTrace::Verdict::kPruned;
    trace.prune_reason = decision.reason;
  } else if (!task.extra_filters.empty()) {
    trace.verdict = SubjoinTrace::Verdict::kPushdown;
  } else {
    trace.verdict = SubjoinTrace::Verdict::kExecuted;
  }
  if (md_tid_ranges) {
    trace.tid_ranges.reserve(bound.mds.size() * 2);
    for (const MdBinding& md : bound.mds) {
      trace.tid_ranges.push_back(MakeTidRange(
          bound, task, md.left_table, md.left_tid_column, tid_bounds));
      trace.tid_ranges.push_back(MakeTidRange(
          bound, task, md.right_table, md.right_tid_column, tid_bounds));
    }
  }
  trace.pushdown_filters.reserve(task.extra_filters.size());
  for (const FilterPredicate& filter : task.extra_filters) {
    trace.pushdown_filters.push_back(
        bound.tables[filter.table_index]->name() + "." + filter.ToString());
  }
  return trace;
}

// --- The delta memo's cut (DESIGN.md §6c) ----------------------------------

/// A row may enter a memo prefix only when every MVCC stamp it has is
/// stable under the memo snapshot: the merge's rule, which EntryBuildSnapshot
/// applies to mains.
bool RowStable(const Partition& delta, size_t row, const Snapshot& snapshot) {
  Tid invalidated = delta.invalidate_tid(row);
  return snapshot.TidStable(delta.create_tid(row)) &&
         (invalidated == kNoTid || snapshot.TidStable(invalidated));
}

uint32_t CountInvalidated(const Partition& delta, uint32_t rows) {
  uint32_t n = 0;
  for (uint32_t r = 0; r < rows; ++r) n += delta.RowInvalidated(r) ? 1 : 0;
  return n;
}

/// The MD tid columns of query table `t`, each once.
std::vector<size_t> TidColumnsOf(const BoundQuery& bound, size_t t) {
  std::vector<size_t> columns;
  auto add = [&](size_t column) {
    if (std::find(columns.begin(), columns.end(), column) == columns.end()) {
      columns.push_back(column);
    }
  };
  for (const MdBinding& md : bound.mds) {
    if (md.left_table == t) add(md.left_tid_column);
    if (md.right_table == t) add(md.right_tid_column);
  }
  return columns;
}

/// What part of its table a slice is: a main, a delta's memo prefix, its
/// stable rows past the prefix, or its unstable tail.
enum class SliceKind : uint8_t { kMain, kPrefix, kFresh, kTail };

/// One table's share of a compensation combination: a partition, the rows
/// of it read, and the tid bounds already known over them.
struct Slice {
  PartitionRef ref;
  RowRange rows;
  SliceKind kind = SliceKind::kMain;
  /// (MD tid column, bounds): a prefix's stored bounds, or a fresh range's,
  /// computed once.
  std::vector<std::pair<size_t, TidBounds>> known;

  /// Eq. 5 bounds of `column` over the slice's rows: known ones, else a
  /// main's dictionary or a scan of a tail range.
  TidBounds Bounds(const Table& table, size_t column) const {
    for (const auto& [c, bounds] : known) {
      if (c == column) return bounds;
    }
    return TidBounds::Of(ResolvePartition(table, ref), column, rows);
  }
};

/// `delta` rows [begin, end) as a range; the default (unannotated) range
/// when that is the whole partition.
RowRange DeltaRange(const Partition& delta, uint32_t begin, uint32_t end) {
  if (begin == 0 && end == delta.num_rows()) return RowRange{};
  return RowRange{begin, end};
}

/// Why `memo` cannot serve a read at `snapshot`, or kNone. Sets `*grown`
/// when some delta has rows past its prefix, and `*counters_moved` when a
/// delta counter moved without touching the prefix (the memo stays valid;
/// a republish records the new counter so later reads skip the recount).
MemoReset ValidateMemo(const BoundQuery& bound, const DeltaMemo& memo,
                       const Snapshot& snapshot, bool* grown,
                       bool* counters_moved) {
  if (!memo.Covers(snapshot)) return MemoReset::kOlderSnapshot;
  if (memo.prefixes.size() != bound.tables.size()) return MemoReset::kRebuild;
  for (size_t t = 0; t < bound.tables.size(); ++t) {
    const Table& table = *bound.tables[t];
    if (memo.prefixes[t].size() != table.num_groups()) {
      return MemoReset::kRebuild;
    }
    for (size_t g = 0; g < table.num_groups(); ++g) {
      const Partition& delta = table.group(g).delta;
      const DeltaMemo::Prefix& prefix = memo.prefixes[t][g];
      if (prefix.rows > delta.num_rows()) return MemoReset::kRebuild;
      *grown |= prefix.rows < delta.num_rows();
      if (delta.invalidation_count() == prefix.invalidation_count) continue;
      if (CountInvalidated(delta, prefix.rows) != prefix.invalidated) {
        return MemoReset::kInvalidation;
      }
      *counters_moved = true;
    }
  }
  for (const DeltaMemo::MainRead& read : memo.mains) {
    if (bound.tables[read.table]->group(read.group).main.invalidation_count() !=
        read.invalidation_count) {
      return MemoReset::kInvalidation;
    }
  }
  return MemoReset::kNone;
}

}  // namespace

const char* MemoResetToString(MemoReset reason) {
  switch (reason) {
    case MemoReset::kNone:
      return "none";
    case MemoReset::kInvalidation:
      return "invalidation";
    case MemoReset::kMerge:
      return "merge";
    case MemoReset::kRebuild:
      return "rebuild";
    case MemoReset::kOlderSnapshot:
      return "older-snapshot";
    case MemoReset::kUnstableRows:
      return "unstable-rows";
  }
  return "?";
}

bool DeltaMemo::Covers(const Snapshot& reader) const {
  if (reader.read_tid < tid) return false;
  // A tid the memo's own snapshot excluded is no stamp of a prefix row.
  for (Tid excluded : reader.excluded) {
    if (excluded <= tid && !snapshot.Excluded(excluded)) return false;
  }
  return true;
}

size_t DeltaMemo::ByteSize() const {
  size_t bytes = sizeof(DeltaMemo) + partial.ByteSize() +
                 snapshot.excluded.size() * sizeof(Tid) +
                 mains.size() * sizeof(MainRead);
  for (const std::vector<Prefix>& per_table : prefixes) {
    for (const Prefix& prefix : per_table) {
      bytes += sizeof(Prefix) +
               prefix.tid_bounds.size() * sizeof(prefix.tid_bounds[0]);
    }
  }
  return bytes;
}

void RecordSubjoin(const BoundQuery& bound, const SubjoinTask& task,
                   const char* phase, const PruneDecision& decision,
                   bool md_tid_ranges, const TidBoundsFn& tid_bounds) {
  QueryTrace* trace = TraceContext::Current();
  if (trace == nullptr) return;
  trace->subjoins.push_back(MakeSubjoinTrace(bound, task, phase, decision,
                                             md_tid_ranges, tid_bounds));
}

std::optional<SubjoinTask> PlanSubjoin(const BoundQuery& bound,
                                       SubjoinTask task, JoinPruner* pruner,
                                       bool use_pushdown, const char* phase,
                                       const TidBoundsFn& tid_bounds) {
  // Runs on the calling thread: decisions are cheap, and JoinPruner
  // accumulates stats that must stay race-free.
  PruneDecision decision;
  if (pruner != nullptr) {
    decision = pruner->ShouldPrune(bound, task.combination, tid_bounds);
  }
  if (!decision.pruned && use_pushdown) {
    task.extra_filters = DerivePushdownFilters(bound, task.combination);
    if (!task.extra_filters.empty()) {
      EngineMetrics::Get().pushdown_predicates->Increment(
          task.extra_filters.size());
    }
  }
  RecordSubjoin(bound, task, phase, decision, /*md_tid_ranges=*/true,
                tid_bounds);
  if (decision.pruned) return std::nullopt;
  return task;
}

std::vector<SubjoinTask> PlanSubjoins(const BoundQuery& bound,
                                      std::vector<SubjoinCombination> combos,
                                      JoinPruner* pruner, bool use_pushdown,
                                      const char* phase) {
  std::vector<SubjoinTask> tasks;
  for (SubjoinCombination& combo : combos) {
    if (std::optional<SubjoinTask> task =
            PlanSubjoin(bound, SubjoinTask{std::move(combo), {}, {}}, pruner,
                        use_pushdown, phase)) {
      tasks.push_back(std::move(*task));
    }
  }
  return tasks;
}

StatusOr<DeltaCompensation> DeltaCompensate(const Executor& executor,
                                            const BoundQuery& bound,
                                            JoinPruner& pruner,
                                            bool use_pushdown,
                                            Snapshot snapshot,
                                            const DeltaMemo* memo,
                                            ExecutorStats* stats) {
  const size_t num_tables = bound.tables.size();
  DeltaCompensation out;
  bool grown = false;
  bool counters_moved = false;
  if (memo != nullptr) {
    out.reset = ValidateMemo(bound, *memo, snapshot, &grown, &counters_moved);
    out.memo_used = out.reset == MemoReset::kNone;
    if (out.memo_used && !grown) {
      // Nothing past the prefixes: the memo is the whole compensation.
      out.result = memo->partial;
      return out;
    }
  }
  const DeltaMemo* base = out.memo_used ? memo : nullptr;

  // Cut each delta into the base memo's prefix, the rows past it that are
  // stable under this snapshot, and the unstable tail; `next` gets the
  // advanced prefixes. A cold read keeps an empty delta as one (empty)
  // slice, so it plans exactly the compensation combinations.
  std::vector<std::vector<Slice>> slices(num_tables);
  std::vector<std::vector<DeltaMemo::Prefix>> next(num_tables);
  bool anything_new = false;
  bool advanced = false;
  Tid newest = base != nullptr ? base->tid : kNoTid;
  for (size_t t = 0; t < num_tables; ++t) {
    const Table& table = *bound.tables[t];
    next[t].resize(table.num_groups());
    slices[t].reserve(3 * table.num_groups());
    for (uint32_t g = 0; g < table.num_groups(); ++g) {
      const Partition& delta = table.group(g).delta;
      slices[t].push_back(
          Slice{{g, PartitionKind::kMain}, RowRange{}, SliceKind::kMain, {}});
      const PartitionRef delta_ref{g, PartitionKind::kDelta};
      DeltaMemo::Prefix& prefix = next[t][g];
      if (base != nullptr) prefix = base->prefixes[t][g];
      const uint32_t begin = prefix.rows;
      const uint32_t rows = static_cast<uint32_t>(delta.num_rows());
      uint32_t stable = begin;
      for (; stable < rows && RowStable(delta, stable, snapshot); ++stable) {
        prefix.invalidated += delta.RowInvalidated(stable) ? 1 : 0;
        newest = std::max({newest, delta.create_tid(stable),
                           delta.invalidate_tid(stable)});
      }
      prefix.rows = stable;
      prefix.invalidation_count = delta.invalidation_count();
      if (begin > 0) {
        slices[t].push_back(Slice{delta_ref, DeltaRange(delta, 0, begin),
                                  SliceKind::kPrefix, prefix.tid_bounds});
      }
      if (stable > begin || (base == nullptr && rows == 0)) {
        Slice fresh{delta_ref, DeltaRange(delta, begin, stable),
                    SliceKind::kFresh, {}};
        for (size_t column : TidColumnsOf(bound, t)) {
          fresh.known.emplace_back(column, fresh.Bounds(table, column));
        }
        // The advanced prefix covers the old prefix and the fresh rows.
        if (prefix.tid_bounds.empty()) {
          prefix.tid_bounds = fresh.known;
        } else {
          for (size_t i = 0; i < fresh.known.size(); ++i) {
            prefix.tid_bounds[i].second.Extend(fresh.known[i].second);
          }
        }
        slices[t].push_back(std::move(fresh));
        anything_new = true;
        advanced |= stable > begin;
      }
      if (rows > stable) {
        slices[t].push_back(Slice{delta_ref, DeltaRange(delta, stable, rows),
                                  SliceKind::kTail, {}});
        anything_new = true;
      }
    }
  }

  // Plan every combination that touches a slice past a prefix, in the
  // order EnumerateCompensationCombinations uses (first table outermost).
  // A combination without a tail slice is part of the next memo.
  std::vector<SubjoinTask> tasks;
  std::vector<bool> memoized;
  std::vector<size_t> pick(num_tables, 0);
  while (anything_new) {
    bool touches_new = false;
    bool touches_tail = false;
    bool split = false;
    for (size_t t = 0; t < num_tables; ++t) {
      const Slice& slice = slices[t][pick[t]];
      touches_new |= slice.kind == SliceKind::kFresh ||
                     slice.kind == SliceKind::kTail;
      touches_tail |= slice.kind == SliceKind::kTail;
      split |= !slice.rows.whole();
    }
    if (touches_new) {
      SubjoinTask task;
      task.combination.reserve(num_tables);
      if (split) task.restriction.ranges.reserve(num_tables);
      for (size_t t = 0; t < num_tables; ++t) {
        task.combination.push_back(slices[t][pick[t]].ref);
        if (split) task.restriction.ranges.push_back(slices[t][pick[t]].rows);
      }
      auto tid_bounds = [&](size_t table, size_t column) {
        return slices[table][pick[table]].Bounds(*bound.tables[table], column);
      };
      if (std::optional<SubjoinTask> planned =
              PlanSubjoin(bound, std::move(task), &pruner, use_pushdown,
                          "delta-compensation", tid_bounds)) {
        tasks.push_back(std::move(*planned));
        memoized.push_back(!touches_tail);
      }
    }
    size_t t = num_tables;
    while (t > 0 && ++pick[t - 1] == slices[t - 1].size()) pick[--t] = 0;
    if (t == 0) break;
  }

  // `cache.delta_comp` lets the harnesses hold a query inside delta
  // compensation deterministically (kDelay) so the active-query registry
  // and remote cancellation can be exercised against a live phase.
  ASSIGN_OR_RETURN(std::vector<AggregateResult> partials,
                   executor.ExecuteSubjoins(bound, tasks, snapshot,
                                            "delta-comp", "cache.delta_comp",
                                            stats));
  // Merge in plan order so results are deterministic at any thread count
  // (floating-point sums are order-sensitive): the memoized part first,
  // shared so the answer and the next memo hold one group map.
  AggregateResult memo_part =
      base != nullptr ? base->partial
                      : AggregateResult(bound.aggregates.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (memoized[i]) memo_part.MergeFrom(partials[i]);
  }
  memo_part.Share();
  out.result = memo_part;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!memoized[i]) out.result.MergeFrom(partials[i]);
  }

  // Publish only what moved: nothing on a read with nothing new, nothing
  // from a reader that bypassed a newer memo.
  if (out.reset == MemoReset::kOlderSnapshot) return out;
  if (base != nullptr && !advanced && !counters_moved) return out;
  std::vector<DeltaMemo::MainRead> mains;
  if (base != nullptr) mains = base->mains;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (!memoized[i] || partials[i].empty()) continue;
    for (size_t t = 0; t < num_tables; ++t) {
      const PartitionRef& ref = tasks[i].combination[t];
      if (ref.kind != PartitionKind::kMain) continue;
      auto same = [&](const DeltaMemo::MainRead& read) {
        return read.table == t && read.group == ref.group;
      };
      if (std::find_if(mains.begin(), mains.end(), same) != mains.end()) {
        continue;
      }
      mains.push_back(DeltaMemo::MainRead{
          t, ref.group,
          bound.tables[t]->group(ref.group).main.invalidation_count()});
    }
  }
  // A main invalidation this snapshot does not see as stable would leave
  // the recorded counter in step while later readers lose the row.
  for (const DeltaMemo::MainRead& read : mains) {
    Tid invalidated =
        bound.tables[read.table]->group(read.group).main.max_invalidate_tid();
    if (invalidated != kNoTid && !snapshot.TidStable(invalidated)) {
      if (out.reset == MemoReset::kNone) out.reset = MemoReset::kUnstableRows;
      if (memo != nullptr && !out.memo_used) out.publish.emplace(nullptr);
      return out;
    }
    newest = std::max(newest, invalidated);
  }
  auto memo_next = std::make_shared<DeltaMemo>();
  memo_next->tid = newest;
  memo_next->snapshot = std::move(snapshot);
  memo_next->partial = std::move(memo_part);
  memo_next->prefixes = std::move(next);
  memo_next->mains = std::move(mains);
  memo_next->bytes = memo_next->ByteSize();
  out.publish.emplace(std::move(memo_next));
  return out;
}

}  // namespace aggcache
