#include "cache/compensation.h"

#include <string>
#include <utility>

#include "common/string_util.h"
#include "objectaware/predicate_pushdown.h"
#include "obs/engine_metrics.h"
#include "obs/query_trace.h"
#include "storage/dictionary.h"

namespace aggcache {

namespace {

/// "Item[g0/delta].tid_Header" — table, the partition the combination
/// picked for it, and the tid column the MD binds.
std::string TidColumnLabel(const BoundQuery& bound,
                           const SubjoinCombination& combination,
                           size_t table_index, size_t column_index) {
  const Table& table = *bound.tables[table_index];
  const PartitionRef& ref = combination[table_index];
  return StrFormat("%s[g%u/%s].%s", table.name().c_str(), ref.group,
                   PartitionKindToString(ref.kind),
                   table.schema().columns[column_index].name.c_str());
}

SubjoinTrace::TidRange MakeTidRange(const BoundQuery& bound,
                                    const SubjoinCombination& combination,
                                    size_t table_index, size_t column_index) {
  SubjoinTrace::TidRange range;
  range.column =
      TidColumnLabel(bound, combination, table_index, column_index);
  const Partition& partition =
      ResolvePartition(*bound.tables[table_index], combination[table_index]);
  if (partition.empty()) {
    range.empty = true;
    return range;
  }
  const Dictionary& dict = partition.column(column_index).dictionary();
  range.min = dict.min_value().AsInt64();
  range.max = dict.max_value().AsInt64();
  return range;
}

SubjoinTrace MakeSubjoinTrace(
    const BoundQuery& bound, const SubjoinCombination& combination,
    const char* phase, const PruneDecision& decision,
    const std::vector<FilterPredicate>& pushdown_filters,
    bool md_tid_ranges) {
  SubjoinTrace trace;
  trace.phase = phase;
  trace.combination = CombinationToString(combination);
  if (decision.pruned) {
    trace.verdict = SubjoinTrace::Verdict::kPruned;
    trace.prune_reason = decision.reason;
  } else if (!pushdown_filters.empty()) {
    trace.verdict = SubjoinTrace::Verdict::kPushdown;
  } else {
    trace.verdict = SubjoinTrace::Verdict::kExecuted;
  }
  if (md_tid_ranges) {
    trace.tid_ranges.reserve(bound.mds.size() * 2);
    for (const MdBinding& md : bound.mds) {
      trace.tid_ranges.push_back(MakeTidRange(bound, combination,
                                              md.left_table,
                                              md.left_tid_column));
      trace.tid_ranges.push_back(MakeTidRange(bound, combination,
                                              md.right_table,
                                              md.right_tid_column));
    }
  }
  trace.pushdown_filters.reserve(pushdown_filters.size());
  for (const FilterPredicate& filter : pushdown_filters) {
    trace.pushdown_filters.push_back(
        bound.tables[filter.table_index]->name() + "." + filter.ToString());
  }
  return trace;
}

}  // namespace

void RecordSubjoin(const BoundQuery& bound,
                   const SubjoinCombination& combination, const char* phase,
                   const PruneDecision& decision,
                   const std::vector<FilterPredicate>& pushdown_filters,
                   bool md_tid_ranges) {
  QueryTrace* trace = TraceContext::Current();
  if (trace == nullptr) return;
  trace->subjoins.push_back(MakeSubjoinTrace(
      bound, combination, phase, decision, pushdown_filters, md_tid_ranges));
}

std::vector<SubjoinTask> PlanSubjoins(const BoundQuery& bound,
                                      std::vector<SubjoinCombination> combos,
                                      JoinPruner* pruner, bool use_pushdown,
                                      const char* phase) {
  // Runs on the calling thread: decisions are cheap, and JoinPruner
  // accumulates stats that must stay race-free.
  std::vector<SubjoinTask> tasks;
  for (SubjoinCombination& combo : combos) {
    PruneDecision decision;
    if (pruner != nullptr) decision = pruner->ShouldPrune(bound, combo);
    if (decision.pruned) {
      RecordSubjoin(bound, combo, phase, decision, {}, /*md_tid_ranges=*/true);
      continue;
    }
    SubjoinTask task{std::move(combo), {}, {}};
    if (use_pushdown) {
      task.extra_filters = DerivePushdownFilters(bound, task.combination);
      if (!task.extra_filters.empty()) {
        EngineMetrics::Get().pushdown_predicates->Increment(
            task.extra_filters.size());
      }
    }
    RecordSubjoin(bound, task.combination, phase, decision,
                  task.extra_filters, /*md_tid_ranges=*/true);
    tasks.push_back(std::move(task));
  }
  return tasks;
}

StatusOr<AggregateResult> DeltaCompensate(const Executor& executor,
                                          const BoundQuery& bound,
                                          JoinPruner& pruner,
                                          bool use_pushdown, Snapshot snapshot,
                                          ExecutorStats* stats) {
  std::vector<SubjoinTask> tasks =
      PlanSubjoins(bound, EnumerateCompensationCombinations(bound.tables),
                   &pruner, use_pushdown, "delta-compensation");
  // `cache.delta_comp` lets the harnesses hold a query inside delta
  // compensation deterministically (kDelay) so the active-query registry
  // and remote cancellation can be exercised against a live phase.
  ASSIGN_OR_RETURN(std::vector<AggregateResult> partials,
                   executor.ExecuteSubjoins(bound, tasks, snapshot,
                                            "delta-comp", "cache.delta_comp",
                                            stats));
  // Merge in enumeration order so results are deterministic at any thread
  // count (floating-point sums are order-sensitive).
  AggregateResult result(bound.aggregates.size());
  for (const AggregateResult& partial : partials) result.MergeFrom(partial);
  return result;
}

}  // namespace aggcache
