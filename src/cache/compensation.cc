#include "cache/compensation.h"

#include "common/thread_pool.h"
#include "objectaware/predicate_pushdown.h"
#include "obs/engine_metrics.h"
#include "obs/span.h"
#include "obs/trace_recorder.h"
#include "runtime/query_context.h"
#include "verify/fault_injector.h"

namespace aggcache {

StatusOr<AggregateResult> DeltaCompensate(const Executor& executor,
                                          const BoundQuery& bound,
                                          const std::vector<MdBinding>& mds,
                                          JoinPruner& pruner,
                                          bool use_pushdown, Snapshot snapshot,
                                          CompensationStats* stats) {
  // Prune decisions (and pushdown derivation) stay on the calling thread:
  // they are cheap, and JoinPruner accumulates stats that must stay
  // race-free. Only the surviving subjoins fan out.
  struct Subjoin {
    SubjoinCombination combo;
    std::vector<FilterPredicate> extra;
  };
  std::vector<Subjoin> subjoins;
  for (SubjoinCombination& combo :
       EnumerateCompensationCombinations(bound.tables)) {
    if (stats != nullptr) ++stats->subjoins_considered;
    PruneDecision decision = pruner.ShouldPrune(bound, mds, combo);
    if (decision.pruned) {
      if (stats != nullptr) ++stats->subjoins_pruned;
      RecordSubjoin(bound, mds, combo, "delta-compensation", decision, {});
      continue;
    }
    std::vector<FilterPredicate> extra;
    if (use_pushdown) {
      extra = DerivePushdownFilters(bound, mds, combo);
      if (!extra.empty()) {
        EngineMetrics::Get().pushdown_predicates->Increment(extra.size());
      }
    }
    RecordSubjoin(bound, mds, combo, "delta-compensation", decision, extra);
    subjoins.push_back(Subjoin{std::move(combo), std::move(extra)});
  }

  std::vector<AggregateResult> partials(subjoins.size());
  std::vector<ExecutorStats> task_stats(subjoins.size());
  std::vector<Status> task_status(subjoins.size());
  // Re-install the calling query's governance context on the pool workers —
  // and the span parent, so each task shows up under this compensation in
  // the trace tree.
  QueryContext* ctx = QueryContext::Current();
  SpanLink span_parent = CurrentSpanLink();
  ParallelFor(subjoins.size(), [&](size_t i) {
    ScopedQueryContext scope(ctx);
    ScopedSpan task_span(SpanKind::kSubjoinTask, span_parent,
                         "delta-comp");
    // `cache.delta_comp` lets the harnesses hold a query inside delta
    // compensation deterministically (kDelay) so the active-query registry
    // and remote cancellation can be exercised against a live phase.
    Status fault = FaultInjector::Global().MaybeFail("cache.delta_comp");
    if (!fault.ok()) {
      task_status[i] = fault;
      return;
    }
    auto partial =
        executor.ExecuteSubjoin(bound, subjoins[i].combo, snapshot,
                                subjoins[i].extra,
                                /*restriction=*/nullptr, &task_stats[i]);
    if (partial.ok()) {
      partials[i] = std::move(partial).value();
    } else {
      task_status[i] = partial.status();
    }
    // Progress accounting for the registry: one add per completed subjoin.
    if (ctx != nullptr) ctx->AddRowsScanned(task_stats[i].rows_scanned);
  });

  Status first_error;
  for (size_t i = 0; i < subjoins.size(); ++i) {
    if (stats != nullptr) {
      ++stats->subjoins_executed;
      stats->rows_scanned += task_stats[i].rows_scanned;
    }
    if (first_error.ok() && !task_status[i].ok()) first_error = task_status[i];
  }
  RETURN_IF_ERROR(first_error);
  // Merge in enumeration order so results are deterministic at any thread
  // count (floating-point sums are order-sensitive).
  AggregateResult result(bound.aggregates.size());
  for (size_t i = 0; i < subjoins.size(); ++i) {
    result.MergeFrom(partials[i]);
  }
  return result;
}

}  // namespace aggcache
