#include "query/executor.h"

#include <algorithm>
#include <unordered_map>

#include "common/bit_packed_vector.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "obs/engine_metrics.h"
#include "obs/span.h"
#include "query/vector_kernels.h"
#include "runtime/query_context.h"
#include "verify/fault_injector.h"

namespace aggcache {

std::string MdBinding::ToString() const {
  return StrFormat("MD(join#%zu: t%zu.tid#%zu = t%zu.tid#%zu)", join_index,
                   left_table, left_tid_column, right_table,
                   right_tid_column);
}

namespace {

// Checks one direction of a join: does `ref` (query table index) own the
// primary key side and `fk_side` the foreign key side, with an MD tid
// column declared?
std::optional<MdBinding> TryMdDirection(const BoundQuery& bound,
                                        size_t join_index, size_t ref,
                                        size_t ref_column, size_t fk_side,
                                        size_t fk_column) {
  const TableSchema& ref_schema = bound.tables[ref]->schema();
  const TableSchema& fk_schema = bound.tables[fk_side]->schema();
  if (!ref_schema.primary_key || *ref_schema.primary_key != ref_column) {
    return std::nullopt;
  }
  if (!ref_schema.own_tid_column) return std::nullopt;
  for (const ForeignKeyDef& fk : fk_schema.foreign_keys) {
    if (fk.column != fk_column) continue;
    if (fk.ref_table != ref_schema.name) continue;
    if (!fk.tid_column) continue;
    return MdBinding{join_index, ref, *ref_schema.own_tid_column, fk_side,
                     *fk.tid_column};
  }
  return std::nullopt;
}

// The MD implied by join condition `join_index`, in whichever direction
// the join was written.
std::optional<MdBinding> ResolveMdForJoin(const BoundQuery& bound,
                                          size_t join_index) {
  const BoundQuery::BoundJoin& join = bound.joins[join_index];
  if (auto md = TryMdDirection(bound, join_index, join.outer_table,
                               join.outer_column, join.inner_table,
                               join.inner_column)) {
    return md;
  }
  return TryMdDirection(bound, join_index, join.inner_table,
                        join.inner_column, join.outer_table,
                        join.outer_column);
}

}  // namespace

StatusOr<BoundQuery> BoundQuery::Bind(const Database& db,
                                      const AggregateQuery& query) {
  if (query.tables.empty()) {
    return Status::InvalidArgument("query has no tables");
  }
  if (query.group_by.empty()) {
    return Status::InvalidArgument("query has no group-by columns");
  }
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  BoundQuery bound;
  bound.query = &query;
  for (size_t i = 0; i < query.tables.size(); ++i) {
    ASSIGN_OR_RETURN(const Table* table,
                     db.GetTable(query.tables[i].table_name));
    for (size_t j = 0; j < i; ++j) {
      if (bound.tables[j] == table) {
        return Status::InvalidArgument(
            "self joins are not supported: table '" +
            query.tables[i].table_name + "' appears twice");
      }
    }
    bound.tables.push_back(table);
  }
  auto resolve = [&](size_t table_index,
                     const std::string& column) -> StatusOr<size_t> {
    if (table_index >= bound.tables.size()) {
      return Status::InvalidArgument("table index out of range");
    }
    return bound.tables[table_index]->schema().ColumnIndex(column);
  };
  auto type_of = [&](size_t table_index, size_t column) {
    return bound.tables[table_index]->schema().columns[column].type;
  };

  for (const JoinCondition& join : query.joins) {
    size_t lt = join.left_table;
    size_t rt = join.right_table;
    ASSIGN_OR_RETURN(size_t lc, resolve(lt, join.left_column));
    ASSIGN_OR_RETURN(size_t rc, resolve(rt, join.right_column));
    if (type_of(lt, lc) != type_of(rt, rc)) {
      return Status::InvalidArgument("join column type mismatch: " +
                                     join.ToString());
    }
    if (lt == rt) {
      return Status::InvalidArgument("self joins are not supported");
    }
    // Normalize so the outer table precedes the inner table in query order;
    // the executor joins tables left-deep in that order.
    bound.joins.push_back(lt < rt ? BoundJoin{lt, lc, rt, rc}
                                  : BoundJoin{rt, rc, lt, lc});
  }
  // Left-deep compatibility: every table after the first must join to an
  // earlier table, so the executor can attach tables in query order.
  for (size_t i = 1; i < bound.tables.size(); ++i) {
    bool attached = false;
    for (const BoundJoin& join : bound.joins) {
      if (join.inner_table == i) attached = true;
    }
    if (!attached) {
      return Status::InvalidArgument(StrFormat(
          "table %zu ('%s') has no join condition to an earlier table", i,
          query.tables[i].table_name.c_str()));
    }
  }
  for (size_t j = 0; j < bound.joins.size(); ++j) {
    if (auto md = ResolveMdForJoin(bound, j)) bound.mds.push_back(*md);
  }
  for (const FilterPredicate& filter : query.filters) {
    ASSIGN_OR_RETURN(size_t col, resolve(filter.table_index, filter.column));
    if (!filter.operand.MatchesType(type_of(filter.table_index, col))) {
      return Status::InvalidArgument("filter operand type mismatch: " +
                                     filter.ToString());
    }
    bound.filters.push_back(
        BoundFilter{filter.table_index, col, filter.op, filter.operand});
  }
  for (const GroupByRef& g : query.group_by) {
    ASSIGN_OR_RETURN(size_t col, resolve(g.table_index, g.column));
    bound.group_by.push_back(BoundGroupBy{g.table_index, col});
  }
  for (const AggregateSpec& agg : query.aggregates) {
    if (agg.fn == AggregateFunction::kCountStar) {
      bound.aggregates.push_back(
          BoundAggregate{agg.fn, 0, 0, /*is_count_star=*/true});
      continue;
    }
    ASSIGN_OR_RETURN(size_t col, resolve(agg.table_index, agg.column));
    if ((agg.fn == AggregateFunction::kSum ||
         agg.fn == AggregateFunction::kAvg) &&
        type_of(agg.table_index, col) == ColumnType::kString) {
      return Status::InvalidArgument("SUM/AVG over a string column");
    }
    bound.aggregates.push_back(
        BoundAggregate{agg.fn, agg.table_index, col, false});
  }
  for (const HavingPredicate& h : query.having) {
    if (h.aggregate_index >= query.aggregates.size()) {
      return Status::InvalidArgument(
          "HAVING references an aggregate outside the select list");
    }
    if (h.operand.is_null()) {
      return Status::InvalidArgument("HAVING operand must not be NULL");
    }
  }
  return bound;
}

namespace {

// Selection result for one table of a subjoin.
struct Selection {
  const Partition* partition = nullptr;
  std::vector<uint32_t> rows;
};

}  // namespace

StatusOr<AggregateResult> Executor::ExecuteSubjoin(
    const BoundQuery& bound, const SubjoinCombination& combination,
    Snapshot snapshot, const std::vector<FilterPredicate>& extra_filters,
    const RowRestriction* restriction, ExecutorStats* stats) const {
  const size_t num_tables = bound.tables.size();
  if (combination.size() != num_tables) {
    return Status::InvalidArgument("combination arity mismatch");
  }
  // Counters accumulate locally and flush on every return path into the
  // global metrics registry — relaxed atomics, so the flush is lock-free
  // even from pool workers — and into the caller's block when given.
  ExecutorStats counters;
  // Governance: the installed QueryContext (if any) is polled per kernel
  // block inside the selection loops, per kSelectionBlockRows iterations in
  // the join build/probe and group-by loops, and converted into a typed
  // error at each phase boundary by Check(). Memory charged for selection
  // vectors, join tuples, hash tables and group maps is released
  // all-or-none on every return path, error or not.
  QueryContext* ctx = QueryContext::Current();
  size_t charged_bytes = 0;
  struct FlushOnExit {
    ExecutorStats* caller;
    const ExecutorStats* local;
    QueryContext* ctx;
    const size_t* charged_bytes;
    ~FlushOnExit() {
      if (ctx != nullptr && *charged_bytes != 0) {
        ctx->ReleaseMemory(*charged_bytes);
      }
      const EngineMetrics& metrics = EngineMetrics::Get();
      metrics.exec_subjoins->Increment(local->subjoins_executed);
      metrics.exec_rows_scanned->Increment(local->rows_scanned);
      metrics.exec_rows_selected->Increment(local->rows_selected);
      metrics.exec_tuples_joined->Increment(local->tuples_joined);
      metrics.exec_selection_batches->Increment(local->selection_batches);
      metrics.exec_code_joins->Increment(local->code_joins);
      metrics.exec_packed_groupings->Increment(local->packed_groupings);
      metrics.exec_fallback_groupings->Increment(local->fallback_groupings);
      if (caller != nullptr) caller->MergeFrom(*local);
    }
  } flush{stats, &counters, ctx, &charged_bytes};
  ++counters.subjoins_executed;
  if (ctx != nullptr) RETURN_IF_ERROR(ctx->Check());
  // Charges `bytes` against the query; refusals abort the query with a
  // typed error and charge nothing.
  auto charge = [&](size_t bytes) -> Status {
    if (ctx == nullptr || bytes == 0) return Status::Ok();
    Status charge_status = ctx->ChargeMemory(bytes);
    if (charge_status.ok()) charged_bytes += bytes;
    return charge_status;
  };
  // Phase-boundary check point: typed abort conversion plus a charge for
  // the phase's freshly materialized bytes.
  auto checkpoint = [&](size_t new_bytes) -> Status {
    if (ctx == nullptr) return Status::Ok();
    RETURN_IF_ERROR(ctx->Check());
    return charge(new_bytes);
  };
  // Block-granularity poll for the tight loops: one relaxed load every
  // kSelectionBlockRows iterations.
  auto poll_aborted = [&](size_t* since) {
    if (ctx == nullptr || ++*since < kSelectionBlockRows) return false;
    *since = 0;
    return ctx->IsAborted();
  };
  AggregateResult result(bound.aggregates.size());

  // Resolve extra (pushed-down) filters against schemas.
  std::vector<BoundQuery::BoundFilter> all_filters = bound.filters;
  for (const FilterPredicate& filter : extra_filters) {
    if (filter.table_index >= num_tables) {
      return Status::InvalidArgument("extra filter table index out of range");
    }
    ASSIGN_OR_RETURN(size_t col, bound.tables[filter.table_index]
                                     ->schema()
                                     .ColumnIndex(filter.column));
    all_filters.push_back(BoundQuery::BoundFilter{filter.table_index, col,
                                                  filter.op, filter.operand});
  }

  // Selection (visibility + filters) runs lazily, per table, as the join
  // pipeline reaches it: once an intermediate result is empty, later tables
  // are never scanned. Dictionary range checks skip scanning partitions no
  // filter value can match (static partition pruning).
  std::vector<Selection> selections(num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    selections[t].partition =
        &ResolvePartition(*bound.tables[t], combination[t]);
  }
  // Selection runs through the batched code-space kernels: filters compile
  // once per table (sorted main -> contiguous code ranges; delta equality
  // -> a single code; value comparison otherwise), then 1024-row blocks
  // stream through tight loops over dictionary codes.
  auto select_rows = [&](size_t t) {
    Selection& sel = selections[t];
    const Partition& p = *sel.partition;
    if (p.empty()) return;

    std::vector<CompiledColumnFilter> table_filters;
    for (const BoundQuery::BoundFilter& f : all_filters) {
      if (f.table != t) continue;
      CompiledColumnFilter compiled;
      if (!CompileColumnFilter(p.column(f.column), f.op, f.operand,
                               &compiled)) {
        return;  // The predicate provably matches no row of this partition.
      }
      table_filters.push_back(compiled);
    }

    const std::vector<uint32_t>* candidates = nullptr;
    if (restriction != nullptr && t < restriction->rows.size() &&
        restriction->rows[t].has_value()) {
      candidates = &*restriction->rows[t];
    }
    SelectionInput input;
    input.snapshot = &snapshot;
    input.context = ctx;
    input.filters = table_filters;

    if (candidates != nullptr) {
      counters.rows_scanned += candidates->size();
      counters.selection_batches +=
          SelectRowsGather(input, *candidates, &sel.rows);
    } else {
      RowRange range;
      if (restriction != nullptr && t < restriction->ranges.size()) {
        range = restriction->ranges[t];
      }
      uint32_t end = static_cast<uint32_t>(
          std::min<size_t>(range.end, p.num_rows()));
      uint32_t begin = std::min(range.begin, end);
      counters.rows_scanned += end - begin;
      counters.selection_batches +=
          SelectRowsRange(p, input, begin, end, &sel.rows);
    }
    counters.rows_selected += sel.rows.size();
  };

  // Left-deep hash joins in query-table order. `tuples` holds row ids
  // flattened with stride = number of joined tables so far. Joins run in
  // code space: the hash table is keyed on the build side's dictionary
  // codes, and the probe side translates its codes into the build side's
  // code space once per distinct value (Dictionary::Find has the same
  // Value-equality semantics the old Value-keyed table used, so results
  // are identical — including int64(5) != double(5.0)).
  select_rows(0);
  RETURN_IF_ERROR(checkpoint(selections[0].rows.size() * sizeof(uint32_t)));
  std::vector<uint32_t> tuples = std::move(selections[0].rows);
  size_t stride = 1;

  for (size_t t = 1; t < num_tables; ++t) {
    if (tuples.empty()) break;
    select_rows(t);
    RETURN_IF_ERROR(
        checkpoint(selections[t].rows.size() * sizeof(uint32_t)));
    // Join conditions attaching table t to earlier tables: the first drives
    // the hash join, the rest are evaluated as post-join filters.
    std::vector<const BoundQuery::BoundJoin*> conds;
    for (const BoundQuery::BoundJoin& j : bound.joins) {
      if (j.inner_table == t) conds.push_back(&j);
    }
    AGGCACHE_CHECK(!conds.empty()) << "table not connected (validated)";
    const BoundQuery::BoundJoin& drive = *conds[0];

    const Partition& inner = *selections[t].partition;
    const Column& inner_key = inner.column(drive.inner_column);
    const Partition& outer_part = *selections[drive.outer_table].partition;
    const Column& outer_key = outer_part.column(drive.outer_column);
    ++counters.code_joins;

    // Residual join conditions between table t and other earlier tables:
    // the inner row's code translates into the outer column's code space
    // and the comparison is a single integer equality per pair.
    struct Residual {
      const BoundQuery::BoundJoin* join;
      const Column* outer_column;
      const Column* inner_column;
      CodeTranslator translator;
    };
    std::vector<Residual> residual_conds;
    for (size_t c = 1; c < conds.size(); ++c) {
      const BoundQuery::BoundJoin& extra = *conds[c];
      const Column& outer_col = selections[extra.outer_table]
                                    .partition->column(extra.outer_column);
      const Column& inner_col = inner.column(extra.inner_column);
      residual_conds.push_back(
          Residual{&extra, &outer_col, &inner_col,
                   CodeTranslator(&inner_col.dictionary(),
                                  &outer_col.dictionary(),
                                  selections[t].rows.size())});
    }
    auto residuals_pass = [&](size_t base, uint32_t inner_row) {
      for (Residual& res : residual_conds) {
        uint32_t other_row = tuples[base + res.join->outer_table];
        ValueId translated =
            res.translator.Translate(res.inner_column->code(inner_row));
        if (translated == CodeTranslator::kNoMatch ||
            translated != res.outer_column->code(other_row)) {
          return false;
        }
      }
      return true;
    };

    // Build the hash table on the smaller input — the optimization that
    // makes subjoins with a tiny delta on one side cheap even when the
    // other side is a large main partition.
    size_t num_tuples = stride == 0 ? 0 : tuples.size() / stride;
    std::vector<uint32_t> next;
    // Open-addressing slots at load factor <= 0.5 plus one chain node per
    // entry — the tracker charge for one hash-join build entry.
    constexpr size_t kHashEntryBytes = 40;
    size_t since_poll = 0;
    if (selections[t].rows.size() <= num_tuples) {
      // Build on the inner (new) table, probe with the joined tuples.
      RETURN_IF_ERROR(charge(selections[t].rows.size() * kHashEntryBytes));
      CodeHashTable hash_table(selections[t].rows.size());
      for (uint32_t r : selections[t].rows) {
        if (poll_aborted(&since_poll)) break;
        hash_table.Insert(inner_key.code(r), r);
      }
      if (ctx != nullptr && ctx->IsAborted()) return ctx->status();
      CodeTranslator probe(&outer_key.dictionary(), &inner_key.dictionary(),
                           num_tuples);
      for (size_t base = 0; base + stride <= tuples.size(); base += stride) {
        if (poll_aborted(&since_poll)) break;
        uint32_t outer_row = tuples[base + drive.outer_table];
        ValueId key = probe.Translate(outer_key.code(outer_row));
        if (key == CodeTranslator::kNoMatch) continue;
        hash_table.ForEach(key, [&](uint32_t inner_row) {
          if (!residuals_pass(base, inner_row)) return;
          for (size_t k = 0; k < stride; ++k) {
            next.push_back(tuples[base + k]);
          }
          next.push_back(inner_row);
        });
      }
    } else {
      // Build on the joined tuples, probe with the inner table's rows.
      RETURN_IF_ERROR(charge(num_tuples * kHashEntryBytes));
      CodeHashTable hash_table(num_tuples);
      for (size_t base = 0; base + stride <= tuples.size(); base += stride) {
        if (poll_aborted(&since_poll)) break;
        uint32_t outer_row = tuples[base + drive.outer_table];
        hash_table.Insert(outer_key.code(outer_row),
                          static_cast<uint32_t>(base));
      }
      if (ctx != nullptr && ctx->IsAborted()) return ctx->status();
      CodeTranslator probe(&inner_key.dictionary(), &outer_key.dictionary(),
                           selections[t].rows.size());
      for (uint32_t inner_row : selections[t].rows) {
        if (poll_aborted(&since_poll)) break;
        ValueId key = probe.Translate(inner_key.code(inner_row));
        if (key == CodeTranslator::kNoMatch) continue;
        hash_table.ForEach(key, [&](uint32_t base32) {
          size_t base = base32;
          if (!residuals_pass(base, inner_row)) return;
          for (size_t k = 0; k < stride; ++k) {
            next.push_back(tuples[base + k]);
          }
          next.push_back(inner_row);
        });
      }
    }
    tuples = std::move(next);
    stride += 1;
    RETURN_IF_ERROR(checkpoint(tuples.size() * sizeof(uint32_t)));
    if (tuples.empty()) break;
  }

  if (stride != num_tables && num_tables > 1) {
    // Join pipeline ended early on an empty intermediate result.
    return result;
  }
  counters.tuples_joined += tuples.size() / stride;
  if (tuples.empty()) return result;

  // Phase 3: hash aggregation over the joined tuples. Whenever the group-by
  // columns' code widths fit, all group codes pack into one 64-bit key
  // (BitsForCardinality per dictionary), so the per-tuple cost is integer
  // packing plus one flat-map probe; group Values materialize only once per
  // distinct group at emission. Wider layouts fall back to materialized
  // GroupKeys.
  const size_t num_group_cols = bound.group_by.size();
  const size_t num_aggs = bound.aggregates.size();
  std::vector<const Column*> group_cols(num_group_cols);
  std::vector<int> group_bits(num_group_cols);
  for (size_t g = 0; g < num_group_cols; ++g) {
    const BoundQuery::BoundGroupBy& gb = bound.group_by[g];
    group_cols[g] = &selections[gb.table].partition->column(gb.column);
    group_bits[g] = BitPackedVector::BitsForCardinality(
        group_cols[g]->dictionary().size());
  }
  std::vector<const Column*> agg_cols(num_aggs, nullptr);
  for (size_t a = 0; a < num_aggs; ++a) {
    const BoundQuery::BoundAggregate& agg = bound.aggregates[a];
    if (!agg.is_count_star) {
      agg_cols[a] = &selections[agg.table].partition->column(agg.column);
    }
  }

  std::optional<PackedKeyLayout> layout = PlanPackedKeyLayout(group_bits);
  if (layout.has_value()) {
    ++counters.packed_groupings;
    GroupIndexMap group_map;
    std::vector<uint64_t> group_keys;
    std::vector<AggregateResult::GroupEntry> entries;
    std::vector<ValueId> group_codes(num_group_cols);
    size_t group_poll = 0;
    for (size_t base = 0; base + stride <= tuples.size(); base += stride) {
      if (poll_aborted(&group_poll)) break;
      for (size_t g = 0; g < num_group_cols; ++g) {
        group_codes[g] =
            group_cols[g]->code(tuples[base + bound.group_by[g].table]);
      }
      uint32_t idx = group_map.InsertOrGet(layout->Pack(group_codes));
      if (idx == entries.size()) {
        group_keys.push_back(layout->Pack(group_codes));
        entries.emplace_back();
        entries.back().states.resize(num_aggs);
      }
      AggregateResult::GroupEntry& entry = entries[idx];
      for (size_t a = 0; a < num_aggs; ++a) {
        if (agg_cols[a] == nullptr) {
          // COUNT(*): AggregateState::Add(NULL) only bumps the count.
          ++entry.states[a].count;
        } else {
          entry.states[a].Add(
              agg_cols[a]->GetValue(tuples[base + bound.aggregates[a].table]));
        }
      }
      ++entry.count_star;
    }
    // Group map slot + packed key + entry with its per-aggregate states.
    RETURN_IF_ERROR(checkpoint(
        entries.size() * (sizeof(AggregateResult::GroupEntry) +
                          num_aggs * sizeof(AggregateState) + 24)));
    // Materialize group Values, once per distinct group. Packed keys map
    // bijectively to group value tuples (codes are dense per dictionary),
    // so SetGroup never overwrites.
    GroupKey key;
    key.values.resize(num_group_cols);
    for (size_t idx = 0; idx < entries.size(); ++idx) {
      for (size_t g = 0; g < num_group_cols; ++g) {
        key.values[g] = group_cols[g]->dictionary().value(
            layout->Unpack(group_keys[idx], g));
      }
      result.SetGroup(key, std::move(entries[idx]));
    }
    return result;
  }

  ++counters.fallback_groupings;
  GroupKey key;
  key.values.resize(num_group_cols);
  std::vector<Value> inputs(num_aggs);
  size_t group_poll = 0;
  for (size_t base = 0; base + stride <= tuples.size(); base += stride) {
    if (poll_aborted(&group_poll)) break;
    for (size_t g = 0; g < num_group_cols; ++g) {
      key.values[g] = group_cols[g]->GetValue(tuples[base + bound.group_by[g].table]);
    }
    for (size_t a = 0; a < num_aggs; ++a) {
      if (agg_cols[a] == nullptr) {
        inputs[a] = Value();
      } else {
        inputs[a] =
            agg_cols[a]->GetValue(tuples[base + bound.aggregates[a].table]);
      }
    }
    result.Accumulate(key, inputs);
  }
  RETURN_IF_ERROR(checkpoint(0));
  return result;
}

StatusOr<std::vector<AggregateResult>> Executor::ExecuteSubjoins(
    const BoundQuery& bound, std::span<const SubjoinTask> tasks,
    Snapshot snapshot, const char* span_detail, const char* fault_point,
    ExecutorStats* stats) const {
  std::vector<AggregateResult> partials(tasks.size());
  if (tasks.empty()) return partials;
  std::vector<ExecutorStats> task_stats(tasks.size());
  std::vector<Status> task_status(tasks.size());
  // Pool workers have no thread-local context of their own; re-install the
  // caller's so budget charges and abort polls govern the whole fan-out,
  // and the caller's span so tasks land under its trace tree.
  QueryContext* ctx = QueryContext::Current();
  SpanLink span_parent = CurrentSpanLink();
  ParallelFor(tasks.size(), [&](size_t i) {
    ScopedQueryContext scope(ctx);
    ScopedSpan task_span(SpanKind::kSubjoinTask, span_parent, span_detail);
    if (fault_point != nullptr) {
      task_status[i] = FaultInjector::Global().MaybeFail(fault_point);
      if (!task_status[i].ok()) return;
    }
    const SubjoinTask& task = tasks[i];
    auto partial =
        ExecuteSubjoin(bound, task.combination, snapshot, task.extra_filters,
                       &task.restriction, &task_stats[i]);
    if (partial.ok()) {
      partials[i] = std::move(partial).value();
    } else {
      task_status[i] = partial.status();
    }
    // Progress accounting for the registry: one add per completed subjoin.
    if (ctx != nullptr) ctx->AddRowsScanned(task_stats[i].rows_scanned);
  });
  Status first_error;
  for (size_t i = 0; i < tasks.size(); ++i) {
    if (stats != nullptr) stats->MergeFrom(task_stats[i]);
    if (first_error.ok() && !task_status[i].ok()) first_error = task_status[i];
  }
  RETURN_IF_ERROR(first_error);
  return partials;
}

StatusOr<AggregateResult> Executor::ExecuteUncached(
    const AggregateQuery& query, Snapshot snapshot,
    ExecutorStats* stats) const {
  ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(*db_, query));
  std::vector<SubjoinTask> tasks;
  for (SubjoinCombination& combo : EnumerateAllCombinations(bound.tables)) {
    tasks.push_back(SubjoinTask{std::move(combo), {}, {}});
  }
  ASSIGN_OR_RETURN(std::vector<AggregateResult> partials,
                   ExecuteSubjoins(bound, tasks, snapshot, "uncached",
                                   /*fault_point=*/nullptr, stats));
  // Merge in enumeration order so results are deterministic at any thread
  // count (floating-point sums are order-sensitive). HAVING applies to
  // whole groups, so only after every subjoin is merged.
  AggregateResult result(bound.aggregates.size());
  for (const AggregateResult& partial : partials) result.MergeFrom(partial);
  return query.ApplyHaving(std::move(result));
}

}  // namespace aggcache
