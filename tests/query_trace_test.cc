// Tests for query tracing (src/obs/query_trace.h): exact ToText/ToJson
// renderings (golden — CI keys on them), TraceContext scoping, and
// end-to-end EXPLAIN traces over a three-table MD join — every {main,delta}
// subjoin combination must appear exactly once with tid ranges and a
// verdict, and the verdict counts must reconcile exactly with the
// process-wide metrics registry.

#include "obs/query_trace.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/engine_metrics.h"
#include "query/subjoin.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

QueryTrace MakeGoldenTrace() {
  QueryTrace trace;
  trace.statement = "SELECT SUM(Qty) FROM ...";
  trace.strategy = "cached-full-pruning";
  trace.use_pushdown = true;
  trace.snapshot_tid = 42;
  trace.cache_outcome = "hit";
  trace.build_ms = 0.0;
  trace.main_comp_ms = 0.5;
  trace.delta_comp_ms = 1.25;
  trace.total_ms = 2.0;
  trace.admission_wait_us = 15;
  trace.mem_peak_bytes = 4096;

  SubjoinTrace pushdown;
  pushdown.phase = "delta-compensation";
  pushdown.combination = "[g0/main, g0/delta]";
  pushdown.verdict = SubjoinTrace::Verdict::kPushdown;
  pushdown.tid_ranges = {{"Item[g0/delta].tid_Header", false, 21, 24},
                         {"Header[g0/main].tid_Header", false, 1, 20}};
  pushdown.pushdown_filters = {"Header.tid_Header >= 21"};

  SubjoinTrace pruned;
  pruned.phase = "delta-compensation";
  pruned.combination = "[g0/delta, g0/delta]";
  pruned.verdict = SubjoinTrace::Verdict::kPruned;
  pruned.prune_reason = "empty-partition";
  pruned.tid_ranges = {{"Item[g0/delta].tid_Item", true, 0, 0}};

  trace.subjoins = {pushdown, pruned};
  return trace;
}

TEST(QueryTraceTest, ToTextGolden) {
  EXPECT_EQ(MakeGoldenTrace().ToText(),
            "EXPLAIN AGGREGATE\n"
            "  statement: SELECT SUM(Qty) FROM ...\n"
            "  strategy: cached-full-pruning  pushdown: on\n"
            "  snapshot tid: 42\n"
            "  cache: hit\n"
            "  phases: build 0.000 ms, main-comp 0.500 ms, "
            "delta-comp 1.250 ms, total 2.000 ms\n"
            "  governance: admission-wait 15 us, mem-peak 4096 B\n"
            "  subjoins: 2 considered = 0 executed + 1 pushdown + 1 pruned\n"
            "    [delta-compensation] [g0/main, g0/delta] pushdown\n"
            "        Item[g0/delta].tid_Header tid=[21,24]  "
            "Header[g0/main].tid_Header tid=[1,20]\n"
            "        pushdown: Header.tid_Header >= 21\n"
            "    [delta-compensation] [g0/delta, g0/delta] pruned "
            "(empty-partition)\n"
            "        Item[g0/delta].tid_Item tid=[empty]\n");
}

TEST(QueryTraceTest, ToJsonGolden) {
  EXPECT_EQ(
      MakeGoldenTrace().ToJson(),
      "{\"statement\":\"SELECT SUM(Qty) FROM ...\","
      "\"strategy\":\"cached-full-pruning\",\"pushdown\":true,"
      "\"snapshot_tid\":42,\"cache\":\"hit\","
      "\"phases\":{\"build_ms\":0.000,\"main_comp_ms\":0.500,"
      "\"delta_comp_ms\":1.250,\"total_ms\":2.000},"
      "\"governance\":{\"admission_wait_us\":15,\"mem_peak_bytes\":4096,"
      "\"abort\":\"\"},"
      "\"subjoins\":["
      "{\"phase\":\"delta-compensation\","
      "\"combination\":\"[g0/main, g0/delta]\",\"verdict\":\"pushdown\","
      "\"reason\":\"\",\"tid_ranges\":["
      "{\"column\":\"Item[g0/delta].tid_Header\",\"empty\":false,"
      "\"min\":21,\"max\":24},"
      "{\"column\":\"Header[g0/main].tid_Header\",\"empty\":false,"
      "\"min\":1,\"max\":20}],"
      "\"pushdown_filters\":[\"Header.tid_Header >= 21\"]},"
      "{\"phase\":\"delta-compensation\","
      "\"combination\":\"[g0/delta, g0/delta]\",\"verdict\":\"pruned\","
      "\"reason\":\"empty-partition\",\"tid_ranges\":["
      "{\"column\":\"Item[g0/delta].tid_Item\",\"empty\":true}],"
      "\"pushdown_filters\":[]}]}");
}

TEST(QueryTraceTest, GovernanceAbortCauseRenders) {
  QueryTrace trace = MakeGoldenTrace();
  trace.abort_cause = "deadline-exceeded";
  EXPECT_NE(trace.ToText().find(
                "governance: admission-wait 15 us, mem-peak 4096 B, "
                "abort: deadline-exceeded\n"),
            std::string::npos)
      << trace.ToText();
  EXPECT_NE(trace.ToJson().find("\"abort\":\"deadline-exceeded\""),
            std::string::npos)
      << trace.ToJson();
}

TEST(QueryTraceTest, JsonEscapesQuotesAndNewlines) {
  QueryTrace trace;
  trace.statement = "line1\nsays \"hi\"\\";
  std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"statement\":\"line1\\nsays \\\"hi\\\"\\\\\""),
            std::string::npos)
      << json;
}

TEST(QueryTraceTest, TraceContextNestsAndRestores) {
  EXPECT_EQ(TraceContext::Current(), nullptr);
  QueryTrace outer;
  {
    TraceContext outer_scope(&outer);
    EXPECT_EQ(TraceContext::Current(), &outer);
    QueryTrace inner;
    {
      TraceContext inner_scope(&inner);
      EXPECT_EQ(TraceContext::Current(), &inner);
    }
    EXPECT_EQ(TraceContext::Current(), &outer);
  }
  EXPECT_EQ(TraceContext::Current(), nullptr);
}

// ---------------------------------------------------------------------------
// End-to-end: Header -> Item -> SubItem (two MD edges), traced through the
// cache manager.

/// Point-in-time copy of every counter the trace must reconcile with.
struct CounterSnapshot {
  uint64_t lookups, hits, misses, rebuilds;
  uint64_t exec_subjoins;
  uint64_t considered, pruned_empty, pruned_aging, pruned_tid_range;
  uint64_t pushdown_predicates;

  static CounterSnapshot Take() {
    const EngineMetrics& em = EngineMetrics::Get();
    CounterSnapshot s;
    s.lookups = em.cache_lookups->Value();
    s.hits = em.cache_hits->Value();
    s.misses = em.cache_misses->Value();
    s.rebuilds = em.cache_rebuilds->Value();
    s.exec_subjoins = em.exec_subjoins->Value();
    s.considered = em.prune_considered->Value();
    s.pruned_empty = em.pruned_empty->Value();
    s.pruned_aging = em.pruned_aging->Value();
    s.pruned_tid_range = em.pruned_tid_range->Value();
    s.pushdown_predicates = em.pushdown_predicates->Value();
    return s;
  }
};

class ExplainTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    auto sub_or = db_.CreateTable(
        SchemaBuilder("SubItem")
            .AddColumn("SubItemID", ColumnType::kInt64)
            .PrimaryKey()
            .AddColumn("ItemID", ColumnType::kInt64)
            .References("Item", "tid_Item")
            .AddColumn("Qty", ColumnType::kDouble)
            .OwnTid("tid_SubItem")
            .Build());
    ASSERT_TRUE(sub_or.ok()) << sub_or.status();
    sub_ = sub_or.value();
    // Three merged business objects, one fresh object left in the deltas:
    // every table has non-empty main and delta partitions, so all eight
    // {main,delta}^3 combinations are live.
    for (int64_t h = 1; h <= 3; ++h) {
      ASSERT_OK(InsertObject(h, 2013, /*items=*/2, /*subs=*/2));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item", "SubItem"}));
    ASSERT_OK(InsertObject(4, 2014, /*items=*/2, /*subs=*/2));
  }

  Status InsertObject(int64_t header_id, int64_t year, int items, int subs) {
    ScopedTransaction txn = db_.BeginAtomic();
    RETURN_IF_ERROR(
        header_->Insert(txn, {Value(header_id), Value(year)}));
    for (int i = 0; i < items; ++i) {
      int64_t item_id = next_item_id_++;
      RETURN_IF_ERROR(item_->Insert(
          txn, {Value(item_id), Value(header_id), Value(1.0)}));
      for (int s = 0; s < subs; ++s) {
        RETURN_IF_ERROR(sub_->Insert(
            txn, {Value(next_sub_id_++), Value(item_id), Value(2.0)}));
      }
    }
    return Status::Ok();
  }

  static AggregateQuery ThreeTableQuery() {
    return QueryBuilder()
        .From("Header")
        .Join("Item", "HeaderID", "HeaderID")
        .Join("SubItem", "ItemID", "ItemID")
        .GroupBy("Header", "FiscalYear")
        .Sum("SubItem", "Qty", "TotalQty")
        .CountStar("N")
        .Build();
  }

  /// All compensation combination strings for the bound three-table query.
  std::set<std::string> CompensationComboStrings() {
    auto bound = BoundQuery::Bind(db_, ThreeTableQuery());
    AGGCACHE_CHECK(bound.ok());
    std::set<std::string> combos;
    for (const SubjoinCombination& combo :
         EnumerateCompensationCombinations(bound->tables)) {
      combos.insert(CombinationToString(combo));
    }
    return combos;
  }

  StatusOr<AggregateResult> RunTraced(ExecutionOptions options,
                                      QueryTrace* trace) {
    Transaction txn = db_.Begin();
    options.trace = trace;
    return cache_.Execute(ThreeTableQuery(), txn, options);
  }

  /// delta(executor subjoins) must equal the trace's executed + pushdown
  /// verdicts, and every pruner counter must match its verdicts — the
  /// EXPLAIN output and the registry tell one story.
  void ExpectTraceReconciles(const QueryTrace& trace,
                             const CounterSnapshot& before,
                             const CounterSnapshot& after) {
    size_t executed = trace.CountVerdict(SubjoinTrace::Verdict::kExecuted);
    size_t pushdown = trace.CountVerdict(SubjoinTrace::Verdict::kPushdown);
    size_t pruned = trace.CountVerdict(SubjoinTrace::Verdict::kPruned);
    EXPECT_EQ(after.exec_subjoins - before.exec_subjoins,
              executed + pushdown);
    size_t decided = 0;  // Events that went through the pruner.
    for (const SubjoinTrace& subjoin : trace.subjoins) {
      if (subjoin.phase == "build" ||
          subjoin.phase == "delta-compensation") {
        ++decided;
      }
    }
    EXPECT_EQ(after.considered - before.considered, decided);
    EXPECT_EQ((after.pruned_empty - before.pruned_empty) +
                  (after.pruned_aging - before.pruned_aging) +
                  (after.pruned_tid_range - before.pruned_tid_range),
              pruned);
    EXPECT_EQ(after.lookups - before.lookups,
              (after.hits - before.hits) + (after.misses - before.misses));
  }

  Database db_;
  AggregateCacheManager cache_{&db_};
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  Table* sub_ = nullptr;
  int64_t next_item_id_ = 1;
  int64_t next_sub_id_ = 1;
};

TEST_F(ExplainTraceTest, ColdMissTracesBuildAndEveryCompensationCombo) {
  ExecutionOptions options;
  options.strategy = ExecutionStrategy::kCachedFullPruning;
  CounterSnapshot before = CounterSnapshot::Take();
  QueryTrace trace;
  auto result = RunTraced(options, &trace);
  ASSERT_TRUE(result.ok()) << result.status();
  CounterSnapshot after = CounterSnapshot::Take();

  EXPECT_EQ(trace.cache_outcome, "miss");
  EXPECT_EQ(trace.strategy,
            ExecutionStrategyToString(ExecutionStrategy::kCachedFullPruning));
  EXPECT_FALSE(trace.statement.empty());
  EXPECT_GT(trace.snapshot_tid, 0u);
  EXPECT_GT(trace.total_ms, 0.0);

  // One all-main build subjoin plus the 2^3 - 1 compensation combinations.
  ASSERT_EQ(trace.subjoins.size(), 8u);
  std::vector<const SubjoinTrace*> build_events;
  std::set<std::string> delta_combos;
  for (const SubjoinTrace& subjoin : trace.subjoins) {
    if (subjoin.phase == "build") {
      build_events.push_back(&subjoin);
    } else {
      EXPECT_EQ(subjoin.phase, "delta-compensation");
      EXPECT_TRUE(delta_combos.insert(subjoin.combination).second)
          << "duplicate " << subjoin.combination;
    }
    // Two MD edges (Item->Header, SubItem->Item), two sides each.
    EXPECT_EQ(subjoin.tid_ranges.size(), 4u) << subjoin.combination;
  }
  ASSERT_EQ(build_events.size(), 1u);
  EXPECT_EQ(build_events[0]->combination, "[g0/main, g0/main, g0/main]");
  EXPECT_EQ(build_events[0]->verdict, SubjoinTrace::Verdict::kExecuted);
  EXPECT_EQ(delta_combos, CompensationComboStrings());

  // The fresh object's rows only join each other: the all-delta combination
  // executes, the six cross-temperature ones are tid-range pruned.
  EXPECT_EQ(trace.CountVerdict(SubjoinTrace::Verdict::kExecuted), 2u);
  EXPECT_EQ(trace.CountVerdict(SubjoinTrace::Verdict::kPruned), 6u);
  for (const SubjoinTrace& subjoin : trace.subjoins) {
    if (subjoin.verdict == SubjoinTrace::Verdict::kPruned) {
      EXPECT_EQ(subjoin.prune_reason, "tid-range") << subjoin.combination;
    } else {
      EXPECT_TRUE(subjoin.prune_reason.empty());
    }
  }

  EXPECT_EQ(after.lookups - before.lookups, 1u);
  EXPECT_EQ(after.misses - before.misses, 1u);
  EXPECT_EQ(after.hits - before.hits, 0u);
  EXPECT_EQ(after.rebuilds - before.rebuilds, 1u);
  ExpectTraceReconciles(trace, before, after);

  // The traced answer is the real answer.
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  Transaction txn = db_.Begin();
  auto baseline = cache_.Execute(ThreeTableQuery(), txn, uncached);
  ASSERT_TRUE(baseline.ok());
  std::string diff;
  EXPECT_TRUE(result->ApproxEquals(*baseline, 1e-9, &diff)) << diff;
}

TEST_F(ExplainTraceTest, WarmHitTracesCompensationOnly) {
  ExecutionOptions options;
  options.strategy = ExecutionStrategy::kCachedFullPruning;
  QueryTrace cold;
  ASSERT_TRUE(RunTraced(options, &cold).ok());
  // A rebuilt entry's first hit starts from a cold delta memo.
  cache_.Clear();
  ASSERT_OK(cache_.Prewarm(ThreeTableQuery()));

  CounterSnapshot before = CounterSnapshot::Take();
  QueryTrace trace;
  auto result = RunTraced(options, &trace);
  ASSERT_TRUE(result.ok()) << result.status();
  CounterSnapshot after = CounterSnapshot::Take();

  EXPECT_EQ(trace.cache_outcome, "hit");
  EXPECT_EQ(trace.memo_verdict, "cold");
  EXPECT_EQ(after.hits - before.hits, 1u);
  EXPECT_EQ(after.misses - before.misses, 0u);
  EXPECT_EQ(after.rebuilds - before.rebuilds, 0u);

  // No build phase on a hit: exactly the seven compensation combinations.
  ASSERT_EQ(trace.subjoins.size(), 7u);
  std::set<std::string> combos;
  for (const SubjoinTrace& subjoin : trace.subjoins) {
    EXPECT_EQ(subjoin.phase, "delta-compensation");
    EXPECT_TRUE(combos.insert(subjoin.combination).second);
    EXPECT_EQ(subjoin.tid_ranges.size(), 4u);
  }
  EXPECT_EQ(combos, CompensationComboStrings());
  EXPECT_GE(trace.CountVerdict(SubjoinTrace::Verdict::kPruned), 1u);
  ExpectTraceReconciles(trace, before, after);

  // Rendering covers every combination with its tid ranges.
  std::string text = trace.ToText();
  for (const std::string& combo : combos) {
    EXPECT_NE(text.find(combo), std::string::npos) << combo;
  }
  EXPECT_NE(text.find("tid=["), std::string::npos);
  EXPECT_NE(text.find("cache: hit"), std::string::npos);
  EXPECT_NE(text.find("delta memo: cold"), std::string::npos);

  // The repeat over unchanged deltas is answered by the memo: no subjoin
  // is planned, and the verdict names each delta's prefix.
  QueryTrace repeat;
  ASSERT_TRUE(RunTraced(options, &repeat).ok());
  EXPECT_EQ(repeat.memo_verdict, "used");
  EXPECT_TRUE(repeat.subjoins.empty());
  ASSERT_EQ(repeat.memo_prefixes.size(), 3u);
  EXPECT_EQ(repeat.memo_prefixes[0].first, "Header[g0]");
  EXPECT_EQ(repeat.memo_prefixes[0].second,
            header_->group(0).delta.num_rows());
  EXPECT_NE(repeat.ToText().find("delta memo: used, prefix Header[g0] "),
            std::string::npos);
  EXPECT_NE(repeat.ToJson().find("\"delta_memo\":{\"verdict\":\"used\""),
            std::string::npos);
}

TEST_F(ExplainTraceTest, PushdownVerdictsCarryFilters) {
  ExecutionOptions options;
  options.strategy = ExecutionStrategy::kCachedFullPruning;
  options.use_predicate_pushdown = true;
  QueryTrace cold;
  ASSERT_TRUE(RunTraced(options, &cold).ok());
  // A late sub-item under a merged item makes [main, main, delta]
  // non-prunable: its tid range reaches back into Item's main.
  {
    Transaction txn = db_.Begin();
    ASSERT_OK(sub_->Insert(
        txn, {Value(next_sub_id_++), Value(int64_t{1}), Value(2.0)}));
  }

  CounterSnapshot before = CounterSnapshot::Take();
  QueryTrace trace;
  auto result = RunTraced(options, &trace);
  ASSERT_TRUE(result.ok()) << result.status();
  CounterSnapshot after = CounterSnapshot::Take();

  EXPECT_EQ(trace.cache_outcome, "hit");
  size_t filters_in_trace = 0;
  for (const SubjoinTrace& subjoin : trace.subjoins) {
    if (subjoin.verdict == SubjoinTrace::Verdict::kPushdown) {
      EXPECT_FALSE(subjoin.pushdown_filters.empty()) << subjoin.combination;
    } else {
      EXPECT_TRUE(subjoin.pushdown_filters.empty()) << subjoin.combination;
    }
    filters_in_trace += subjoin.pushdown_filters.size();
  }
  EXPECT_GE(trace.CountVerdict(SubjoinTrace::Verdict::kPushdown), 1u);
  EXPECT_EQ(after.pushdown_predicates - before.pushdown_predicates,
            filters_in_trace);
  ExpectTraceReconciles(trace, before, after);
}

TEST_F(ExplainTraceTest, UncachedStrategyTracesAllCombinations) {
  ExecutionOptions options;
  options.strategy = ExecutionStrategy::kUncached;
  CounterSnapshot before = CounterSnapshot::Take();
  QueryTrace trace;
  auto result = RunTraced(options, &trace);
  ASSERT_TRUE(result.ok()) << result.status();
  CounterSnapshot after = CounterSnapshot::Take();

  EXPECT_EQ(trace.cache_outcome, "uncached");
  // Bypassing the cache consults no lookup — the counters must not move.
  EXPECT_EQ(after.lookups - before.lookups, 0u);
  EXPECT_EQ(after.hits - before.hits, 0u);
  EXPECT_EQ(after.misses - before.misses, 0u);
  // All 2^3 combinations run, recorded under the "uncached" phase.
  ASSERT_EQ(trace.subjoins.size(), 8u);
  std::set<std::string> combos;
  for (const SubjoinTrace& subjoin : trace.subjoins) {
    EXPECT_EQ(subjoin.phase, "uncached");
    EXPECT_EQ(subjoin.verdict, SubjoinTrace::Verdict::kExecuted);
    EXPECT_TRUE(combos.insert(subjoin.combination).second);
  }
  EXPECT_EQ(combos.size(), 8u);
  EXPECT_EQ(after.exec_subjoins - before.exec_subjoins, 8u);
}

TEST_F(ExplainTraceTest, UntracedExecutionRecordsNothing) {
  // Without a TraceContext the recorder is a thread-local null check: the
  // same execution paths run, no trace is filled anywhere.
  ExecutionOptions options;
  options.strategy = ExecutionStrategy::kCachedFullPruning;
  Transaction txn = db_.Begin();
  auto result = cache_.Execute(ThreeTableQuery(), txn, options);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(TraceContext::Current(), nullptr);
}

}  // namespace
}  // namespace aggcache
