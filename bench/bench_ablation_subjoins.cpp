// Ablation (Section 2.3 analysis) — compensation cost vs join width.
//
// The paper derives that a t-table join needs 2^t subjoins without the
// cache and 2^t - 1 for delta compensation with it; this bench measures how
// the measured subjoin counts and execution times grow with t on a chain of
// header -> item -> subitem -> detail tables, and how object-aware pruning
// collapses the compensation set to a near-constant.

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

constexpr size_t kChainLength = 4;
constexpr size_t kRootRows = 5000;
constexpr size_t kQuickRootRows = 500;
constexpr int kReps = 3;
size_t g_root_rows = kRootRows;

// Creates a chain T1 <- T2 <- ... <- Tn where each level references the
// previous one with an MD tid column, loads data (fan-out 3 per level),
// merges, then adds fresh business objects into the deltas.
struct Chain {
  std::unique_ptr<Database> db;
  std::vector<Table*> tables;
  std::vector<AggregateQuery> queries;  // queries[t-1] joins first t tables.
};

Chain BuildChain() {
  Chain chain;
  chain.db = std::make_unique<Database>();
  Database& db = *chain.db;
  for (size_t level = 0; level < kChainLength; ++level) {
    std::string name = StrFormat("T%zu", level + 1);
    SchemaBuilder builder(name);
    builder.AddColumn("id", ColumnType::kInt64).PrimaryKey();
    if (level > 0) {
      builder.AddColumn("parent_id", ColumnType::kInt64)
          .References(StrFormat("T%zu", level),
                      StrFormat("tid_T%zu", level));
    }
    builder.AddColumn("v", ColumnType::kInt64);
    builder.OwnTid(StrFormat("tid_T%zu", level + 1));
    chain.tables.push_back(CheckOk(db.CreateTable(builder.Build()),
                                   "create"));
  }

  // Load: one transaction per root business object spanning all levels.
  auto load = [&](size_t num_roots, int64_t id_offset) {
    Rng rng(id_offset + 1);
    std::vector<int64_t> next_id(kChainLength, id_offset + 1);
    for (size_t root = 0; root < num_roots; ++root) {
      Transaction txn = db.Begin();
      std::vector<std::vector<int64_t>> level_ids(kChainLength);
      int64_t root_id = next_id[0]++;
      CheckOk(chain.tables[0]->Insert(
                  txn, {Value(root_id), Value(rng.UniformInt(0, 99))}),
              "root insert");
      level_ids[0].push_back(root_id);
      for (size_t level = 1; level < kChainLength; ++level) {
        for (int64_t parent : level_ids[level - 1]) {
          // Fan-out shrinks with depth to keep sizes manageable.
          int fanout = level == 1 ? 3 : 2;
          for (int c = 0; c < fanout; ++c) {
            int64_t id = next_id[level]++;
            CheckOk(chain.tables[level]->Insert(
                        txn, {Value(id), Value(parent),
                              Value(rng.UniformInt(0, 99))}),
                    "child insert");
            level_ids[level].push_back(id);
          }
        }
      }
    }
  };
  load(g_root_rows, 0);
  CheckOk(db.MergeAll(), "merge");
  load(g_root_rows / 20, 10000000);  // 5% into the deltas.

  for (size_t t = 1; t <= kChainLength; ++t) {
    QueryBuilder builder;
    builder.From("T1");
    for (size_t level = 2; level <= t; ++level) {
      builder.Join(StrFormat("T%zu", level), "id", "parent_id");
    }
    builder.GroupBy("T1", "v");
    builder.Sum(StrFormat("T%zu", t), "v", "total");
    chain.queries.push_back(builder.Build());
  }
  return chain;
}

void Run(BenchContext& ctx) {
  g_root_rows = ctx.QuickOr(kQuickRootRows, kRootRows);
  ctx.report().SetConfig("root_rows", static_cast<int64_t>(g_root_rows));
  ctx.report().SetConfig("chain_length",
                         static_cast<int64_t>(kChainLength));
  ctx.report().SetConfig("reps", static_cast<int64_t>(kReps));
  PrintBanner("Ablation: subjoin explosion (Section 2.3)",
              "compensation subjoins vs join width t",
              "2^t subjoins uncached, 2^t - 1 with cache; pruning collapses "
              "the compensation set");

  Chain chain = BuildChain();
  AggregateCacheManager cache(chain.db.get());

  ResultTable table({"t_tables", "uncached_subjoins", "uncached_ms",
                     "comp_subjoins_no_pruning", "no_pruning_ms",
                     "comp_subjoins_full", "full_pruning_ms"});

  for (size_t t = 1; t <= kChainLength; ++t) {
    const AggregateQuery& query = chain.queries[t - 1];
    CheckOk(cache.Prewarm(query), "prewarm");

    CacheExecStats exec_stats;
    ExecutionOptions uncached;
    uncached.strategy = ExecutionStrategy::kUncached;
    uncached.stats = &exec_stats;
    LatencyStats uncached_stats = MeasureMs(kReps, [&] {
      Transaction txn = chain.db->Begin();
      CheckOk(cache.Execute(query, txn, uncached).status(), "uncached");
    });
    double uncached_ms = uncached_stats.median_ms;
    uint64_t uncached_subjoins = exec_stats.subjoins_executed;

    ExecutionOptions no_pruning;
    no_pruning.strategy = ExecutionStrategy::kCachedNoPruning;
    no_pruning.stats = &exec_stats;
    LatencyStats no_pruning_stats = MeasureMs(
        kReps,
        [&] {
          Transaction txn = chain.db->Begin();
          CheckOk(cache.Execute(query, txn, no_pruning).status(), "np");
        },
        ColdMemo(cache, query));
    double no_pruning_ms = no_pruning_stats.median_ms;
    uint64_t np_subjoins = exec_stats.subjoins_executed;

    ExecutionOptions full;
    full.strategy = ExecutionStrategy::kCachedFullPruning;
    full.stats = &exec_stats;
    LatencyStats full_stats = MeasureMs(
        kReps,
        [&] {
          Transaction txn = chain.db->Begin();
          CheckOk(cache.Execute(query, txn, full).status(), "full");
        },
        ColdMemo(cache, query));
    double full_ms = full_stats.median_ms;
    uint64_t full_subjoins = exec_stats.subjoins_executed;

    std::map<std::string, std::string> t_label = {
        {"t_tables", StrFormat("%zu", t)}};
    auto with_strategy = [&t_label](const char* strategy) {
      std::map<std::string, std::string> l = t_label;
      l["strategy"] = strategy;
      return l;
    };
    ctx.report().AddLatency("query_ms", with_strategy("uncached"),
                            uncached_stats);
    ctx.report().AddLatency("query_ms", with_strategy("cached-no-pruning"),
                            no_pruning_stats);
    ctx.report().AddLatency("query_ms", with_strategy("cached-full-pruning"),
                            full_stats);
    ctx.report().AddScalar("subjoins_executed",
                           with_strategy("cached-full-pruning"),
                           static_cast<double>(full_subjoins));

    table.AddRow({StrFormat("%zu", t), StrFormat("%llu",
                      static_cast<unsigned long long>(uncached_subjoins)),
                  FormatMs(uncached_ms),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(np_subjoins)),
                  FormatMs(no_pruning_ms),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(full_subjoins)),
                  FormatMs(full_ms)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  aggcache::bench::ApplyThreadsFlag(argc, argv);
  aggcache::BenchContext ctx(argc, argv, "ablation_subjoins");
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
