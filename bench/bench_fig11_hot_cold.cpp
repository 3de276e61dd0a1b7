// Figure 11 — Join strategies with and without hot/cold partitioning
// (1:3 hot:cold), across aggregate queries of different selectivities.
//
// Paper result: uncached queries get slightly faster with partitioning
// (reduced scan effort via static partition pruning); cached-without-
// pruning gets *worse* (more compensation subjoins); full pruning is
// superior in both layouts, around an order of magnitude over uncached.

#include <limits>

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

constexpr size_t kHeadersMain = 20000;
constexpr size_t kQuickHeadersMain = 2000;
constexpr int kReps = 3;
size_t g_headers_main = kHeadersMain;

struct World {
  std::unique_ptr<Database> db;
  std::unique_ptr<ErpDataset> dataset;
  std::unique_ptr<AggregateCacheManager> cache;
};

World Build(bool partitioned) {
  World world;
  world.db = std::make_unique<Database>();
  ErpConfig config;
  config.num_headers_main = g_headers_main;
  config.num_categories = 50;
  world.dataset = std::make_unique<ErpDataset>(
      CheckOk(ErpDataset::Create(world.db.get(), config), "erp"));
  if (partitioned) {
    // 1:3 hot:cold by HeaderID (older business objects are cold). Items
    // are split on the matching tid boundary so the aging definition is
    // consistent across the business object.
    int64_t cold_below = static_cast<int64_t>(g_headers_main * 3 / 4);
    Table* header = world.dataset->header();
    CheckOk(header->SplitHotCold("HeaderID", Value(cold_below)),
            "split header");
    // Items age with their header: split on the same HeaderID boundary so
    // the aging definition is consistent across the business object.
    CheckOk(world.dataset->item()->SplitHotCold("HeaderID",
                                                Value(cold_below)),
            "split item");
    world.db->RegisterAgingGroup({"Header", "Item"});
  }
  // The cache manager must observe merges; create it after the split so
  // entries are built against the final layout.
  world.cache = std::make_unique<AggregateCacheManager>(world.db.get());
  // A modest delta so compensation has work to do.
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    CheckOk(world.dataset->InsertBusinessObject(rng).status(), "insert");
  }
  return world;
}

void Run(BenchContext& ctx) {
  g_headers_main = ctx.QuickOr(kQuickHeadersMain, kHeadersMain);
  ctx.report().SetConfig("headers_main",
                         static_cast<int64_t>(g_headers_main));
  ctx.report().SetConfig("reps", static_cast<int64_t>(kReps));
  PrintBanner("Figure 11",
              "join strategies, unpartitioned vs hot/cold partitioned (1:3)",
              "uncached slightly faster partitioned; cached-no-pruning "
              "slower partitioned; full pruning ~10x in both layouts");

  // Queries of different selectivities: restrict to the most recent
  // business objects (hot partition) via a HeaderID lower bound.
  std::vector<std::pair<const char*, int64_t>> selectivities = {
      {"2.5%", static_cast<int64_t>(g_headers_main * 39 / 40)},
      {"10%", static_cast<int64_t>(g_headers_main * 9 / 10)},
      {"25%", static_cast<int64_t>(g_headers_main * 3 / 4)},  // Hot only.
      {"50%", static_cast<int64_t>(g_headers_main / 2)},      // Crosses cold.
      {"100%", 0}};

  World unpartitioned = Build(false);
  World partitioned = Build(true);

  std::vector<StrategySpec> strategies = {
      {"uncached", ExecutionStrategy::kUncached, false},
      {"cached-no-pruning", ExecutionStrategy::kCachedNoPruning, false},
      {"cached-full-pruning", ExecutionStrategy::kCachedFullPruning, false},
  };

  std::vector<std::string> columns = {"selectivity", "agg_rows"};
  for (const char* layout : {"flat", "hotcold"}) {
    for (const StrategySpec& s : strategies) {
      columns.push_back(std::string(layout) + ":" + s.label + "_ms");
    }
  }
  ResultTable table(columns);

  for (auto [label, min_header] : selectivities) {
    // The range predicate is applied on both sides of the join, as aged
    // enterprise queries do (and as an optimizer would derive through the
    // equi-join): this is what lets static partition pruning skip cold
    // partitions entirely.
    AggregateQuery query =
        QueryBuilder()
            .From("Header")
            .Join("Item", "HeaderID", "HeaderID")
            .Filter("Header", "HeaderID", CompareOp::kGe,
                    Value(min_header))
            .Filter("Item", "HeaderID", CompareOp::kGe, Value(min_header))
            .GroupBy("Header", "FiscalYear")
            .Sum("Item", "Price", "revenue")
            .CountStar("n")
            .Build();

    // Report the number of aggregated (joined) rows once.
    Executor counter(unpartitioned.db.get());
    auto counted = CheckOk(
        counter.ExecuteUncached(
            query, unpartitioned.db->txn_manager().GlobalSnapshot()),
        "count");
    int64_t agg_rows = 0;
    for (const auto& [key, entry] : counted.groups()) {
      agg_rows += entry.count_star;
    }

    std::vector<std::string> row = {label, StrFormat("%lld",
                                        static_cast<long long>(agg_rows))};
    const char* layout_names[] = {"flat", "hotcold"};
    size_t layout_index = 0;
    for (World* world : {&unpartitioned, &partitioned}) {
      CheckOk(world->cache->Prewarm(query), "prewarm");
      for (const StrategySpec& s : strategies) {
        ExecutionOptions options;
        options.strategy = s.strategy;
        LatencyStats stats = MeasureMs(
            kReps,
            [&] {
              Transaction txn = world->db->Begin();
              CheckOk(world->cache->Execute(query, txn, options).status(),
                      "execute");
            },
            ColdMemo(*world->cache, query));
        ctx.report().AddLatency("query_ms",
                                {{"strategy", s.label},
                                 {"layout", layout_names[layout_index]},
                                 {"selectivity", label}},
                                stats);
        row.push_back(FormatMs(stats.median_ms));
      }
      ++layout_index;
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  aggcache::bench::ApplyThreadsFlag(argc, argv);
  aggcache::BenchContext ctx(argc, argv, "fig11_hot_cold");
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
