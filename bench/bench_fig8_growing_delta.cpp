// Figure 8 — Join performance of the four execution strategies in a mixed
// workload with continuously growing delta partitions: business objects are
// inserted and the profit query is measured at checkpoints as the Item
// delta grows from empty.
//
// Paper result: empty-delta pruning helps only marginally over no pruning;
// full pruning outperforms both once the deltas have non-trivial sizes; the
// gap to uncached execution narrows as the delta grows.

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

constexpr size_t kHeadersMain = 10000;  // ~100K items in main.
constexpr size_t kCheckpointItems = 10000;
constexpr size_t kMaxDeltaItems = 100000;
constexpr size_t kQuickHeadersMain = 1000;
constexpr size_t kQuickCheckpointItems = 1000;
constexpr size_t kQuickMaxDeltaItems = 5000;

void Run(BenchContext& ctx) {
  PrintBanner("Figure 8",
              "join strategies while the delta grows (mixed workload)",
              "full pruning dominates at non-trivial delta sizes; "
              "empty-delta pruning only marginal");

  Database db;
  ErpConfig config;
  config.num_headers_main = ctx.QuickOr(kQuickHeadersMain, kHeadersMain);
  config.num_categories = 50;
  ErpDataset dataset = CheckOk(ErpDataset::Create(&db, config), "erp");
  AggregateCacheManager cache(&db);
  AggregateQuery query = dataset.ProfitByCategoryQuery(2013);
  CheckOk(cache.Prewarm(query), "prewarm");

  std::vector<StrategySpec> strategies = JoinStrategies();
  std::vector<std::string> columns = {"item_delta_rows"};
  for (const StrategySpec& s : strategies) {
    columns.push_back(std::string(s.label) + "_ms");
  }
  // A repeated full-pruning read over the unchanged delta, answered by the
  // delta memo: the flat curve next to the paper's growing ones.
  columns.push_back("cached-full-pruning-repeat_ms");
  ResultTable table(columns);

  size_t checkpoint_items =
      ctx.QuickOr(kQuickCheckpointItems, kCheckpointItems);
  size_t max_delta_items = ctx.QuickOr(kQuickMaxDeltaItems, kMaxDeltaItems);
  ctx.report().SetConfig("headers_main",
                         static_cast<int64_t>(config.num_headers_main));
  ctx.report().SetConfig("max_delta_items",
                         static_cast<int64_t>(max_delta_items));

  Rng rng(4242);
  size_t inserted = 0;
  size_t next_checkpoint = 0;
  while (next_checkpoint <= max_delta_items) {
    while (inserted < next_checkpoint) {
      inserted += CheckOk(dataset.InsertBusinessObject(rng), "insert");
    }
    std::vector<std::string> row = {
        StrFormat("%zu", dataset.item()->group(0).delta.num_rows())};
    for (const StrategySpec& s : strategies) {
      ExecutionOptions options;
      options.strategy = s.strategy;
      // One timed rep per checkpoint (the delta keeps growing, so reps are
      // not exchangeable); MeasureMs still runs the discarded warm-up rep,
      // which only re-runs the read-only query. Each cached read starts
      // from a cold delta memo, so it compensates the whole delta.
      LatencyStats stats = MeasureMs(
          ctx.Reps(1, 1),
          [&] {
            Transaction txn = db.Begin();
            CheckOk(cache.Execute(query, txn, options).status(), "execute");
          },
          ColdMemo(cache, query));
      ctx.report().AddLatency(
          "query_ms",
          {{"strategy", s.label},
           {"delta_checkpoint", StrFormat("%zu", next_checkpoint)}},
          stats);
      row.push_back(FormatMs(stats.median_ms));
    }
    // The warm-up read publishes the memo the timed repeat then uses
    // (ExecutionOptions defaults to cached full pruning).
    LatencyStats repeat = MeasureMs(ctx.Reps(1, 1), [&] {
      Transaction txn = db.Begin();
      CheckOk(cache.Execute(query, txn).status(), "execute");
    });
    ctx.report().AddLatency(
        "query_ms",
        {{"strategy", "cached-full-pruning-repeat"},
         {"delta_checkpoint", StrFormat("%zu", next_checkpoint)}},
        repeat);
    row.push_back(FormatMs(repeat.median_ms));
    table.AddRow(std::move(row));
    next_checkpoint += checkpoint_items;
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  size_t threads = aggcache::bench::ApplyThreadsFlag(argc, argv);
  std::printf("threads: %zu\n", threads);
  aggcache::BenchContext ctx(argc, argv, "fig8_growing_delta");
  ctx.report().SetConfig("threads", static_cast<int64_t>(threads));
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
