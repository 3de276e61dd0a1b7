// Figure 10 — Join predicate pushdown benefit on the non-prunable subjoin
// Header_delta ⋈ Item_main, across Item_main sizes and varying numbers of
// matching records.
//
// Paper result: pushdown accelerates the subjoin up to ~4x, with the
// largest benefit when few records match relative to the main partition
// size; the advantage shrinks as the match count grows.
//
// Construction: headers batch A are merged; headers batch B stay in the
// header delta; all items (referencing A and B) are merged into the item
// main. Items referencing B are the "matching records" of the subjoin.

#include "bench/harness.h"

namespace aggcache {
namespace bench {
namespace {

constexpr int kReps = 3;
constexpr size_t kDeltaHeaders = 2000;

struct Setup {
  std::unique_ptr<Database> db;
  AggregateQuery query;
};

Setup Build(size_t item_main_rows, double match_fraction,
            size_t main_headers, size_t delta_headers) {
  Setup setup;
  setup.db = std::make_unique<Database>();
  Database& db = *setup.db;
  Table* header = CheckOk(
      db.CreateTable(SchemaBuilder("Header")
                         .AddColumn("HeaderID", ColumnType::kInt64)
                         .PrimaryKey()
                         .AddColumn("FiscalYear", ColumnType::kInt64)
                         .OwnTid("tid_Header")
                         .Build()),
      "header");
  Table* item = CheckOk(
      db.CreateTable(SchemaBuilder("Item")
                         .AddColumn("ItemID", ColumnType::kInt64)
                         .PrimaryKey()
                         .AddColumn("HeaderID", ColumnType::kInt64)
                         .References("Header", "tid_Header")
                         .AddColumn("Price", ColumnType::kDouble)
                         .OwnTid("tid_Item")
                         .Build()),
      "item");

  // Batch A headers, merged into main.
  {
    Transaction txn = db.Begin();
    for (size_t h = 1; h <= main_headers; ++h) {
      CheckOk(header->Insert(txn, {Value(static_cast<int64_t>(h)),
                                   Value(int64_t{2013})}),
              "header insert");
    }
  }
  CheckOk(db.Merge("Header"), "merge header");

  // Batch B headers: remain in the header delta.
  {
    Transaction txn = db.Begin();
    for (size_t h = 0; h < delta_headers; ++h) {
      CheckOk(header->Insert(
                  txn, {Value(static_cast<int64_t>(main_headers + h + 1)),
                        Value(int64_t{2014})}),
              "header insert B");
    }
  }

  // Items: `match_fraction` of them reference batch B, the rest batch A.
  Rng rng(7);
  {
    Transaction txn = db.Begin();
    for (size_t i = 1; i <= item_main_rows; ++i) {
      int64_t header_id;
      if (rng.Chance(match_fraction)) {
        header_id = static_cast<int64_t>(
            main_headers +
            static_cast<size_t>(rng.UniformInt(1, delta_headers)));
      } else {
        header_id = rng.UniformInt(1, static_cast<int64_t>(main_headers));
      }
      CheckOk(item->Insert(txn, {Value(static_cast<int64_t>(i)),
                                 Value(header_id),
                                 Value(rng.UniformDouble(1.0, 100.0))}),
              "item insert");
    }
  }
  // Merge only the Item table: all items land in the item main while batch
  // B headers stay in the header delta.
  CheckOk(db.Merge("Item"), "merge item");

  setup.query = QueryBuilder()
                    .From("Header")
                    .Join("Item", "HeaderID", "HeaderID")
                    .GroupBy("Header", "FiscalYear")
                    .Sum("Item", "Price", "revenue")
                    .CountStar("n")
                    .Build();
  return setup;
}

void Run(BenchContext& ctx) {
  PrintBanner("Figure 10",
              "predicate pushdown on the non-prunable Header_delta x "
              "Item_main subjoin",
              "up to ~4x faster with pushdown; benefit largest when few "
              "records match, shrinking as matches grow");

  ResultTable table({"item_main_rows", "matching_rows", "regular_ms",
                     "pushdown_ms", "speedup"});

  size_t main_headers = ctx.QuickOr<size_t>(2000, 20000);
  size_t delta_headers = ctx.QuickOr<size_t>(200, kDeltaHeaders);
  std::vector<size_t> main_sizes =
      ctx.quick() ? std::vector<size_t>{10000, 30000}
                  : std::vector<size_t>{100000, 300000, 1000000};
  std::vector<double> fractions = ctx.quick()
                                      ? std::vector<double>{0.01, 0.2}
                                      : std::vector<double>{0.002, 0.01,
                                                            0.05, 0.2};
  ctx.report().SetConfig("main_headers", static_cast<int64_t>(main_headers));
  ctx.report().SetConfig("delta_headers",
                         static_cast<int64_t>(delta_headers));
  ctx.report().SetConfig("reps", static_cast<int64_t>(kReps));

  for (size_t main_rows : main_sizes) {
    for (double fraction : fractions) {
      Setup setup =
          Build(main_rows, fraction, main_headers, delta_headers);
      Database& db = *setup.db;
      BoundQuery bound =
          CheckOk(BoundQuery::Bind(db, setup.query), "bind");
      SubjoinCombination delta_main = {{0, PartitionKind::kDelta},
                                       {0, PartitionKind::kMain}};
      Snapshot now = db.txn_manager().GlobalSnapshot();
      Executor executor(&db);

      // Count the actual matching rows for the report.
      auto match_result =
          CheckOk(executor.ExecuteSubjoin(bound, delta_main, now), "count");
      int64_t matches = 0;
      for (const auto& [key, entry] : match_result.groups()) {
        matches += entry.count_star;
      }

      std::map<std::string, std::string> labels = {
          {"item_main_rows", StrFormat("%zu", main_rows)},
          {"match_fraction", StrFormat("%g", fraction)}};
      LatencyStats regular = MeasureMs(kReps, [&] {
        CheckOk(executor.ExecuteSubjoin(bound, delta_main, now).status(),
                "regular");
      });
      std::vector<FilterPredicate> filters =
          DerivePushdownFilters(bound, delta_main);
      LatencyStats pushed = MeasureMs(kReps, [&] {
        CheckOk(executor.ExecuteSubjoin(bound, delta_main, now, filters)
                    .status(),
                "pushdown");
      });
      auto with_mode = [&labels](const char* mode) {
        std::map<std::string, std::string> l = labels;
        l["mode"] = mode;
        return l;
      };
      ctx.report().AddLatency("subjoin_ms", with_mode("regular"), regular);
      ctx.report().AddLatency("subjoin_ms", with_mode("pushdown"), pushed);
      ctx.report().AddScalar("pushdown_speedup", labels,
                             regular.median_ms / pushed.median_ms);
      table.AddRow({StrFormat("%zu", main_rows), StrFormat("%lld",
                        static_cast<long long>(matches)),
                    FormatMs(regular.median_ms), FormatMs(pushed.median_ms),
                    StrFormat("%.1fx",
                              regular.median_ms / pushed.median_ms)});
    }
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) {
  aggcache::bench::ApplyThreadsFlag(argc, argv);
  aggcache::BenchContext ctx(argc, argv, "fig10_pushdown");
  aggcache::bench::Run(ctx);
  return ctx.Finish() ? 0 : 1;
}
