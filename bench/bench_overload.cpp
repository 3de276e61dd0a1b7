// Open-loop overload benchmark (DESIGN.md §9): offered load is paced at 4x
// the admission-capped service rate, so the engine cannot serve everything
// and must shed. The governance stack under test:
//
//   - AdmissionController caps concurrent queries and bounds the queue, so
//     excess arrivals are rejected after a short wait instead of piling up;
//   - every served query runs under a QueryContext deadline, so a query
//     that got admitted but then starves aborts at its next check point;
//   - the process MemoryTracker carries a limit the whole run must respect.
//
// The assertions encode what "graceful" means: admitted queries keep a
// bounded p95 (<= 3x the unloaded median — shed load must not poison the
// latency of what is served), peak tracked memory stays within the limit,
// no query ends in anything but success or a typed governance abort, and
// the usual metric invariants (hits + misses == lookups, zero per-query
// bytes tracked at exit) hold after the storm.
//
// Exit code is non-zero on any violated bound — this is a perf gate as much
// as a benchmark.

#include "bench/harness.h"

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace aggcache {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  ApplyThreadsFlag(argc, argv);
  BenchContext ctx(argc, argv, "overload");
  PrintBanner("Overload", "open-loop serving at 4x the admitted service rate",
              "object-aware caching keeps serving cheap; governance keeps it "
              "bounded when demand is not");

  Database db;
  ErpConfig config;
  config.num_headers_main = ctx.QuickOr<size_t>(200, 400);
  config.avg_items_per_header = 3;
  config.num_categories = 12;
  config.seed = 42;
  ErpDataset dataset =
      CheckOk(ErpDataset::Create(&db, config), "dataset creation");
  AggregateCacheManager cache(&db);

  std::vector<AggregateQuery> queries;
  queries.push_back(dataset.ItemTotalsByCategoryQuery());
  queries.push_back(dataset.RevenueByYearQuery());
  queries.push_back(dataset.ProfitByCategoryQuery(2013));
  for (const AggregateQuery& query : queries) {
    CheckOk(cache.Prewarm(query), "prewarm");
  }
  // Leave a real delta behind the cached entries, including late items
  // that break temporal locality: with pruning defeated, per-arrival work
  // is genuine delta⋈main compensation rather than a bare hash lookup,
  // which keeps the unloaded median well above scheduler noise — the
  // regime the deadline/timeout ratios below are tuned for.
  {
    Rng rng(config.seed);
    size_t burst = ctx.QuickOr<size_t>(400, 800);
    for (size_t i = 0; i < burst; ++i) {
      CheckOk(dataset.InsertBusinessObject(rng).status(), "delta insert");
      CheckOk(dataset.InsertLateItems(rng, 2), "late items");
    }
  }
  // Every measured read, unloaded and overloaded, runs under `reader`, a
  // snapshot older than each entry's delta memo. It bypasses the memo and
  // compensates the whole delta on every arrival; a repeat over an
  // unchanged delta would otherwise be a memo-warm hit of a few µs, far
  // below the work the ratios below are tuned for.
  const Transaction reader = db.Begin();
  {
    Rng rng(config.seed + 1);
    CheckOk(dataset.InsertBusinessObject(rng).status(), "memo insert");
  }
  ExecutionOptions options;
  options.strategy = ExecutionStrategy::kCachedFullPruning;
  for (const AggregateQuery& query : queries) {
    Transaction txn = db.Begin();
    CheckOk(cache.Execute(query, txn, options), "memo publish");
  }

  // Unloaded baseline: each query alone, no governance, pool untouched;
  // the reference is the median of every unloaded rep of every query.
  std::vector<double> unloaded_ms;
  for (size_t q = 0; q < queries.size(); ++q) {
    LatencyStats stats = MeasureMs(ctx.Reps(3, 7), [&] {
      CheckOk(cache.Execute(queries[q], reader, options), "unloaded execute");
    });
    ctx.report().AddLatency("unloaded_ms", {{"query", StrFormat("q%zu", q)}},
                            stats);
  }
  for (int rep = 0; rep < ctx.Reps(25, 51); ++rep) {
    for (const AggregateQuery& query : queries) {
      Stopwatch watch;
      CheckOk(cache.Execute(query, reader, options), "unloaded execute");
      unloaded_ms.push_back(watch.ElapsedMillis());
    }
  }
  std::sort(unloaded_ms.begin(), unloaded_ms.end());
  const double unloaded_median = unloaded_ms[unloaded_ms.size() / 2];

  // Governance derived from the measured baseline so the bounds scale with
  // the host: an admitted query spends at most ~0.5x median queued plus
  // ~1.5x median executing — comfortably inside the 3x gate.
  const size_t kCap = 2;
  const double deadline_ms = 1.5 * unloaded_median;
  AdmissionController::Config admission;
  admission.max_concurrent = kCap;
  admission.max_queue = 16;
  admission.queue_timeout_ms = 0.5 * unloaded_median;
  AdmissionController::Global().Configure(admission);
  const size_t mem_limit = size_t{256} << 20;
  MemoryTracker::Process().set_limit(mem_limit);
  MemoryTracker::Process().ResetHighWater();

  // Open loop: kCap slots each serve ~one query per unloaded median, so
  // saturation is kCap/median; arrivals are paced at 4x that, on a fixed
  // schedule that does not slow down when the engine falls behind.
  const double offered_qps = 4.0 * kCap * 1000.0 / unloaded_median;
  const double interval_secs = 1.0 / offered_qps;
  const double duration_secs = ctx.QuickOr(2.0, 6.0);
  // Arrival cap: on a host where the cached path is so fast the 4x rate
  // would mean millions of arrivals, keep the schedule (same rate, same
  // pressure) but bound the run by count instead of wall clock.
  const size_t total_arrivals = std::min<size_t>(
      static_cast<size_t>(duration_secs / interval_secs), 20000);
  const size_t workers = ctx.QuickOr<size_t>(5, 6);

  std::printf(
      "unloaded median %.3f ms; offering %.0f q/s (4x saturation) for "
      "%.1f s: %zu arrivals, cap=%zu, deadline=%.3f ms\n",
      unloaded_median, offered_qps, duration_secs, total_arrivals, kCap,
      deadline_ms);

  std::atomic<size_t> next_arrival{0};
  std::atomic<uint64_t> admitted{0};
  std::atomic<uint64_t> sheds_resource{0};
  std::atomic<uint64_t> sheds_deadline{0};
  std::atomic<uint64_t> hard_errors{0};
  std::mutex latency_mu;
  std::vector<double> admitted_ms;
  const auto start = std::chrono::steady_clock::now();
  auto worker = [&] {
    std::vector<double> local_ms;
    for (;;) {
      size_t i = next_arrival.fetch_add(1, std::memory_order_relaxed);
      if (i >= total_arrivals) break;
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<
                      std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(i) * interval_secs)));
      const AggregateQuery& query = queries[i % queries.size()];
      Stopwatch watch;
      QueryContext::Options governed;
      governed.deadline_ms = deadline_ms;
      QueryContext context(governed);
      ScopedQueryContext scope(&context);
      auto result = cache.Execute(query, reader, options);
      if (result.ok()) {
        local_ms.push_back(watch.ElapsedMillis());
        admitted.fetch_add(1, std::memory_order_relaxed);
      } else if (result.status().code() == StatusCode::kResourceExhausted) {
        sheds_resource.fetch_add(1, std::memory_order_relaxed);
      } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
        sheds_deadline.fetch_add(1, std::memory_order_relaxed);
      } else {
        hard_errors.fetch_add(1, std::memory_order_relaxed);
        std::fprintf(stderr, "ERROR: %s\n",
                     result.status().ToString().c_str());
      }
    }
    std::lock_guard<std::mutex> lock(latency_mu);
    admitted_ms.insert(admitted_ms.end(), local_ms.begin(), local_ms.end());
  };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) threads.emplace_back(worker);
  for (std::thread& thread : threads) thread.join();
  const double elapsed_secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const uint64_t served = admitted.load();
  const uint64_t shed =
      sheds_resource.load() + sheds_deadline.load();
  LatencyStats admitted_stats;
  if (!admitted_ms.empty()) {
    admitted_stats = SummarizeLatencies(std::move(admitted_ms));
  }
  const size_t peak = MemoryTracker::Process().high_water();

  ResultTable table({"metric", "value"});
  table.AddRow({"offered arrivals", StrFormat("%zu", total_arrivals)});
  table.AddRow({"admitted (served)", StrFormat("%llu",
      static_cast<unsigned long long>(served))});
  table.AddRow({"shed (resource)", StrFormat("%llu",
      static_cast<unsigned long long>(sheds_resource.load()))});
  table.AddRow({"shed (deadline)", StrFormat("%llu",
      static_cast<unsigned long long>(sheds_deadline.load()))});
  table.AddRow({"hard errors", StrFormat("%llu",
      static_cast<unsigned long long>(hard_errors.load()))});
  table.AddRow({"unloaded median", FormatMs(unloaded_median) + " ms"});
  table.AddRow({"admitted p95", FormatMs(admitted_stats.p95_ms) + " ms"});
  table.AddRow({"peak tracked", StrFormat("%.1f MB",
      static_cast<double>(peak) / (1 << 20))});
  table.Print();

  ctx.report().SetConfig("cap", static_cast<int64_t>(kCap));
  ctx.report().SetConfig("workers", static_cast<int64_t>(workers));
  ctx.report().SetConfig("overload_factor", 4.0);
  ctx.report().AddScalar("offered_arrivals", {},
                         static_cast<double>(total_arrivals));
  ctx.report().AddScalar("admitted", {}, static_cast<double>(served));
  ctx.report().AddScalar("shed", {}, static_cast<double>(shed));
  ctx.report().AddScalar("shed_fraction", {},
                         total_arrivals == 0
                             ? 0.0
                             : static_cast<double>(shed) / total_arrivals);
  ctx.report().AddScalar(
      "served_per_sec", {},
      elapsed_secs > 0 ? static_cast<double>(served) / elapsed_secs : 0.0,
      "1/s");
  ctx.report().AddScalar("hard_errors", {},
                         static_cast<double>(hard_errors.load()));
  ctx.report().AddScalar("peak_tracked_bytes", {},
                         static_cast<double>(peak), "bytes");
  ctx.report().AddScalar(
      "p95_over_unloaded_median", {},
      unloaded_median > 0 ? admitted_stats.p95_ms / unloaded_median : 0.0,
      "x");
  if (admitted_stats.reps > 0) {
    ctx.report().AddLatency("admitted_ms", {}, admitted_stats);
  }

  // The gates. Every violation prints and fails the run.
  bool failed = false;
  if (served == 0) {
    std::fprintf(stderr, "GATE: no query was admitted under overload\n");
    failed = true;
  }
  if (admitted_stats.p95_ms > 3.0 * unloaded_median) {
    std::fprintf(stderr,
                 "GATE: admitted p95 %.3f ms exceeds 3x unloaded median "
                 "(%.3f ms)\n",
                 admitted_stats.p95_ms, unloaded_median);
    failed = true;
  }
  if (peak > mem_limit) {
    std::fprintf(stderr, "GATE: peak tracked %zu bytes exceeds limit %zu\n",
                 peak, mem_limit);
    failed = true;
  }
  if (hard_errors.load() != 0) {
    std::fprintf(stderr, "GATE: %llu hard errors (non-governance)\n",
                 static_cast<unsigned long long>(hard_errors.load()));
    failed = true;
  }
  const EngineMetrics& em = EngineMetrics::Get();
  if (em.cache_hits->Value() + em.cache_misses->Value() !=
      em.cache_lookups->Value()) {
    std::fprintf(stderr, "GATE: hits + misses != lookups\n");
    failed = true;
  }
  if (MemoryTracker::Queries().used() != 0) {
    std::fprintf(stderr,
                 "GATE: %zu query-reserved bytes still tracked at exit\n",
                 MemoryTracker::Queries().used());
    failed = true;
  }

  // Idle again: hand the process-wide knobs back in their default state.
  AdmissionController::Global().Configure(AdmissionController::Config());
  MemoryTracker::Process().set_limit(0);

  std::printf("%s\n", failed ? "FAIL" : "PASS");
  if (!ctx.Finish()) return 1;
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace bench
}  // namespace aggcache

int main(int argc, char** argv) { return aggcache::bench::Run(argc, argv); }
