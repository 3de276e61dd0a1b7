// Concurrent-serving stress harness (DESIGN.md §6): W writer threads and R
// reader threads run against one ERP dataset while the background merge
// daemon merges deltas under them. Correctness is asserted two ways:
//
//  1. In flight, every reader executes each query twice inside the same
//     transaction — once with its cached strategy, once uncached — and
//     diffs the two. Both executions pin the same snapshot tid, so they
//     must agree no matter how writers and merges interleave.
//  2. At quiesce barriers (every --checkpoint-secs), all workers park, the
//     daemon is paused, any in-flight merge drains, and every query is
//     checked against the independent oracle engine (src/verify/oracle.h)
//     under every strategy.
//
// The harness must hold under schedule perturbation and fault injection:
//
//   AGGCACHE_FAULT="storage.merge:0.3" bench/stress_concurrent
//   bench/stress_concurrent --faults="storage.merge.publish:delay:2:5"
//
// and must run clean under ThreadSanitizer (-DAGGCACHE_SANITIZE=thread).
// Exit code is non-zero on any divergence or unexpected error.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "obs/engine_metrics.h"
#include "obs/flight_recorder.h"
#include "obs/metrics_history.h"
#include "obs/metrics_registry.h"
#include "obs/obs_endpoints.h"
#include "obs/obs_server.h"
#include "obs/slow_log.h"
#include "runtime/admission_controller.h"
#include "runtime/memory_tracker.h"
#include "runtime/query_context.h"
#include "storage/merge_daemon.h"
#include "storage/table_lock.h"
#include "verify/fault_injector.h"
#include "verify/oracle.h"

namespace aggcache {
namespace {

using bench::CheckOk;

struct Flags {
  int writers = 2;
  int readers = 8;
  double seconds = 10.0;
  double checkpoint_secs = 2.5;
  uint64_t seed = 42;
  std::string faults;
  /// Governance knobs: per-query deadline on the readers' cached path, a
  /// process memory limit (K/M/G suffixes), and an admission concurrency
  /// cap. Governance aborts under these are expected sheds, not errors.
  double deadline_ms = 0;
  std::string mem_limit;
  int max_concurrent = 0;
};

Flags ParseFlags(int argc, char** argv) {
  Flags flags;
  auto value_of = [](const char* arg, const char* name) -> const char* {
    size_t len = std::strlen(name);
    return std::strncmp(arg, name, len) == 0 ? arg + len : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = value_of(argv[i], "--writers=")) {
      flags.writers = std::atoi(v);
    } else if (const char* v = value_of(argv[i], "--readers=")) {
      flags.readers = std::atoi(v);
    } else if (const char* v = value_of(argv[i], "--seconds=")) {
      flags.seconds = std::atof(v);
    } else if (const char* v = value_of(argv[i], "--checkpoint-secs=")) {
      flags.checkpoint_secs = std::atof(v);
    } else if (const char* v = value_of(argv[i], "--seed=")) {
      flags.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value_of(argv[i], "--faults=")) {
      flags.faults = v;
    } else if (const char* v = value_of(argv[i], "--deadline-ms=")) {
      flags.deadline_ms = std::atof(v);
    } else if (const char* v = value_of(argv[i], "--mem-limit=")) {
      flags.mem_limit = v;
    } else if (const char* v = value_of(argv[i], "--max-concurrent=")) {
      flags.max_concurrent = std::atoi(v);
    } else if (value_of(argv[i], "--threads=")) {
      // Handled by ApplyThreadsFlag.
    } else if (std::strcmp(argv[i], "--quick") == 0 ||
               std::strcmp(argv[i], "--json") == 0 ||
               value_of(argv[i], "--json=")) {
      // Handled by BenchContext.
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      std::exit(2);
    }
  }
  return flags;
}

/// One query the harness serves, with the tolerance its double sums need
/// (summation order varies across strategies and thread counts).
struct WorkloadQuery {
  std::string label;
  AggregateQuery query;
  std::vector<AggregateFunction> functions;
};

/// Quiesce barrier: workers park at the top of their loop whenever
/// `quiesce` is set; the coordinator waits until every worker is parked,
/// runs the checkpoint alone, and releases them.
class QuiesceBarrier {
 public:
  explicit QuiesceBarrier(int workers) : workers_(workers) {}

  /// Worker side: parks while a quiesce is in progress.
  void WorkerCheckpoint() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!quiesce_) return;
    ++parked_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !quiesce_; });
    --parked_;
  }

  /// Coordinator side: blocks until all workers are parked.
  void BeginQuiesce() {
    std::unique_lock<std::mutex> lock(mu_);
    quiesce_ = true;
    cv_.wait(lock, [this] { return parked_ == workers_; });
  }

  void EndQuiesce() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      quiesce_ = false;
    }
    cv_.notify_all();
  }

  /// Workers that exit reduce the population the coordinator waits for.
  void WorkerExit() {
    std::lock_guard<std::mutex> lock(mu_);
    --workers_;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int workers_;
  int parked_ = 0;
  bool quiesce_ = false;
};

struct SharedState {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_txns{0};
  std::atomic<uint64_t> reader_queries{0};
  std::atomic<uint64_t> cache_fallbacks{0};   ///< injected-fault retreats
  std::atomic<uint64_t> governance_sheds{0};  ///< typed governance aborts
  std::atomic<uint64_t> divergences{0};
  std::atomic<uint64_t> hard_errors{0};
  /// Per-query deadline applied to the readers' cached executions
  /// (--deadline-ms; 0 = none).
  double deadline_ms = 0;
  /// True when any governance knob is active; typed governance aborts then
  /// count as sheds. With no knob set they would indicate a bug and are
  /// reported as hard errors.
  bool governance_active = false;
  std::mutex report_mu;
  /// Per-query cached-path latencies, appended by each reader at exit.
  std::mutex latency_mu;
  std::vector<double> reader_latencies_ms;
};

void ReportDivergence(SharedState& state, const std::string& where,
                      const std::string& detail) {
  state.divergences.fetch_add(1);
  std::lock_guard<std::mutex> lock(state.report_mu);
  std::fprintf(stderr, "DIVERGENCE [%s]: %s\n", where.c_str(),
               detail.c_str());
}

void ReportError(SharedState& state, const std::string& where,
                 const Status& status) {
  if (FaultInjector::IsInjectedFault(status)) {
    state.cache_fallbacks.fetch_add(1);
    return;
  }
  if (state.governance_active && status.IsGovernanceAbort()) {
    state.governance_sheds.fetch_add(1);
    return;
  }
  state.hard_errors.fetch_add(1);
  std::lock_guard<std::mutex> lock(state.report_mu);
  std::fprintf(stderr, "ERROR [%s]: %s\n", where.c_str(),
               status.ToString().c_str());
}

void WriterLoop(int id, uint64_t seed, ErpDataset& dataset,
                SharedState& state, QuiesceBarrier& barrier) {
  Rng rng(seed + static_cast<uint64_t>(id) * 7919);
  while (!state.stop.load(std::memory_order_relaxed)) {
    barrier.WorkerCheckpoint();
    // Mostly whole business objects (temporal locality), sometimes late
    // items that break it and exercise the non-prunable paths.
    if (rng.UniformInt(0, 9) < 8) {
      auto inserted = dataset.InsertBusinessObject(rng);
      if (!inserted.ok()) {
        ReportError(state, "writer/insert-object", inserted.status());
        continue;
      }
    } else {
      Status status =
          dataset.InsertLateItems(rng, static_cast<size_t>(
                                           rng.UniformInt(1, 3)));
      if (!status.ok()) {
        ReportError(state, "writer/late-items", status);
        continue;
      }
    }
    state.writer_txns.fetch_add(1, std::memory_order_relaxed);
  }
  barrier.WorkerExit();
}

void ReaderLoop(int id, Database& db, AggregateCacheManager& cache,
                const std::vector<WorkloadQuery>& queries,
                SharedState& state, QuiesceBarrier& barrier) {
  const std::vector<bench::StrategySpec> strategies = {
      {"cached-full-pruning", ExecutionStrategy::kCachedFullPruning, false},
      {"cached-full-pushdown", ExecutionStrategy::kCachedFullPruning, true},
      {"cached-empty-delta", ExecutionStrategy::kCachedEmptyDeltaPruning,
       false},
      {"cached-no-pruning", ExecutionStrategy::kCachedNoPruning, false},
  };
  uint64_t iteration = static_cast<uint64_t>(id);
  std::vector<double> latencies_ms;
  while (!state.stop.load(std::memory_order_relaxed)) {
    barrier.WorkerCheckpoint();
    const WorkloadQuery& wq = queries[iteration % queries.size()];
    const bench::StrategySpec& spec =
        strategies[(iteration / queries.size()) % strategies.size()];
    ++iteration;

    Transaction txn = db.Begin();
    ExecutionOptions options;
    options.strategy = spec.strategy;
    options.use_predicate_pushdown = spec.pushdown;
    // The deadline governs only the cached execution; the uncached
    // comparison below must not inherit an already-expired context.
    auto run_cached = [&] {
      if (state.deadline_ms <= 0) return cache.Execute(wq.query, txn, options);
      QueryContext::Options governed;
      governed.deadline_ms = state.deadline_ms;
      QueryContext context(governed);
      ScopedQueryContext scope(&context);
      return cache.Execute(wq.query, txn, options);
    };
    Stopwatch cached_watch;
    auto cached = run_cached();
    if (!cached.ok()) {
      ReportError(state, std::string("reader/") + spec.label,
                  cached.status());
      continue;
    }
    latencies_ms.push_back(cached_watch.ElapsedMillis());
    // Same transaction, therefore the same snapshot tid: the uncached
    // union must agree exactly, regardless of concurrent writes/merges.
    ExecutionOptions uncached_options;
    uncached_options.strategy = ExecutionStrategy::kUncached;
    auto uncached = cache.Execute(wq.query, txn, uncached_options);
    if (!uncached.ok()) {
      ReportError(state, "reader/uncached", uncached.status());
      continue;
    }
    std::optional<std::string> diff = DiffResults(
        uncached.value(), cached.value(), wq.functions, /*tolerance=*/1e-6);
    if (diff.has_value()) {
      // Triage: re-execute both sides in the same transaction. A persistent
      // diff means corrupted cached state; a vanished one a read race.
      std::string detail = *diff;
      auto cached2 = cache.Execute(wq.query, txn, options);
      auto uncached2 = cache.Execute(wq.query, txn, uncached_options);
      if (cached2.ok() && uncached2.ok()) {
        std::optional<std::string> rediff =
            DiffResults(uncached2.value(), cached2.value(), wq.functions,
                        /*tolerance=*/1e-6);
        detail += rediff.has_value() ? "\n  retry in same txn: still diverges"
                                     : "\n  retry in same txn: converged";
      }
      ReportDivergence(state, wq.label + "/" + spec.label, detail);
    }
    state.reader_queries.fetch_add(1, std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(state.latency_mu);
    state.reader_latencies_ms.insert(state.reader_latencies_ms.end(),
                                     latencies_ms.begin(),
                                     latencies_ms.end());
  }
  barrier.WorkerExit();
}

/// Runs with all workers parked and the daemon paused: drains any in-flight
/// merge, then diffs every (query, strategy) against the oracle at one
/// snapshot.
void RunCheckpoint(Database& db, AggregateCacheManager& cache,
                   const std::vector<WorkloadQuery>& queries,
                   SharedState& state, int index) {
  {
    // Shared locks on every table act as a merge drain: once granted, no
    // merge is mid-publish anywhere.
    std::vector<const Table*> all_tables;
    for (const std::string& name : db.TableNames()) {
      all_tables.push_back(CheckOk(db.GetTable(name), "checkpoint table"));
    }
    ReadView drain = ReadView::Acquire(db, all_tables);
  }
  Transaction txn = db.Begin();
  for (const WorkloadQuery& wq : queries) {
    auto oracle = OracleExecute(db, wq.query, txn.snapshot());
    if (!oracle.ok()) {
      ReportError(state, "checkpoint/oracle", oracle.status());
      continue;
    }
    for (const bench::StrategySpec& spec : bench::JoinStrategies()) {
      ExecutionOptions options;
      options.strategy = spec.strategy;
      options.use_predicate_pushdown = spec.pushdown;
      auto result = cache.Execute(wq.query, txn, options);
      if (!result.ok()) {
        ReportError(state, std::string("checkpoint/") + spec.label,
                    result.status());
        continue;
      }
      std::optional<std::string> diff = DiffResults(
          oracle.value(), result.value(), wq.functions, /*tolerance=*/1e-6);
      if (diff.has_value()) {
        ReportDivergence(state,
                         StrFormat("checkpoint-%d/%s/%s", index,
                                   wq.label.c_str(), spec.label),
                         *diff);
      }
    }
  }
}

int Run(int argc, char** argv) {
  FlightRecorder::InstallSignalHandler();
  // AGGCACHE_OBS_ADDR=host:port serves the live-introspection endpoints
  // (/queries, /queries/cancel, /slowlog, /metrics/history, ...) while the
  // stress run is in flight — the harness is the most interesting process
  // to point curl at. Everything the endpoints read is process-global.
  SlowQueryLog::Global().ConfigureFromEnv();
  MetricsHistory::Global().Start(MetricsHistory::OptionsFromEnv());
  ObsServer obs_server;
  if (const char* obs_addr = std::getenv("AGGCACHE_OBS_ADDR")) {
    RegisterCommonObsEndpoints(obs_server);
    ObsServer::Options obs_options;
    obs_options.address = obs_addr;
    Status obs_started = obs_server.Start(obs_options);
    if (!obs_started.ok()) {
      std::fprintf(stderr, "observability server: %s\n",
                   obs_started.ToString().c_str());
      return 2;
    }
    std::printf("observability endpoint on port %u\n", obs_server.port());
  }
  size_t parallelism = bench::ApplyThreadsFlag(argc, argv);
  BenchContext ctx(argc, argv, "stress_concurrent");
  Flags flags = ParseFlags(argc, argv);
  if (ctx.quick()) {
    flags.seconds = std::min(flags.seconds, 2.0);
    flags.checkpoint_secs = std::min(flags.checkpoint_secs, 1.0);
  }
  ctx.report().SetConfig("writers", static_cast<int64_t>(flags.writers));
  ctx.report().SetConfig("readers", static_cast<int64_t>(flags.readers));
  ctx.report().SetConfig("seconds", flags.seconds);
  ctx.report().SetConfig("threads", static_cast<int64_t>(parallelism));
  ctx.report().SetConfig("faults", flags.faults.empty() ? "none"
                                                        : flags.faults);
  ctx.report().SetConfig("flight_enabled",
                         FlightRecorder::Global().enabled());
  ctx.report().SetConfig("deadline_ms", flags.deadline_ms);
  ctx.report().SetConfig("mem_limit",
                         flags.mem_limit.empty() ? "none" : flags.mem_limit);
  ctx.report().SetConfig("max_concurrent",
                         static_cast<int64_t>(flags.max_concurrent));

  Database db;
  ErpConfig config;
  // Sized for the oracle's nested-loop joins: checkpoints must stay cheap
  // relative to --checkpoint-secs.
  config.num_headers_main = 400;
  config.avg_items_per_header = 3;
  config.num_categories = 12;
  config.seed = flags.seed;
  ErpDataset dataset =
      CheckOk(ErpDataset::Create(&db, config), "dataset creation");
  // Header and Item merge together (Section 5.2) so join pruning keeps
  // succeeding; a low threshold keeps the daemon busy.
  db.RegisterMergeGroup({"Header", "Item"}, /*delta_row_threshold=*/512);

  AggregateCacheManager cache(&db);

  std::vector<WorkloadQuery> queries;
  auto add_query = [&queries](std::string label, AggregateQuery query) {
    WorkloadQuery wq;
    wq.label = std::move(label);
    wq.functions = query.AggregateFunctions();
    wq.query = std::move(query);
    queries.push_back(std::move(wq));
  };
  add_query("item-totals", dataset.ItemTotalsByCategoryQuery());
  add_query("revenue-by-year", dataset.RevenueByYearQuery());
  add_query("profit-2013", dataset.ProfitByCategoryQuery(2013));
  add_query("profit-2014", dataset.ProfitByCategoryQuery(2014));

  // Faults arm only after the dataset is loaded and the initial merge has
  // run: the harness tests fault tolerance of the *serving* path, and a
  // failed setup would abort before any concurrency happens.
  if (!flags.faults.empty()) {
    CheckOk(FaultInjector::Global().ArmFromSpec(flags.faults), "--faults");
    FaultInjector::Global().Reseed(flags.seed);
  }

  // Governance knobs likewise engage only for the serving phase, so a tight
  // limit cannot starve dataset creation.
  if (!flags.mem_limit.empty()) {
    size_t limit_bytes = 0;
    if (!ParseByteSize(flags.mem_limit.c_str(), &limit_bytes)) {
      std::fprintf(stderr, "bad --mem-limit=%s\n", flags.mem_limit.c_str());
      return 2;
    }
    MemoryTracker::Process().set_limit(limit_bytes);
  }
  if (flags.max_concurrent > 0) {
    AdmissionController::Config admission;
    admission.max_concurrent = static_cast<size_t>(flags.max_concurrent);
    AdmissionController::Global().Configure(admission);
  }
  SharedState state;
  state.deadline_ms = flags.deadline_ms;
  state.governance_active = flags.deadline_ms > 0 ||
                            !flags.mem_limit.empty() ||
                            flags.max_concurrent > 0;

  bool daemon_enabled = true;
  MergeDaemonOptions daemon_options =
      MergeDaemon::OptionsFromEnv(&daemon_enabled);
  MergeDaemon daemon(db, daemon_options);
  if (daemon_enabled) daemon.Start();

  std::printf(
      "stress_concurrent: writers=%d readers=%d seconds=%.1f threads=%zu "
      "daemon=%s faults=%s\n",
      flags.writers, flags.readers, flags.seconds, parallelism,
      daemon_enabled ? "on" : "off",
      FaultInjector::Global().AnyArmed() ? "armed" : "none");

  QuiesceBarrier barrier(flags.writers + flags.readers);
  std::vector<std::thread> threads;
  for (int w = 0; w < flags.writers; ++w) {
    threads.emplace_back(WriterLoop, w, flags.seed, std::ref(dataset),
                         std::ref(state), std::ref(barrier));
  }
  for (int r = 0; r < flags.readers; ++r) {
    threads.emplace_back(ReaderLoop, r, std::ref(db), std::ref(cache),
                         std::cref(queries), std::ref(state),
                         std::ref(barrier));
  }

  Stopwatch run_watch;
  int checkpoints = 0;
  double next_checkpoint = flags.checkpoint_secs;
  while (run_watch.ElapsedMillis() < flags.seconds * 1000.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // SIGUSR1 asks for a flight-recorder dump; the handler only sets a
    // flag, so the main loop ships the timeline from safe context here.
    if (FlightRecorder::RequestedDumpPending()) {
      FlightRecorder::Global().DumpToStderr();
    }
    if (run_watch.ElapsedMillis() >= next_checkpoint * 1000.0) {
      daemon.Pause();
      barrier.BeginQuiesce();
      RunCheckpoint(db, cache, queries, state, ++checkpoints);
      barrier.EndQuiesce();
      daemon.Resume();
      next_checkpoint += flags.checkpoint_secs;
    }
  }

  state.stop.store(true);
  barrier.EndQuiesce();  // Release any worker parked right at shutdown.
  for (std::thread& thread : threads) thread.join();
  daemon.Stop();

  // Final checkpoint on the fully quiesced system.
  RunCheckpoint(db, cache, queries, state, ++checkpoints);

  MergeDaemonStats daemon_stats = daemon.stats();
  bench::ResultTable table({"metric", "value"});
  table.AddRow({"writer txns", StrFormat("%llu",
      static_cast<unsigned long long>(state.writer_txns.load()))});
  table.AddRow({"reader queries", StrFormat("%llu",
      static_cast<unsigned long long>(state.reader_queries.load()))});
  table.AddRow({"checkpoints", StrFormat("%d", checkpoints)});
  table.AddRow({"daemon ticks", StrFormat("%llu",
      static_cast<unsigned long long>(daemon_stats.ticks))});
  table.AddRow({"merges committed", StrFormat("%llu",
      static_cast<unsigned long long>(daemon_stats.merges_succeeded))});
  table.AddRow({"merges aborted", StrFormat("%llu",
      static_cast<unsigned long long>(daemon_stats.merges_aborted))});
  table.AddRow({"faults fired", StrFormat("%llu",
      static_cast<unsigned long long>(FaultInjector::Global().TotalFired()))});
  table.AddRow({"injected-fault fallbacks", StrFormat("%llu",
      static_cast<unsigned long long>(state.cache_fallbacks.load()))});
  table.AddRow({"governance sheds", StrFormat("%llu",
      static_cast<unsigned long long>(state.governance_sheds.load()))});
  table.AddRow({"divergences", StrFormat("%llu",
      static_cast<unsigned long long>(state.divergences.load()))});
  table.AddRow({"hard errors", StrFormat("%llu",
      static_cast<unsigned long long>(state.hard_errors.load()))});
  table.Print();

  // The registry saw every lookup this process made; each consulted lookup
  // must have resolved to exactly one of hit or miss.
  const EngineMetrics& em = EngineMetrics::Get();
  uint64_t lookups = em.cache_lookups->Value();
  uint64_t hits = em.cache_hits->Value();
  uint64_t misses = em.cache_misses->Value();
  bool metrics_violation = hits + misses != lookups;
  if (metrics_violation) {
    std::fprintf(stderr,
                 "METRICS VIOLATION: hits(%llu) + misses(%llu) != "
                 "lookups(%llu)\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses),
                 static_cast<unsigned long long>(lookups));
  }
  // Every worker has joined and the final checkpoint ran to completion, so
  // any per-query reservation still tracked was leaked by an abort path.
  size_t query_bytes = MemoryTracker::Queries().used();
  if (query_bytes != 0) {
    metrics_violation = true;
    std::fprintf(stderr,
                 "TRACKER VIOLATION: %zu query-reserved bytes still "
                 "tracked at exit\n",
                 query_bytes);
  }
  std::printf("--- final metrics (prometheus) ---\n%s",
              MetricsRegistry::Global().RenderPrometheus().c_str());

  const double elapsed_secs = run_watch.ElapsedMillis() / 1000.0;
  ctx.report().AddScalar("writer_txns", {},
                         static_cast<double>(state.writer_txns.load()));
  ctx.report().AddScalar("reader_queries", {},
                         static_cast<double>(state.reader_queries.load()));
  ctx.report().AddScalar(
      "reader_queries_per_sec", {},
      static_cast<double>(state.reader_queries.load()) / elapsed_secs,
      "1/s");
  ctx.report().AddScalar("merges_committed", {},
                         static_cast<double>(daemon_stats.merges_succeeded));
  ctx.report().AddScalar("merges_aborted", {},
                         static_cast<double>(daemon_stats.merges_aborted));
  ctx.report().AddScalar("divergences", {},
                         static_cast<double>(state.divergences.load()));
  ctx.report().AddScalar("hard_errors", {},
                         static_cast<double>(state.hard_errors.load()));
  ctx.report().AddScalar("governance_sheds", {},
                         static_cast<double>(state.governance_sheds.load()));
  ctx.report().AddScalar(
      "flight_events_recorded", {},
      static_cast<double>(FlightRecorder::Global().recorded_events()));
  ctx.report().AddScalar(
      "flight_events_lost", {},
      static_cast<double>(FlightRecorder::Global().lost_events()));
  {
    std::lock_guard<std::mutex> lock(state.latency_mu);
    if (!state.reader_latencies_ms.empty()) {
      // The cached-path latency distribution across every reader's whole
      // run — the figure the flight-recorder overhead budget is judged on.
      ctx.report().AddLatency(
          "reader_query_ms", {},
          SummarizeLatencies(std::move(state.reader_latencies_ms)));
    }
  }

  bool failed = state.divergences.load() != 0 ||
                state.hard_errors.load() != 0 || metrics_violation;
  std::printf("%s\n", failed ? "FAIL" : "PASS");
  obs_server.Stop();  // Join handler threads before locals unwind.
  MetricsHistory::Global().Stop();
  if (!ctx.Finish()) return 1;
  return failed ? 1 : 0;
}

}  // namespace
}  // namespace aggcache

int main(int argc, char** argv) { return aggcache::Run(argc, argv); }
