// Differential correctness harness driver (see src/verify/).
//
//   verify_fuzz --seeds=64                 sweep seeds 1..64, clean + faults
//   verify_fuzz --seeds=10-20 --faults=off clean runs for a seed range
//   verify_fuzz --seed=7 --steps=200       one long seed
//   verify_fuzz --crash                    durable runs with simulated kills
//                                          + recovery at every crash point
//   verify_fuzz --self-test                prove a divergence gets reported
//   verify_fuzz --replay=trace.txt         re-run a recorded failure trace
//
// Exit status: 0 when every run matched the oracle (or the self-test
// detected its planted divergence), 1 on the first divergence/failure
// (prints the seed and its replayable trace), 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "cache/aggregate_cache_manager.h"
#include "obs/engine_metrics.h"
#include "obs/metrics_history.h"
#include "obs/metrics_registry.h"
#include "obs/obs_endpoints.h"
#include "obs/obs_server.h"
#include "obs/slow_log.h"
#include "runtime/memory_tracker.h"
#include "storage/database.h"
#include "verify/fault_injector.h"
#include "verify/fuzzer.h"
#include "workload/trace.h"

namespace {

using aggcache::AggregateCacheManager;
using aggcache::Database;
using aggcache::FuzzOptions;
using aggcache::FuzzReport;
using aggcache::RunFuzzSeed;
using aggcache::TraceReplayer;

struct Flags {
  uint64_t seed_lo = 1;
  uint64_t seed_hi = 16;
  size_t steps = 60;
  size_t check_every = 6;
  std::string faults = "both";  // both | only | off
  bool crash = false;
  std::string crash_dir = "verify_fuzz_data";
  bool self_test = false;
  std::string replay_file;
  size_t max_entries = 64;
  bool incremental = true;
};

bool ParseUint(const char* text, uint64_t* out) {
  char* end = nullptr;
  uint64_t v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return false;
  *out = v;
  return true;
}

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--seeds=N | --seeds=A-B | --seed=N] [--steps=N]\n"
      "          [--check-every=N] [--faults=both|only|off] [--self-test]\n"
      "          [--crash] [--crash-dir=DIR]\n"
      "          [--replay=FILE [--max-entries=N] [--incremental=0|1]]\n",
      argv0);
  return 2;
}

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    auto value_of = [&](const char* prefix) -> const char* {
      size_t len = std::strlen(prefix);
      return std::strncmp(arg, prefix, len) == 0 ? arg + len : nullptr;
    };
    uint64_t n = 0;
    if (const char* v = value_of("--seeds=")) {
      const char* dash = std::strchr(v, '-');
      if (dash != nullptr) {
        std::string lo(v, dash - v);
        if (!ParseUint(lo.c_str(), &flags->seed_lo) ||
            !ParseUint(dash + 1, &flags->seed_hi)) {
          return false;
        }
      } else {
        if (!ParseUint(v, &flags->seed_hi)) return false;
        flags->seed_lo = 1;
      }
    } else if (const char* v = value_of("--seed=")) {
      if (!ParseUint(v, &n)) return false;
      flags->seed_lo = flags->seed_hi = n;
    } else if (const char* v = value_of("--steps=")) {
      if (!ParseUint(v, &n)) return false;
      flags->steps = n;
    } else if (const char* v = value_of("--check-every=")) {
      if (!ParseUint(v, &n) || n == 0) return false;
      flags->check_every = n;
    } else if (const char* v = value_of("--faults=")) {
      flags->faults = v;
      if (flags->faults != "both" && flags->faults != "only" &&
          flags->faults != "off") {
        return false;
      }
    } else if (std::strcmp(arg, "--crash") == 0) {
      flags->crash = true;
    } else if (const char* v = value_of("--crash-dir=")) {
      flags->crash_dir = v;
    } else if (std::strcmp(arg, "--self-test") == 0) {
      flags->self_test = true;
    } else if (const char* v = value_of("--replay=")) {
      flags->replay_file = v;
    } else if (const char* v = value_of("--max-entries=")) {
      if (!ParseUint(v, &n)) return false;
      flags->max_entries = n;
    } else if (const char* v = value_of("--incremental=")) {
      if (!ParseUint(v, &n) || n > 1) return false;
      flags->incremental = n == 1;
    } else {
      return false;
    }
  }
  return flags->seed_lo <= flags->seed_hi;
}

int RunReplay(const Flags& flags) {
  std::ifstream file(flags.replay_file);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", flags.replay_file.c_str());
    return 2;
  }
  Database db;
  AggregateCacheManager::Config config;
  config.max_entries = flags.max_entries;
  config.incremental_join_main_compensation = flags.incremental;
  AggregateCacheManager cache(&db, config);
  TraceReplayer replayer(&db, &cache);
  auto report_or = replayer.Replay(file);
  aggcache::FaultInjector::Global().DisarmAll();
  if (!report_or.ok()) {
    std::fprintf(stderr, "replay failed: %s\n",
                 report_or.status().ToString().c_str());
    return 1;
  }
  const aggcache::TraceReport& r = report_or.value();
  std::printf(
      "replay ok: %zu statements (%zu inserts, %zu queries, %zu ddl), "
      "%zu updates, %zu deletes, %zu merges (%zu faulted), %zu splits\n",
      r.statements, r.inserts, r.queries, r.ddl, r.updates, r.deletes,
      r.merges, r.faulted_merges, r.splits);
  return 0;
}

int RunSelfTest(const Flags& flags) {
  FuzzOptions options;
  options.steps = flags.steps;
  options.check_every = flags.check_every;
  options.inject_divergence = true;
  FuzzReport report = RunFuzzSeed(flags.seed_lo, options);
  std::printf("%s\n", report.Summary().c_str());
  if (report.ok) {
    std::fprintf(stderr,
                 "self-test FAILED: planted divergence was not detected\n");
    return 1;
  }
  std::printf("--- replayable trace ---\n%s--- end trace ---\n",
              report.trace.c_str());
  std::printf("self-test ok: planted divergence detected and reported\n");
  return 0;
}

int ReportFailure(const FuzzReport& report, bool with_faults) {
  std::printf("%s\n", report.Summary().c_str());
  std::fprintf(stderr, "first failing seed: %llu (%s)\n",
               static_cast<unsigned long long>(report.seed),
               with_faults ? "with faults" : "clean");
  std::printf("--- replayable trace (feed to --replay) ---\n%s--- end "
              "trace ---\n",
              report.trace.c_str());
  return 1;
}

/// Cross-checks the process-wide registry at exit: every consulted cache
/// lookup must have resolved to exactly one of hit or miss, every per-query
/// memory reservation must have been released (no query is in flight now),
/// and the final exposition is printed so fuzz logs carry the engine's
/// counters.
int CheckMetricsInvariants() {
  const aggcache::EngineMetrics& em = aggcache::EngineMetrics::Get();
  uint64_t lookups = em.cache_lookups->Value();
  uint64_t hits = em.cache_hits->Value();
  uint64_t misses = em.cache_misses->Value();
  std::printf("--- final metrics (prometheus) ---\n%s",
              aggcache::MetricsRegistry::Global().RenderPrometheus().c_str());
  if (hits + misses != lookups) {
    std::fprintf(stderr,
                 "METRICS VIOLATION: hits(%llu) + misses(%llu) != "
                 "lookups(%llu)\n",
                 static_cast<unsigned long long>(hits),
                 static_cast<unsigned long long>(misses),
                 static_cast<unsigned long long>(lookups));
    return 1;
  }
  size_t query_bytes = aggcache::MemoryTracker::Queries().used();
  if (query_bytes != 0) {
    std::fprintf(stderr,
                 "TRACKER VIOLATION: %zu query-reserved bytes still "
                 "tracked at exit\n",
                 query_bytes);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Long fuzz campaigns are exactly when live introspection pays off:
  // AGGCACHE_OBS_ADDR exposes /queries, /slowlog, /metrics/history, ...
  // for the whole run. The server only reads process-global state.
  aggcache::SlowQueryLog::Global().ConfigureFromEnv();
  aggcache::MetricsHistory::Global().Start(
      aggcache::MetricsHistory::OptionsFromEnv());
  aggcache::ObsServer obs_server;
  if (const char* obs_addr = std::getenv("AGGCACHE_OBS_ADDR")) {
    aggcache::RegisterCommonObsEndpoints(obs_server);
    aggcache::ObsServer::Options obs_options;
    obs_options.address = obs_addr;
    aggcache::Status obs_started = obs_server.Start(obs_options);
    if (!obs_started.ok()) {
      std::fprintf(stderr, "observability server: %s\n",
                   obs_started.ToString().c_str());
      return 2;
    }
    std::printf("observability endpoint on port %u\n", obs_server.port());
  }
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage(argv[0]);
  if (!flags.replay_file.empty()) return RunReplay(flags);
  if (flags.self_test) return RunSelfTest(flags);

  FuzzOptions options;
  options.steps = flags.steps;
  options.check_every = flags.check_every;
  options.with_crashes = flags.crash;
  options.data_dir = flags.crash_dir;

  size_t runs = 0;
  size_t combos = 0;
  uint64_t faults = 0;
  size_t crashes = 0;
  for (uint64_t seed = flags.seed_lo; seed <= flags.seed_hi; ++seed) {
    if (flags.faults != "only") {
      options.with_faults = false;
      FuzzReport report = RunFuzzSeed(seed, options);
      if (!report.ok) return ReportFailure(report, false);
      std::printf("%s\n", report.Summary().c_str());
      ++runs;
      combos += report.combos_checked;
      crashes += report.crashes_survived;
    }
    if (flags.faults != "off") {
      options.with_faults = true;
      FuzzReport report = RunFuzzSeed(seed, options);
      if (!report.ok) return ReportFailure(report, true);
      std::printf("[faults] %s\n", report.Summary().c_str());
      ++runs;
      combos += report.combos_checked;
      faults += report.faults_fired;
      crashes += report.crashes_survived;
    }
  }
  std::printf(
      "all %zu runs matched the oracle (%zu strategy combinations, %llu "
      "injected faults fired, %zu crashes survived)\n",
      runs, combos, static_cast<unsigned long long>(faults), crashes);
  return CheckMetricsInvariants();
}
