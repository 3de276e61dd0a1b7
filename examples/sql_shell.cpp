// Interactive SQL shell over the aggcache engine. Preloads the ERP demo
// dataset and accepts the supported SQL dialect plus a few meta-commands —
// the quickest way to poke at the aggregate cache by hand.
//
// Usage:  ./sql_shell            (interactive)
//         echo "SELECT ..." | ./sql_shell
//         AGGCACHE_DATA_DIR=/tmp/shell ./sql_shell   (durable session:
//         recovers the directory on start, WAL-logs every write; see
//         AGGCACHE_WAL=off|async|sync for the sync policy)
//
// Meta-commands:
//   .tables           list tables with partition sizes
//   .merge [table]    run a delta merge (all tables when omitted)
//   .cache            show aggregate cache entries and metrics
//   .strategy NAME    uncached | no-pruning | empty-delta | full (default)
//   .save FILE        write a database snapshot
//   .load FILE        replace the database with a snapshot
//   \flight [n]       dump the last n (default 4096) engine flight-recorder
//                     events to stderr as JSON
//   \spans [n]        dump the last n (default 8192) spans to stderr as
//                     Chrome-trace JSON (set AGGCACHE_SPANS=on to record)
//   \cache            print the per-entry cost/benefit ledger
//   \queries          print the active-query registry (live queries with
//                     phase, elapsed, memory; serve /queries for JSON)
//   .quit
//
// Set AGGCACHE_OBS_ADDR=host:port to serve /metrics, /metrics.json,
// /metrics/history, /flight, /spans, /queries, /queries/cancel?id=N,
// /slowlog, /cache and /healthz over HTTP while the shell runs.
// AGGCACHE_SLOW_QUERY_MS=<ms> arms the slow-query log;
// AGGCACHE_METRICS_HISTORY=<period_ms> starts the metrics-history sampler.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "aggcache/aggcache.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/flight_recorder.h"

namespace {

using namespace aggcache;  // NOLINT(build/namespaces) — example brevity.

ExecutionStrategy g_strategy = ExecutionStrategy::kCachedFullPruning;

void ListTables(const Database& db) {
  for (const std::string& name : db.TableNames()) {
    const Table* table = db.GetTable(name).value();
    std::printf("  %-20s", name.c_str());
    for (size_t g = 0; g < table->num_groups(); ++g) {
      const PartitionGroup& group = table->group(g);
      std::printf(" %s[main=%zu delta=%zu]",
                  AgeClassToString(group.age), group.main.num_rows(),
                  group.delta.num_rows());
    }
    std::printf("\n");
  }
}

void ShowCache(const AggregateCacheManager& cache) {
  std::printf("  %zu entries, %zu bytes\n", cache.num_entries(),
              cache.total_bytes());
}

bool HandleMetaCommand(const std::string& line,
                       std::unique_ptr<Database>& db,
                       std::unique_ptr<AggregateCacheManager>& cache,
                       bool durable) {
  // .quit/.exit are handled in main() so the normal return path runs —
  // the observability server must join its threads before db/cache die.
  if (line == ".tables") {
    ListTables(*db);
    return true;
  }
  if (line == ".cache") {
    ShowCache(*cache);
    return true;
  }
  if (line.rfind(".merge", 0) == 0) {
    std::string table = line.size() > 7 ? line.substr(7) : "";
    Status status = table.empty() ? db->MergeAll() : db->Merge(table);
    std::printf("  %s\n", status.ToString().c_str());
    return true;
  }
  if (line.rfind(".save ", 0) == 0) {
    std::ofstream out(line.substr(6));
    Status status = out ? WriteSnapshot(*db, out)
                        : Status::InvalidArgument("cannot open file");
    std::printf("  %s\n", status.ToString().c_str());
    return true;
  }
  if (line.rfind(".load ", 0) == 0) {
    if (durable) {
      // A snapshot load bypasses the WAL, so the on-disk log would no
      // longer describe the in-memory state.
      std::printf("  .load is unavailable in a durable session "
                  "(unset AGGCACHE_DATA_DIR)\n");
      return true;
    }
    std::ifstream in(line.substr(6));
    if (!in) {
      std::printf("  cannot open file\n");
      return true;
    }
    auto fresh = std::make_unique<Database>();
    Status status = ReadSnapshot(in, fresh.get());
    if (status.ok()) {
      cache.reset();  // The old cache observes the old database.
      db = std::move(fresh);
      cache = std::make_unique<AggregateCacheManager>(db.get());
    }
    std::printf("  %s\n", status.ToString().c_str());
    return true;
  }
  if (line.rfind(".strategy ", 0) == 0) {
    std::string name = line.substr(10);
    if (name == "uncached") {
      g_strategy = ExecutionStrategy::kUncached;
    } else if (name == "no-pruning") {
      g_strategy = ExecutionStrategy::kCachedNoPruning;
    } else if (name == "empty-delta") {
      g_strategy = ExecutionStrategy::kCachedEmptyDeltaPruning;
    } else if (name == "full") {
      g_strategy = ExecutionStrategy::kCachedFullPruning;
    } else {
      std::printf("  unknown strategy '%s'\n", name.c_str());
      return true;
    }
    std::printf("  strategy = %s\n", ExecutionStrategyToString(g_strategy));
    return true;
  }
  if (line.rfind("\\spans", 0) == 0) {
    // Dump the span recorder as Chrome-trace JSON (load in Perfetto or
    // chrome://tracing). Recording is off unless AGGCACHE_SPANS is set.
    size_t max_spans = 8192;
    std::string arg = line.size() > 7 ? line.substr(7) : "";
    if (!arg.empty()) {
      char* end = nullptr;
      long parsed = std::strtol(arg.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || parsed <= 0) {
        std::printf("  usage: \\spans [max_spans]\n");
        return true;
      }
      max_spans = static_cast<size_t>(parsed);
    }
    SpanRecorder& spans = SpanRecorder::Global();
    if (!spans.enabled()) {
      std::printf("  span recorder is off (set AGGCACHE_SPANS=on)\n");
      return true;
    }
    spans.DumpToStderr(max_spans);
    std::printf("  spans: %llu recorded, %llu lost (dump on stderr)\n",
                static_cast<unsigned long long>(spans.recorded_spans()),
                static_cast<unsigned long long>(spans.lost_spans()));
    return true;
  }
  if (line == "\\cache") {
    std::printf("%s", cache->LedgerText().c_str());
    return true;
  }
  if (line == "\\queries") {
    std::printf("%s", ActiveQueryRegistry::Global().ListText().c_str());
    return true;
  }
  if (line.rfind("\\flight", 0) == 0) {
    // Dump the engine flight recorder (last n events, default 4096). Uses
    // the backslash form so it reads like a debugger escape, distinct from
    // the dot-prefixed catalog commands.
    size_t max_events = 4096;
    std::string arg = line.size() > 8 ? line.substr(8) : "";
    if (!arg.empty()) {
      char* end = nullptr;
      long parsed = std::strtol(arg.c_str(), &end, 10);
      if (end == nullptr || *end != '\0' || parsed <= 0) {
        std::printf("  usage: \\flight [max_events]\n");
        return true;
      }
      max_events = static_cast<size_t>(parsed);
    }
    FlightRecorder::Global().DumpToStderr(max_events);
    std::printf("  flight recorder: %llu recorded, %llu lost (dump on "
                "stderr)\n",
                static_cast<unsigned long long>(
                    FlightRecorder::Global().recorded_events()),
                static_cast<unsigned long long>(
                    FlightRecorder::Global().lost_events()));
    return true;
  }
  if (!line.empty() && (line[0] == '.' || line[0] == '\\')) {
    std::printf("  unknown meta-command '%s'\n", line.c_str());
    return true;
  }
  return false;
}

void RunStatement(const std::string& sql, Database& db,
                  AggregateCacheManager& cache) {
  auto parsed = ParseStatement(sql, db);
  if (!parsed.ok()) {
    std::printf("  error: %s\n", parsed.status().ToString().c_str());
    return;
  }
  if (parsed->kind == ParsedStatement::Kind::kExplain) {
    QueryTrace trace;
    Transaction txn = db.Begin();
    ExecutionOptions options;
    options.strategy = g_strategy;
    options.trace = &trace;
    auto result = cache.Execute(parsed->select, txn, options);
    if (!result.ok()) {
      std::printf("  error: %s\n", result.status().ToString().c_str());
      return;
    }
    std::printf("%s", parsed->explain_json ? (trace.ToJson() + "\n").c_str()
                                           : trace.ToText().c_str());
    return;
  }
  if (parsed->kind != ParsedStatement::Kind::kSelect) {
    Status status = ApplyStatement(*parsed, &db);
    std::printf("  %s\n", status.ToString().c_str());
    return;
  }
  Stopwatch watch;
  Transaction txn = db.Begin();
  CacheExecStats stats;
  ExecutionOptions options;
  options.strategy = g_strategy;
  options.stats = &stats;
  auto result = cache.Execute(parsed->select, txn, options);
  if (!result.ok()) {
    std::printf("  error: %s\n", result.status().ToString().c_str());
    return;
  }
  for (const std::vector<Value>& row :
       result->Rows(parsed->select.AggregateFunctions())) {
    std::printf(" ");
    for (const Value& v : row) std::printf(" %-16s", v.ToString().c_str());
    std::printf("\n");
  }
  std::printf("  -- %zu groups in %.3f ms (%s%s; %llu subjoins, %llu "
              "pruned)\n",
              result->num_groups(), watch.ElapsedMillis(),
              ExecutionStrategyToString(g_strategy),
              stats.cache_hit ? ", cache hit" : "",
              static_cast<unsigned long long>(stats.subjoins_executed),
              static_cast<unsigned long long>(stats.subjoins_pruned));
}

}  // namespace

int main() {
  auto db = std::make_unique<Database>();

  // AGGCACHE_DATA_DIR makes the shell durable: the session recovers
  // whatever the directory holds (skipping the demo preload) and logs all
  // further writes. AGGCACHE_WAL picks the sync policy (default sync).
  std::unique_ptr<DurabilityManager> durability;
  if (const char* data_dir = std::getenv("AGGCACHE_DATA_DIR")) {
    auto options = DurabilityOptions::FromEnv();
    if (!options.ok()) {
      std::fprintf(stderr, "durability: %s\n",
                   options.status().ToString().c_str());
      return 1;
    }
    auto opened = DurabilityManager::Open(data_dir, db.get(), *options);
    if (!opened.ok()) {
      std::fprintf(stderr, "durability: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    durability = std::move(*opened);
    const RecoveryReport& report = durability->recovery_report();
    std::printf("recovered %s: %zu tables, %llu WAL records replayed%s\n",
                data_dir, db->TableNames().size(),
                static_cast<unsigned long long>(report.replayed_records),
                report.wal_clean ? "" : " (torn tail truncated)");
  }

  bool preloaded = db->TableNames().empty();
  if (preloaded) {
    ErpConfig config;
    config.num_headers_main = 5000;
    config.num_categories = 20;
    auto dataset = ErpDataset::Create(db.get(), config);
    if (!dataset.ok()) {
      std::fprintf(stderr, "dataset: %s\n",
                   dataset.status().ToString().c_str());
      return 1;
    }
  }
  auto cache = std::make_unique<AggregateCacheManager>(db.get());
  if (durability != nullptr) {
    cache->ImportWarmDescriptors(durability->TakeWarmDescriptors());
    durability->SetDescriptorSource(cache.get());
  }

  // AGGCACHE_OBS_ADDR=host:port serves the observability endpoints over
  // HTTP for curl and Prometheus. The server is stopped (threads joined)
  // before db/cache are torn down; the handlers below only dereference
  // db/cache while the server runs, so the order is what makes them safe.
  SlowQueryLog::Global().ConfigureFromEnv();
  MetricsHistory::Global().Start(MetricsHistory::OptionsFromEnv());
  ObsServer obs_server;
  if (const char* obs_addr = std::getenv("AGGCACHE_OBS_ADDR")) {
    RegisterCommonObsEndpoints(obs_server);
    AggregateCacheManager* cache_ptr = cache.get();
    obs_server.SetHandler("/cache", "application/json", [cache_ptr] {
      return cache_ptr->LedgerJson();
    });
    Database* db_ptr = db.get();
    // The health body leads with the status word (what the CI smoke greps)
    // and follows with build identity + uptime, so one curl answers "is it
    // alive, which build, since when".
    obs_server.SetHealthProbe([db_ptr, cache_ptr] {
      std::string detail =
          BuildInfoLine() + StrFormat("\nuptime_s %.0f\n", UptimeSeconds());
      if (db_ptr->restoring()) {
        return std::make_pair(503, "restoring\n" + detail);
      }
      if (cache_ptr->degraded()) {
        return std::make_pair(503, "degraded\n" + detail);
      }
      return std::make_pair(200, "ok\n" + detail);
    });
    ObsServer::Options obs_options;
    obs_options.address = obs_addr;
    Status started = obs_server.Start(obs_options);
    if (!started.ok()) {
      std::fprintf(stderr, "observability server: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    std::printf("observability endpoint on port %u "
                "(/ index; /metrics /metrics.json /metrics/history /flight "
                "/spans /queries /queries/cancel /slowlog /cache "
                "/healthz)\n",
                obs_server.port());
  }

  std::printf("aggcache SQL shell — %s (.tables, .cache, "
              ".merge, .strategy, \\flight, \\spans, \\cache, \\queries, "
              ".quit; EXPLAIN AGGREGATE [JSON] SELECT ...)\n",
              preloaded ? "ERP demo data loaded" : "durable session resumed");
  std::printf("try: SELECT Name, SUM(Price) AS Profit FROM Header, Item, "
              "ProductCategory\n     WHERE Item.HeaderID = Header.HeaderID "
              "AND Item.CategoryID = ProductCategory.CategoryID\n     AND "
              "Language = 'ENG' AND FiscalYear = 2013 GROUP BY Name\n\n");

  std::string line;
  std::string statement;
  while (true) {
    std::printf(statement.empty() ? "sql> " : "...> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    if (statement.empty() && (line == ".quit" || line == ".exit")) break;
    if (statement.empty() &&
        HandleMetaCommand(line, db, cache, durability != nullptr)) {
      continue;
    }
    statement += line + "\n";
    // Execute once the statement is terminated (or on a blank line).
    if (line.find(';') != std::string::npos || line.empty()) {
      RunStatement(statement, *db, *cache);
      statement.clear();
    }
  }
  obs_server.Stop();  // Join handlers before db/cache teardown.
  MetricsHistory::Global().Stop();
  return 0;
}
