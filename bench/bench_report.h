#ifndef AGGCACHE_BENCH_BENCH_REPORT_H_
#define AGGCACHE_BENCH_BENCH_REPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics_registry.h"

namespace aggcache {

/// Wall-clock summary of one repeated measured region: nearest-rank p5,
/// median and p95 over the timed repetitions (the warm-up rep is discarded
/// by the harness before these are computed).
struct LatencyStats {
  double p5_ms = 0.0;
  double median_ms = 0.0;
  double p95_ms = 0.0;
  int reps = 0;
};

/// Computes nearest-rank {p5, median, p95} from raw per-rep millisecond
/// timings (unsorted input is fine).
LatencyStats SummarizeLatencies(std::vector<double> times_ms);

/// Structured result of one benchmark run, serialized as
/// BENCH_<scenario>.json so CI can track the perf trajectory and
/// tools/bench_diff can gate regressions. Schema (version 1):
///
///   {"schema_version":1,
///    "scenario":"fig6_maintenance",
///    "config":{"threads":"4","quick":"false", ...},
///    "samples":[
///      {"name":"query_ms","labels":{"strategy":"cached-full-pruning"},
///       "kind":"latency","reps":5,"p5_ms":1.2,"median_ms":1.3,"p95_ms":1.9},
///      {"name":"cache_bytes","labels":{},"kind":"scalar","value":123456,
///       "unit":"bytes"}],
///    "metrics_delta":{
///      "aggcache_cache_hits_total":{"kind":"counter","delta":42},
///      "aggcache_pool_queue_depth":{"kind":"gauge","value":0},
///      "aggcache_cache_build_us":{"kind":"histogram","count":3,
///                                 "sum":8123}}}
///
/// `metrics_delta` is the registry change across the whole run (captured
/// at BenchContext construction and Finish), attributing engine work —
/// rows scanned, merges committed, single-flight waits — to the scenario.
/// Zero-delta metrics are omitted to keep reports diffable by eye.
class BenchReport {
 public:
  explicit BenchReport(std::string scenario);

  const std::string& scenario() const { return scenario_; }

  /// Records a config dimension (threads, table sizes, strategy set, ...).
  /// Later writes to the same key win.
  void SetConfig(const std::string& key, const std::string& value);
  void SetConfig(const std::string& key, int64_t value);
  void SetConfig(const std::string& key, double value);
  void SetConfig(const std::string& key, bool value);

  /// Adds one latency sample (a measured region's {p5, median, p95}).
  /// `labels` distinguish series within a scenario (strategy, x-axis
  /// point); the (name, labels) pair is the diff key.
  void AddLatency(const std::string& name,
                  const std::map<std::string, std::string>& labels,
                  const LatencyStats& stats);

  /// Adds one dimensionless or unit-tagged scalar sample (bytes, ratios,
  /// speedups, counts).
  void AddScalar(const std::string& name,
                 const std::map<std::string, std::string>& labels,
                 double value, const std::string& unit = "");

  /// Captures the baseline registry snapshot deltas are computed against.
  void SnapshotMetricsBaseline();

  /// Computes the registry delta since SnapshotMetricsBaseline(). Call once
  /// after the last measured region.
  void CaptureMetricsDelta();

  std::string ToJson() const;

  /// Writes ToJson() to `path` (+ trailing newline). Returns false and
  /// prints to stderr on I/O failure.
  bool WriteToFile(const std::string& path) const;

  size_t num_samples() const { return samples_.size(); }

 private:
  struct Sample {
    std::string name;
    std::map<std::string, std::string> labels;
    bool is_latency = false;
    LatencyStats latency;
    double value = 0.0;
    std::string unit;
  };

  std::string scenario_;
  std::map<std::string, std::string> config_;
  std::vector<Sample> samples_;
  std::map<std::string, MetricsRegistry::MetricSnapshot> baseline_;
  bool have_baseline_ = false;
  std::map<std::string, MetricsRegistry::MetricSnapshot> delta_;
  bool have_delta_ = false;
};

/// Per-binary glue every bench shares: parses the common flags, owns the
/// report, and writes BENCH_<scenario>.json at Finish() when requested.
///
///   --json            write BENCH_<scenario>.json in the working directory
///   --json=FILE       write exactly FILE
///   --json=DIR/       write DIR/BENCH_<scenario>.json
///   --quick           reduced table sizes / reps (CI smoke mode)
///
/// AGGCACHE_BENCH_JSON (same value grammar) and AGGCACHE_BENCH_QUICK=1 are
/// the env equivalents, so bench/run_all.sh can drive binaries whose own
/// flag parsing is strict. Unrecognized argv entries are left untouched for
/// the binary's own parser.
class BenchContext {
 public:
  /// `scenario` names the output file: BENCH_<scenario>.json. The registry
  /// baseline snapshot is taken here, before any setup work runs.
  BenchContext(int argc, char** argv, std::string scenario);

  BenchReport& report() { return report_; }
  bool quick() const { return quick_; }
  bool json_requested() const { return !json_path_.empty(); }
  const std::string& json_path() const { return json_path_; }

  /// Picks `quick_value` in --quick mode, `full_value` otherwise, and
  /// records nothing — a terse helper for sizing constants.
  template <typename T>
  T QuickOr(T quick_value, T full_value) const {
    return quick_ ? quick_value : full_value;
  }

  /// QuickOr for repetition counts: additionally validates that both sides
  /// are positive, so a sizing typo cannot hand MeasureMs zero reps and
  /// produce all-zero latency samples in either protocol. Aborts on
  /// violation. The AGGCACHE_BENCH_REPS environment variable overrides
  /// both values — CI's span-overhead gate uses it to buy tight medians
  /// (a 3% threshold is meaningless over 3 reps of a sub-ms query)
  /// without slowing every --quick scenario down.
  int Reps(int quick_reps, int full_reps) const;

  /// Captures the metrics delta and, when JSON output was requested,
  /// writes the report. Returns false on write failure (benches exit
  /// nonzero on that so CI notices).
  bool Finish();

 private:
  BenchReport report_;
  std::string json_path_;
  bool quick_ = false;
  bool finished_ = false;
  int reps_override_ = 0;  ///< 0 = none; else AGGCACHE_BENCH_REPS.
};

}  // namespace aggcache

#endif  // AGGCACHE_BENCH_BENCH_REPORT_H_
