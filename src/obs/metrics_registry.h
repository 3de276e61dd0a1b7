#ifndef AGGCACHE_OBS_METRICS_REGISTRY_H_
#define AGGCACHE_OBS_METRICS_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace aggcache {

/// Monotonically increasing counter. Updates are relaxed atomics — cheap
/// enough for per-subjoin hot paths — and reads are snapshots, not fences:
/// these are statistics, never synchronization.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous signed value (queue depths, resident sizes).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Log-bucketed latency histogram: bucket i counts observations with value
/// <= 2^i (i = 0 .. kNumBuckets - 2), the last bucket is the +Inf overflow.
/// Power-of-two upper bounds make bucket selection a bit-width computation
/// and keep the fixed bucket layout identical across every histogram, so
/// exposition never depends on registration-time configuration. Values are
/// dimensionless; by convention the engine records microseconds.
class Histogram {
 public:
  /// 2^0 .. 2^30 finite upper bounds (covering ~18 minutes in µs) plus the
  /// +Inf overflow bucket.
  static constexpr size_t kNumBuckets = 32;

  void Observe(uint64_t value) {
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  /// The bucket an observation lands in: the smallest i with
  /// value <= 2^i, clamped to the overflow bucket.
  static size_t BucketIndex(uint64_t value);

  /// Inclusive upper bound of finite bucket `index`
  /// (index < kNumBuckets - 1).
  static uint64_t BucketUpperBound(size_t index);

  /// Non-cumulative count of one bucket.
  uint64_t BucketCount(size_t index) const {
    return buckets_[index].load(std::memory_order_relaxed);
  }

  /// Estimates the value at quantile `q` (clamped to [0, 1]) by linear
  /// interpolation inside the log bucket holding that rank: bucket i spans
  /// (2^(i-1), 2^i] (bucket 0 spans [0, 1]), and observations are assumed
  /// uniform within it, so the estimate is exact at bucket boundaries and
  /// within one octave elsewhere. Observations in the +Inf overflow bucket
  /// report the last finite bound. Returns 0 for an empty histogram.
  /// Reads are relaxed snapshots — statistics, not synchronization.
  double ValueAtQuantile(double q) const;
  uint64_t TotalCount() const {
    return count_.load(std::memory_order_relaxed);
  }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

/// Process-wide registry of named metrics. Registration (GetCounter &c.)
/// takes a mutex and returns a pointer that stays valid for the registry's
/// lifetime; instrumented code registers once (at construction or through a
/// static EngineMetrics handle) and updates through the pointer, so no
/// metric update ever acquires a lock. Render() walks the name-ordered map
/// under the mutex, reading each value with a relaxed load — a dump is a
/// loose snapshot, which is all monitoring needs.
class MetricsRegistry {
 public:
  enum class Format : uint8_t { kPrometheus, kJson };
  enum class Kind : uint8_t { kCounter, kGauge, kHistogram };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every engine subsystem registers into.
  /// Intentionally leaked so worker threads may update metrics during
  /// static teardown.
  static MetricsRegistry& Global();

  /// Returns the metric named `name`, registering it on first use. `help`
  /// is the exposition help text (first registration wins). Re-registering
  /// a name as a different metric kind is a programming error and aborts.
  Counter* GetCounter(const std::string& name, const std::string& help);
  Gauge* GetGauge(const std::string& name, const std::string& help);
  Histogram* GetHistogram(const std::string& name, const std::string& help);

  /// A gauge carrying a fixed label set, for the Prometheus "info metric"
  /// idiom (aggcache_build_info{version=...,git_sha=...} 1): the labels are
  /// the payload, the value is conventionally 1. Labels are attached on
  /// first registration and rendered in both exposition formats; only one
  /// label set per name (this registry has no series dimension).
  Gauge* GetInfoGauge(
      const std::string& name, const std::string& help,
      const std::vector<std::pair<std::string, std::string>>& labels);

  /// Renders every registered metric, name-ordered: Prometheus text
  /// exposition (# HELP / # TYPE, cumulative _bucket{le=...}, _sum, _count)
  /// or a JSON object keyed by metric name.
  std::string Render(Format format = Format::kPrometheus) const;
  std::string RenderPrometheus() const { return Render(Format::kPrometheus); }
  std::string RenderJson() const { return Render(Format::kJson); }

  size_t num_metrics() const;

  /// One metric's values at a moment in time, in delta-friendly form:
  /// counters and gauges carry `value`; histograms carry `count` and `sum`
  /// (enough for rate and mean deltas — bucket shapes come from Render).
  struct MetricSnapshot {
    Kind kind = Kind::kCounter;
    int64_t value = 0;
    uint64_t count = 0;
    uint64_t sum = 0;
  };

  /// Loose point-in-time snapshot of every registered metric, keyed by
  /// name. BenchReport subtracts two of these to attribute engine work
  /// (rows scanned, merges committed, waits) to a measured region.
  std::map<std::string, MetricSnapshot> SnapshotValues() const;

  /// Zeroes every registered metric's value (registrations stay). Tests
  /// only: concurrent updaters may interleave with the reset.
  void ResetAllForTest();

 private:
  struct Metric {
    Kind kind = Kind::kCounter;
    std::string help;
    /// Fixed label set (info-metric idiom); empty for ordinary metrics.
    std::vector<std::pair<std::string, std::string>> labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Metric& GetOrCreate(const std::string& name, const std::string& help,
                      Kind kind);

  /// Guards the map structure only — never held on a metric update path.
  mutable std::mutex mu_;
  /// Ordered so renders (and the exposition golden test) are deterministic.
  std::map<std::string, Metric> metrics_;
};

}  // namespace aggcache

#endif  // AGGCACHE_OBS_METRICS_REGISTRY_H_
