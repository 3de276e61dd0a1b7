#ifndef AGGCACHE_CACHE_CACHE_METRICS_H_
#define AGGCACHE_CACHE_CACHE_METRICS_H_

#include <atomic>
#include <cstdint>

namespace aggcache {

/// Per-entry profit metrics (the "aggregate cache metrics" of Fig. 2):
/// execution times on main and delta partitions, aggregated record counts,
/// maintenance cost, and usage information. The cache manager uses them for
/// admission, eviction, and maintenance decisions.
///
/// Every field is an atomic: hit counters bump on the lock-free read path,
/// and the eviction ranker reads sizes and profit inputs without taking the
/// entry's value lock. Fields use relaxed ordering — each is an independent
/// statistic, never a synchronization point; cross-field consistency (e.g.
/// total_delta_comp_ms vs delta_comp_count) is approximate by design.
struct CacheEntryMetrics {
  /// Approximate bytes held by the cached value (result + snapshots).
  std::atomic<size_t> size_bytes{0};
  /// Rows aggregated when the entry was built on the main partitions.
  std::atomic<uint64_t> main_rows_aggregated{0};
  /// Time to compute the entry on the main partitions (what a cache hit
  /// saves).
  std::atomic<double> main_exec_ms{0.0};
  /// Accumulated delta-compensation time across uses.
  std::atomic<double> total_delta_comp_ms{0.0};
  std::atomic<uint64_t> delta_comp_count{0};
  /// Accumulated merge-time maintenance cost.
  std::atomic<double> maintenance_ms{0.0};
  /// Merge-time maintenance attempts that failed and left the entry marked
  /// for rebuild instead of aborting the process.
  std::atomic<uint64_t> maintenance_failures{0};
  std::atomic<uint64_t> hit_count{0};
  /// Monotonic timestamp (ns) of the last use, for eviction tie-breaks.
  std::atomic<int64_t> last_access_ns{0};

  // --- Cost/benefit ledger (EWMAs, alpha = kEwmaAlpha) ---------------------
  /// Smoothed end-to-end latency of serving a hit from this entry.
  std::atomic<double> ewma_hit_ms{0.0};
  /// Smoothed per-hit delta-compensation cost.
  std::atomic<double> ewma_delta_comp_ms{0.0};
  /// Smoothed cost of (re)building the entry on the main partitions.
  std::atomic<double> ewma_rebuild_ms{0.0};
  /// Smoothed delta rows scanned per compensation pass.
  std::atomic<double> ewma_delta_rows{0.0};
  /// Net milliseconds this entry has saved so far: per hit, the recorded
  /// main_exec_ms (what recomputing would have cost) minus the compensation
  /// actually paid. Can go negative for entries whose deltas outgrew them.
  std::atomic<double> saved_ms_total{0.0};
  /// Total delta rows scanned across all compensation passes.
  std::atomic<uint64_t> delta_rows_scanned{0};
  /// Smoothed hardware cost of serving a hit (orchestration-thread perf
  /// counters); 0 while the host cannot read counters — consumers treat 0
  /// as "not measured", same convention as the EWMAs above.
  std::atomic<double> ewma_hit_cycles{0.0};
  std::atomic<double> ewma_hit_llc_miss{0.0};

  /// Atomic add for the accumulated-time fields (C++20 fetch_add on atomic
  /// floating point).
  static void Add(std::atomic<double>& field, double delta) {
    field.fetch_add(delta, std::memory_order_relaxed);
  }

  /// Smoothing factor for the ledger EWMAs: heavy enough that one outlier
  /// compensation pass does not whipsaw eviction/admission inputs, light
  /// enough to follow a growing delta within ~10 uses.
  static constexpr double kEwmaAlpha = 0.2;

  /// Folds `sample` into an EWMA field with a CAS loop (concurrent hits
  /// update the same entry). The first sample seeds the average directly —
  /// 0.0 doubles as "no sample yet", which biases only pathological
  /// genuinely-zero-cost entries and spares a separate has-sample flag.
  static void Ewma(std::atomic<double>& field, double sample) {
    double current = field.load(std::memory_order_relaxed);
    double next;
    do {
      next = current == 0.0 ? sample
                            : current + kEwmaAlpha * (sample - current);
    } while (!field.compare_exchange_weak(current, next,
                                          std::memory_order_relaxed));
  }

  double AvgDeltaCompMs() const {
    uint64_t count = delta_comp_count.load(std::memory_order_relaxed);
    return count == 0 ? 0.0
                      : total_delta_comp_ms.load(std::memory_order_relaxed) /
                            static_cast<double>(count);
  }

  /// Estimated net benefit of keeping the entry: per-use savings (main
  /// execution avoided minus delta compensation paid) times observed uses,
  /// minus what maintenance has cost so far. Entries with higher profit
  /// survive eviction longer.
  double Profit() const {
    double per_use =
        main_exec_ms.load(std::memory_order_relaxed) - AvgDeltaCompMs();
    return per_use * static_cast<double>(
                         1 + hit_count.load(std::memory_order_relaxed)) -
           maintenance_ms.load(std::memory_order_relaxed);
  }
};

}  // namespace aggcache

#endif  // AGGCACHE_CACHE_CACHE_METRICS_H_
