#ifndef AGGCACHE_BENCH_HARNESS_H_
#define AGGCACHE_BENCH_HARNESS_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "aggcache/aggcache.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "bench/bench_report.h"

namespace aggcache {
namespace bench {

/// Parses a --threads=N flag (overriding the AGGCACHE_THREADS env var) and
/// sizes the global subjoin worker pool accordingly. Returns the applied
/// parallelism. Call first thing in main().
inline size_t ApplyThreadsFlag(int argc, char** argv) {
  constexpr const char* kPrefix = "--threads=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], kPrefix, std::strlen(kPrefix)) == 0) {
      const char* value = argv[i] + std::strlen(kPrefix);
      char* end = nullptr;
      long n = std::strtol(value, &end, 10);
      if (end != value && *end == '\0' && n >= 1) {
        ThreadPool::SetGlobalParallelism(n);
      } else {
        std::fprintf(stderr, "ignoring malformed %s\n", argv[i]);
      }
    }
  }
  return ThreadPool::Global().parallelism();
}

/// Runs `fn` once untimed (discarded warm-up — the first rep runs cold:
/// cache entries build, pool threads spin up, allocators touch fresh pages,
/// all of which skews low-rep medians) and then `reps` timed repetitions;
/// returns nearest-rank {p5, median, p95} wall-clock milliseconds. When
/// given, `before` runs untimed ahead of every call of `fn` (ColdMemo).
inline LatencyStats MeasureMs(int reps, const std::function<void()>& fn,
                              const std::function<void()>& before = {}) {
  if (reps < 1) {
    // An empty sample set would flow into SummarizeLatencies and silently
    // report all-zero latencies — which a perf gate would read as a huge
    // improvement. Fail loudly instead.
    std::fprintf(stderr, "FATAL MeasureMs: reps must be >= 1, got %d\n",
                 reps);
    std::abort();
  }
  if (before) before();
  fn();
  std::vector<double> times;
  times.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    if (before) before();
    Stopwatch watch;
    fn();
    times.push_back(watch.ElapsedMillis());
  }
  return SummarizeLatencies(std::move(times));
}

/// Aborts the benchmark on an unexpected error.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T CheckOk(StatusOr<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

/// A `before` for MeasureMs: rebuilds `query`'s cache entry, so the next
/// cached read starts from a cold delta memo and compensates every delta
/// row, the work the paper's figures time. A repeated read over an
/// unchanged delta would otherwise be answered by the memo alone.
inline std::function<void()> ColdMemo(AggregateCacheManager& cache,
                                      const AggregateQuery& query) {
  return [&cache, &query] {
    cache.Clear();
    CheckOk(cache.Prewarm(query), "prewarm");
  };
}

/// Fixed-width text table, printed in the style of the paper's figures:
/// one row per x-axis point, one column per series.
class ResultTable {
 public:
  explicit ResultTable(std::vector<std::string> columns)
      : columns_(std::move(columns)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      widths[c] = columns_[c].size();
      for (const auto& row : rows_) {
        if (c < row.size()) widths[c] = std::max(widths[c], row[c].size());
      }
    }
    auto print_row = [&](const std::vector<std::string>& cells) {
      for (size_t c = 0; c < columns_.size(); ++c) {
        std::printf("%-*s  ", static_cast<int>(widths[c]),
                    c < cells.size() ? cells[c].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(columns_);
    size_t total = 0;
    for (size_t w : widths) total += w + 2;
    std::printf("%s\n", std::string(total, '-').c_str());
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

inline void PrintBanner(const char* id, const char* title,
                        const char* paper_claim) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("paper: %s\n", paper_claim);
  std::printf("==============================================================\n");
}

inline std::string FormatMs(double ms) { return StrFormat("%.3f", ms); }
inline std::string FormatNorm(double v) { return StrFormat("%.3f", v); }

/// The four join execution strategies of Section 6.4, in display order.
struct StrategySpec {
  const char* label;
  ExecutionStrategy strategy;
  bool pushdown;
};

inline std::vector<StrategySpec> JoinStrategies() {
  return {
      {"uncached", ExecutionStrategy::kUncached, false},
      {"cached-no-pruning", ExecutionStrategy::kCachedNoPruning, false},
      {"cached-empty-delta", ExecutionStrategy::kCachedEmptyDeltaPruning,
       false},
      {"cached-full-pruning", ExecutionStrategy::kCachedFullPruning, false},
  };
}

}  // namespace bench
}  // namespace aggcache

#endif  // AGGCACHE_BENCH_HARNESS_H_
