#ifndef AGGCACHE_OBS_SPAN_H_
#define AGGCACHE_OBS_SPAN_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/event_ring.h"
#include "obs/perf_counters.h"

namespace aggcache {

/// Span taxonomy: every timed region a query (or a background job) passes
/// through. Where the flight recorder answers "what was the engine doing",
/// spans answer "where did *this* query's latency go" — each span carries a
/// parent id, so a dump reconstructs the full causal tree: query root →
/// admission wait → lookup → build/compensation → individual subjoin tasks,
/// plus root spans for the background machinery (merges, checkpoints, WAL
/// group-commit syncs, recovery replay). Kept in one enum so the name
/// table, DESIGN.md §7 and the golden schema test stay trivially in sync.
enum class SpanKind : uint8_t {
  kQuery = 0,          ///< Root span: one cache-manager Execute() call.
  kAdmissionWait,      ///< Waiting on the admission controller.
  kCacheLookup,        ///< Bind + shard probe + entry resolution.
  kSingleFlightWait,   ///< Blocked on another thread's in-flight build.
  kEntryBuild,         ///< Main-partition aggregate build (cache miss).
  kMainCorrection,     ///< Visibility correction of the cached main image.
  kDeltaCompensation,  ///< Delta-side compensation subjoins.
  kUncachedExec,       ///< Full recompute (uncached / fallback path).
  kSubjoinTask,        ///< One parallel subjoin task (worker thread).
  kMerge,              ///< Merge-daemon delta merge (background root).
  kCheckpoint,         ///< Checkpoint write (background root).
  kWalSync,            ///< WAL group-commit fdatasync (background root).
  kRecoveryReplay,     ///< WAL replay during restart (background root).
};

/// Span-kind name used in JSON dumps (stable contract, golden-tested).
const char* SpanKindToString(SpanKind kind);

/// Cross-thread parent handle: enough to reconstruct "this work belongs to
/// that query, under that span" on a worker thread. A default-constructed
/// link is unsampled and makes every span constructed from it a no-op, so
/// fan-out sites capture one unconditionally (same discipline as the
/// QueryContext* they already thread through ParallelFor).
struct SpanLink {
  uint64_t query_id = 0;
  uint64_t span_id = 0;
  bool sampled() const { return query_id != 0; }
};

/// A bounded, lock-free span recorder: the flight recorder's tracing twin,
/// on the same ring (obs/event_ring.h). Recording one finished span costs a
/// handful of relaxed atomics plus two steady_clock reads — well under the
/// ≲50 ns/span budget the hot paths can absorb. Wraparound keeps the recent
/// past; spans are only *lost* (counted) when more threads record than
/// there are segments.
///
/// Spans are written once, at END: the RAII wrappers below hold the start
/// timestamp and ids on the stack and publish a single slot on destruction,
/// so an unfinished span costs nothing and can never tear.
///
/// Disabled (the default — AGGCACHE_SPANS unset) the whole layer is one
/// relaxed load per would-be span. `sample=N` records every Nth query's
/// tree; background spans ignore sampling (they are rare and load-bearing).
class SpanRecorder {
 public:
  struct Options {
    /// Spans per thread segment; rounded up to a power of two.
    size_t spans_per_segment = 4096;
    /// Maximum simultaneously-recording threads.
    size_t max_segments = 64;
    bool enabled = false;
    /// Record every Nth query tree (1 = every query).
    uint64_t sample_every = 1;
  };

  explicit SpanRecorder(Options options);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// The process-wide recorder, configured from AGGCACHE_SPANS
  /// ("off" | "on" | "on,sample=16" | "sample=16,spans=8192,threads=32")
  /// on first use and intentionally leaked so worker threads may record
  /// during static teardown. The AGGCACHE_CHECK failure hook (owned by the
  /// flight recorder) dumps this recorder too when it is enabled.
  static SpanRecorder& Global();

  /// Records one finished span. Timestamps are microseconds on the
  /// recorder's own clock (see NowMicros()); `detail` is truncated to
  /// 15 bytes. The trailing hardware-counter deltas are optional (0 = not
  /// measured) — Phase attaches them to its span when the host can read
  /// perf counters.
  void Record(SpanKind kind, uint64_t span_id, uint64_t parent_id,
              uint64_t query_id, uint64_t start_us, uint64_t end_us,
              const char* detail = nullptr, uint64_t cycles = 0,
              uint64_t instructions = 0, uint64_t llc_misses = 0);

  void set_enabled(bool enabled) { ring_.set_enabled(enabled); }
  bool enabled() const { return ring_.enabled(); }
  uint64_t sample_every() const { return sample_every_; }

  /// Microseconds since recorder construction, on the precise monotonic
  /// clock (spans measure durations, so unlike flight events they cannot
  /// use the coarse jiffy clock).
  uint64_t NowMicros() const;
  /// The same clock at an already-taken steady_clock reading (nanoseconds
  /// since the steady epoch), so a span can reuse its owner's reading.
  uint64_t MicrosAt(int64_t steady_ns) const;

  /// Process-unique ids. Query ids double as Chrome-trace "pid" lanes, so
  /// background roots draw from the same counter as query roots.
  uint64_t NextSpanId() {
    return next_span_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  uint64_t NextQueryId() {
    return next_query_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  /// Sampling tick for query roots: true when this query's tree should be
  /// recorded.
  bool SampleTick();

  /// Spans dropped because every segment was leased by another thread.
  uint64_t lost_spans() const { return ring_.lost(); }
  /// Spans successfully recorded (including ones since overwritten).
  uint64_t recorded_spans() const { return ring_.recorded(); }

  /// One harvested span, already validated (sequence stable across the
  /// payload read).
  struct Span {
    uint64_t seq = 0;
    uint64_t start_us = 0;  ///< microseconds since recorder construction
    uint64_t dur_us = 0;
    uint32_t thread = 0;
    SpanKind kind = SpanKind::kQuery;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;  ///< 0 for roots
    uint64_t query_id = 0;   ///< 0 only for manually recorded orphans
    char detail[16] = {};
    /// Hardware-counter deltas for the span's region; all zero when the
    /// region was not measured (counters unavailable, or no consumer).
    uint64_t cycles = 0;
    uint64_t instructions = 0;
    uint64_t llc_misses = 0;
  };

  /// Harvests up to `max_spans` of the most recent spans, oldest first
  /// (global sequence order).
  std::vector<Span> Collect(size_t max_spans = SIZE_MAX) const;

  /// Renders the last `max_spans` spans as a Chrome-trace / Perfetto
  /// loadable JSON object:
  ///   {"schema":"aggcache-spans-v1","recorded":N,"lost":N,
  ///    "displayTimeUnit":"ms","traceEvents":[
  ///      {"name":"query","cat":"aggcache","ph":"X","ts":..,"dur":..,
  ///       "pid":<query id>,"tid":<thread>,
  ///       "args":{"id":..,"parent":..,"detail":".."}}, ...]}
  std::string DumpJson(size_t max_spans = 8192) const;

  /// Writes DumpJson(max_spans) to stderr with a banner. Safe to call from
  /// the CHECK-failure path (allocates, so not async-signal-safe).
  void DumpToStderr(size_t max_spans = 8192) const;

  /// Number of segments currently leased (tests).
  size_t active_segments() const { return ring_.active_segments(); }

 private:
  /// Payload words: start_us, dur_us, kind, span_id, parent_id, query_id,
  /// cycles, instructions, llc_misses, detail[2].
  using Ring = EventRing<11>;
  Ring ring_;
  const uint64_t sample_every_;
  uint64_t t0_us_ = 0;
  std::atomic<uint64_t> next_span_id_{0};
  std::atomic<uint64_t> next_query_id_{0};
  std::atomic<uint64_t> sample_tick_{0};
};

/// The innermost active span on this thread, or an unsampled link. Capture
/// this before a ParallelFor fan-out and hand it to the worker-side
/// ScopedSpan, exactly as QueryContext::Current() is captured for
/// ScopedQueryContext.
SpanLink CurrentSpanLink();

/// RAII child span: begins at construction, publishes one slot at
/// destruction. The thread-current link is saved/restored around the
/// span's lifetime so nested spans chain correctly. Both constructors are
/// no-ops (a relaxed load) when the recorder is disabled or the parent is
/// unsampled.
class ScopedSpan {
 public:
  /// Child of the thread-current span (no-op when there is none).
  explicit ScopedSpan(SpanKind kind, const char* detail = nullptr);
  /// Cross-thread child of `parent` — the ParallelFor fan-out form.
  ScopedSpan(SpanKind kind, const SpanLink& parent,
             const char* detail = nullptr);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  bool active() const { return active_; }
  SpanLink link() const { return SpanLink{query_id_, span_id_}; }

 private:
  void Begin(SpanKind kind, uint64_t query_id, uint64_t parent_id,
             const char* detail);
  bool active_ = false;
  SpanKind kind_ = SpanKind::kQuery;
  uint64_t query_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t parent_id_ = 0;
  uint64_t start_us_ = 0;
  SpanLink saved_;
  bool installed_ = false;
  char detail_[16] = {};
};

/// One phase of a query execution (admission wait, cache lookup, entry
/// build, main correction, delta compensation, uncached exec), measured
/// once: one steady-clock reading when it begins and one when it ends.
/// Every consumer reads that single measurement:
///   - the child span of the thread-current span, published from the two
///     readings (when the recorder is on and the query is sampled);
///   - the phase's hardware-counter delta, sampled only when an EXPLAIN
///     trace or the live span will consume it, into
///     QueryTrace::perf_phases and the span's args{ipc, llc_miss};
///   - the calling query's /queries phase name, set when the phase begins;
///   - elapsed_ms() / elapsed_us(), which CacheExecStats, QueryTrace, the
///     entry ledger's EWMAs and the cache_*_us histograms record.
/// End() closes the phase while still in scope so the caller can read the
/// duration; the destructor closes a phase left open (error returns).
class Phase {
 public:
  explicit Phase(SpanKind kind);
  ~Phase() { End(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  /// Takes the end reading and publishes the span and perf delta. Only the
  /// first call acts.
  void End();

  /// Duration between the two readings; 0 while the phase is open.
  double elapsed_ms() const { return static_cast<double>(elapsed_ns_) / 1e6; }
  uint64_t elapsed_us() const {
    return static_cast<uint64_t>(elapsed_ns_) / 1000;
  }

 private:
  SpanKind kind_;
  bool open_ = true;
  int64_t begin_ns_ = 0;
  int64_t elapsed_ns_ = 0;
  /// The span's parent and own id; span_id_ == 0 when no span records.
  SpanLink parent_;
  uint64_t span_id_ = 0;
  bool perf_armed_ = false;
  PerfDelta perf_begin_;
};

/// RAII root span for one query: applies the sampling knob, allocates the
/// query id (the Chrome-trace "pid" lane) and installs itself as the
/// thread-current span so every Phase and ScopedSpan beneath it chains in.
/// Like Phase it takes one steady-clock reading at each end — always, as
/// the query's end-to-end time (EXPLAIN's total, the slow-query log) is
/// read from them whether or not the span records.
class QueryRootSpan {
 public:
  explicit QueryRootSpan(const char* detail = nullptr);
  ~QueryRootSpan() { End(); }
  QueryRootSpan(const QueryRootSpan&) = delete;
  QueryRootSpan& operator=(const QueryRootSpan&) = delete;

  /// Takes the end reading and publishes the root span. Only the first
  /// call acts.
  void End();

  bool active() const { return active_; }
  SpanLink link() const { return SpanLink{query_id_, span_id_}; }
  /// Duration between the two readings; 0 while the root is open.
  double elapsed_ms() const { return static_cast<double>(elapsed_ns_) / 1e6; }

 private:
  bool active_ = false;
  bool open_ = true;
  int64_t begin_ns_ = 0;
  int64_t elapsed_ns_ = 0;
  uint64_t query_id_ = 0;
  uint64_t span_id_ = 0;
  SpanLink saved_;
  char detail_[16] = {};
};

/// RAII root span for background work (merge, checkpoint, WAL sync,
/// recovery replay). Ignores sampling — background spans are rare and a
/// trace without them cannot explain tail latency. Gets its own query-id
/// lane and installs itself thread-current, so e.g. maintenance rebuilds
/// triggered by a merge become children of the merge span.
class BackgroundSpan {
 public:
  explicit BackgroundSpan(SpanKind kind, const char* detail = nullptr);
  ~BackgroundSpan();
  BackgroundSpan(const BackgroundSpan&) = delete;
  BackgroundSpan& operator=(const BackgroundSpan&) = delete;

  bool active() const { return active_; }

 private:
  bool active_ = false;
  SpanKind kind_ = SpanKind::kMerge;
  uint64_t query_id_ = 0;
  uint64_t span_id_ = 0;
  uint64_t start_us_ = 0;
  SpanLink saved_;
  char detail_[16] = {};
};

/// Records an already-elapsed region [start_us, now] as a child of the
/// thread-current span — for conditionally interesting waits (e.g. the
/// single-flight wait, only recorded when the entry was actually building).
/// `start_us` comes from SpanRecorder::Global().NowMicros().
void RecordSpanSince(SpanKind kind, uint64_t start_us,
                     const char* detail = nullptr);

/// Dumps the global recorder to stderr if it exists and is enabled. Called
/// from the flight recorder's AGGCACHE_CHECK failure hook (there is one
/// hook slot; the flight recorder owns it and chains to this).
void DumpSpansOnCheckFailureIfEnabled();

}  // namespace aggcache

#endif  // AGGCACHE_OBS_SPAN_H_
