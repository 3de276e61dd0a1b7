#ifndef AGGCACHE_CACHE_AGGREGATE_CACHE_MANAGER_H_
#define AGGCACHE_CACHE_AGGREGATE_CACHE_MANAGER_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/cache_entry.h"
#include "cache/compensation.h"
#include "objectaware/join_pruning.h"
#include "obs/query_trace.h"
#include "query/executor.h"
#include "storage/checkpoint.h"
#include "storage/database.h"
#include "storage/merge_observer.h"

namespace aggcache {

/// How a query is executed — the four strategies compared throughout the
/// paper's Section 6 experiments.
enum class ExecutionStrategy : uint8_t {
  /// No cache: union of every partition subjoin (Section 2.3.1).
  kUncached = 0,
  /// Cache the all-main result; execute every compensation subjoin.
  kCachedNoPruning = 1,
  /// Cache + skip compensation subjoins containing an empty partition.
  kCachedEmptyDeltaPruning = 2,
  /// Cache + empty, aging-group, and MD tid-range pruning (Section 5.1).
  kCachedFullPruning = 3,
};

const char* ExecutionStrategyToString(ExecutionStrategy strategy);

/// Outcome and work of one Execute call (ExecutionOptions::stats).
struct CacheExecStats {
  bool used_cache = false;
  bool cache_hit = false;
  bool entry_created = false;
  bool entry_rebuilt = false;
  /// Subjoins this call ran: entry build, main correction joins, delta
  /// compensation, or the uncached union.
  uint64_t subjoins_executed = 0;
  uint64_t subjoins_pruned = 0;
  double main_exec_ms = 0.0;         ///< Entry build time (on miss).
  double main_comp_ms = 0.0;         ///< Main compensation time.
  double delta_comp_ms = 0.0;        ///< Delta compensation time.
};

/// Per-call knobs and outputs for AggregateCacheManager::Execute. The two
/// outputs are per call and thread-safe: the engine writes them only on the
/// calling thread and only during that call, so concurrent calls, each
/// with its own outputs, never see each other's numbers.
struct ExecutionOptions {
  ExecutionStrategy strategy = ExecutionStrategy::kCachedFullPruning;
  /// Apply MD-derived local predicates to non-pruned subjoins
  /// (Section 5.3).
  bool use_predicate_pushdown = false;
  /// When set, receives this call's outcome and work counters (reset at
  /// the start of the call).
  CacheExecStats* stats = nullptr;
  /// When set, receives this call's structured trace: lookup outcome,
  /// subjoin verdicts with tid ranges, phase timings and governance — what
  /// EXPLAIN AGGREGATE renders. Its statement defaults to the canonical
  /// cache key when left empty.
  QueryTrace* trace = nullptr;
};

/// The aggregate cache manager (Fig. 1/3 of the paper): dynamically caches
/// aggregate query results computed on main partitions, answers queries by
/// main + delta compensation, maintains entries incrementally during delta
/// merges, and manages admission/eviction by profit.
///
/// Threading model (DESIGN.md §6): Execute is safe from any number of
/// threads. Each call takes shared table locks + an epoch pin (ReadView)
/// for its whole duration, so the snapshot it computes over is frozen.
/// The entry map is striped across shards; concurrent misses on one key
/// are single-flight (one creator builds, the rest wait on the entry's
/// state machine); per-entry values are guarded by a reader-writer lock;
/// eviction claims only kReady entries and never frees memory a reader
/// still references (entries are shared_ptr-owned). Merge-time maintenance
/// runs under the merge's table locks, which exclude every reader of the
/// affected tables. Register it as a merge observer (done in the
/// constructor) so merges keep entries consistent.
class AggregateCacheManager : public MergeObserver,
                              public CacheDescriptorSource {
 public:
  struct Config {
    /// Maximum number of entries; 0 = unlimited.
    size_t max_entries = 64;
    /// Maximum total bytes across entries; 0 = unlimited.
    size_t max_bytes = 256 << 20;
    /// Entries whose build time is below this are not admitted (cheap
    /// aggregates are not worth caching). 0 admits everything, which the
    /// benchmarks rely on for determinism.
    double min_main_exec_ms = 0.0;
    /// Compensate main-partition invalidations of join entries
    /// incrementally via negative-delta correction joins (this library's
    /// implementation of the paper's Section 8 future work). When false,
    /// a dirty join entry is rebuilt from scratch instead.
    bool incremental_join_main_compensation = true;
  };

  explicit AggregateCacheManager(Database* db)
      : AggregateCacheManager(db, Config()) {}
  AggregateCacheManager(Database* db, Config config);
  ~AggregateCacheManager() override;

  AggregateCacheManager(const AggregateCacheManager&) = delete;
  AggregateCacheManager& operator=(const AggregateCacheManager&) = delete;

  /// Executes `query` under `txn`'s snapshot with the chosen strategy,
  /// returning the consistent result. Cached strategies fall back to
  /// uncached execution when the query does not qualify for the cache
  /// (non-self-maintainable aggregates), when admission rejects it, or
  /// when the caller's snapshot is older than the entry's base (the cache
  /// only compensates forward in time).
  StatusOr<AggregateResult> Execute(const AggregateQuery& query,
                                    const Transaction& txn,
                                    const ExecutionOptions& options =
                                        ExecutionOptions());

  /// Builds (or refreshes) the cache entry for `query` without computing a
  /// full result, e.g. to warm the cache before a benchmark.
  Status Prewarm(const AggregateQuery& query);

  /// Entry lookup for inspection; nullptr when absent. Single-threaded use
  /// only: the pointer is not lifetime-protected against concurrent
  /// eviction.
  const CacheEntry* Find(const AggregateQuery& query) const;

  size_t num_entries() const;
  /// The running byte total maintained on insert, erase, and size refresh;
  /// asserted against RecomputeTotalBytes() in debug builds.
  size_t total_bytes() const;
  /// O(entries) recomputation from per-entry metrics, for debug assertions
  /// and tests of the running total.
  size_t RecomputeTotalBytes() const;
  void Clear();

  /// One resident entry's row in the cost/benefit ledger: the observed
  /// economics (EWMA hit latency, compensation and rebuild cost, delta
  /// volume, net ms saved) that admission/eviction/merge-scheduling
  /// policies consume. Values are relaxed snapshots of the entry's atomics.
  struct LedgerEntry {
    std::string query;        ///< Canonical cache key.
    uint64_t hits = 0;
    size_t size_bytes = 0;
    double main_exec_ms = 0;  ///< Recorded build cost (what a hit saves).
    double ewma_hit_ms = 0;
    double ewma_delta_comp_ms = 0;
    double ewma_rebuild_ms = 0;
    double ewma_delta_rows = 0;
    uint64_t delta_rows_scanned = 0;
    double saved_ms_total = 0;
    double profit = 0;        ///< CacheEntryMetrics::Profit().
    /// Hardware cost of serving a hit (orchestration-thread counters);
    /// 0 = not measured (perf counters unavailable on this host).
    double ewma_hit_cycles = 0;
    double ewma_hit_llc_miss = 0;
  };

  /// The ledger, sorted by saved_ms_total descending (biggest winners
  /// first; net-loss entries at the bottom).
  std::vector<LedgerEntry> LedgerSnapshot() const;
  /// Ledger as JSON: {"schema":"aggcache-ledger-v1","entries":[...]}.
  std::string LedgerJson() const;
  /// Human-readable top-N ledger table (shell `\cache`).
  std::string LedgerText(size_t top_n = 10) const;

  /// True while the manager refuses new builds under memory pressure.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }

  /// Cumulative pruning statistics across all cached executions.
  PruneStats prune_stats() const;
  void ResetPruneStats();

  // CacheDescriptorSource: cache-entry descriptors (key + snapshot tid +
  // profit stats, no payload) persisted into checkpoints so a restarted
  // engine knows which aggregates were worth caching.
  std::vector<CacheDescriptor> ExportCacheDescriptors() const override;

  /// Seeds the warm-restart map with descriptors recovered from the last
  /// checkpoint. The next miss on a warm query bypasses the min-exec-ms
  /// admission gate and inherits the descriptor's hit count — lazy
  /// revalidation: the entry's value is always rebuilt from current data
  /// (the persisted base tid only tells us the descriptor predates the
  /// restart), so a stale snapshot tid can never serve stale rows.
  void ImportWarmDescriptors(std::vector<CacheDescriptor> descriptors);

  /// Warm descriptors not yet consumed by a re-admission.
  size_t warm_descriptors_pending() const;

  // MergeObserver: incremental maintenance during the delta merge
  // (Section 5.2). Called with the merge's table locks held — exclusive on
  // the merging table, shared on all others — so no reader of the affected
  // entries can be in flight.
  void OnBeforeMerge(Table& table, size_t group_index,
                     const Snapshot& snapshot) override;
  void OnAfterMerge(Table& table, size_t group_index,
                    const Snapshot& snapshot) override;
  void OnMergeAborted(Table& table, size_t group_index) override;

 private:
  /// Entry-map stripe: an independent mutex + hash map so concurrent
  /// lookups on different keys rarely contend.
  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<CacheKey, std::shared_ptr<CacheEntry>, CacheKeyHash>
        entries;
  };
  static constexpr size_t kNumShards = 16;

  Shard& ShardFor(const CacheKey& key) const;

  /// Body of Execute, after admission; accumulates into `stats` and the
  /// caller-local `prune_acc`, which Execute publishes at the end. `key` is
  /// the query's cache key, rendered once per call. `perf_begin` is the
  /// hardware-counter reading Execute took at entry ({valid=false} when
  /// counters are unavailable) — the cache-hit path differences it to feed
  /// the ledger's hardware EWMAs.
  StatusOr<AggregateResult> ExecuteInternal(const AggregateQuery& query,
                                            const CacheKey& key,
                                            const Transaction& txn,
                                            const ExecutionOptions& options,
                                            const PerfDelta& perf_begin,
                                            CacheExecStats* stats,
                                            PruneStats* prune_acc);

  /// Returns the entry for the bound query (whose cache key is `key`),
  /// building it on a miss with single-flight semantics; a new entry keeps
  /// a copy of `bound` for life. Returns nullptr
  /// when the admission policy rejects the aggregate or repeated evictions
  /// starve this caller (the caller then answers uncached).
  StatusOr<std::shared_ptr<CacheEntry>> GetOrCreateEntry(
      const BoundQuery& bound, const CacheKey& key, Snapshot snapshot,
      CacheExecStats* stats);

  /// Recomputes all main partials and snapshots under `snapshot`, adding
  /// its subjoins and build time to `stats` when given. This and the
  /// maintenance functions below read the entry's own binding
  /// (CacheEntry::bound()). Caller holds the entry's value lock
  /// exclusively.
  Status RebuildEntry(CacheEntry& entry, Snapshot snapshot,
                      CacheExecStats* stats);

  /// Applies pending main-partition invalidations to the entry through
  /// IncrementalMainCompensate, or — for join entries when the config turns
  /// incremental join compensation off — through a full rebuild. Caller
  /// holds the entry's value lock exclusively.
  Status MainCompensate(CacheEntry& entry, Snapshot snapshot,
                        CacheExecStats* stats);

  /// Incremental main compensation (Section 2.2): the bit-vector diff of
  /// each dirty main partition yields its invalidated ("negative delta")
  /// rows N_i. Expanding the cached all-main join over per-table
  /// entry-visible rows V_i = C_i + N_i (current rows plus rows invalidated
  /// since the snapshot) gives
  ///
  ///   prod V_i  =  sum over subsets S of join(N_i for i in S, C_j else),
  ///
  /// so the up-to-date result prod C_i is the cached value minus every
  /// correction join with at least one table restricted to its N_i. The N_i
  /// sets are tiny, so each correction is cheap — for join entries this
  /// realizes the paper's Section 8 proposal. A single-table entry is the
  /// one-table case: one correction per dirty group, over its N_i alone.
  Status IncrementalMainCompensate(CacheEntry& entry, Snapshot snapshot,
                                   CacheExecStats* stats);

  void RefreshSnapshots(CacheEntry& entry, Snapshot snapshot);

  /// Stamps the entry's recency for eviction tie-breaks; GetOrCreateEntry
  /// calls it once per lookup that returns an entry.
  void TouchEntry(CacheEntry& entry);
  void EvictIfNeeded(const CacheEntry* keep = nullptr);

  /// Runs `change`, which may change the entry's size_bytes, with the
  /// entry's bytes taken out of the running total and put back after
  /// (while they are accounted; see CacheEntry::bytes_accounted). Holds
  /// bytes_mu_ throughout.
  void ResizeEntry(CacheEntry& entry, const std::function<void()>& change);

  /// Publishes the entry's main result and refreshes its size_bytes
  /// (CacheEntry::PublishMainResult) through ResizeEntry. Called under the
  /// exclusive value lock after every change to the partials or snapshots.
  void PublishEntry(CacheEntry& entry);

  /// Drops the entry's delta memo for `reason` (a merge or a rebuild),
  /// counting the reset when there was one.
  void DropDeltaMemo(CacheEntry& entry, MemoReset reason);

  /// Publishes the memo `comp` carries in place of `expected` (the memo the
  /// read started from) when that is still published, and counts the
  /// read's memo reset, if any. Needs no value lock: a read that lost the
  /// race to a concurrent publisher just drops its memo.
  void PublishDeltaMemo(CacheEntry& entry, const DeltaMemo* expected,
                        const DeltaCompensation& comp);

  /// The one place an entry's bytes enter or leave total_bytes_ and the
  /// Cache() memory tracker: sets entry.bytes_accounted to `accounted`,
  /// adding or removing its size_bytes when the flag flips. Caller holds
  /// bytes_mu_.
  void SetBytesAccountedLocked(CacheEntry& entry, bool accounted);

  /// Removes `entry` from its shard if still resident (deaccounting its
  /// bytes) — used when a build fails or admission rejects it.
  void RemoveEntry(const std::shared_ptr<CacheEntry>& entry);

  /// All resident entries, for merge-time maintenance sweeps.
  std::vector<std::shared_ptr<CacheEntry>> SnapshotEntries() const;

  /// Records a failed merge-time maintenance attempt: the entry is marked
  /// for rebuild on next access instead of crashing the process.
  void RecordMaintenanceFailure(CacheEntry& entry, const Status& status);

  /// Debug-build consistency check of the running byte total; the caller
  /// must hold every shard mutex.
  void AssertByteAccountingLocked() const;

  /// Latches the observed process-memory-pressure state into the degraded
  /// flag, bumping the flip metric + flight event on each transition. While
  /// degraded, GetOrCreateEntry refuses new builds (queries stream
  /// uncached) and eviction runs below the configured budget.
  void UpdateDegradedMode(bool under_pressure);

  Database* db_;
  Config config_;
  Executor executor_;
  Shard shards_[kNumShards];
  /// Guards total_bytes_ and every entry's bytes_accounted flag.
  mutable std::mutex bytes_mu_;
  /// Sum of metrics().size_bytes over accounted entries, maintained
  /// incrementally so eviction decisions are O(1) instead of O(entries).
  size_t total_bytes_ = 0;
  /// Guards prune_stats_.
  mutable std::mutex stats_mu_;
  PruneStats prune_stats_;
  std::atomic<int64_t> access_clock_{0};
  /// True while the process tracker reports memory pressure (degraded
  /// mode): new builds are refused and eviction frees headroom.
  std::atomic<bool> degraded_{false};
  /// Warm-restart descriptors keyed by canonical query string, consumed on
  /// first miss of the matching query.
  mutable std::mutex warm_mu_;
  std::unordered_map<std::string, CacheDescriptor> warm_descriptors_;
};

}  // namespace aggcache

#endif  // AGGCACHE_CACHE_AGGREGATE_CACHE_MANAGER_H_
