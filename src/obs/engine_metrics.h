#ifndef AGGCACHE_OBS_ENGINE_METRICS_H_
#define AGGCACHE_OBS_ENGINE_METRICS_H_

#include "obs/metrics_registry.h"

namespace aggcache {

/// The engine's metric handles, registered once in the global
/// MetricsRegistry on first use. Instrumented code reaches metrics through
/// EngineMetrics::Get() — after the one-time registration that call is a
/// magic-static read and every update is a single relaxed atomic, so no
/// metric touch adds a lock acquisition to the cache-hit fast path.
///
/// Invariant maintained by the cache manager (asserted by the stress and
/// fuzz harnesses): cache_hits + cache_misses == cache_lookups. Every
/// consulted lookup is counted exactly once as a hit or a miss; error
/// returns mid-execution count as neither (the lookup is not counted).
struct EngineMetrics {
  // Cache manager.
  Counter* cache_lookups;            ///< Cached-strategy cache consultations.
  Counter* cache_hits;               ///< Lookups served from an entry.
  Counter* cache_misses;             ///< Everything else (built, rebuilt,
                                     ///< rejected, snapshot fallback).
  Counter* cache_singleflight_waits; ///< Lookups that parked on a build.
  Counter* cache_evictions;          ///< Entries evicted by budget/profit.
  Counter* cache_rebuilds;           ///< Entry (re)builds from the mains.
  Counter* cache_admission_rejects;  ///< Unprofitable or starved lookups.
  Counter* cache_uncached_fallbacks; ///< Cached lookups answered uncached.
  Histogram* cache_build_us;         ///< Entry (re)build latency.
  Histogram* cache_main_comp_us;     ///< Main compensation latency.
  Histogram* cache_delta_comp_us;    ///< Delta compensation latency.
  /// Delta-memo resets by reason (DESIGN.md §6c), indexed by MemoReset
  /// (cache/compensation.h); slot 0, "none", stays null. The registry has
  /// no series dimension, so the reason is part of each counter's name:
  /// aggcache_cache_memo_resets_<reason>_total.
  Counter* memo_resets[6];

  // Per-entry cost/benefit ledger, aggregated across entries (the per-entry
  // breakdown lives in AggregateCacheManager::LedgerJson() — per-entry
  // Prometheus series would be unbounded cardinality).
  Histogram* entry_hit_us;           ///< End-to-end cache-hit serve latency.
  Counter* entry_saved_us;           ///< Σ max(0, main_exec - compensation).
  Counter* entry_comp_overrun_us;    ///< Σ max(0, compensation - main_exec).
  Counter* entry_delta_rows;         ///< Delta rows scanned by compensation.

  // Executor.
  Counter* exec_subjoins;            ///< ExecuteSubjoin calls.
  Counter* exec_rows_scanned;
  Counter* exec_rows_selected;
  Counter* exec_tuples_joined;
  Counter* exec_selection_batches;   ///< 1024-row selection kernel blocks.
  Counter* exec_code_joins;          ///< Join levels run in code space.
  Counter* exec_packed_groupings;    ///< Aggregations with packed u64 keys.
  Counter* exec_fallback_groupings;  ///< Aggregations on materialized keys.

  // Object-aware pruner + pushdown.
  Counter* prune_considered;
  Counter* pruned_empty;
  Counter* pruned_aging;
  Counter* pruned_tid_range;
  Counter* pushdown_predicates;      ///< MD-derived filters attached.

  // Merge daemon.
  Counter* merge_ticks;
  Counter* merge_attempts;
  Counter* merge_commits;
  Counter* merge_aborts;
  Counter* merge_backoff_ms;         ///< Total retry backoff requested.

  // Thread pool.
  Gauge* pool_queue_depth;
  Counter* pool_tasks;
  Histogram* pool_task_us;           ///< Worker task run time.

  // Durability: write-ahead log.
  Counter* wal_appends;              ///< Records appended to the WAL.
  Counter* wal_bytes;                ///< WAL bytes written (framed).
  Counter* wal_syncs;                ///< fdatasync calls (group commits).
  Histogram* wal_sync_us;            ///< fdatasync latency.

  // Durability: checkpoints.
  Counter* checkpoints;              ///< Checkpoint segments published.
  Counter* checkpoints_skipped;      ///< Attempts skipped (scopes active).
  Histogram* checkpoint_us;          ///< End-to-end checkpoint latency.

  // Resource governance (src/runtime/): admission control.
  Counter* admission_admitted;       ///< Queries granted a run slot.
  Counter* admission_queue_waits;    ///< Admissions that waited in queue.
  Counter* admission_rejects_timeout;///< Shed after queue_timeout_ms.
  Counter* admission_rejects_capacity;///< Shed at arrival (queue full).
  Gauge* admission_running;          ///< Queries currently holding a slot.
  Histogram* admission_wait_us;      ///< Queue wait latency (admits+sheds).

  // Resource governance: query aborts and memory accounting.
  Counter* query_cancellations;      ///< Cancel() token aborts.
  Counter* query_deadline_aborts;    ///< Deadline expiries at check points.
  Counter* query_mem_aborts;         ///< Refused memory charges.
  Gauge* mem_reserved_bytes;         ///< Process tracker current bytes.
  Gauge* mem_reserved_hwm_bytes;     ///< Process tracker high water.

  // Resource governance: degradation ladder.
  Counter* degraded_flips;           ///< Degraded-mode transitions.
  Gauge* degraded_mode;              ///< 1 while under memory pressure.
  Counter* mem_pressure_rejects;     ///< Cache builds refused by pressure.
  Counter* merge_pressure_yields;    ///< Merge-daemon ticks yielded.

  // Durability: recovery.
  Counter* recovery_replayed;        ///< WAL records replayed at startup.
  Counter* recovery_discarded_scopes;///< Uncommitted scopes rolled back.
  Counter* recovery_warm_admissions; ///< Cache entries re-admitted warm.
  Histogram* recovery_replay_us;     ///< WAL tail replay latency.

  // Live introspection (src/obs/active_queries, perf_counters, slow_log).
  Gauge* active_queries;             ///< Queries registered right now.
  Counter* query_registrations;      ///< Active-query registry entries ever.
  Counter* remote_cancellations;     ///< Cancels via registry/HTTP endpoint.
  Gauge* perf_counters_unavailable;  ///< 1 once perf_event_open was denied.
  Counter* slow_queries;             ///< Queries over AGGCACHE_SLOW_QUERY_MS.

  /// The process-wide handles (registered in MetricsRegistry::Global()).
  static const EngineMetrics& Get();
};

}  // namespace aggcache

#endif  // AGGCACHE_OBS_ENGINE_METRICS_H_
