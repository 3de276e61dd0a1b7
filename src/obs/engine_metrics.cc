#include "obs/engine_metrics.h"

#include <iterator>
#include <string>

#include "obs/build_info.h"

namespace aggcache {

const EngineMetrics& EngineMetrics::Get() {
  static const EngineMetrics* metrics = [] {
    MetricsRegistry& r = MetricsRegistry::Global();
    auto* m = new EngineMetrics();

    m->cache_lookups = r.GetCounter(
        "aggcache_cache_lookups_total",
        "Cache consultations by cached-strategy executions");
    m->cache_hits = r.GetCounter(
        "aggcache_cache_hits_total",
        "Cache lookups served from an existing entry");
    m->cache_misses = r.GetCounter(
        "aggcache_cache_misses_total",
        "Cache lookups not served from an existing entry (entry built or "
        "rebuilt, admission rejected, or snapshot fallback)");
    m->cache_singleflight_waits = r.GetCounter(
        "aggcache_cache_singleflight_waits_total",
        "Cache lookups that waited on another thread's in-flight build");
    m->cache_evictions = r.GetCounter(
        "aggcache_cache_evictions_total",
        "Entries evicted by the profit-based budget policy");
    m->cache_rebuilds = r.GetCounter(
        "aggcache_cache_rebuilds_total",
        "Entry builds and rebuilds from the main partitions");
    m->cache_admission_rejects = r.GetCounter(
        "aggcache_cache_admission_rejects_total",
        "Lookups whose entry was not admitted (unprofitable) or whose "
        "caller was starved by repeated eviction");
    m->cache_uncached_fallbacks = r.GetCounter(
        "aggcache_cache_uncached_fallbacks_total",
        "Cached-strategy lookups answered by uncached execution");
    m->cache_build_us = r.GetHistogram(
        "aggcache_cache_build_us",
        "Entry (re)build latency in microseconds");
    m->cache_main_comp_us = r.GetHistogram(
        "aggcache_cache_main_comp_us",
        "Main compensation latency in microseconds");
    m->cache_delta_comp_us = r.GetHistogram(
        "aggcache_cache_delta_comp_us",
        "Delta compensation latency in microseconds");
    // In MemoReset order.
    const char* memo_reset_reasons[] = {nullptr,  "invalidation",
                                        "merge",  "rebuild",
                                        "older_snapshot", "unstable_rows"};
    for (size_t i = 1; i < std::size(memo_reset_reasons); ++i) {
      m->memo_resets[i] = r.GetCounter(
          std::string("aggcache_cache_memo_resets_") + memo_reset_reasons[i] +
              "_total",
          std::string("Delta-memo resets for reason '") +
              memo_reset_reasons[i] + "'");
    }
    m->memo_resets[0] = nullptr;

    m->entry_hit_us = r.GetHistogram(
        "aggcache_entry_hit_us",
        "End-to-end latency of serving a cache hit, in microseconds");
    m->entry_saved_us = r.GetCounter(
        "aggcache_entry_saved_us_total",
        "Microseconds saved by cache hits: recorded main execution cost "
        "minus compensation paid, positive part");
    m->entry_comp_overrun_us = r.GetCounter(
        "aggcache_entry_comp_overrun_us_total",
        "Microseconds where compensation exceeded the recorded main "
        "execution cost (hits that were net losses)");
    m->entry_delta_rows = r.GetCounter(
        "aggcache_entry_delta_rows_total",
        "Delta rows scanned by compensation passes on cache hits");

    m->exec_subjoins = r.GetCounter(
        "aggcache_executor_subjoins_executed_total",
        "Subjoin executions (compensation, uncached union terms, builds, "
        "correction joins, merge folds)");
    m->exec_rows_scanned = r.GetCounter(
        "aggcache_executor_rows_scanned_total",
        "Rows visited by subjoin selections");
    m->exec_rows_selected = r.GetCounter(
        "aggcache_executor_rows_selected_total",
        "Rows surviving visibility and filters");
    m->exec_tuples_joined = r.GetCounter(
        "aggcache_executor_tuples_joined_total",
        "Joined tuples fed into aggregation");
    m->exec_selection_batches = r.GetCounter(
        "aggcache_executor_selection_batches_total",
        "1024-row blocks processed by the batched selection kernels");
    m->exec_code_joins = r.GetCounter(
        "aggcache_executor_code_joins_total",
        "Join levels executed through the code-space hash table");
    m->exec_packed_groupings = r.GetCounter(
        "aggcache_executor_packed_groupings_total",
        "Aggregations whose group-by codes packed into one 64-bit key");
    m->exec_fallback_groupings = r.GetCounter(
        "aggcache_executor_fallback_groupings_total",
        "Aggregations that fell back to materialized group keys");

    m->prune_considered = r.GetCounter(
        "aggcache_pruner_considered_total",
        "Subjoin combinations tested by the join pruner");
    m->pruned_empty = r.GetCounter(
        "aggcache_pruner_pruned_empty_total",
        "Combinations pruned for an empty partition");
    m->pruned_aging = r.GetCounter(
        "aggcache_pruner_pruned_aging_total",
        "Combinations pruned by consistent aging groups (Section 5.4)");
    m->pruned_tid_range = r.GetCounter(
        "aggcache_pruner_pruned_tid_range_total",
        "Combinations pruned by the MD tid-range prefilter (Eq. 5)");
    m->pushdown_predicates = r.GetCounter(
        "aggcache_pushdown_predicates_total",
        "MD-derived local predicates attached to subjoins (Section 5.3)");

    m->merge_ticks = r.GetCounter(
        "aggcache_merge_daemon_ticks_total",
        "Merge daemon delta-sizing passes");
    m->merge_attempts = r.GetCounter(
        "aggcache_merge_daemon_attempts_total",
        "Group merges started (including retries)");
    m->merge_commits = r.GetCounter(
        "aggcache_merge_daemon_commits_total",
        "Group merges committed");
    m->merge_aborts = r.GetCounter(
        "aggcache_merge_daemon_aborts_total",
        "Group merges aborted (fault or error)");
    m->merge_backoff_ms = r.GetCounter(
        "aggcache_merge_daemon_backoff_ms_total",
        "Total milliseconds of retry backoff requested after aborts");

    m->pool_queue_depth = r.GetGauge(
        "aggcache_pool_queue_depth",
        "Tasks currently queued in the global thread pool");
    m->pool_tasks = r.GetCounter(
        "aggcache_pool_tasks_total",
        "Tasks executed by pool workers");
    m->pool_task_us = r.GetHistogram(
        "aggcache_pool_task_us",
        "Pool worker task run time in microseconds");

    m->wal_appends = r.GetCounter(
        "aggcache_wal_appends_total",
        "Records appended to the write-ahead log");
    m->wal_bytes = r.GetCounter(
        "aggcache_wal_bytes_total",
        "Framed bytes written to the write-ahead log");
    m->wal_syncs = r.GetCounter(
        "aggcache_wal_syncs_total",
        "WAL fdatasync calls (one per group commit)");
    m->wal_sync_us = r.GetHistogram(
        "aggcache_wal_sync_us",
        "WAL fdatasync latency in microseconds");

    m->checkpoints = r.GetCounter(
        "aggcache_checkpoints_total",
        "Checkpoint segments published (atomic rename)");
    m->checkpoints_skipped = r.GetCounter(
        "aggcache_checkpoints_skipped_total",
        "Checkpoint attempts skipped because atomic scopes were active");
    m->checkpoint_us = r.GetHistogram(
        "aggcache_checkpoint_us",
        "End-to-end checkpoint latency in microseconds");

    m->admission_admitted = r.GetCounter(
        "aggcache_admission_admitted_total",
        "Queries granted a run slot by the admission controller");
    m->admission_queue_waits = r.GetCounter(
        "aggcache_admission_queue_waits_total",
        "Admissions that waited in the bounded FIFO queue first");
    m->admission_rejects_timeout = r.GetCounter(
        "aggcache_admission_rejects_timeout_total",
        "Queries shed after waiting the full admission queue timeout");
    m->admission_rejects_capacity = r.GetCounter(
        "aggcache_admission_rejects_capacity_total",
        "Queries shed at arrival because the admission queue was full");
    m->admission_running = r.GetGauge(
        "aggcache_admission_running",
        "Queries currently holding an admission slot");
    m->admission_wait_us = r.GetHistogram(
        "aggcache_admission_wait_us",
        "Admission queue wait latency in microseconds (admits and sheds)");

    m->query_cancellations = r.GetCounter(
        "aggcache_query_cancellations_total",
        "Queries aborted by their cooperative cancellation token");
    m->query_deadline_aborts = r.GetCounter(
        "aggcache_query_deadline_aborts_total",
        "Queries aborted by deadline expiry at a cooperative check point");
    m->query_mem_aborts = r.GetCounter(
        "aggcache_query_mem_aborts_total",
        "Queries aborted by a refused memory charge (budget or tracker)");
    m->mem_reserved_bytes = r.GetGauge(
        "aggcache_mem_reserved_bytes",
        "Bytes currently reserved in the process memory tracker");
    m->mem_reserved_hwm_bytes = r.GetGauge(
        "aggcache_mem_reserved_hwm_bytes",
        "High-water mark of process memory tracker reservations");

    m->degraded_flips = r.GetCounter(
        "aggcache_degraded_flips_total",
        "Cache manager degraded-mode transitions (either direction)");
    m->degraded_mode = r.GetGauge(
        "aggcache_degraded_mode",
        "1 while the cache manager is degraded by memory pressure");
    m->mem_pressure_rejects = r.GetCounter(
        "aggcache_mem_pressure_rejects_total",
        "Cache entry builds refused because of process memory pressure");
    m->merge_pressure_yields = r.GetCounter(
        "aggcache_merge_daemon_pressure_yields_total",
        "Merge daemon ticks that yielded to process memory pressure");

    m->recovery_replayed = r.GetCounter(
        "aggcache_recovery_replayed_records_total",
        "WAL records replayed during startup recovery");
    m->recovery_discarded_scopes = r.GetCounter(
        "aggcache_recovery_discarded_scopes_total",
        "Uncommitted atomic scopes discarded by recovery");
    m->recovery_warm_admissions = r.GetCounter(
        "aggcache_recovery_warm_admissions_total",
        "Cache entries re-admitted from persisted warm descriptors");
    m->recovery_replay_us = r.GetHistogram(
        "aggcache_recovery_replay_us",
        "WAL tail replay latency in microseconds");

    m->active_queries = r.GetGauge(
        "aggcache_active_queries",
        "Queries currently registered in the active-query registry");
    m->query_registrations = r.GetCounter(
        "aggcache_query_registrations_total",
        "Queries ever registered in the active-query registry");
    m->remote_cancellations = r.GetCounter(
        "aggcache_remote_cancellations_total",
        "Cancellations delivered through the active-query registry "
        "(shell \\queries or GET /queries/cancel)");
    m->perf_counters_unavailable = r.GetGauge(
        "aggcache_perf_counters_unavailable",
        "1 once perf_event_open was denied and per-query hardware "
        "counters latched off");
    m->slow_queries = r.GetCounter(
        "aggcache_slow_queries_total",
        "Queries recorded by the slow-query log (wall time over "
        "AGGCACHE_SLOW_QUERY_MS)");

    // Not a handle anyone updates — registered here so every binary that
    // touches EngineMetrics exposes its build identity.
    RegisterBuildInfoMetric();

    return m;
  }();
  return *metrics;
}

}  // namespace aggcache
