#include "cache/aggregate_cache_manager.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <functional>
#include <iostream>
#include <optional>
#include <shared_mutex>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/active_queries.h"
#include "obs/engine_metrics.h"
#include "obs/flight_recorder.h"
#include "obs/perf_counters.h"
#include "obs/slow_log.h"
#include "obs/span.h"
#include "runtime/admission_controller.h"
#include "runtime/memory_tracker.h"
#include "runtime/query_context.h"
#include "storage/table_lock.h"
#include "txn/consistent_view_manager.h"
#include "verify/fault_injector.h"

namespace aggcache {

const char* ExecutionStrategyToString(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kUncached:
      return "uncached";
    case ExecutionStrategy::kCachedNoPruning:
      return "cached-no-pruning";
    case ExecutionStrategy::kCachedEmptyDeltaPruning:
      return "cached-empty-delta-pruning";
    case ExecutionStrategy::kCachedFullPruning:
      return "cached-full-pruning";
  }
  return "?";
}

namespace {

PruneLevel PruneLevelFor(ExecutionStrategy strategy) {
  switch (strategy) {
    case ExecutionStrategy::kUncached:
    case ExecutionStrategy::kCachedNoPruning:
      return PruneLevel::kNone;
    case ExecutionStrategy::kCachedEmptyDeltaPruning:
      return PruneLevel::kEmptyPartitions;
    case ExecutionStrategy::kCachedFullPruning:
      return PruneLevel::kFull;
  }
  return PruneLevel::kNone;
}

/// Query-table index of `table` in the entry's binding, or nullopt when
/// the entry does not read it: the merge observers' membership test.
std::optional<size_t> TablePosition(const CacheEntry& entry,
                                    const Table& table) {
  const std::vector<const Table*>& tables = entry.bound().tables;
  auto it = std::find(tables.begin(), tables.end(), &table);
  if (it == tables.end()) return std::nullopt;
  return static_cast<size_t>(it - tables.begin());
}

/// The snapshot to (re)build an entry at for a caller reading at
/// `snapshot`. An entry built at a snapshot older than a main change would
/// show every later reader the main image of that older snapshot: rows a
/// merge moved into main stay hidden, and an invalidation already counted
/// is never compensated (IsDirty compares counts). When some main row was
/// created or invalidated by a transaction `snapshot` does not see, the
/// entry is built at the current snapshot instead, and a caller older than
/// the entry answers uncached.
Snapshot EntryBuildSnapshot(const Database& db, const BoundQuery& bound,
                            Snapshot snapshot) {
  for (const Table* table : bound.tables) {
    for (size_t g = 0; g < table->num_groups(); ++g) {
      const Partition& main = table->group(g).main;
      for (size_t row = 0; row < main.num_rows(); ++row) {
        Tid invalidated = main.invalidate_tid(row);
        if (!snapshot.TidStable(main.create_tid(row)) ||
            (invalidated != kNoTid && !snapshot.TidStable(invalidated))) {
          return db.txn_manager().GlobalSnapshot();
        }
      }
    }
  }
  return snapshot;
}

/// The invalidations of `main` that `snapshot` sees as stable: its whole
/// counter, unless a writer whose tid the snapshot does not cover already
/// invalidated a row. That row is still visible at `snapshot`, so the
/// entry's recorded count must stay below the partition's until a newer
/// reader compensates it; recording the whole counter would hide the row's
/// invalidation from every later reader.
uint64_t StableInvalidationCount(const Partition& main,
                                 const Snapshot& snapshot) {
  if (snapshot.TidStable(main.max_invalidate_tid())) {
    return main.invalidation_count();
  }
  uint64_t stable = 0;
  for (Tid tid : main.invalidate_tids()) {
    stable += tid != kNoTid && snapshot.TidStable(tid) ? 1 : 0;
  }
  return stable;
}

void CountMemoReset(MemoReset reason) {
  EngineMetrics::Get().memo_resets[static_cast<size_t>(reason)]->Increment();
}

/// Fills the trace's memo verdict: used (with the prefixes it served),
/// reset (with its reason: the read's own, else why the entry dropped its
/// last memo), or cold.
void RecordMemoVerdict(QueryTrace& trace, const BoundQuery& bound,
                       const DeltaMemo* memo, MemoReset dropped,
                       const DeltaCompensation& comp) {
  if (comp.memo_used) {
    trace.memo_verdict = "used";
    for (size_t t = 0; t < bound.tables.size(); ++t) {
      for (size_t g = 0; g < memo->prefixes[t].size(); ++g) {
        trace.memo_prefixes.emplace_back(
            StrFormat("%s[g%zu]", bound.tables[t]->name().c_str(), g),
            memo->prefixes[t][g].rows);
      }
    }
    return;
  }
  MemoReset reason = comp.reset != MemoReset::kNone ? comp.reset : dropped;
  if (reason == MemoReset::kNone) {
    trace.memo_verdict = "cold";
    return;
  }
  trace.memo_verdict = "reset";
  trace.memo_reason = MemoResetToString(reason);
}

void AppendPerfJson(std::string* out, const PerfDelta& delta) {
  *out += StrFormat(
      "{\"cycles\":%llu,\"instructions\":%llu,\"ipc\":%.2f,"
      "\"llc_misses\":%llu,\"branch_misses\":%llu,\"task_clock_ns\":%llu}",
      static_cast<unsigned long long>(delta.cycles),
      static_cast<unsigned long long>(delta.instructions), delta.Ipc(),
      static_cast<unsigned long long>(delta.llc_misses),
      static_cast<unsigned long long>(delta.branch_misses),
      static_cast<unsigned long long>(delta.task_clock_ns));
}

/// Assembles one slow-query record: identity, wall outcome, the governance
/// line, perf deltas when the host can read counters, the full EXPLAIN
/// trace when one was installed, and this query's span subtree when the
/// span recorder is on. Only runs for queries already over the threshold —
/// cost is irrelevant next to the query itself.
std::string BuildSlowQueryRecord(const std::string& statement,
                                 const char* strategy, double elapsed_ms,
                                 uint64_t admission_wait_us,
                                 const QueryContext& ctx, const Status& status,
                                 const QueryTrace* trace,
                                 const PerfDelta& perf_total,
                                 uint64_t span_query_id) {
  int64_t t_unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                          std::chrono::system_clock::now().time_since_epoch())
                          .count();
  std::string out = StrFormat(
      "{\"t_unix_ms\":%lld,\"elapsed_ms\":%.3f,\"strategy\":\"%s\","
      "\"statement\":\"",
      static_cast<long long>(t_unix_ms), elapsed_ms, strategy);
  AppendJsonEscaped(&out, statement);
  out += "\",\"status\":\"";
  AppendJsonEscaped(&out, status.ok() ? "ok" : status.message());
  out += StrFormat(
      "\",\"governance\":{\"admission_wait_us\":%llu,"
      "\"mem_peak_bytes\":%zu,\"rows_scanned\":%llu,\"abort\":\"%s\"}",
      static_cast<unsigned long long>(admission_wait_us),
      ctx.memory_high_water(),
      static_cast<unsigned long long>(ctx.rows_scanned()),
      ctx.abort_reason() == QueryAbortReason::kNone
          ? ""
          : QueryAbortReasonToString(ctx.abort_reason()));
  if (perf_total.valid) {
    out += ",\"perf\":";
    AppendPerfJson(&out, perf_total);
  }
  if (trace != nullptr) {
    out += ",\"trace\":";
    out += trace->ToJson();
  }
  SpanRecorder& recorder = SpanRecorder::Global();
  if (span_query_id != 0 && recorder.enabled()) {
    // The root has already ended, so the subtree is the complete tree.
    out += ",\"spans\":[";
    bool first = true;
    for (const SpanRecorder::Span& span : recorder.Collect()) {
      if (span.query_id != span_query_id) continue;
      if (!first) out += ',';
      first = false;
      out += StrFormat(
          "{\"name\":\"%s\",\"ts\":%llu,\"dur\":%llu,\"id\":%llu,"
          "\"parent\":%llu,\"detail\":\"",
          SpanKindToString(span.kind),
          static_cast<unsigned long long>(span.start_us),
          static_cast<unsigned long long>(span.dur_us),
          static_cast<unsigned long long>(span.span_id),
          static_cast<unsigned long long>(span.parent_id));
      AppendJsonEscaped(&out, span.detail);
      out += "\"}";
    }
    out += "]";
  }
  out += "}";
  return out;
}

}  // namespace

AggregateCacheManager::AggregateCacheManager(Database* db, Config config)
    : db_(db), config_(config), executor_(db) {
  db_->AddMergeObserver(this);
}

AggregateCacheManager::~AggregateCacheManager() {
  db_->RemoveMergeObserver(this);
}

AggregateCacheManager::Shard& AggregateCacheManager::ShardFor(
    const CacheKey& key) const {
  return const_cast<Shard&>(shards_[CacheKeyHash{}(key) % kNumShards]);
}

size_t AggregateCacheManager::num_entries() const {
  size_t n = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.entries.size();
  }
  return n;
}

size_t AggregateCacheManager::RecomputeTotalBytes() const {
  // Shard locks before bytes_mu_, per the lock hierarchy; bytes_accounted
  // is guarded by bytes_mu_.
  std::array<std::unique_lock<std::mutex>, kNumShards> shard_locks;
  for (size_t i = 0; i < kNumShards; ++i) {
    shard_locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  }
  std::lock_guard<std::mutex> bytes_lock(bytes_mu_);
  size_t bytes = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard.entries) {
      if (entry->bytes_accounted) bytes += entry->metrics().size_bytes;
    }
  }
  return bytes;
}

size_t AggregateCacheManager::total_bytes() const {
  std::lock_guard<std::mutex> lock(bytes_mu_);
  return total_bytes_;
}

void AggregateCacheManager::AssertByteAccountingLocked() const {
#ifndef NDEBUG
  std::lock_guard<std::mutex> bytes_lock(bytes_mu_);
  size_t recomputed = 0;
  for (const Shard& shard : shards_) {
    for (const auto& [key, entry] : shard.entries) {
      if (entry->bytes_accounted) recomputed += entry->metrics().size_bytes;
    }
  }
  AGGCACHE_CHECK(total_bytes_ == recomputed)
      << "running byte total " << total_bytes_ << " != recomputed "
      << recomputed;
#endif
}

void AggregateCacheManager::SetBytesAccountedLocked(CacheEntry& entry,
                                                    bool accounted) {
  if (entry.bytes_accounted == accounted) return;
  // The Cache() tracker mirrors total_bytes_ exactly, so process-level
  // pressure sees cached values alongside query reservations.
  size_t bytes = entry.metrics().size_bytes;
  if (accounted) {
    total_bytes_ += bytes;
    MemoryTracker::Cache().Reserve(bytes);
  } else {
    total_bytes_ -= bytes;
    MemoryTracker::Cache().Release(bytes);
  }
  entry.bytes_accounted = accounted;
}

void AggregateCacheManager::ResizeEntry(CacheEntry& entry,
                                        const std::function<void()>& change) {
  std::lock_guard<std::mutex> lock(bytes_mu_);
  const bool accounted = entry.bytes_accounted;
  SetBytesAccountedLocked(entry, false);
  change();
  SetBytesAccountedLocked(entry, accounted);
}

void AggregateCacheManager::PublishEntry(CacheEntry& entry) {
  ResizeEntry(entry, [&] { entry.PublishMainResult(); });
}

void AggregateCacheManager::DropDeltaMemo(CacheEntry& entry,
                                          MemoReset reason) {
  bool dropped = false;
  ResizeEntry(entry, [&] { dropped = entry.DropDeltaMemo(reason); });
  if (dropped) CountMemoReset(reason);
}

void AggregateCacheManager::PublishDeltaMemo(CacheEntry& entry,
                                             const DeltaMemo* expected,
                                             const DeltaCompensation& comp) {
  bool published = false;
  if (comp.publish.has_value()) {
    ResizeEntry(entry, [&] {
      published =
          entry.PublishDeltaMemo(expected, *comp.publish, comp.reset);
    });
  }
  // A stale memo counts once, by the read that replaced it; a bypass or a
  // refused publish counts per read.
  switch (comp.reset) {
    case MemoReset::kNone:
      break;
    case MemoReset::kInvalidation:
    case MemoReset::kRebuild:
      if (published) CountMemoReset(comp.reset);
      break;
    default:
      CountMemoReset(comp.reset);
      break;
  }
}

void AggregateCacheManager::Clear() {
  std::array<std::unique_lock<std::mutex>, kNumShards> shard_locks;
  for (size_t i = 0; i < kNumShards; ++i) {
    shard_locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  }
  for (Shard& shard : shards_) {
    for (auto& [key, entry] : shard.entries) {
      {
        std::lock_guard<std::mutex> bytes_lock(bytes_mu_);
        SetBytesAccountedLocked(*entry, false);
      }
      // In-flight creators notice the eviction at finalization (their
      // residency check fails); waiters wake, see kEvicted, and retry.
      entry->SetState(EntryState::kEvicted);
    }
    shard.entries.clear();
  }
}

const CacheEntry* AggregateCacheManager::Find(
    const AggregateQuery& query) const {
  CacheKey key = MakeCacheKey(query);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  return it == shard.entries.end() ? nullptr : it->second.get();
}

void AggregateCacheManager::TouchEntry(CacheEntry& entry) {
  entry.metrics().last_access_ns =
      access_clock_.fetch_add(1, std::memory_order_relaxed) + 1;
}

std::vector<std::shared_ptr<CacheEntry>>
AggregateCacheManager::SnapshotEntries() const {
  std::vector<std::shared_ptr<CacheEntry>> entries;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [key, entry] : shard.entries) {
      entries.push_back(entry);
    }
  }
  return entries;
}

std::vector<CacheDescriptor> AggregateCacheManager::ExportCacheDescriptors()
    const {
  std::vector<CacheDescriptor> descriptors;
  for (const std::shared_ptr<CacheEntry>& entry : SnapshotEntries()) {
    if (entry->state() != EntryState::kReady) continue;
    CacheDescriptor d;
    d.query = entry->query();
    d.hit_count = entry->metrics().hit_count.load(std::memory_order_relaxed);
    d.main_exec_ms =
        entry->metrics().main_exec_ms.load(std::memory_order_relaxed);
    {
      // base_tid is guarded by the value lock; shared is enough to read.
      std::shared_lock<std::shared_mutex> value_lock(entry->value_mutex());
      d.base_tid = entry->base_tid();
    }
    descriptors.push_back(std::move(d));
  }
  return descriptors;
}

void AggregateCacheManager::ImportWarmDescriptors(
    std::vector<CacheDescriptor> descriptors) {
  std::lock_guard<std::mutex> lock(warm_mu_);
  for (CacheDescriptor& d : descriptors) {
    std::string key = d.query.CanonicalString();
    warm_descriptors_.emplace(std::move(key), std::move(d));
  }
}

size_t AggregateCacheManager::warm_descriptors_pending() const {
  std::lock_guard<std::mutex> lock(warm_mu_);
  return warm_descriptors_.size();
}

void AggregateCacheManager::RemoveEntry(
    const std::shared_ptr<CacheEntry>& entry) {
  Shard& shard = ShardFor(entry->key());
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(entry->key());
  if (it == shard.entries.end() || it->second != entry) return;
  {
    std::lock_guard<std::mutex> bytes_lock(bytes_mu_);
    SetBytesAccountedLocked(*entry, false);
  }
  shard.entries.erase(it);
}

Status AggregateCacheManager::RebuildEntry(CacheEntry& entry,
                                           Snapshot snapshot,
                                           CacheExecStats* stats) {
  RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("cache.build"));
  const BoundQuery& bound = entry.bound();
  EngineMetrics::Get().cache_rebuilds->Increment();
  Phase build(SpanKind::kEntryBuild);
  DropDeltaMemo(entry, MemoReset::kRebuild);
  entry.main_partials().clear();
  // Cross-temperature all-main combos can be pruned logically at build time
  // (Section 5.4); tid-range pruning is sound here as well. Pruned
  // combinations keep empty partials.
  JoinPruner pruner(db_, PruneLevel::kFull);
  std::vector<SubjoinCombination> combos =
      EnumerateAllMainCombinations(bound.tables);
  std::vector<SubjoinTask> tasks = PlanSubjoins(
      bound, combos, &pruner, /*use_pushdown=*/false, "build");
  ExecutorStats exec_stats;
  ASSIGN_OR_RETURN(std::vector<AggregateResult> partials,
                   executor_.ExecuteSubjoins(bound, tasks, snapshot, "build",
                                             /*fault_point=*/nullptr,
                                             &exec_stats));
  for (SubjoinCombination& combo : combos) {
    entry.main_partials().emplace(std::move(combo),
                                  AggregateResult(bound.aggregates.size()));
  }
  for (size_t i = 0; i < tasks.size(); ++i) {
    entry.main_partials()[tasks[i].combination] = std::move(partials[i]);
  }
  RefreshSnapshots(entry, snapshot);
  PublishEntry(entry);
  build.End();
  entry.metrics().main_exec_ms = build.elapsed_ms();
  entry.metrics().main_rows_aggregated = exec_stats.rows_scanned;
  CacheEntryMetrics::Ewma(entry.metrics().ewma_rebuild_ms, build.elapsed_ms());
  entry.ClearRebuildMark();
  EngineMetrics::Get().cache_build_us->Observe(build.elapsed_us());
  if (stats != nullptr) {
    stats->subjoins_executed += exec_stats.subjoins_executed;
    stats->main_exec_ms = build.elapsed_ms();
  }
  return Status::Ok();
}

void AggregateCacheManager::RefreshSnapshots(CacheEntry& entry,
                                             Snapshot snapshot) {
  const BoundQuery& bound = entry.bound();
  entry.snapshots().clear();
  entry.snapshots().resize(bound.tables.size());
  for (size_t t = 0; t < bound.tables.size(); ++t) {
    const Table& table = *bound.tables[t];
    entry.snapshots()[t].resize(table.num_groups());
    for (size_t g = 0; g < table.num_groups(); ++g) {
      const Partition& main = table.group(g).main;
      CacheEntry::MainSnapshot& snap = entry.snapshots()[t][g];
      snap.visibility = ConsistentViewManager::ComputeVisibility(
          main.create_tids(), main.invalidate_tids(), snapshot);
      snap.row_count = main.num_rows();
      snap.invalidation_count = StableInvalidationCount(main, snapshot);
    }
  }
  // The visibility just computed reflects exactly this snapshot: readers
  // older than it can no longer use the entry.
  entry.set_base_tid(snapshot.read_tid);
}

StatusOr<std::shared_ptr<CacheEntry>> AggregateCacheManager::GetOrCreateEntry(
    const BoundQuery& bound, const CacheKey& key, Snapshot snapshot,
    CacheExecStats* stats) {
  Shard& shard = ShardFor(key);

  // Degradation ladder: while the process tracker reports memory pressure,
  // existing entries keep serving hits but no new value is built — the
  // caller streams the answer uncached (delta compensation needs no
  // resident value) and eviction below frees headroom.
  const bool under_pressure = MemoryTracker::Process().UnderPressure();
  UpdateDegradedMode(under_pressure);

  // Bounded retries: each kEvicted wake-up means the winning creator was
  // rejected by admission, failed, or got evicted immediately; after a few
  // rounds this caller gives up and answers uncached instead of livelocking
  // against a hostile eviction pattern.
  for (int attempt = 0; attempt < 3; ++attempt) {
    std::shared_ptr<CacheEntry> entry;
    bool creator = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(key);
      if (it != shard.entries.end()) {
        entry = it->second;
      } else if (under_pressure) {
        entry = nullptr;
      } else {
        // Insert a kBuilding placeholder while still holding the shard
        // lock: concurrent misses on this key find it and wait instead of
        // building the same aggregate N times (single-flight).
        entry = std::make_shared<CacheEntry>(key, bound);
        shard.entries.emplace(key, entry);
        creator = true;
      }
    }

    if (entry == nullptr) {
      // Build refused under memory pressure. Evict low-profit entries to
      // restore headroom before answering uncached; the lookup counts as a
      // miss at the caller's fallback site.
      EngineMetrics::Get().mem_pressure_rejects->Increment();
      EvictIfNeeded();
      return std::shared_ptr<CacheEntry>();
    }

    if (!creator) {
      bool waited = false;
      uint64_t wait_start_us = SpanRecorder::Global().NowMicros();
      EntryState state = entry->WaitUntilSettled(&waited);
      if (waited) {
        EngineMetrics::Get().cache_singleflight_waits->Increment();
        RecordFlightEvent(FlightEventType::kSingleFlightWait,
                          static_cast<uint64_t>(key.hash));
        RecordSpanSince(SpanKind::kSingleFlightWait, wait_start_us);
      }
      if (state == EntryState::kEvicted) continue;
      TouchEntry(*entry);
      return entry;
    }

    // This thread won the build. Materialize under the exclusive value
    // lock; waiters park on the state machine, not the value lock, so a
    // failure below can still wake them with kEvicted.
    Status build_status;
    {
      std::unique_lock<std::shared_mutex> value_lock(entry->value_mutex());
      build_status = RebuildEntry(
          *entry, EntryBuildSnapshot(*db_, bound, snapshot), stats);
    }
    if (!build_status.ok()) {
      RemoveEntry(entry);
      entry->SetState(EntryState::kEvicted);
      return build_status;
    }
    if (stats != nullptr) stats->entry_created = true;

    // Warm restart: a descriptor recovered from the last checkpoint proves
    // this aggregate earned its place before the restart, so it bypasses
    // the admission gate and inherits its profit history. The value itself
    // was just rebuilt from current data above — the descriptor's stale
    // base tid never reaches the entry.
    bool warm_admitted = false;
    {
      std::lock_guard<std::mutex> warm_lock(warm_mu_);
      auto warm = warm_descriptors_.find(key.canonical);
      if (warm != warm_descriptors_.end()) {
        entry->metrics().hit_count.store(warm->second.hit_count,
                                         std::memory_order_relaxed);
        warm_descriptors_.erase(warm);
        warm_admitted = true;
      }
    }
    if (warm_admitted) {
      EngineMetrics::Get().recovery_warm_admissions->Increment();
    }

    // Admission: creating the entry already produced the main result; an
    // unprofitable aggregate is simply not stored (Fig. 3's "profitable
    // enough" gate) and the caller falls back to uncached execution.
    if (!warm_admitted &&
        entry->metrics().main_exec_ms < config_.min_main_exec_ms) {
      RecordFlightEvent(FlightEventType::kAdmissionReject,
                        static_cast<uint64_t>(key.hash), 0,
                        "below-min-exec-ms");
      RemoveEntry(entry);
      entry->SetState(EntryState::kEvicted);
      return std::shared_ptr<CacheEntry>();
    }

    // Finalize: account the bytes only if the entry is still resident — a
    // concurrent Clear() may have dropped the placeholder while we built.
    bool resident = false;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.entries.find(key);
      resident = it != shard.entries.end() && it->second == entry;
      if (resident) {
        std::lock_guard<std::mutex> bytes_lock(bytes_mu_);
        SetBytesAccountedLocked(*entry, true);
      }
    }
    entry->SetState(resident ? EntryState::kReady : EntryState::kEvicted);
    TouchEntry(*entry);
    if (resident) EvictIfNeeded(entry.get());
    // Even when no longer resident the freshly built value is consistent
    // for this snapshot, so the caller uses it; it dies with the last
    // holder.
    return entry;
  }
  return std::shared_ptr<CacheEntry>();
}

Status AggregateCacheManager::MainCompensate(CacheEntry& entry,
                                             Snapshot snapshot,
                                             CacheExecStats* stats) {
  if (!entry.IsDirty()) return Status::Ok();
  Phase phase(SpanKind::kMainCorrection);
  if (entry.bound().tables.size() > 1 &&
      !config_.incremental_join_main_compensation) {
    // The paper's baseline behaviour for join entries: recompute the entry.
    RETURN_IF_ERROR(RebuildEntry(entry, snapshot, stats));
    if (stats != nullptr) stats->entry_rebuilt = true;
  } else {
    RETURN_IF_ERROR(IncrementalMainCompensate(entry, snapshot, stats));
  }
  phase.End();
  if (stats != nullptr) stats->main_comp_ms += phase.elapsed_ms();
  EngineMetrics::Get().cache_main_comp_us->Observe(phase.elapsed_us());
  return Status::Ok();
}

Status AggregateCacheManager::IncrementalMainCompensate(
    CacheEntry& entry, Snapshot snapshot, CacheExecStats* stats) {
  const BoundQuery& bound = entry.bound();
  const size_t num_tables = bound.tables.size();

  // Invalidated ("negative delta") rows per (table, group) since the entry
  // snapshot, computed once and shared across combos; snapshots are
  // refreshed only after every combo is corrected.
  std::vector<std::vector<std::vector<uint32_t>>> negative(num_tables);
  std::vector<std::vector<BitVector>> current_visibility(num_tables);
  for (size_t t = 0; t < num_tables; ++t) {
    const Table& table = *bound.tables[t];
    negative[t].resize(table.num_groups());
    current_visibility[t].resize(table.num_groups());
    for (size_t g = 0; g < table.num_groups(); ++g) {
      const Partition& main = table.group(g).main;
      CacheEntry::MainSnapshot& snap = entry.snapshots()[t][g];
      if (main.invalidation_count() == snap.invalidation_count) continue;
      current_visibility[t][g] = ConsistentViewManager::ComputeVisibility(
          main.create_tids(), main.invalidate_tids(), snapshot);
      negative[t][g] = snap.visibility.OnesClearedIn(current_visibility[t][g]);
    }
  }

  // One correction join per (dirty combo, non-empty subset of its dirty
  // tables): subset members restricted to their negative-delta rows, the
  // rest to rows visible now. All corrections are subtracted (no
  // alternating signs: prod(C+N) expands into a plain sum over subsets).
  // The 2^d - 1 joins per combo are independent, so every (combo, mask)
  // pair is one task; corrections merge back per combo in mask order for
  // determinism. Correction joins are part of the answer an EXPLAIN-ing
  // caller sees: each is recorded (no MD bindings — restrictions, not tid
  // ranges, select the rows here).
  std::vector<AggregateResult*> dirty_partials;
  std::vector<SubjoinTask> tasks;
  std::vector<size_t> task_partial;
  for (auto& [combo, partial] : entry.main_partials()) {
    std::vector<size_t> dirty_tables;
    for (size_t t = 0; t < num_tables; ++t) {
      if (!negative[t][combo[t].group].empty()) dirty_tables.push_back(t);
    }
    if (dirty_tables.empty()) continue;
    dirty_partials.push_back(&partial);
    for (uint32_t mask = 1; mask < (1u << dirty_tables.size()); ++mask) {
      SubjoinTask task{combo, {}, {}};
      task.restriction.rows.resize(num_tables);
      for (size_t i = 0; i < dirty_tables.size(); ++i) {
        if (mask & (1u << i)) {
          size_t t = dirty_tables[i];
          task.restriction.rows[t] = negative[t][combo[t].group];
        }
      }
      RecordSubjoin(bound, task, "main-correction", PruneDecision{},
                    /*md_tid_ranges=*/false);
      tasks.push_back(std::move(task));
      task_partial.push_back(dirty_partials.size() - 1);
    }
  }

  ExecutorStats exec_stats;
  auto terms = executor_.ExecuteSubjoins(bound, tasks, snapshot, "correction",
                                         /*fault_point=*/nullptr, &exec_stats);
  if (stats != nullptr) {
    stats->subjoins_executed += exec_stats.subjoins_executed;
  }
  RETURN_IF_ERROR(terms.status());

  // Tasks were emitted combo-major in mask order; replay that order exactly.
  size_t j = 0;
  for (size_t c = 0; c < dirty_partials.size(); ++c) {
    AggregateResult corrections(bound.aggregates.size());
    for (; j < tasks.size() && task_partial[j] == c; ++j) {
      corrections.MergeFrom((*terms)[j]);
    }
    RETURN_IF_ERROR(dirty_partials[c]->SubtractFrom(corrections));
  }

  // All combos corrected: refresh the snapshots.
  for (size_t t = 0; t < num_tables; ++t) {
    const Table& table = *bound.tables[t];
    for (size_t g = 0; g < table.num_groups(); ++g) {
      if (negative[t][g].empty()) continue;
      CacheEntry::MainSnapshot& snap = entry.snapshots()[t][g];
      snap.visibility = std::move(current_visibility[t][g]);
      snap.invalidation_count =
          StableInvalidationCount(table.group(g).main, snapshot);
    }
  }
  entry.set_base_tid(snapshot.read_tid);
  PublishEntry(entry);
  return Status::Ok();
}

StatusOr<AggregateResult> AggregateCacheManager::Execute(
    const AggregateQuery& query, const Transaction& txn,
    const ExecutionOptions& options) {
  // Governance entry point. Callers that installed their own QueryContext
  // keep it (the scope re-installs the same pointer); everyone else gets
  // one built from the env defaults, so AGGCACHE_QUERY_DEADLINE_MS /
  // AGGCACHE_QUERY_MEM_BUDGET govern standalone callers too.
  std::optional<QueryContext> env_context;
  QueryContext* ctx = QueryContext::Current();
  if (ctx == nullptr) {
    env_context.emplace(QueryContext::FromEnv());
    ctx = &*env_context;
  }
  ScopedQueryContext scope(ctx);
  // The caller's trace (or none) is this thread's trace for the call: the
  // build/compensation paths record subjoin verdicts through it.
  QueryTrace* trace = options.trace;
  TraceContext trace_scope(trace);
  CacheExecStats local_stats;
  CacheExecStats* stats =
      options.stats != nullptr ? options.stats : &local_stats;
  *stats = CacheExecStats();
  const char* strategy_name = ExecutionStrategyToString(options.strategy);
  const CacheKey key = MakeCacheKey(query);
  if (trace != nullptr) {
    trace->strategy = strategy_name;
    trace->use_pushdown = options.use_predicate_pushdown;
    if (trace->statement.empty()) trace->statement = key.canonical;
  }
  // Live introspection: registered before admission so a query parked in
  // the admission queue is already visible in /queries (phase
  // "admission_wait") and remotely cancellable while it waits.
  const std::string& statement =
      trace != nullptr ? trace->statement : key.canonical;
  ActiveQueryGuard aq_guard(statement, strategy_name, ctx);
  // Span root for the execution from here on: every phase below (admission
  // wait, lookup, build, compensation, subjoin tasks) chains under it, so
  // its children tile it, and its two clock readings are the call's
  // end-to-end time for EXPLAIN and the slow-query log.
  QueryRootSpan root_span(strategy_name);
  // Whole-execution hardware-counter sample. Unconditional (unlike the
  // phase samples): the ledger's hit EWMAs and the slow-query log consume
  // it even when no trace or span is listening, and after the first latch
  // on perf-denied hosts it costs one relaxed load.
  PerfDelta perf_begin = PerfCounters::Read();
  // The admission slot is held for the whole execution (the ticket inside
  // ticket_or releases on every return path); shed/timeout surfaces as a
  // typed error before any table lock is taken.
  Phase admit(SpanKind::kAdmissionWait);
  StatusOr<AdmissionController::Ticket> ticket_or =
      AdmissionController::Global().Admit(ctx);
  admit.End();
  uint64_t admission_wait_us = admit.elapsed_us();
  aq_guard.SetAdmissionWait(admission_wait_us);
  if (trace != nullptr) trace->admission_wait_us = admission_wait_us;
  auto finish = [&] {
    root_span.End();
    if (trace == nullptr) return;
    trace->total_ms = root_span.elapsed_ms();
    trace->mem_peak_bytes = ctx->memory_high_water();
    if (ctx->abort_reason() != QueryAbortReason::kNone) {
      trace->abort_cause = QueryAbortReasonToString(ctx->abort_reason());
    }
  };
  if (!ticket_or.ok()) {
    finish();
    return ticket_or.status();
  }
  PruneStats prune_acc;
  auto result = ExecuteInternal(query, key, txn, options, perf_begin, stats,
                                &prune_acc);
  PerfDelta perf_total = PerfCounters::Delta(perf_begin, PerfCounters::Read());
  if (trace != nullptr && perf_total.valid) {
    trace->perf_available = true;
    trace->perf_total = perf_total;
  }
  finish();
  SlowQueryLog& slow_log = SlowQueryLog::Global();
  if (slow_log.enabled() &&
      root_span.elapsed_ms() >= slow_log.threshold_ms()) {
    slow_log.Record(BuildSlowQueryRecord(
        statement, strategy_name, root_span.elapsed_ms(), admission_wait_us,
        *ctx, result.status(), trace, perf_total, root_span.link().query_id));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  prune_stats_.considered += prune_acc.considered;
  prune_stats_.pruned_empty += prune_acc.pruned_empty;
  prune_stats_.pruned_aging += prune_acc.pruned_aging;
  prune_stats_.pruned_tid_range += prune_acc.pruned_tid_range;
  return result;
}

StatusOr<AggregateResult> AggregateCacheManager::ExecuteInternal(
    const AggregateQuery& query, const CacheKey& key, const Transaction& txn,
    const ExecutionOptions& options, const PerfDelta& perf_begin,
    CacheExecStats* stats, PruneStats* prune_acc) {
  const EngineMetrics& metrics = EngineMetrics::Get();
  QueryTrace* trace = options.trace;

  // The lookup phase covers bind + consistent-view acquisition + entry
  // resolution + main repair; it ends before delta compensation (or the
  // uncached answer) so the root's children tile the execution instead of
  // overlapping.
  std::optional<Phase> lookup;
  if (options.strategy != ExecutionStrategy::kUncached) {
    lookup.emplace(SpanKind::kCacheLookup);
  }

  ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(*db_, query));
  // The consistent view — shared locks on every bound table plus an epoch
  // pin — freezes main/delta/visibility state across all of them for the
  // whole execution (DESIGN.md §6).
  ReadView view = ReadView::Acquire(*db_, bound.tables, txn.snapshot());
  Snapshot snapshot = view.snapshot();
  if (trace != nullptr) trace->snapshot_tid = snapshot.read_tid;

  // The one uncached answer, labelled with why the cache was not used. A
  // fallback after the cache was consulted counts that lookup as a miss.
  auto answer_uncached =
      [&](const char* outcome) -> StatusOr<AggregateResult> {
    if (stats->used_cache) {
      metrics.cache_lookups->Increment();
      metrics.cache_misses->Increment();
      metrics.cache_uncached_fallbacks->Increment();
    }
    stats->used_cache = false;
    if (trace != nullptr) trace->cache_outcome = outcome;
    lookup.reset();
    Phase exec(SpanKind::kUncachedExec);
    // Every combination runs; the MDs only supply the trace's tid ranges.
    std::vector<SubjoinTask> tasks =
        PlanSubjoins(bound, EnumerateAllCombinations(bound.tables),
                     /*pruner=*/nullptr, /*use_pushdown=*/false, "uncached");
    ExecutorStats exec_stats;
    auto partials = executor_.ExecuteSubjoins(
        bound, tasks, snapshot, "uncached", /*fault_point=*/nullptr,
        &exec_stats);
    stats->subjoins_executed += exec_stats.subjoins_executed;
    RETURN_IF_ERROR(partials.status());
    AggregateResult result(bound.aggregates.size());
    for (const AggregateResult& partial : *partials) result.MergeFrom(partial);
    // HAVING applies to whole groups, so only after every subjoin is merged.
    return query.ApplyHaving(std::move(result));
  };

  if (options.strategy == ExecutionStrategy::kUncached ||
      !query.IsCacheable()) {
    return answer_uncached(options.strategy == ExecutionStrategy::kUncached
                               ? "uncached"
                               : "not-cacheable");
  }
  stats->used_cache = true;

  ASSIGN_OR_RETURN(std::shared_ptr<CacheEntry> entry,
                   GetOrCreateEntry(bound, key, snapshot, stats));
  if (entry == nullptr) {
    // Not admitted (or starved by eviction): answer without the cache.
    metrics.cache_admission_rejects->Increment();
    return answer_uncached("admission-rejected");
  }

  // Read or repair the cached main result under the entry's value lock.
  // Fast path: a clean entry only needs the shared lock — concurrent hits
  // on one entry proceed in parallel.
  AggregateResult main_result;
  std::shared_ptr<const DeltaMemo> memo;
  MemoReset memo_dropped = MemoReset::kNone;
  bool have_main = false;
  {
    std::shared_lock<std::shared_mutex> value_lock(entry->value_mutex());
    if (entry->base_tid() <= snapshot.read_tid && entry->ShapeMatches() &&
        !entry->IsDirty()) {
      main_result = entry->main_result();
      memo = entry->delta_memo(&memo_dropped);
      have_main = true;
      if (!stats->entry_created) stats->cache_hit = true;
    }
  }
  if (!have_main) {
    std::unique_lock<std::shared_mutex> value_lock(entry->value_mutex());
    if (!entry->ShapeMatches()) {
      // Partition layout changed (hot/cold split or a failed maintenance
      // pass): rebuild from scratch. kRebuilding shields the entry from
      // eviction while the recompute runs.
      bool claimed =
          entry->TryTransition(EntryState::kReady, EntryState::kRebuilding);
      Status rebuild_status = RebuildEntry(
          *entry, EntryBuildSnapshot(*db_, bound, snapshot), stats);
      if (claimed) {
        entry->TryTransition(EntryState::kRebuilding, EntryState::kReady);
      }
      if (!rebuild_status.ok()) {
        entry->MarkForRebuild();
        return rebuild_status;
      }
      stats->entry_rebuilt = true;
    }
    if (entry->base_tid() > snapshot.read_tid) {
      // The entry moved past this reader's snapshot (compensation only
      // goes forward in time); answer uncached rather than stall the
      // entry for everyone else.
      value_lock.unlock();
      return answer_uncached("snapshot-fallback");
    }
    if (!stats->entry_created && !stats->entry_rebuilt) {
      stats->cache_hit = true;
    }
    RETURN_IF_ERROR(MainCompensate(*entry, snapshot, stats));
    // Take the published result before dropping the lock; a later
    // republish swaps in a new shared map and leaves this one intact.
    main_result = entry->main_result();
    memo = entry->delta_memo(&memo_dropped);
  }
  lookup->End();

  // Delta compensation needs no entry lock: it reads only table state,
  // which the ReadView keeps frozen, and the memo, which is immutable. The
  // phase also covers publishing the advanced memo, the union with the
  // cached main result, and HAVING.
  Phase delta(SpanKind::kDeltaCompensation);
  JoinPruner pruner(db_, PruneLevelFor(options.strategy));
  ExecutorStats comp_stats;
  ASSIGN_OR_RETURN(DeltaCompensation comp,
                   DeltaCompensate(executor_, bound, pruner,
                                   options.use_predicate_pushdown, snapshot,
                                   memo.get(), &comp_stats));
  PublishDeltaMemo(*entry, memo.get(), comp);
  if (trace != nullptr) {
    RecordMemoVerdict(*trace, bound, memo.get(), memo_dropped, comp);
  }
  main_result.MergeFrom(comp.result);
  AggregateResult result = query.ApplyHaving(std::move(main_result));
  delta.End();

  double delta_ms = delta.elapsed_ms();
  // Only true hits count toward profit: the miss that just created (or the
  // access that rebuilt) the entry saved nothing, and crediting it would
  // inflate Profit() for new entries and skew eviction.
  if (stats->cache_hit) {
    CacheEntryMetrics& em = entry->metrics();
    CacheEntryMetrics::Add(em.total_delta_comp_ms, delta_ms);
    em.delta_comp_count.fetch_add(1, std::memory_order_relaxed);
    em.hit_count.fetch_add(1, std::memory_order_relaxed);
    // Ledger: what this hit cost and what it saved. "Saved" is the entry's
    // recorded main execution cost (what recomputing the mains would have
    // taken) minus the compensation actually paid — negative when the
    // deltas have outgrown the entry. The hit cost is the two phases that
    // tile it, lookup and delta compensation.
    double hit_ms = lookup->elapsed_ms() + delta_ms;
    double comp_paid_ms = delta_ms + stats->main_comp_ms;
    double saved_ms =
        em.main_exec_ms.load(std::memory_order_relaxed) - comp_paid_ms;
    CacheEntryMetrics::Ewma(em.ewma_hit_ms, hit_ms);
    CacheEntryMetrics::Ewma(em.ewma_delta_comp_ms, delta_ms);
    CacheEntryMetrics::Ewma(em.ewma_delta_rows,
                            static_cast<double>(comp_stats.rows_scanned));
    // Hardware grounding for the ledger: what this hit cost the
    // orchestration thread in cycles and LLC misses. Invalid (skipped)
    // when the host cannot read counters — the EWMAs then stay 0 ("not
    // measured"), never fabricate.
    PerfDelta hit_perf =
        PerfCounters::Delta(perf_begin, PerfCounters::Read());
    if (hit_perf.valid) {
      CacheEntryMetrics::Ewma(em.ewma_hit_cycles,
                              static_cast<double>(hit_perf.cycles));
      CacheEntryMetrics::Ewma(em.ewma_hit_llc_miss,
                              static_cast<double>(hit_perf.llc_misses));
    }
    CacheEntryMetrics::Add(em.saved_ms_total, saved_ms);
    em.delta_rows_scanned.fetch_add(comp_stats.rows_scanned,
                                    std::memory_order_relaxed);
    metrics.entry_hit_us->Observe(static_cast<uint64_t>(hit_ms * 1000.0));
    if (saved_ms >= 0) {
      metrics.entry_saved_us->Increment(
          static_cast<uint64_t>(saved_ms * 1000.0));
    } else {
      metrics.entry_comp_overrun_us->Increment(
          static_cast<uint64_t>(-saved_ms * 1000.0));
    }
    metrics.entry_delta_rows->Increment(comp_stats.rows_scanned);
  }

  stats->delta_comp_ms = delta_ms;
  stats->subjoins_pruned = pruner.stats().total_pruned();
  stats->subjoins_executed += comp_stats.subjoins_executed;
  prune_acc->considered += pruner.stats().considered;
  prune_acc->pruned_empty += pruner.stats().pruned_empty;
  prune_acc->pruned_aging += pruner.stats().pruned_aging;
  prune_acc->pruned_tid_range += pruner.stats().pruned_tid_range;

  // Exactly one of the two outcome sites counts each consulted lookup
  // (here, or the uncached answer after a fallback or reject), so
  // hits + misses == lookups holds registry-wide. Error returns count
  // nothing: the lookup never produced an answer.
  metrics.cache_lookups->Increment();
  if (stats->cache_hit) {
    metrics.cache_hits->Increment();
  } else {
    metrics.cache_misses->Increment();
  }
  metrics.cache_delta_comp_us->Observe(delta.elapsed_us());
  if (trace != nullptr) {
    trace->cache_outcome = stats->entry_rebuilt ? "rebuilt"
                           : stats->cache_hit  ? "hit"
                                               : "miss";
    trace->build_ms = stats->main_exec_ms;
    trace->main_comp_ms = stats->main_comp_ms;
    trace->delta_comp_ms = stats->delta_comp_ms;
  }
  return result;
}

Status AggregateCacheManager::Prewarm(const AggregateQuery& query) {
  if (!query.IsCacheable()) {
    return Status::InvalidArgument("query does not qualify for the cache");
  }
  ASSIGN_OR_RETURN(BoundQuery bound, BoundQuery::Bind(*db_, query));
  ReadView view = ReadView::Acquire(*db_, bound.tables);
  Snapshot snapshot = view.snapshot();
  ASSIGN_OR_RETURN(std::shared_ptr<CacheEntry> entry,
                   GetOrCreateEntry(bound, MakeCacheKey(query), snapshot,
                                    nullptr));
  if (entry == nullptr) {
    return Status::FailedPrecondition("aggregate not profitable enough");
  }
  std::unique_lock<std::shared_mutex> value_lock(entry->value_mutex());
  if (entry->base_tid() > snapshot.read_tid) return Status::Ok();
  return MainCompensate(*entry, snapshot, nullptr);
}

std::vector<AggregateCacheManager::LedgerEntry>
AggregateCacheManager::LedgerSnapshot() const {
  std::vector<LedgerEntry> ledger;
  for (const std::shared_ptr<CacheEntry>& entry : SnapshotEntries()) {
    const CacheEntryMetrics& m = entry->metrics();
    LedgerEntry row;
    row.query = entry->key().canonical;
    row.hits = m.hit_count.load(std::memory_order_relaxed);
    row.size_bytes = m.size_bytes.load(std::memory_order_relaxed);
    row.main_exec_ms = m.main_exec_ms.load(std::memory_order_relaxed);
    row.ewma_hit_ms = m.ewma_hit_ms.load(std::memory_order_relaxed);
    row.ewma_delta_comp_ms =
        m.ewma_delta_comp_ms.load(std::memory_order_relaxed);
    row.ewma_rebuild_ms = m.ewma_rebuild_ms.load(std::memory_order_relaxed);
    row.ewma_delta_rows = m.ewma_delta_rows.load(std::memory_order_relaxed);
    row.delta_rows_scanned =
        m.delta_rows_scanned.load(std::memory_order_relaxed);
    row.saved_ms_total = m.saved_ms_total.load(std::memory_order_relaxed);
    row.profit = m.Profit();
    row.ewma_hit_cycles = m.ewma_hit_cycles.load(std::memory_order_relaxed);
    row.ewma_hit_llc_miss =
        m.ewma_hit_llc_miss.load(std::memory_order_relaxed);
    ledger.push_back(std::move(row));
  }
  // Biggest net winners first; ties broken by key so the ordering is
  // deterministic for goldens and diffs.
  std::sort(ledger.begin(), ledger.end(),
            [](const LedgerEntry& x, const LedgerEntry& y) {
              if (x.saved_ms_total != y.saved_ms_total) {
                return x.saved_ms_total > y.saved_ms_total;
              }
              return x.query < y.query;
            });
  return ledger;
}

std::string AggregateCacheManager::LedgerJson() const {
  std::vector<LedgerEntry> ledger = LedgerSnapshot();
  std::string out;
  out.reserve(64 + ledger.size() * 256);
  out += "{\"schema\":\"aggcache-ledger-v1\",\"entries\":[";
  bool first = true;
  for (const LedgerEntry& row : ledger) {
    if (!first) out += ",";
    first = false;
    out += "{\"query\":\"";
    AppendJsonEscaped(&out, row.query);
    out += "\",\"hits\":";
    out += std::to_string(row.hits);
    out += ",\"size_bytes\":";
    out += std::to_string(row.size_bytes);
    out += StrFormat(",\"main_exec_ms\":%.3f", row.main_exec_ms);
    out += StrFormat(",\"ewma_hit_ms\":%.3f", row.ewma_hit_ms);
    out += StrFormat(",\"ewma_delta_comp_ms\":%.3f", row.ewma_delta_comp_ms);
    out += StrFormat(",\"ewma_rebuild_ms\":%.3f", row.ewma_rebuild_ms);
    out += StrFormat(",\"ewma_delta_rows\":%.1f", row.ewma_delta_rows);
    out += ",\"delta_rows_scanned\":";
    out += std::to_string(row.delta_rows_scanned);
    out += StrFormat(",\"saved_ms_total\":%.3f", row.saved_ms_total);
    out += StrFormat(",\"profit\":%.3f", row.profit);
    out += StrFormat(",\"ewma_hit_cycles\":%.0f", row.ewma_hit_cycles);
    out += StrFormat(",\"ewma_hit_llc_miss\":%.0f}", row.ewma_hit_llc_miss);
  }
  out += "]}";
  return out;
}

std::string AggregateCacheManager::LedgerText(size_t top_n) const {
  std::vector<LedgerEntry> ledger = LedgerSnapshot();
  std::string out = StrFormat(
      "aggregate cache ledger: %zu entries, showing %zu (by saved ms)\n",
      ledger.size(), std::min(top_n, ledger.size()));
  out +=
      "   saved_ms    hits  hit_ms  comp_ms  rebuild_ms  delta_rows"
      "       bytes  hit_Mcyc  query\n";
  size_t shown = 0;
  for (const LedgerEntry& row : ledger) {
    if (shown++ >= top_n) break;
    out += StrFormat(
        "%11.3f %7llu %7.3f %8.3f %11.3f %11llu %11zu %9.2f  %s\n",
        row.saved_ms_total, static_cast<unsigned long long>(row.hits),
        row.ewma_hit_ms, row.ewma_delta_comp_ms, row.ewma_rebuild_ms,
        static_cast<unsigned long long>(row.delta_rows_scanned),
        row.size_bytes, row.ewma_hit_cycles / 1e6, row.query.c_str());
  }
  return out;
}

PruneStats AggregateCacheManager::prune_stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return prune_stats_;
}

void AggregateCacheManager::ResetPruneStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  prune_stats_ = PruneStats();
}

void AggregateCacheManager::UpdateDegradedMode(bool under_pressure) {
  if (degraded_.exchange(under_pressure, std::memory_order_relaxed) ==
      under_pressure) {
    return;
  }
  EngineMetrics::Get().degraded_flips->Increment();
  EngineMetrics::Get().degraded_mode->Set(under_pressure ? 1 : 0);
  RecordFlightEvent(FlightEventType::kDegradedFlip, under_pressure ? 1 : 0);
}

void AggregateCacheManager::EvictIfNeeded(const CacheEntry* keep) {
  // All shard locks in index order (the only multi-shard order used) so
  // the budget check and victim ranking see one consistent map state.
  std::array<std::unique_lock<std::mutex>, kNumShards> shard_locks;
  for (size_t i = 0; i < kNumShards; ++i) {
    shard_locks[i] = std::unique_lock<std::mutex>(shards_[i].mu);
  }
  AssertByteAccountingLocked();

  // Claiming a victim = winning its kReady -> kEvicted transition; entries
  // that are building or rebuilding are never touched, and readers that
  // already hold a shared_ptr keep the value alive regardless. Eviction
  // therefore never blocks on (or frees under) a long-running computation.
  using EntryIter = decltype(Shard::entries)::iterator;
  auto claim_and_erase = [&](Shard& shard, EntryIter it) {
    std::shared_ptr<CacheEntry>& entry = it->second;
    if (!entry->TryTransition(EntryState::kReady, EntryState::kEvicted)) {
      return false;
    }
    {
      std::lock_guard<std::mutex> bytes_lock(bytes_mu_);
      SetBytesAccountedLocked(*entry, false);
    }
    shard.entries.erase(it);
    EngineMetrics::Get().cache_evictions->Increment();
    return true;
  };

  if (!FaultInjector::Global().MaybeFail("cache.evict_all").ok()) {
    // Simulated memory pressure: drop every entry except the one the
    // caller still holds a pointer to. Results must stay correct — the
    // next access simply rebuilds from scratch.
    for (Shard& shard : shards_) {
      for (auto it = shard.entries.begin(); it != shard.entries.end();) {
        auto next = std::next(it);
        if (it->second.get() != keep) claim_and_erase(shard, it);
        it = next;
      }
    }
    AssertByteAccountingLocked();
    return;
  }

  size_t num_entries = 0;
  for (const Shard& shard : shards_) num_entries += shard.entries.size();
  auto current_bytes = [&] {
    std::lock_guard<std::mutex> bytes_lock(bytes_mu_);
    return total_bytes_;
  };
  auto over_budget = [&] {
    bool over_count =
        config_.max_entries != 0 && num_entries > config_.max_entries;
    bool over_bytes =
        config_.max_bytes != 0 && current_bytes() > config_.max_bytes;
    // Under process memory pressure the cache sheds entries even below its
    // configured budget — re-evaluated per victim, so eviction stops the
    // moment the released bytes bring the tracker back under the line.
    bool pressure = MemoryTracker::Process().UnderPressure() &&
                    current_bytes() > 0;
    return (over_count || over_bytes || pressure) && num_entries > 1;
  };
  if (!over_budget()) return;

  // Rank victims once by (profit asc, recency asc); the just-created entry
  // (`keep`) is never evicted so its creator can keep using it.
  struct Victim {
    Shard* shard;
    EntryIter it;
  };
  std::vector<Victim> victims;
  victims.reserve(num_entries);
  for (Shard& shard : shards_) {
    for (auto it = shard.entries.begin(); it != shard.entries.end(); ++it) {
      if (it->second.get() != keep) victims.push_back({&shard, it});
    }
  }
  std::sort(victims.begin(), victims.end(),
            [](const Victim& a, const Victim& b) {
              const CacheEntryMetrics& ma = a.it->second->metrics();
              const CacheEntryMetrics& mb = b.it->second->metrics();
              if (ma.Profit() != mb.Profit()) {
                return ma.Profit() < mb.Profit();
              }
              return ma.last_access_ns.load(std::memory_order_relaxed) <
                     mb.last_access_ns.load(std::memory_order_relaxed);
            });
  for (const Victim& victim : victims) {
    if (!over_budget()) break;
    if (claim_and_erase(*victim.shard, victim.it)) --num_entries;
  }
  AssertByteAccountingLocked();
}

void AggregateCacheManager::RecordMaintenanceFailure(CacheEntry& entry,
                                                     const Status& status) {
  // Merge-time maintenance is best-effort: an executor error must not take
  // the process down. The entry is marked so the next access rebuilds it
  // from scratch instead of serving a half-maintained value.
  ++entry.metrics().maintenance_failures;
  entry.MarkForRebuild();
  RecordFlightEvent(FlightEventType::kMaintenanceFailure,
                    static_cast<uint64_t>(entry.key().hash), 0,
                    status.message().c_str());
  std::cerr << "aggcache: merge maintenance failed for entry "
            << entry.key().canonical << ": " << status.ToString()
            << " (marked for rebuild)\n";
}

void AggregateCacheManager::OnBeforeMerge(Table& table, size_t group_index,
                                          const Snapshot& snapshot) {
  // The merge snapshot pins the delta rows this merge moves; recording its
  // issuance here (once per merged group, not per transaction) timestamps
  // the visibility boundary every maintenance fold below runs under.
  RecordFlightEvent(FlightEventType::kSnapshotIssued,
                    static_cast<uint64_t>(snapshot.read_tid), group_index,
                    table.name().c_str());
  // Runs under the merge's table locks: exclusive on `table`, shared on
  // every other catalog table. No reader of an entry referencing `table`
  // can be in flight (it would hold a shared lock the merge excludes), so
  // each entry's value lock below is immediately available — taking it
  // still orders this pass against readers of entries we end up skipping.
  //
  // `snapshot` is the merge snapshot: the delta rows visible under it are
  // exactly the rows this merge moves into main, so the fold below and the
  // physical merge agree row-for-row even with atomic write scopes in
  // flight (their unstable rows are invisible here and stay in the delta).
  for (const std::shared_ptr<CacheEntry>& entry : SnapshotEntries()) {
    std::optional<size_t> table_pos = TablePosition(*entry, table);
    if (!table_pos) continue;
    std::unique_lock<std::shared_mutex> value_lock(entry->value_mutex());
    // The merge replaces the partitions the memo's prefixes index into.
    DropDeltaMemo(*entry, MemoReset::kMerge);
    if (!entry->ShapeMatches()) {
      // Marked or stale-shaped: the next access rebuilds it from the merged
      // mains, as OnAfterMerge defers it; nothing to fold into.
      entry->MarkForRebuild();
      continue;
    }
    Stopwatch watch;
    Status status = FaultInjector::Global().MaybeFail("maintenance.compensate");
    if (status.ok()) status = MainCompensate(*entry, snapshot, nullptr);
    if (!status.ok()) {
      RecordMaintenanceFailure(*entry, status);
      continue;
    }

    // Fold the merging delta into every cached partial whose combination
    // will absorb it: partial(C) += result(C with this table's main
    // replaced by its delta), computed while the delta still exists. Every
    // fold runs before any partial changes, so a failed fold leaves the
    // partials as they were (and the entry marked for rebuild).
    std::vector<SubjoinCombination> delta_combos;
    for (const auto& [combo, partial] : entry->main_partials()) {
      if (combo[*table_pos].group != group_index) continue;
      delta_combos.push_back(combo);
      delta_combos.back()[*table_pos].kind = PartitionKind::kDelta;
    }
    JoinPruner pruner(db_, PruneLevel::kFull);
    std::vector<SubjoinTask> tasks =
        PlanSubjoins(entry->bound(), std::move(delta_combos), &pruner,
                     /*use_pushdown=*/false, "fold");
    auto folds = executor_.ExecuteSubjoins(entry->bound(), tasks, snapshot,
                                           "fold", "maintenance.fold",
                                           /*stats=*/nullptr);
    if (!folds.ok()) {
      RecordMaintenanceFailure(*entry, folds.status());
      continue;
    }
    for (size_t i = 0; i < tasks.size(); ++i) {
      SubjoinCombination& combo = tasks[i].combination;
      combo[*table_pos].kind = PartitionKind::kMain;
      entry->main_partials().at(combo).MergeFrom((*folds)[i]);
    }
    PublishEntry(*entry);
    CacheEntryMetrics::Add(entry->metrics().maintenance_ms,
                           watch.ElapsedMillis());
  }
}

void AggregateCacheManager::OnAfterMerge(Table& table, size_t group_index,
                                         const Snapshot& snapshot) {
  (void)group_index;
  for (const std::shared_ptr<CacheEntry>& entry : SnapshotEntries()) {
    if (!TablePosition(*entry, table)) continue;
    if (entry->needs_rebuild()) continue;  // Deferred to the next access.
    std::unique_lock<std::shared_mutex> value_lock(entry->value_mutex());
    RefreshSnapshots(*entry, snapshot);
    PublishEntry(*entry);
  }
}

void AggregateCacheManager::OnMergeAborted(Table& table, size_t group_index) {
  (void)group_index;
  // OnBeforeMerge already folded the merging delta into the affected
  // entries, but the delta survived the abort — a cached read would now
  // double-count it. There is no cheap undo (the fold mutated the
  // partials), so every entry touching the table degrades to a rebuild on
  // next access.
  for (const std::shared_ptr<CacheEntry>& entry : SnapshotEntries()) {
    if (!TablePosition(*entry, table)) continue;
    RecordMaintenanceFailure(
        *entry, Status::Internal("merge of '" + table.name() +
                                 "' aborted after forward maintenance"));
  }
}

}  // namespace aggcache
