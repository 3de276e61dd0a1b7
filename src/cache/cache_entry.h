#ifndef AGGCACHE_CACHE_CACHE_ENTRY_H_
#define AGGCACHE_CACHE_CACHE_ENTRY_H_

#include <atomic>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

#include "cache/cache_key.h"
#include "cache/cache_metrics.h"
#include "cache/compensation.h"
#include "common/bit_vector.h"
#include "obs/flight_recorder.h"
#include "query/aggregate_result.h"
#include "query/executor.h"
#include "query/subjoin.h"
#include "txn/types.h"

namespace aggcache {

/// Lifecycle of a cache entry under concurrency (DESIGN.md §6).
///
///   kBuilding --> kReady <--> kRebuilding
///       |            |
///       +--> kEvicted <--+
///
/// A freshly inserted entry is kBuilding: exactly one creator materializes
/// it while concurrent misses on the same key wait (single-flight). kReady
/// entries serve reads; an access that must recompute from scratch (shape
/// change) moves through kRebuilding so eviction leaves it alone. kEvicted
/// is terminal: the entry has left the map, waiters give up and retry, and
/// the memory is freed when the last shared_ptr holder drops it.
enum class EntryState : uint8_t {
  kBuilding = 0,
  kReady = 1,
  kRebuilding = 2,
  kEvicted = 3,
};

/// One aggregate cache entry: the result of the query computed on main
/// partitions only (the cache value), the visibility snapshot of those main
/// partitions at computation time, and profit metrics — the structure of
/// Fig. 2 in the paper.
///
/// The main-only result is stored per all-main subjoin combination rather
/// than as one blob. With a single partition group this is exactly one
/// partial; with hot/cold groups it realizes the paper's per-temperature
/// caches (Section 5.4): a merge of the hot group only touches partials
/// whose combination involves that group's main.
///
/// Concurrency: the cached value (partials, published main result,
/// snapshots, base_tid) is guarded by value_mutex() — shared to read,
/// exclusive to compensate or rebuild. State transitions and waiting use
/// their own small mutex so eviction never blocks on a long-running
/// compensation. Metrics are atomics. The raw accessors do not lock;
/// callers hold the value lock.
class CacheEntry {
 public:
  /// Keeps a copy of `bound` and of its query for the entry's whole life:
  /// the catalog only grows, so the binding never goes stale, and
  /// maintenance reads it instead of re-binding. The copy's query pointer
  /// is re-pointed at the entry's own query, so an entry is never copied or
  /// moved; it lives where it was constructed.
  CacheEntry(CacheKey key, const BoundQuery& bound)
      : key_(std::move(key)), query_(*bound.query), bound_(bound) {
    bound_.query = &query_;
  }

  CacheEntry(const CacheEntry&) = delete;
  CacheEntry& operator=(const CacheEntry&) = delete;

  const CacheKey& key() const { return key_; }
  const AggregateQuery& query() const { return query_; }
  /// The entry's query bound against the catalog, MDs included.
  const BoundQuery& bound() const { return bound_; }

  /// Visibility snapshot of one main partition at entry (re)computation.
  struct MainSnapshot {
    BitVector visibility;
    size_t row_count = 0;
    /// Invalidation counter at snapshot time; the difference to the
    /// partition's current counter is the entry's dirty counter.
    uint64_t invalidation_count = 0;
  };

  /// Cached partial results keyed by all-main subjoin combination.
  std::map<SubjoinCombination, AggregateResult>& main_partials() {
    return main_partials_;
  }
  const std::map<SubjoinCombination, AggregateResult>& main_partials() const {
    return main_partials_;
  }

  /// Union of all cached partials, the main-only query result, as last
  /// published by PublishMainResult(). Its groups are shared, so copying
  /// it under the value lock costs a reference-count bump, and the copy
  /// keeps its groups when the entry later republishes.
  const AggregateResult& main_result() const { return main_result_; }

  /// Merges the partials into a fresh shared main_result() and recomputes
  /// metrics().size_bytes, the delta memo's bytes included. Runs under the
  /// exclusive value lock after every change to the partials or snapshots.
  void PublishMainResult();

  /// Snapshots indexed [query table][partition group].
  std::vector<std::vector<MainSnapshot>>& snapshots() { return snapshots_; }
  const std::vector<std::vector<MainSnapshot>>& snapshots() const {
    return snapshots_;
  }

  CacheEntryMetrics& metrics() { return metrics_; }
  const CacheEntryMetrics& metrics() const { return metrics_; }

  /// True when any referenced main partition saw invalidations since the
  /// snapshot was taken (the dirty counter is non-zero), i.e. main
  /// compensation is required before the entry can be used.
  bool IsDirty() const;

  /// True when the stored snapshot structure still matches the bound
  /// tables' partition-group layout (a hot/cold split changes it; the entry
  /// must then be rebuilt). Also false while the entry is marked for
  /// rebuild.
  bool ShapeMatches() const;

  /// Flags the cached value as unusable until the next rebuild — set when
  /// merge-time maintenance fails partway, instead of aborting the process.
  /// ShapeMatches() reports false until RebuildEntry clears the mark.
  void MarkForRebuild() {
    needs_rebuild_.store(true, std::memory_order_relaxed);
  }
  void ClearRebuildMark() {
    needs_rebuild_.store(false, std::memory_order_relaxed);
  }
  bool needs_rebuild() const {
    return needs_rebuild_.load(std::memory_order_relaxed);
  }

  /// Reader-writer lock over the cached value (partials, published main
  /// result, snapshots, base_tid): shared to read a clean entry, exclusive
  /// to compensate, fold, or rebuild it.
  std::shared_mutex& value_mutex() const { return value_mu_; }

  /// The snapshot tid the cached value is based on: the tid of the last
  /// rebuild or compensation. A reader whose own snapshot is OLDER than
  /// this cannot use the entry (compensation only moves forward in time)
  /// and falls back to uncached execution. Guarded by value_mutex().
  Tid base_tid() const { return base_tid_; }
  void set_base_tid(Tid tid) { base_tid_ = tid; }

  // -- Delta memo (DESIGN.md §6c) ------------------------------------------

  /// The published delta memo, or null. `dropped`, when given, receives
  /// why the last one was dropped (kNone while one is published or none
  /// ever was). Takes only the memo's own mutex, never the value lock, so
  /// publishing never waits behind a compensation and readers never wait
  /// behind a publisher for longer than a pointer copy.
  std::shared_ptr<const DeltaMemo> delta_memo(
      MemoReset* dropped = nullptr) const;

  /// Publishes `next` in place of the memo while the published one is still
  /// `expected`; returns whether it did. A null `next` drops the memo for
  /// `reason`. Keeps metrics().size_bytes in step; the cache manager calls
  /// this under its byte-accounting mutex.
  bool PublishDeltaMemo(const DeltaMemo* expected,
                        std::shared_ptr<const DeltaMemo> next,
                        MemoReset reason);

  /// Drops whatever memo is published for `reason`; returns whether there
  /// was one. Same locking as PublishDeltaMemo.
  bool DropDeltaMemo(MemoReset reason);

  // -- State machine -------------------------------------------------------

  EntryState state() const {
    std::lock_guard<std::mutex> lock(state_mu_);
    return state_;
  }

  /// Unconditional transition; wakes all waiters.
  void SetState(EntryState next) {
    EntryState prev;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      prev = state_;
      state_ = next;
    }
    RecordStateTransition(prev, next);
    state_cv_.notify_all();
  }

  /// Transition only when currently in `expected`; returns whether it
  /// happened. Eviction uses this to claim kReady entries race-free.
  bool TryTransition(EntryState expected, EntryState next) {
    bool transitioned = false;
    {
      std::lock_guard<std::mutex> lock(state_mu_);
      if (state_ == expected) {
        state_ = next;
        transitioned = true;
      }
    }
    if (transitioned) {
      RecordStateTransition(expected, next);
      state_cv_.notify_all();
    }
    return transitioned;
  }

  /// Blocks while the entry is kBuilding or kRebuilding; returns the first
  /// settled state observed (kReady or kEvicted). This is the wait side of
  /// single-flight: concurrent misses park here while the creator runs.
  /// `waited`, when given, reports whether the caller actually parked (the
  /// entry was unsettled on arrival) — observed under the state lock this
  /// call takes anyway, so metrics need no extra acquisition.
  EntryState WaitUntilSettled(bool* waited = nullptr) const {
    std::unique_lock<std::mutex> lock(state_mu_);
    auto settled = [this] {
      return state_ == EntryState::kReady || state_ == EntryState::kEvicted;
    };
    if (waited != nullptr) *waited = !settled();
    state_cv_.wait(lock, settled);
    return state_;
  }

  /// Byte-accounting residency flag, owned by AggregateCacheManager and
  /// guarded by its byte-accounting mutex — true while this entry's
  /// size_bytes is included in the manager's running total.
  bool bytes_accounted = false;

 private:
  /// Swaps in `next`, adjusting size_bytes. Caller holds memo_mu_.
  void SwapDeltaMemoLocked(std::shared_ptr<const DeltaMemo> next,
                           MemoReset reason);

  /// Ships every lifecycle edge to the flight recorder: a = key hash (the
  /// entry's stable id across its whole life), b = from<<8 | to. Called
  /// outside state_mu_ — the recorder is lock-free and ordering across
  /// racing transitions is whatever the state machine itself allowed.
  void RecordStateTransition(EntryState from, EntryState to) const {
    RecordFlightEvent(FlightEventType::kEntryState,
                      static_cast<uint64_t>(key_.hash),
                      (static_cast<uint64_t>(from) << 8) |
                          static_cast<uint64_t>(to));
  }

  CacheKey key_;
  AggregateQuery query_;
  BoundQuery bound_;  ///< bound_.query == &query_.
  std::map<SubjoinCombination, AggregateResult> main_partials_;
  AggregateResult main_result_;
  std::vector<std::vector<MainSnapshot>> snapshots_;
  CacheEntryMetrics metrics_;
  Tid base_tid_ = 0;

  mutable std::mutex memo_mu_;
  std::shared_ptr<const DeltaMemo> memo_;  ///< Guarded by memo_mu_.
  MemoReset memo_dropped_ = MemoReset::kNone;  ///< Guarded by memo_mu_.

  mutable std::shared_mutex value_mu_;
  mutable std::mutex state_mu_;
  mutable std::condition_variable state_cv_;
  EntryState state_ = EntryState::kBuilding;
  std::atomic<bool> needs_rebuild_{false};
};

}  // namespace aggcache

#endif  // AGGCACHE_CACHE_CACHE_ENTRY_H_
