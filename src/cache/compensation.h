#ifndef AGGCACHE_CACHE_COMPENSATION_H_
#define AGGCACHE_CACHE_COMPENSATION_H_

#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "objectaware/join_pruning.h"
#include "query/executor.h"

namespace aggcache {

/// Plans one subjoin: asks `pruner` (when non-null) whether it can be
/// skipped, with `tid_bounds` supplying the Eq. 5 bounds of the rows the
/// task reads (the whole partitions' when empty), derives MD pushdown
/// filters for a survivor when `use_pushdown` is set (Section 5.3), and
/// records the EXPLAIN event under `phase`, pruned or not. Returns the task
/// when it must run.
std::optional<SubjoinTask> PlanSubjoin(const BoundQuery& bound,
                                       SubjoinTask task, JoinPruner* pruner,
                                       bool use_pushdown, const char* phase,
                                       const TidBoundsFn& tid_bounds = nullptr);

/// PlanSubjoin over whole-partition combinations, in order: the planner of
/// entry builds, merge-time folds and the uncached union. Returns one task
/// per surviving combination, in combination order.
std::vector<SubjoinTask> PlanSubjoins(const BoundQuery& bound,
                                      std::vector<SubjoinCombination> combos,
                                      JoinPruner* pruner, bool use_pushdown,
                                      const char* phase);

/// Appends the EXPLAIN event for one subjoin to the calling thread's active
/// trace; no-op (a thread-local null check) without one. The event carries
/// the combination with the row ranges of split partitions, the verdict
/// (pruned when `decision` fired, pushdown when the task has filters,
/// executed otherwise) and, when `md_tid_ranges` is set, the tid ranges of
/// `bound.mds` the verdict was decided on (from `tid_bounds`, or the whole
/// partitions' when empty). Must run on the orchestration thread (trace
/// updates are unlocked).
void RecordSubjoin(const BoundQuery& bound, const SubjoinTask& task,
                   const char* phase, const PruneDecision& decision,
                   bool md_tid_ranges,
                   const TidBoundsFn& tid_bounds = nullptr);

/// Why a read did not use (or could not publish) its entry's delta memo.
enum class MemoReset : uint8_t {
  kNone = 0,
  /// A partition a non-empty memo combination reads lost a row since.
  kInvalidation = 1,
  /// A merge replaced the partitions; OnBeforeMerge drops the memo.
  kMerge = 2,
  /// The entry was rebuilt (shape change, rebuild mark, full main
  /// compensation).
  kRebuild = 3,
  /// The reader's snapshot does not cover the memo's; it bypasses it.
  kOlderSnapshot = 4,
  /// A main the memo would read carries an invalidation that is not stable
  /// under the reader's snapshot, so no memo is published.
  kUnstableRows = 5,
};

const char* MemoResetToString(MemoReset reason);

/// A cache entry's delta memo (DESIGN.md §6c): the compensation over every
/// compensation combination with each delta cut at a stable row prefix.
/// Immutable once published; entries hold it through a shared pointer.
struct DeltaMemo {
  /// Every stamp of every prefix row is TidStable under this snapshot (the
  /// snapshot of the read that published the memo).
  Snapshot snapshot;
  /// The memo tid: the newest MVCC stamp the memo depends on, over its
  /// prefix rows and the invalidations of the mains it records. A reader
  /// older than it bypasses the memo; a reader older than `snapshot` but
  /// not than this tid still uses it.
  Tid tid = kNoTid;
  /// Union of the compensation combinations over the mains and the delta
  /// prefixes, in a shared group map.
  AggregateResult partial;

  /// One delta's prefix: its first `rows` rows.
  struct Prefix {
    uint32_t rows = 0;
    /// Prefix rows already invalidated at memo time; a prefix row
    /// invalidated later changes this count.
    uint32_t invalidated = 0;
    /// The delta's invalidation counter at memo time: while it holds, no
    /// prefix row was invalidated and the count above needs no recount.
    uint64_t invalidation_count = 0;
    /// (MD tid column, its bounds over the prefix), for Eq. 5.
    std::vector<std::pair<size_t, TidBounds>> tid_bounds;
  };
  /// Indexed [query table][partition group].
  std::vector<std::vector<Prefix>> prefixes;

  /// A main partition some non-empty memo combination reads, with its
  /// invalidation counter at memo time. A main no non-empty combination
  /// reads is not recorded: losing rows cannot make an empty join
  /// non-empty.
  struct MainRead {
    size_t table = 0;
    uint32_t group = 0;
    uint64_t invalidation_count = 0;
  };
  std::vector<MainRead> mains;

  /// ByteSize() at publish time, while the partial's groups are still in
  /// cache: the entry's byte accounting reads this, never re-walks them.
  size_t bytes = 0;

  /// True when a reader at `reader` sees every stamp the memo depends on
  /// as stable too: its read tid is not older than the memo tid, and it
  /// excludes no tid the memo may have counted.
  bool Covers(const Snapshot& reader) const;

  size_t ByteSize() const;
};

/// The outcome of one delta compensation.
struct DeltaCompensation {
  /// Every compensation combination under the read's snapshot: its union
  /// with the cached main result is the answer.
  AggregateResult result;
  /// Whether the memo passed in served its prefixes.
  bool memo_used = false;
  /// Why it did not, or why no memo could be published (kNone otherwise).
  MemoReset reset = MemoReset::kNone;
  /// When set, the memo to publish in place of the one passed in (null
  /// drops a stale one).
  std::optional<std::shared_ptr<const DeltaMemo>> publish;
};

/// Delta compensation (Section 2.3.2) over the compensation combinations
/// under `snapshot`, skipping those the pruner proves empty and, when
/// `use_pushdown` is set, applying MD-derived local predicates to the rest
/// (Section 5.3).
///
/// With a valid `memo`, each delta splits into the memo's prefix, the
/// stable rows past it, and an unstable tail: only combinations touching a
/// row past a prefix are planned (a read with nothing new plans none), and
/// the memo's partial stands in for the rest. The result then carries the
/// memo advanced over the newly stable rows. A null `memo` is a cold one:
/// the first read plans every compensation combination. The work of the
/// executed subjoins is added to `stats` when given; the considered and
/// pruned counts are in `pruner.stats()`.
StatusOr<DeltaCompensation> DeltaCompensate(const Executor& executor,
                                            const BoundQuery& bound,
                                            JoinPruner& pruner,
                                            bool use_pushdown,
                                            Snapshot snapshot,
                                            const DeltaMemo* memo,
                                            ExecutorStats* stats);

}  // namespace aggcache

#endif  // AGGCACHE_CACHE_COMPENSATION_H_
