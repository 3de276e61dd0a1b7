#ifndef AGGCACHE_STORAGE_DELTA_MERGE_H_
#define AGGCACHE_STORAGE_DELTA_MERGE_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "storage/partition.h"
#include "txn/types.h"

namespace aggcache {

class Table;

/// Options for the delta merge.
struct MergeOptions {
  /// Keep invalidated rows in the rebuilt main (with their invalidate_tid)
  /// so temporal queries on historical data remain possible, as the paper
  /// notes in Section 2. When false, invalidated rows are physically
  /// removed during the merge.
  bool keep_invalidated = false;
};

/// Builds a read-optimized main partition in code space (Krueger et al.'s
/// two-step merge): the rows `main_rows` of `main` followed by the rows
/// `delta_rows` of `delta`, both ascending, each with its MVCC stamps.
///
/// Per column, the used values of main's sorted dictionary and the used
/// distinct values of the delta (sorted here, and only those) are merged
/// linearly into the new sorted dictionary, yielding monotone old→new and
/// delta→new code maps; codes are then re-encoded through the maps in
/// 1024-row blocks. Values no selected row uses are dropped. A column that
/// gains and loses no value keeps main's dictionary, shared.
///
/// Every value of a main dictionary is used by some row of that main; the
/// partitions this function builds keep that invariant.
Partition BuildMainPartition(const Partition& main,
                             std::span<const uint32_t> main_rows,
                             const Partition& delta,
                             std::span<const uint32_t> delta_rows);

/// Merges the delta of one partition group into its main: surviving rows
/// (plus invalidated ones when keep_invalidated) are rebuilt into a fresh
/// main by BuildMainPartition, and the delta is emptied. The table's
/// primary-key index is updated in place. Use Database::Merge to also
/// notify merge observers (aggregate cache maintenance).
///
/// Only rows whose MVCC stamps are stable at `snapshot` move (or, when
/// invalidated, are dropped); a delta row created by an atomic write scope
/// still in flight at `snapshot` stays behind in the fresh delta, with its
/// timestamps preserved. This keeps the merge invisible to such scopes and
/// lets observers equate "the delta visible at `snapshot`" with "the rows
/// this merge moved". The overload without a snapshot moves everything
/// (direct storage-level callers with no concurrent transactions).
Status MergeTableGroup(Table& table, size_t group_index,
                       const MergeOptions& options, const Snapshot& snapshot);
Status MergeTableGroup(Table& table, size_t group_index,
                       const MergeOptions& options);

}  // namespace aggcache

#endif  // AGGCACHE_STORAGE_DELTA_MERGE_H_
