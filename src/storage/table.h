#ifndef AGGCACHE_STORAGE_TABLE_H_
#define AGGCACHE_STORAGE_TABLE_H_

#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/partition.h"
#include "storage/schema.h"
#include "txn/transaction_manager.h"

namespace aggcache {

class Database;
class EpochManager;

/// Physical address of a row within a table.
struct RowLocation {
  uint32_t group = 0;
  PartitionKind kind = PartitionKind::kDelta;
  uint32_t row = 0;

  bool operator==(const RowLocation& other) const {
    return group == other.group && kind == other.kind && row == other.row;
  }
};

/// One temperature class of a table: a main/delta pair. Unpartitioned tables
/// have a single hot group; SplitHotCold adds a cold group (Section 5.4).
struct PartitionGroup {
  AgeClass age = AgeClass::kHot;
  Partition main;
  Partition delta;
};

/// Per-insert switches, exposed so the Section 6.3 experiment can isolate
/// the cost of referential-integrity checking and of the matching-dependency
/// tid lookup. Production inserts use the defaults.
struct InsertOptions {
  /// Verify that each foreign key references an existing row.
  bool check_referential_integrity = true;
  /// Copy the referenced row's own-tid into the local MD tid column
  /// (requires the referenced row to exist). When disabled, MD tid columns
  /// are filled with 0 and declared matching dependencies no longer hold —
  /// only ever disable this for overhead measurements.
  bool maintain_tid_columns = true;
};

/// A columnar table in the main-delta architecture.
///
/// Inserts append to the hot delta partition; updates and deletes invalidate
/// the old row version (setting its invalidate_tid) and, for updates, insert
/// the new version into the delta. The delta merge (storage/delta_merge.h)
/// periodically rebuilds the main partition from the surviving rows.
///
/// The table enforces the paper's object-aware design at insert time: the
/// own-tid column receives the inserting transaction's id, and each foreign
/// key with a declared MD tid column receives the referenced row's own-tid —
/// the matching dependency of Eq. 6.
///
/// Threading model (DESIGN.md §6): every table carries a reader-writer
/// mutex. The mutating statement APIs (Insert/UpdateByPk/DeleteByPk/
/// UpdateColumnByPk/SplitHotCold) acquire it internally — exclusive on this
/// table, shared on foreign-key parents they read — so each statement is
/// atomic with respect to concurrent readers. Read paths that must be safe
/// against concurrent writers (query execution, the merge daemon's delta
/// sizing) acquire shared locks through TableLockSet/ReadView at their API
/// boundary; the raw accessors (group(), FindByPk(), ValueAt(), ...) do NOT
/// lock and are safe only single-threaded or under a held lock.
class Table {
 public:
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const TableSchema& schema() const { return schema_; }
  const std::string& name() const { return schema_.name; }

  size_t num_groups() const { return groups_.size(); }
  const PartitionGroup& group(size_t i) const { return groups_[i]; }
  PartitionGroup& mutable_group(size_t i) { return groups_[i]; }

  /// Inserts one row. `user_values` holds values for the non-tid columns in
  /// schema order; the engine fills tid columns itself.
  Status Insert(const Transaction& txn, const std::vector<Value>& user_values,
                const InsertOptions& options = InsertOptions());

  /// Invalidates the current version of the row keyed by `pk` and inserts
  /// the new version into the delta (out-of-place update).
  ///
  /// The new version keeps the old version's own-tid: the tid records when
  /// the business object was created, so matching dependencies into this
  /// table (rows elsewhere that copied the tid) remain valid across
  /// updates, keeping dynamic join pruning sound. The paper leaves update
  /// handling as future work (Section 8); preserving the object tid is this
  /// library's resolution.
  Status UpdateByPk(const Transaction& txn, const Value& pk,
                    const std::vector<Value>& new_user_values,
                    const InsertOptions& options = InsertOptions());

  /// Invalidates the row keyed by `pk`.
  Status DeleteByPk(const Transaction& txn, const Value& pk);

  /// Atomically replaces a single user column of the row keyed by `pk`
  /// (read-modify-write under this table's exclusive lock): the old version
  /// is invalidated and the new one inserted into the delta, like
  /// UpdateByPk. Safe to call concurrently with readers and other writers —
  /// the value read and the version written cannot interleave with another
  /// statement.
  Status UpdateColumnByPk(const Transaction& txn, const Value& pk,
                          const std::string& column, const Value& new_value,
                          const InsertOptions& options = InsertOptions());

  /// Location of the valid row with the given primary key, if any.
  std::optional<RowLocation> FindByPk(const Value& pk) const;

  /// Decoded value at a location.
  const Value& ValueAt(const RowLocation& loc, size_t column) const;

  const Partition& partition(const RowLocation& loc) const {
    const PartitionGroup& g = groups_[loc.group];
    return loc.kind == PartitionKind::kMain ? g.main : g.delta;
  }

  /// Physical row count across all partitions, including invalidated rows.
  size_t TotalRows() const;

  /// Rows visible to `snapshot`.
  size_t VisibleRows(Snapshot snapshot) const;

  /// Column storage footprint across all partitions (Section 6.2).
  size_t ColumnByteSize() const;

  /// Splits a single-group table into hot and cold groups: rows whose value
  /// in `column` is strictly below `cold_below` move to the cold main. Both
  /// deltas must be empty (run a merge first) and the table must not already
  /// be split. Matching tables should be split on consistent criteria so
  /// cold-hot subjoins are empty (register an aging group on the database to
  /// let the optimizer prune them logically).
  Status SplitHotCold(const std::string& column, const Value& cold_below);

  /// Total number of row invalidations across main partitions; cache
  /// entries use this as their dirty counter baseline.
  uint64_t MainInvalidationCount() const;

  /// Total delta row count across all groups, taken under a shared lock.
  /// The merge daemon polls this to decide when a merge is due.
  size_t DeltaRows() const;

  /// The table's reader-writer mutex. Acquire through TableLockSet (which
  /// orders multi-table acquisitions by address) rather than directly.
  std::shared_mutex& storage_mutex() const { return storage_mu_; }

  /// Replaces this table's partition groups wholesale and rebuilds the
  /// primary-key index. Only snapshot restoration (storage/snapshot.h)
  /// should call this; the groups must match the schema.
  void RestoreGroups(std::vector<PartitionGroup> groups);

 private:
  friend class Database;
  friend Status MergeTableGroup(Table& table, size_t group_index,
                                const struct MergeOptions& options);
  friend Status MergeTableGroup(Table& table, size_t group_index,
                                const struct MergeOptions& options,
                                const struct Snapshot& snapshot);

  explicit Table(TableSchema schema);

  /// Resolves foreign-key table pointers; called by Database::CreateTable.
  Status ResolveForeignKeys(Database* db);

  /// Builds the full physical row from user values and fills tid columns.
  /// `own_tid_override` carries the preserved object tid on updates.
  Status BuildRow(const Transaction& txn,
                  const std::vector<Value>& user_values,
                  const InsertOptions& options,
                  std::optional<int64_t> own_tid_override,
                  std::vector<Value>* row) const;

  Status InsertInternal(const Transaction& txn,
                        const std::vector<Value>& user_values,
                        const InsertOptions& options,
                        std::optional<int64_t> own_tid_override);

  /// Statement bodies; callers hold this table exclusive and fk parents
  /// shared (see the public wrappers).
  Status UpdateByPkUnlocked(const Transaction& txn, const Value& pk,
                            const std::vector<Value>& new_user_values,
                            const InsertOptions& options);
  Status DeleteByPkUnlocked(const Transaction& txn, const Value& pk);

  /// Rebuilds the primary-key index from scratch (after splits/restores).
  void RebuildPkIndex();

  /// Updates the primary-key index in place after group `g`'s merge kept
  /// `kept_main_rows` (ascending) of its `old_main_rows` main rows, appended
  /// the merged delta rows to the new main and left in-flight rows in the
  /// fresh delta. Main entries are renumbered, with no hashing, only when
  /// main rows were dropped.
  void RelocateMergedRows(uint32_t g, std::span<const uint32_t> kept_main_rows,
                          size_t old_main_rows);

  /// The epoch manager of the owning database, if any; displaced partition
  /// groups (merge, split, restore) are retired through it instead of being
  /// freed in place, so in-flight readers of other tables that still hold
  /// column pointers stay valid. Null for tables outside a Database.
  EpochManager* epochs() const;

  TableSchema schema_;
  std::vector<PartitionGroup> groups_;
  std::unordered_map<Value, RowLocation, ValueHash> pk_index_;
  /// Referenced tables, parallel to schema_.foreign_keys.
  std::vector<const Table*> fk_tables_;
  /// Owning database; set by Database::CreateTable via ResolveForeignKeys.
  Database* db_ = nullptr;
  mutable std::shared_mutex storage_mu_;
};

}  // namespace aggcache

#endif  // AGGCACHE_STORAGE_TABLE_H_
