#ifndef AGGCACHE_STORAGE_DATABASE_H_
#define AGGCACHE_STORAGE_DATABASE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/delta_merge.h"
#include "storage/merge_observer.h"
#include "storage/table.h"
#include "txn/epoch.h"
#include "txn/transaction_manager.h"

namespace aggcache {

class DurabilityManager;

/// The catalog: owns tables, the transaction manager, the epoch manager,
/// merge observers, and the object-aware metadata (consistent aging groups,
/// Section 5.4). Table pointers returned by CreateTable/GetTable remain
/// stable for the lifetime of the database.
///
/// Threading model (DESIGN.md §6): the catalog map and registration lists
/// have their own mutexes; per-table data is protected by each table's
/// reader-writer mutex. Merge() locks its target exclusively and every
/// other catalog table shared — merge observers (aggregate cache
/// maintenance) read joined tables during the callbacks, and the shared
/// locks guarantee those reads see no concurrent writer. Storage displaced
/// by a merge is retired through the epoch manager and freed only once all
/// readers that could reference it have drained.
class Database {
 public:
  Database();
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Process-unique id of this database, drawn from a global counter at
  /// construction and never reused, so state keyed by it (the SQL layer's
  /// statement cache) cannot leak into a later database that happens to
  /// occupy the same address.
  uint64_t instance_id() const { return instance_id_; }

  /// Creates a table. Referenced tables (foreign keys) must already exist.
  ///
  /// The catalog only grows: tables are never altered or dropped, so a
  /// SELECT that bound once binds the same way for the life of the
  /// database. The statement cache in ParseStatement relies on that; an
  /// API that drops or alters a table must also clear that cache.
  StatusOr<Table*> CreateTable(const TableSchema& schema);

  StatusOr<Table*> GetTable(const std::string& name);
  StatusOr<const Table*> GetTable(const std::string& name) const;
  std::vector<std::string> TableNames() const;

  TransactionManager& txn_manager() { return txn_manager_; }
  const TransactionManager& txn_manager() const { return txn_manager_; }

  /// Epoch manager for deferred reclamation of merged-away storage.
  EpochManager& epochs() { return epochs_; }
  const EpochManager& epochs() const { return epochs_; }

  /// Starts a new transaction.
  Transaction Begin() { return txn_manager_.Begin(); }

  /// Starts a transaction inside an atomic write scope: its inserts become
  /// visible to other snapshots all at once, when the returned handle is
  /// destroyed. Scopes are insert-only (updates/deletes are rejected).
  /// With durability attached, the scope's begin and commit are WAL-logged
  /// so recovery can roll back scopes that were open at the crash.
  ScopedTransaction BeginAtomic();

  /// Merges all partition groups of `table_name`, notifying merge observers
  /// around each group merge.
  Status Merge(const std::string& table_name,
               const MergeOptions& options = MergeOptions());

  /// Synchronized merge of several tables (Section 5.2): merging related
  /// transactional tables together keeps matching tuples on the same side
  /// of the main/delta boundary, which is what makes dynamic join pruning
  /// succeed.
  Status MergeTables(const std::vector<std::string>& table_names,
                     const MergeOptions& options = MergeOptions());

  /// Merges every table in the catalog.
  Status MergeAll(const MergeOptions& options = MergeOptions());

  /// Observers are notified around every group merge; not owned.
  void AddMergeObserver(MergeObserver* observer);
  void RemoveMergeObserver(MergeObserver* observer);

  /// Declares that `table_names` are aged under a consistent definition:
  /// matching rows always share the same temperature, so subjoins between a
  /// cold partition of one and a hot partition of another are logically
  /// empty and can be pruned (Section 5.4).
  void RegisterAgingGroup(std::vector<std::string> table_names);

  /// True when both tables belong to one registered aging group.
  bool InSameAgingGroup(const std::string& a, const std::string& b) const;

  /// All registered aging groups (snapshot persistence).
  const std::vector<std::vector<std::string>>& aging_groups() const {
    return aging_groups_;
  }

  /// Declarative auto-merge policy operationalizing Section 5.2: the tables
  /// of one merge group are always merged *together*, as soon as any
  /// member's delta holds at least `delta_row_threshold` rows. Merging
  /// related transactional tables synchronously keeps matching tuples on
  /// the same side of the main/delta boundary, which is what maximizes the
  /// join-pruning success rate.
  void RegisterMergeGroup(std::vector<std::string> table_names,
                          size_t delta_row_threshold);

  /// Evaluates every registered merge group and merges those over their
  /// threshold. Call after write transactions (cheap when nothing is due).
  /// Returns the number of groups merged.
  StatusOr<size_t> AutoMergeTick(const MergeOptions& options = MergeOptions());

  /// Registered merge groups whose delta sizes exceed their threshold right
  /// now (sized under shared table locks). The merge daemon polls this and
  /// merges each returned group; the answer is advisory — deltas keep
  /// moving — so the daemon re-checks on every tick.
  std::vector<std::vector<std::string>> DueMergeGroups() const;

  /// All registered merge groups as (tables, delta_row_threshold) pairs
  /// (checkpoint persistence).
  std::vector<std::pair<std::vector<std::string>, size_t>> merge_groups()
      const;

  /// Wires durability in (or out, with nullptr): statements consult
  /// durability() to log themselves, and the transaction manager's
  /// scope-end listener is pointed at the manager's commit record writer.
  /// Called by DurabilityManager::Open after recovery completes — never
  /// during replay, so replayed statements are not re-logged.
  void AttachDurability(DurabilityManager* durability);

  /// The attached durability manager, or nullptr when running in-memory.
  DurabilityManager* durability() const {
    return durability_.load(std::memory_order_acquire);
  }

  /// True while startup recovery is replaying into this database.
  /// Background services (the merge daemon) assert on this: they must only
  /// start on a fully recovered catalog.
  bool restoring() const { return restoring_.load(std::memory_order_acquire); }
  void set_restoring(bool restoring) {
    restoring_.store(restoring, std::memory_order_release);
  }

 private:
  friend class Table;  // FK resolution runs under catalog_mu_ in CreateTable.

  struct MergeGroup {
    std::vector<std::string> tables;
    size_t delta_row_threshold = 0;
  };

  /// Catalog lookup without taking catalog_mu_; the caller must hold it.
  StatusOr<const Table*> GetTableLocked(const std::string& name) const;

  /// True when any member table's delta is over the group threshold.
  StatusOr<bool> GroupDue(const MergeGroup& group) const;

  const uint64_t instance_id_;
  mutable std::mutex catalog_mu_;   // guards tables_/aging_groups_/merge_groups_
  mutable std::mutex observers_mu_; // guards merge_observers_
  std::map<std::string, std::unique_ptr<Table>> tables_;
  TransactionManager txn_manager_;
  EpochManager epochs_;
  std::vector<MergeObserver*> merge_observers_;
  std::vector<std::vector<std::string>> aging_groups_;
  std::vector<MergeGroup> merge_groups_;
  std::atomic<DurabilityManager*> durability_{nullptr};
  std::atomic<bool> restoring_{false};
};

}  // namespace aggcache

#endif  // AGGCACHE_STORAGE_DATABASE_H_
