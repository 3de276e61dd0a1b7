#include "storage/database.h"

#include <algorithm>

#include "common/string_util.h"
#include "storage/recovery.h"
#include "storage/table_lock.h"
#include "verify/fault_injector.h"

namespace aggcache {

namespace {
std::atomic<uint64_t> next_database_instance_id{1};
}  // namespace

Database::Database()
    : instance_id_(
          next_database_instance_id.fetch_add(1, std::memory_order_relaxed)) {}

StatusOr<Table*> Database::CreateTable(const TableSchema& schema) {
  RETURN_IF_ERROR(schema.Validate());
  Table* raw = nullptr;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    if (tables_.contains(schema.name)) {
      return Status::AlreadyExists("table '" + schema.name +
                                   "' already exists");
    }
    auto table = std::unique_ptr<Table>(new Table(schema));
    RETURN_IF_ERROR(table->ResolveForeignKeys(this));
    raw = table.get();
    tables_.emplace(schema.name, std::move(table));
  }
  // Logged after catalog_mu_ releases: the WAL append takes the checkpoint
  // statement gate, and a checkpoint holding that gate needs catalog_mu_ to
  // enumerate tables — logging under the mutex would deadlock. The price is
  // that a checkpoint can capture the table before its record lands, so
  // replay treats CREATE TABLE as idempotent.
  if (DurabilityManager* d = durability()) {
    RETURN_IF_ERROR(d->LogCreateTable(schema));
  }
  return raw;
}

StatusOr<Table*> Database::GetTable(const std::string& name) {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return it->second.get();
}

StatusOr<const Table*> Database::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return GetTableLocked(name);
}

StatusOr<const Table*> Database::GetTableLocked(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table named '" + name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

std::vector<std::string> Database::TableNames() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

Status Database::Merge(const std::string& table_name,
                       const MergeOptions& options) {
  ASSIGN_OR_RETURN(Table * table, GetTable(table_name));
  // Snapshot the observer list; observers registered mid-merge see the next
  // merge.
  std::vector<MergeObserver*> observers;
  {
    std::lock_guard<std::mutex> lock(observers_mu_);
    observers = merge_observers_;
  }
  // Lock the merge target exclusively and every other catalog table shared,
  // all up front in TableLockSet's global address order. The shared locks
  // are not an over-approximation: observer maintenance (aggregate cache
  // fold/compensation) executes the cached queries' join plans inside the
  // callbacks below, reading any table those joins touch.
  TableLockSet locks;
  locks.Add(table, TableLockMode::kExclusive);
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    for (const auto& [name, other] : tables_) {
      if (other.get() != table) {
        locks.Add(other.get(), TableLockMode::kShared);
      }
    }
  }
  locks.Lock();
  // The merge snapshot is issued *after* the locks are held and consumes a
  // fresh tid (Begin), for two guarantees: (a) every writer statement whose
  // rows sit in the delta completed before the locks were granted, so all
  // stable delta rows are visible at this snapshot; (b) every transaction
  // begun before this merge has read_tid strictly below it, so cache
  // maintenance stamped with this snapshot can never serve those earlier
  // readers (base_tid guard). One snapshot covers the whole
  // before/merge/after sequence — observers fold exactly what moves.
  Snapshot merge_snapshot = txn_manager_.Begin().snapshot();
  Status result = Status::Ok();
  for (size_t g = 0; g < table->num_groups() && result.ok(); ++g) {
    for (MergeObserver* observer : observers) {
      observer->OnBeforeMerge(*table, g, merge_snapshot);
    }
    // The fault point sits after OnBeforeMerge on purpose: observers have
    // already folded the delta forward, so an abort here exercises their
    // worst-case recovery path (OnMergeAborted).
    Status merged = FaultInjector::Global().MaybeFail("storage.merge");
    if (merged.ok()) merged = MergeTableGroup(*table, g, options, merge_snapshot);
    if (!merged.ok()) {
      for (MergeObserver* observer : observers) {
        observer->OnMergeAborted(*table, g);
      }
      result = merged;
      break;
    }
    for (MergeObserver* observer : observers) {
      observer->OnAfterMerge(*table, g, merge_snapshot);
    }
  }
  locks.Unlock();
  // Free retired partitions whose reader epochs have drained. Readers still
  // inside an older epoch keep theirs alive until a later merge collects.
  epochs_.Collect();
  return result;
}

Status Database::MergeTables(const std::vector<std::string>& table_names,
                             const MergeOptions& options) {
  for (const std::string& name : table_names) {
    RETURN_IF_ERROR(Merge(name, options));
  }
  return Status::Ok();
}

Status Database::MergeAll(const MergeOptions& options) {
  return MergeTables(TableNames(), options);
}

void Database::AddMergeObserver(MergeObserver* observer) {
  std::lock_guard<std::mutex> lock(observers_mu_);
  merge_observers_.push_back(observer);
}

void Database::RemoveMergeObserver(MergeObserver* observer) {
  std::lock_guard<std::mutex> lock(observers_mu_);
  merge_observers_.erase(
      std::remove(merge_observers_.begin(), merge_observers_.end(), observer),
      merge_observers_.end());
}

void Database::RegisterAgingGroup(std::vector<std::string> table_names) {
  std::vector<std::string> logged = table_names;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    aging_groups_.push_back(std::move(table_names));
  }
  // Best effort, after the mutex releases (same gate ordering as
  // CreateTable); replay dedups re-registrations.
  if (DurabilityManager* d = durability()) (void)d->LogAgingGroup(logged);
}

void Database::RegisterMergeGroup(std::vector<std::string> table_names,
                                  size_t delta_row_threshold) {
  std::vector<std::string> logged = table_names;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    merge_groups_.push_back(
        MergeGroup{std::move(table_names), delta_row_threshold});
  }
  if (DurabilityManager* d = durability()) {
    (void)d->LogMergeGroup(logged, delta_row_threshold);
  }
}

StatusOr<bool> Database::GroupDue(const MergeGroup& group) const {
  for (const std::string& name : group.tables) {
    ASSIGN_OR_RETURN(const Table* table, GetTable(name));
    if (table->DeltaRows() >= group.delta_row_threshold) return true;
  }
  return false;
}

StatusOr<size_t> Database::AutoMergeTick(const MergeOptions& options) {
  std::vector<MergeGroup> groups;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    groups = merge_groups_;
  }
  size_t merged = 0;
  for (const MergeGroup& group : groups) {
    ASSIGN_OR_RETURN(bool due, GroupDue(group));
    if (!due) continue;
    RETURN_IF_ERROR(MergeTables(group.tables, options));
    ++merged;
  }
  return merged;
}

std::vector<std::vector<std::string>> Database::DueMergeGroups() const {
  std::vector<MergeGroup> groups;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    groups = merge_groups_;
  }
  std::vector<std::vector<std::string>> due;
  for (const MergeGroup& group : groups) {
    StatusOr<bool> group_due = GroupDue(group);
    // The daemon treats a group with an unknown table as never due rather
    // than failing the whole tick.
    if (group_due.ok() && *group_due) due.push_back(group.tables);
  }
  return due;
}

std::vector<std::pair<std::vector<std::string>, size_t>>
Database::merge_groups() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  std::vector<std::pair<std::vector<std::string>, size_t>> groups;
  groups.reserve(merge_groups_.size());
  for (const MergeGroup& group : merge_groups_) {
    groups.emplace_back(group.tables, group.delta_row_threshold);
  }
  return groups;
}

ScopedTransaction Database::BeginAtomic() {
  ScopedTransaction scope = txn_manager_.BeginAtomic();
  // The begin record anchors scope analysis during recovery: a begin with
  // no matching commit marks every record of that tid as discardable.
  if (DurabilityManager* d = durability()) (void)d->LogScopeBegin(scope.tid());
  return scope;
}

void Database::AttachDurability(DurabilityManager* durability) {
  durability_.store(durability, std::memory_order_release);
  if (durability != nullptr) {
    txn_manager_.SetScopeEndListener(
        [durability](Tid tid) { durability->LogScopeEnd(tid); });
  } else {
    txn_manager_.SetScopeEndListener(nullptr);
  }
}

bool Database::InSameAgingGroup(const std::string& a,
                                const std::string& b) const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  for (const std::vector<std::string>& group : aging_groups_) {
    bool has_a = std::find(group.begin(), group.end(), a) != group.end();
    bool has_b = std::find(group.begin(), group.end(), b) != group.end();
    if (has_a && has_b) return true;
  }
  return false;
}

}  // namespace aggcache
