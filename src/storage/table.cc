#include "storage/table.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/string_util.h"
#include "storage/database.h"
#include "storage/delta_merge.h"
#include "storage/recovery.h"
#include "storage/table_lock.h"
#include "txn/epoch.h"

namespace aggcache {

namespace {

/// Acquires the lock set of a writer statement: exclusive on the written
/// table, shared on every foreign-key parent (BuildRow reads them for RI
/// checks and matching-dependency tid lookups). Address-ordered via
/// TableLockSet, so writers on different tables of a schema cannot deadlock
/// against each other or against merges.
TableLockSet AcquireWriteLocks(const Table* self,
                               const std::vector<const Table*>& fk_tables) {
  TableLockSet locks;
  locks.Add(self, TableLockMode::kExclusive);
  for (const Table* parent : fk_tables) {
    locks.Add(parent, TableLockMode::kShared);
  }
  locks.Lock();
  return locks;
}

}  // namespace

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  // A freshly created table has an empty main partition, with empty main
  // columns so the executor can treat every group uniformly.
  groups_.push_back(PartitionGroup{AgeClass::kHot,
                                   Partition::MakeEmptyMain(schema_),
                                   Partition::MakeDelta(schema_)});
}

Status Table::ResolveForeignKeys(Database* db) {
  db_ = db;
  fk_tables_.clear();
  for (const ForeignKeyDef& fk : schema_.foreign_keys) {
    // Called from CreateTable with catalog_mu_ held — use the unlocked
    // catalog lookup.
    ASSIGN_OR_RETURN(const Table* ref,
                     static_cast<const Database*>(db)->GetTableLocked(
                         fk.ref_table));
    if (!ref->schema().primary_key) {
      return Status::InvalidArgument(
          StrFormat("table '%s' referenced by '%s' has no primary key",
                    fk.ref_table.c_str(), name().c_str()));
    }
    if (fk.tid_column && !ref->schema().own_tid_column) {
      return Status::InvalidArgument(StrFormat(
          "matching dependency on '%s' -> '%s' requires the referenced "
          "table to declare an own-tid column",
          name().c_str(), fk.ref_table.c_str()));
    }
    fk_tables_.push_back(ref);
  }
  return Status::Ok();
}

Status Table::BuildRow(const Transaction& txn,
                       const std::vector<Value>& user_values,
                       const InsertOptions& options,
                       std::optional<int64_t> own_tid_override,
                       std::vector<Value>* row) const {
  if (user_values.size() != schema_.NumUserColumns()) {
    return Status::InvalidArgument(StrFormat(
        "table '%s' expects %zu user values, got %zu", name().c_str(),
        schema_.NumUserColumns(), user_values.size()));
  }
  row->clear();
  row->reserve(schema_.columns.size());
  size_t next_user = 0;
  for (size_t i = 0; i < schema_.columns.size(); ++i) {
    if (schema_.columns[i].is_tid) {
      // Own-tid columns take the inserting transaction's id; MD tid columns
      // are filled from the referenced row below.
      int64_t tid_value = 0;
      if (schema_.own_tid_column == i) {
        tid_value = own_tid_override.has_value()
                        ? *own_tid_override
                        : static_cast<int64_t>(txn.tid());
      }
      row->push_back(Value(tid_value));
    } else {
      row->push_back(user_values[next_user++]);
    }
  }

  for (size_t f = 0; f < schema_.foreign_keys.size(); ++f) {
    const ForeignKeyDef& fk = schema_.foreign_keys[f];
    bool needs_lookup = options.check_referential_integrity ||
                        (options.maintain_tid_columns && fk.tid_column);
    if (!needs_lookup) continue;
    const Table* ref = fk_tables_[f];
    std::optional<RowLocation> loc = ref->FindByPk((*row)[fk.column]);
    if (!loc) {
      if (options.check_referential_integrity ||
          (options.maintain_tid_columns && fk.tid_column)) {
        return Status::FailedPrecondition(StrFormat(
            "foreign key violation: %s.%s = %s has no match in %s",
            name().c_str(), schema_.columns[fk.column].name.c_str(),
            (*row)[fk.column].ToString().c_str(), fk.ref_table.c_str()));
      }
      continue;
    }
    if (options.maintain_tid_columns && fk.tid_column) {
      // Enforce the matching dependency: copy the referenced row's own tid.
      const Value& ref_tid =
          ref->ValueAt(*loc, *ref->schema().own_tid_column);
      (*row)[*fk.tid_column] = ref_tid;
    }
  }
  return Status::Ok();
}

EpochManager* Table::epochs() const {
  return db_ != nullptr ? &db_->epochs() : nullptr;
}

Status Table::Insert(const Transaction& txn,
                     const std::vector<Value>& user_values,
                     const InsertOptions& options) {
  // Gate before table locks — the lock-order rule that keeps checkpoints
  // deadlock-free (see DurabilityStatementGuard). Mutate-then-log: only
  // statements that succeeded reach the WAL, so replay cannot fail; a
  // failed append poisons the log and errors the statement.
  DurabilityStatementGuard durability(db_ != nullptr ? db_->durability()
                                                     : nullptr);
  TableLockSet locks = AcquireWriteLocks(this, fk_tables_);
  RETURN_IF_ERROR(InsertInternal(txn, user_values, options, std::nullopt));
  if (DurabilityManager* d = durability.durability()) {
    RETURN_IF_ERROR(d->LogInsert(name(), txn.tid(), user_values));
  }
  return Status::Ok();
}

Status Table::InsertInternal(const Transaction& txn,
                             const std::vector<Value>& user_values,
                             const InsertOptions& options,
                             std::optional<int64_t> own_tid_override) {
  std::vector<Value> row;
  RETURN_IF_ERROR(BuildRow(txn, user_values, options, own_tid_override, &row));

  if (schema_.primary_key) {
    const Value& pk = row[*schema_.primary_key];
    if (pk_index_.contains(pk)) {
      return Status::AlreadyExists(
          StrFormat("duplicate primary key %s in table '%s'",
                    pk.ToString().c_str(), name().c_str()));
    }
  }

  // New rows always enter the hot delta (group 0), per Section 5.4.
  Partition& delta = groups_[0].delta;
  RETURN_IF_ERROR(delta.AppendRow(row, txn.tid()));
  if (schema_.primary_key) {
    pk_index_.emplace(row[*schema_.primary_key],
                      RowLocation{0, PartitionKind::kDelta,
                                  static_cast<uint32_t>(delta.num_rows() - 1)});
  }
  return Status::Ok();
}

Status Table::UpdateByPk(const Transaction& txn, const Value& pk,
                         const std::vector<Value>& new_user_values,
                         const InsertOptions& options) {
  DurabilityStatementGuard durability(db_ != nullptr ? db_->durability()
                                                     : nullptr);
  TableLockSet locks = AcquireWriteLocks(this, fk_tables_);
  RETURN_IF_ERROR(UpdateByPkUnlocked(txn, pk, new_user_values, options));
  if (DurabilityManager* d = durability.durability()) {
    RETURN_IF_ERROR(d->LogUpdate(name(), txn.tid(), pk, new_user_values));
  }
  return Status::Ok();
}

Status Table::UpdateByPkUnlocked(const Transaction& txn, const Value& pk,
                                 const std::vector<Value>& new_user_values,
                                 const InsertOptions& options) {
  if (txn.in_atomic_scope()) {
    // Atomic write scopes are insert-only: an invalidation stamped with an
    // excluded tid would make shared aggregate-cache state depend on one
    // snapshot's exclusion list (see Transaction::in_atomic_scope).
    return Status::FailedPrecondition(
        "updates are not allowed inside an atomic write scope");
  }
  if (!schema_.primary_key) {
    return Status::FailedPrecondition("update requires a primary key");
  }
  auto it = pk_index_.find(pk);
  if (it == pk_index_.end()) {
    return Status::NotFound(StrFormat("no row with primary key %s in '%s'",
                                      pk.ToString().c_str(), name().c_str()));
  }
  RowLocation old_loc = it->second;
  // Preserve the object tid across the update (see header comment).
  std::optional<int64_t> preserved_tid;
  if (schema_.own_tid_column) {
    preserved_tid = ValueAt(old_loc, *schema_.own_tid_column).AsInt64();
  }
  // The new version goes in first: a version the delta rejects (a NaN, a
  // foreign-key miss) fails the statement with the old version still live.
  pk_index_.erase(it);
  Status inserted = InsertInternal(txn, new_user_values, options,
                                   preserved_tid);
  if (!inserted.ok()) {
    pk_index_.emplace(pk, old_loc);
    return inserted;
  }
  PartitionGroup& g = groups_[old_loc.group];
  (old_loc.kind == PartitionKind::kMain ? g.main : g.delta)
      .InvalidateRow(old_loc.row, txn.tid());
  return Status::Ok();
}

Status Table::DeleteByPk(const Transaction& txn, const Value& pk) {
  DurabilityStatementGuard durability(db_ != nullptr ? db_->durability()
                                                     : nullptr);
  TableLockSet locks = AcquireWriteLocks(this, fk_tables_);
  RETURN_IF_ERROR(DeleteByPkUnlocked(txn, pk));
  if (DurabilityManager* d = durability.durability()) {
    RETURN_IF_ERROR(d->LogDelete(name(), txn.tid(), pk));
  }
  return Status::Ok();
}

Status Table::UpdateColumnByPk(const Transaction& txn, const Value& pk,
                               const std::string& column,
                               const Value& new_value,
                               const InsertOptions& options) {
  DurabilityStatementGuard durability(db_ != nullptr ? db_->durability()
                                                     : nullptr);
  TableLockSet locks = AcquireWriteLocks(this, fk_tables_);
  if (!schema_.primary_key) {
    return Status::FailedPrecondition("update requires a primary key");
  }
  ASSIGN_OR_RETURN(size_t col, schema_.ColumnIndex(column));
  if (schema_.columns[col].is_tid) {
    return Status::InvalidArgument(
        StrFormat("column '%s' is engine-maintained", column.c_str()));
  }
  auto it = pk_index_.find(pk);
  if (it == pk_index_.end()) {
    return Status::NotFound(StrFormat("no row with primary key %s in '%s'",
                                      pk.ToString().c_str(), name().c_str()));
  }
  // Read-modify-write under the held exclusive lock: rebuild the user-value
  // vector from the current version with one column replaced.
  RowLocation loc = it->second;
  std::vector<Value> user_values;
  user_values.reserve(schema_.NumUserColumns());
  for (size_t i = 0; i < schema_.columns.size(); ++i) {
    if (schema_.columns[i].is_tid) continue;
    user_values.push_back(i == col ? new_value : ValueAt(loc, i));
  }
  RETURN_IF_ERROR(UpdateByPkUnlocked(txn, pk, user_values, options));
  // Logged as a full-row update: the WAL is logical, and the rebuilt
  // user-value vector is exactly what was applied.
  if (DurabilityManager* d = durability.durability()) {
    RETURN_IF_ERROR(d->LogUpdate(name(), txn.tid(), pk, user_values));
  }
  return Status::Ok();
}

Status Table::DeleteByPkUnlocked(const Transaction& txn, const Value& pk) {
  if (txn.in_atomic_scope()) {
    // Insert-only scope contract; see UpdateByPkUnlocked.
    return Status::FailedPrecondition(
        "deletes are not allowed inside an atomic write scope");
  }
  if (!schema_.primary_key) {
    return Status::FailedPrecondition("delete requires a primary key");
  }
  auto it = pk_index_.find(pk);
  if (it == pk_index_.end()) {
    return Status::NotFound(StrFormat("no row with primary key %s in '%s'",
                                      pk.ToString().c_str(), name().c_str()));
  }
  RowLocation loc = it->second;
  PartitionGroup& g = groups_[loc.group];
  Partition& partition = loc.kind == PartitionKind::kMain ? g.main : g.delta;
  partition.InvalidateRow(loc.row, txn.tid());
  pk_index_.erase(it);
  return Status::Ok();
}

std::optional<RowLocation> Table::FindByPk(const Value& pk) const {
  auto it = pk_index_.find(pk);
  if (it == pk_index_.end()) return std::nullopt;
  return it->second;
}

const Value& Table::ValueAt(const RowLocation& loc, size_t column) const {
  return partition(loc).column(column).GetValue(loc.row);
}

size_t Table::TotalRows() const {
  size_t total = 0;
  for (const PartitionGroup& g : groups_) {
    total += g.main.num_rows() + g.delta.num_rows();
  }
  return total;
}

size_t Table::VisibleRows(Snapshot snapshot) const {
  size_t total = 0;
  for (const PartitionGroup& g : groups_) {
    for (const Partition* p : {&g.main, &g.delta}) {
      for (size_t r = 0; r < p->num_rows(); ++r) {
        if (snapshot.RowVisible(p->create_tid(r), p->invalidate_tid(r))) {
          ++total;
        }
      }
    }
  }
  return total;
}

size_t Table::ColumnByteSize() const {
  size_t total = 0;
  for (const PartitionGroup& g : groups_) {
    total += g.main.ColumnByteSize() + g.delta.ColumnByteSize();
  }
  return total;
}

uint64_t Table::MainInvalidationCount() const {
  uint64_t total = 0;
  for (const PartitionGroup& g : groups_) {
    total += g.main.invalidation_count();
  }
  return total;
}

size_t Table::DeltaRows() const {
  std::shared_lock<std::shared_mutex> lock(storage_mu_);
  size_t total = 0;
  for (const PartitionGroup& g : groups_) {
    total += g.delta.num_rows();
  }
  return total;
}

Status Table::SplitHotCold(const std::string& column,
                           const Value& cold_below) {
  // Splits change the table's *logical* partition-group layout, so unlike
  // merges (physical placement only) they are WAL-logged.
  DurabilityStatementGuard durability(db_ != nullptr ? db_->durability()
                                                     : nullptr);
  TableLockSet locks;
  locks.Add(this, TableLockMode::kExclusive);
  locks.Lock();
  if (groups_.size() != 1) {
    return Status::FailedPrecondition("table is already split");
  }
  if (!groups_[0].delta.empty()) {
    return Status::FailedPrecondition(
        "run a delta merge before splitting hot/cold");
  }
  ASSIGN_OR_RETURN(size_t col, schema_.ColumnIndex(column));

  // Main dictionaries are sorted: the rows below `cold_below` are exactly
  // those with a code below the first value not below it.
  const Partition& old_main = groups_[0].main;
  const std::vector<Value>& values = old_main.column(col).dictionary().values();
  const ValueId first_hot = static_cast<ValueId>(
      std::lower_bound(values.begin(), values.end(), cold_below) -
      values.begin());
  std::vector<uint32_t> hot_rows;
  std::vector<uint32_t> cold_rows;
  for (uint32_t r = 0; r < old_main.num_rows(); ++r) {
    (old_main.column(col).code(r) < first_hot ? cold_rows : hot_rows)
        .push_back(r);
  }
  const Partition& no_delta = groups_[0].delta;
  std::vector<PartitionGroup> new_groups;
  new_groups.push_back(PartitionGroup{
      AgeClass::kHot, BuildMainPartition(old_main, hot_rows, no_delta, {}),
      Partition::MakeDelta(schema_)});
  new_groups.push_back(PartitionGroup{
      AgeClass::kCold, BuildMainPartition(old_main, cold_rows, no_delta, {}),
      Partition::MakeDelta(schema_)});
  std::vector<PartitionGroup> displaced = std::move(groups_);
  groups_ = std::move(new_groups);
  RebuildPkIndex();
  if (EpochManager* ep = epochs()) {
    // Readers of *other* tables may still dereference the displaced main's
    // columns (e.g. a prefetched join side); defer freeing until the epoch
    // drains rather than destroying in place.
    ep->Retire(std::move(displaced));
    ep->Advance();
  }
  if (DurabilityManager* d = durability.durability()) {
    RETURN_IF_ERROR(d->LogSplitHotCold(name(), column, cold_below));
  }
  return Status::Ok();
}

void Table::RestoreGroups(std::vector<PartitionGroup> groups) {
  AGGCACHE_CHECK(!groups.empty()) << "a table needs at least one group";
  for (const PartitionGroup& g : groups) {
    AGGCACHE_CHECK_EQ(g.main.num_columns(), schema_.columns.size());
    AGGCACHE_CHECK_EQ(g.delta.num_columns(), schema_.columns.size());
  }
  TableLockSet locks;
  locks.Add(this, TableLockMode::kExclusive);
  locks.Lock();
  std::vector<PartitionGroup> displaced = std::move(groups_);
  groups_ = std::move(groups);
  RebuildPkIndex();
  if (EpochManager* ep = epochs()) {
    ep->Retire(std::move(displaced));
    ep->Advance();
  }
}

void Table::RelocateMergedRows(uint32_t g,
                               std::span<const uint32_t> kept_main_rows,
                               size_t old_main_rows) {
  if (!schema_.primary_key) return;
  const size_t pk_col = *schema_.primary_key;
  if (kept_main_rows.size() != old_main_rows) {
    // Dropped rows were invalidated, so no entry points at them.
    std::vector<uint32_t> renumbered(old_main_rows, 0);
    for (uint32_t i = 0; i < kept_main_rows.size(); ++i) {
      renumbered[kept_main_rows[i]] = i;
    }
    for (auto& [pk, loc] : pk_index_) {
      if (loc.group == g && loc.kind == PartitionKind::kMain) {
        loc.row = renumbered[loc.row];
      }
    }
  }
  // Former delta rows: merged ones end the new main, in-flight ones fill the
  // fresh delta.
  auto relocate = [&](const Partition& p, PartitionKind kind, uint32_t first) {
    for (uint32_t r = first; r < p.num_rows(); ++r) {
      if (p.RowInvalidated(r)) continue;
      auto it = pk_index_.find(p.column(pk_col).GetValue(r));
      AGGCACHE_CHECK(it != pk_index_.end()) << "row missing from pk index";
      it->second = RowLocation{g, kind, r};
    }
  };
  relocate(groups_[g].main, PartitionKind::kMain,
           static_cast<uint32_t>(kept_main_rows.size()));
  relocate(groups_[g].delta, PartitionKind::kDelta, 0);
}

void Table::RebuildPkIndex() {
  pk_index_.clear();
  if (!schema_.primary_key) return;
  size_t pk_col = *schema_.primary_key;
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    for (PartitionKind kind : {PartitionKind::kMain, PartitionKind::kDelta}) {
      const Partition& p =
          kind == PartitionKind::kMain ? groups_[g].main : groups_[g].delta;
      for (uint32_t r = 0; r < p.num_rows(); ++r) {
        if (p.RowInvalidated(r)) continue;
        pk_index_.emplace(p.column(pk_col).GetValue(r),
                          RowLocation{g, kind, r});
      }
    }
  }
}

}  // namespace aggcache
