#include "storage/recovery.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>

#include "common/stopwatch.h"
#include "common/string_util.h"
#include "obs/engine_metrics.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "storage/database.h"
#include "storage/segment.h"
#include "storage/snapshot.h"

namespace aggcache {
namespace {

/// flock(2) is per-open-file-description, so a second Open() in the same
/// process would happily re-lock the same directory. This registry makes
/// in-process double-opens fail as loudly as cross-process ones.
std::mutex& OpenDirsMu() {
  static std::mutex mu;
  return mu;
}
std::set<std::string>& OpenDirs() {
  static std::set<std::string> dirs;
  return dirs;
}

std::string CanonicalDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::path canonical =
      std::filesystem::weakly_canonical(dir, ec);
  return ec ? dir : canonical.string();
}

StatusOr<std::string> ReadName(std::istream& in) {
  ASSIGN_OR_RETURN(Value v, DecodeWalValue(in));
  if (!v.is_string()) {
    return Status::InvalidArgument("expected a name token in WAL payload");
  }
  return v.AsString();
}

}  // namespace

StatusOr<DurabilityOptions> DurabilityOptions::FromEnv() {
  DurabilityOptions options;
  if (const char* env = std::getenv("AGGCACHE_WAL")) {
    ASSIGN_OR_RETURN(options.wal_policy, ParseWalSyncPolicy(env));
  }
  return options;
}

DurabilityManager::DurabilityManager(std::string dir, Database* db,
                                     const DurabilityOptions& options)
    : dir_(std::move(dir)), db_(db), options_(options), checkpointer_(db, dir_) {}

StatusOr<std::unique_ptr<DurabilityManager>> DurabilityManager::Open(
    const std::string& dir, Database* db, const DurabilityOptions& options) {
  if (!db->TableNames().empty() || db->txn_manager().last_committed() != 0) {
    return Status::FailedPrecondition(
        "durability must be opened on an empty database — recovery is the "
        "only way persisted state enters the engine");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create data dir '" + dir +
                            "': " + ec.message());
  }

  auto manager = std::unique_ptr<DurabilityManager>(
      new DurabilityManager(dir, db, options));

  // Exclusive directory lock: flock for cross-process, the registry for
  // in-process. Both fail loudly — two engines appending to one WAL would
  // interleave their histories.
  std::string canonical = CanonicalDir(dir);
  {
    std::lock_guard<std::mutex> lock(OpenDirsMu());
    if (!OpenDirs().insert(canonical).second) {
      return Status::FailedPrecondition(
          "data dir '" + dir + "' is already open in this process");
    }
    manager->lock_registered_ = true;
  }
  std::string lock_path = dir + "/LOCK";
  int lock_fd = ::open(lock_path.c_str(), O_CREAT | O_RDWR, 0644);
  if (lock_fd < 0) {
    return Status::Internal(StrFormat("open('%s') failed: %s",
                                      lock_path.c_str(),
                                      std::strerror(errno)));
  }
  if (::flock(lock_fd, LOCK_EX | LOCK_NB) != 0) {
    ::close(lock_fd);
    return Status::FailedPrecondition(
        "data dir '" + dir + "' is locked by another process");
  }
  manager->lock_fd_ = lock_fd;

  // Background starters (the merge daemon) must not run while the catalog
  // is mid-restore; they assert against this flag.
  db->set_restoring(true);
  Status recovered = manager->Recover();
  db->set_restoring(false);
  RETURN_IF_ERROR(recovered);

  // Open the WAL for appends one past the last trustworthy lsn and only
  // then attach: no statement logs while recovery replays.
  uint64_t next_lsn = 1;
  if (manager->report_.wal_records > 0 || manager->report_.checkpoint_loaded) {
    next_lsn = std::max(manager->report_.checkpoint_lsn,
                        manager->last_replay_lsn_) +
               1;
  }
  WriteAheadLog::Options wal_options;
  wal_options.policy = options.wal_policy;
  wal_options.async_interval_ms = options.async_interval_ms;
  ASSIGN_OR_RETURN(manager->wal_,
                   WriteAheadLog::Open(dir, wal_options, next_lsn));
  db->AttachDurability(manager.get());
  return manager;
}

DurabilityManager::~DurabilityManager() {
  if (db_->durability() == this) db_->AttachDurability(nullptr);
  ReleaseDirLock();
}

void DurabilityManager::ReleaseDirLock() {
  if (lock_fd_ >= 0) {
    ::flock(lock_fd_, LOCK_UN);
    ::close(lock_fd_);
    lock_fd_ = -1;
  }
  if (lock_registered_) {
    std::lock_guard<std::mutex> lock(OpenDirsMu());
    OpenDirs().erase(CanonicalDir(dir_));
    lock_registered_ = false;
  }
}

void DurabilityManager::SimulateCrash() {
  if (wal_) wal_->SimulateCrash();
  if (db_->durability() == this) db_->AttachDurability(nullptr);
  ReleaseDirLock();
}

std::vector<CacheDescriptor> DurabilityManager::TakeWarmDescriptors() {
  return std::move(warm_descriptors_);
}

Status DurabilityManager::Recover() {
  Stopwatch watch;

  // Newest valid checkpoint wins; a segment that fails validation (torn
  // publish, bit flip) falls back to the previous generation, which the
  // two-generation retention policy guarantees is still on disk.
  ASSIGN_OR_RETURN(std::vector<SegmentInfo> segments,
                   ListCheckpointSegments(dir_));
  for (size_t i = segments.size(); i-- > 0 && !report_.checkpoint_loaded;) {
    uint64_t lsn = 0;
    Tid last_tid = 0;
    StatusOr<std::string> payload =
        ReadSegmentFile(segments[i].path, &lsn, &last_tid);
    if (!payload.ok()) continue;  // Corrupt segment: try the older one.
    ASSIGN_OR_RETURN(CheckpointExtras extras,
                     DecodeCheckpointPayload(*payload, db_));
    report_.checkpoint_loaded = true;
    report_.checkpoint_lsn = lsn;
    report_.checkpoint_tid = last_tid;
    warm_descriptors_ = std::move(extras.cache_descriptors);
    report_.warm_descriptors = warm_descriptors_.size();
  }

  ASSIGN_OR_RETURN(WalReadResult wal, WriteAheadLog::ReadDir(dir_));
  report_.wal_records = wal.records.size();
  report_.wal_clean = wal.clean;
  report_.wal_tail_error = wal.tail_error;
  if (!wal.clean && !wal.tail_file.empty()) {
    // Truncate the torn file to its last valid record boundary so future
    // appends (in a fresh segment) extend a provably-clean prefix — without
    // this, the abandoned garbage would end the scan early forever.
    if (::truncate(wal.tail_file.c_str(),
                   static_cast<off_t>(wal.tail_valid_bytes)) != 0) {
      return Status::Internal(StrFormat("truncate('%s') failed: %s",
                                        wal.tail_file.c_str(),
                                        std::strerror(errno)));
    }
  }

  if (!report_.checkpoint_loaded && !wal.records.empty() &&
      wal.records.front().lsn != 1 && !segments.empty()) {
    return Status::Internal(
        "no checkpoint segment validates and the WAL has been truncated "
        "past its start — the directory is unrecoverable");
  }

  // Scope analysis over the full retained history: a scope is uncommitted
  // when its begin record has no matching commit. Records of uncommitted
  // scopes are skipped during replay — the crash happened mid-scope, and
  // atomicity says none of its rows may survive.
  std::set<Tid> begun;
  std::set<Tid> committed;
  for (const WalRecord& record : wal.records) {
    if (record.type == WalRecordType::kScopeBegin) begun.insert(record.tid);
    if (record.type == WalRecordType::kScopeCommit) {
      committed.insert(record.tid);
    }
  }
  std::set<Tid> uncommitted;
  for (Tid tid : begun) {
    if (!committed.contains(tid)) uncommitted.insert(tid);
  }

  Tid max_tid = report_.checkpoint_tid;
  BackgroundSpan replay_span(SpanKind::kRecoveryReplay);
  for (const WalRecord& record : wal.records) {
    if (record.lsn <= report_.checkpoint_lsn) continue;
    last_replay_lsn_ = record.lsn;
    max_tid = std::max(max_tid, record.tid);
    // Keep the tid counter ahead of everything replayed so far: replaying a
    // split record runs a real merge, whose fresh snapshot must see all
    // previously replayed rows as stable (their tids are historical highs).
    db_->txn_manager().AdvanceTo(max_tid);
    if (uncommitted.contains(record.tid)) {
      ++report_.discarded_records;
      continue;
    }
    Status applied = ReplayRecord(record);
    if (!applied.ok()) {
      return Status::Internal(StrFormat(
          "WAL replay failed at lsn %llu (%s): %s",
          static_cast<unsigned long long>(record.lsn),
          WalRecordTypeToString(record.type),
          std::string(applied.message()).c_str()));
    }
    ++report_.replayed_records;
  }
  if (!wal.records.empty()) {
    last_replay_lsn_ = std::max(last_replay_lsn_, wal.records.back().lsn);
  }
  report_.discarded_scopes = uncommitted.size();
  db_->txn_manager().AdvanceTo(max_tid);

  uint64_t replay_us =
      static_cast<uint64_t>(watch.ElapsedMillis() * 1000.0);
  const EngineMetrics& m = EngineMetrics::Get();
  m.recovery_replayed->Increment(report_.replayed_records);
  m.recovery_discarded_scopes->Increment(report_.discarded_scopes);
  m.recovery_replay_us->Observe(replay_us);
  RecordFlightEvent(FlightEventType::kRecoveryReplay,
                    report_.replayed_records, replay_us);
  return Status::Ok();
}

Status DurabilityManager::ReplayRecord(const WalRecord& record) {
  std::istringstream in(record.payload);
  Transaction txn = db_->txn_manager().ReplayAt(record.tid);
  switch (record.type) {
    case WalRecordType::kInsert:
    case WalRecordType::kUpdate: {
      ASSIGN_OR_RETURN(std::string table_name, ReadName(in));
      ASSIGN_OR_RETURN(Table * table, db_->GetTable(table_name));
      Value pk;
      if (record.type == WalRecordType::kUpdate) {
        ASSIGN_OR_RETURN(pk, DecodeWalValue(in));
      }
      size_t n = 0;
      if (!(in >> n)) {
        return Status::InvalidArgument("bad value count in WAL payload");
      }
      std::vector<Value> values;
      values.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        ASSIGN_OR_RETURN(Value v, DecodeWalValue(in));
        values.push_back(std::move(v));
      }
      if (record.type == WalRecordType::kInsert) {
        return table->Insert(txn, values);
      }
      return table->UpdateByPk(txn, pk, values);
    }
    case WalRecordType::kDelete: {
      ASSIGN_OR_RETURN(std::string table_name, ReadName(in));
      ASSIGN_OR_RETURN(Table * table, db_->GetTable(table_name));
      ASSIGN_OR_RETURN(Value pk, DecodeWalValue(in));
      return table->DeleteByPk(txn, pk);
    }
    case WalRecordType::kScopeBegin:
    case WalRecordType::kScopeCommit:
      return Status::Ok();  // Bookkeeping only; consumed by scope analysis.
    case WalRecordType::kCreateTable: {
      ASSIGN_OR_RETURN(TableSchema schema, ReadSchemaText(in));
      // DDL logs outside the catalog mutex, so a checkpoint can slide
      // between the catalog insert and the append; the table is then both
      // in the checkpoint and in the tail. Replay is idempotent.
      if (db_->GetTable(schema.name).ok()) return Status::Ok();
      return db_->CreateTable(schema).status();
    }
    case WalRecordType::kSplitHotCold: {
      ASSIGN_OR_RETURN(std::string table_name, ReadName(in));
      ASSIGN_OR_RETURN(std::string column, ReadName(in));
      ASSIGN_OR_RETURN(Value cold_below, DecodeWalValue(in));
      ASSIGN_OR_RETURN(Table * table, db_->GetTable(table_name));
      if (table->num_groups() > 1) return Status::Ok();  // Idempotence.
      // The original split required an empty delta (it ran after a merge).
      // Merges are not logged — delta contents at this point in the replay
      // differ from the original timeline — so re-establish the
      // precondition the same way the original did.
      RETURN_IF_ERROR(db_->Merge(table_name));
      return table->SplitHotCold(column, cold_below);
    }
    case WalRecordType::kAgingGroup: {
      size_t n = 0;
      if (!(in >> n)) {
        return Status::InvalidArgument("bad aging group count");
      }
      std::vector<std::string> tables;
      for (size_t i = 0; i < n; ++i) {
        ASSIGN_OR_RETURN(std::string name, ReadName(in));
        tables.push_back(std::move(name));
      }
      for (const auto& existing : db_->aging_groups()) {
        if (existing == tables) return Status::Ok();  // Idempotence.
      }
      db_->RegisterAgingGroup(std::move(tables));
      return Status::Ok();
    }
    case WalRecordType::kMergeGroup: {
      size_t threshold = 0;
      size_t n = 0;
      if (!(in >> threshold >> n)) {
        return Status::InvalidArgument("bad merge group payload");
      }
      std::vector<std::string> tables;
      for (size_t i = 0; i < n; ++i) {
        ASSIGN_OR_RETURN(std::string name, ReadName(in));
        tables.push_back(std::move(name));
      }
      for (const auto& [existing, existing_threshold] : db_->merge_groups()) {
        if (existing == tables && existing_threshold == threshold) {
          return Status::Ok();  // Idempotence.
        }
      }
      db_->RegisterMergeGroup(std::move(tables), threshold);
      return Status::Ok();
    }
  }
  return Status::InvalidArgument("unknown WAL record type");
}

Status DurabilityManager::AppendRecord(WalRecordType type, Tid tid,
                                       const std::string& payload) {
  if (!wal_) return Status::Ok();
  return wal_->Append(type, tid, payload);
}

Status DurabilityManager::LogInsert(const std::string& table, Tid tid,
                                    const std::vector<Value>& user_values) {
  std::ostringstream out;
  out << EncodeWalValue(Value(table)) << ' ' << user_values.size();
  for (const Value& v : user_values) out << ' ' << EncodeWalValue(v);
  return AppendRecord(WalRecordType::kInsert, tid, out.str());
}

Status DurabilityManager::LogUpdate(const std::string& table, Tid tid,
                                    const Value& pk,
                                    const std::vector<Value>& new_user_values) {
  std::ostringstream out;
  out << EncodeWalValue(Value(table)) << ' ' << EncodeWalValue(pk) << ' '
      << new_user_values.size();
  for (const Value& v : new_user_values) out << ' ' << EncodeWalValue(v);
  return AppendRecord(WalRecordType::kUpdate, tid, out.str());
}

Status DurabilityManager::LogDelete(const std::string& table, Tid tid,
                                    const Value& pk) {
  std::ostringstream out;
  out << EncodeWalValue(Value(table)) << ' ' << EncodeWalValue(pk);
  return AppendRecord(WalRecordType::kDelete, tid, out.str());
}

Status DurabilityManager::LogSplitHotCold(const std::string& table,
                                          const std::string& column,
                                          const Value& cold_below) {
  std::ostringstream out;
  out << EncodeWalValue(Value(table)) << ' ' << EncodeWalValue(Value(column))
      << ' ' << EncodeWalValue(cold_below);
  return AppendRecord(WalRecordType::kSplitHotCold, kNoTid, out.str());
}

Status DurabilityManager::LogCreateTable(const TableSchema& schema) {
  std::ostringstream out;
  WriteSchemaText(schema, out);
  DurabilityStatementGuard guard(this);
  return AppendRecord(WalRecordType::kCreateTable, kNoTid, out.str());
}

Status DurabilityManager::LogAgingGroup(
    const std::vector<std::string>& tables) {
  std::ostringstream out;
  out << tables.size();
  for (const std::string& t : tables) out << ' ' << EncodeWalValue(Value(t));
  DurabilityStatementGuard guard(this);
  return AppendRecord(WalRecordType::kAgingGroup, kNoTid, out.str());
}

Status DurabilityManager::LogMergeGroup(const std::vector<std::string>& tables,
                                        size_t delta_row_threshold) {
  std::ostringstream out;
  out << delta_row_threshold << ' ' << tables.size();
  for (const std::string& t : tables) out << ' ' << EncodeWalValue(Value(t));
  DurabilityStatementGuard guard(this);
  return AppendRecord(WalRecordType::kMergeGroup, kNoTid, out.str());
}

Status DurabilityManager::LogScopeBegin(Tid tid) {
  DurabilityStatementGuard guard(this);
  return AppendRecord(WalRecordType::kScopeBegin, tid, "");
}

void DurabilityManager::LogScopeEnd(Tid tid) {
  DurabilityStatementGuard guard(this);
  (void)AppendRecord(WalRecordType::kScopeCommit, tid, "");
}

void DurabilityManager::MaybeCheckpoint() {
  if (!wal_) return;
  if (wal_->bytes_since_rotate() < options_.checkpoint_wal_bytes) return;
  (void)Checkpoint();  // Skips and errors are both fine here: opportunistic.
}

}  // namespace aggcache
