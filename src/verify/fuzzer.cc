#include "verify/fuzzer.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

#include "cache/aggregate_cache_manager.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "runtime/memory_tracker.h"
#include "runtime/query_context.h"
#include "sql/parser.h"
#include "storage/database.h"
#include "storage/recovery.h"
#include "verify/fault_injector.h"
#include "verify/oracle.h"
#include "workload/trace.h"

namespace aggcache {

std::string FuzzReport::Summary() const {
  if (ok) {
    return StrFormat(
        "seed %llu: OK (%zu steps, %zu queries, %zu combos, %llu faults "
        "fired, %zu governance aborts, %zu crashes survived)",
        static_cast<unsigned long long>(seed), steps_executed,
        queries_checked, combos_checked,
        static_cast<unsigned long long>(faults_fired), governance_aborts,
        crashes_survived);
  }
  std::string out = StrFormat("seed %llu: FAILED at %s\n",
                              static_cast<unsigned long long>(seed),
                              failure->where.c_str());
  if (!failure->query_sql.empty()) {
    out += "query: " + failure->query_sql + "\n";
  }
  out += failure->description;
  return out;
}

namespace {

/// One generated data column (group-by or measure).
struct FuzzColumn {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  bool groupable = false;  ///< Low-cardinality: usable in GROUP BY.
};

/// Bookkeeping for one live row, keyed by primary key.
struct FuzzRow {
  /// Temperature-relevant tid: the row's own tid for root tables, the
  /// referenced root object's tid for tables joined through a matching
  /// dependency. Governs the consistent-aging constraint after a split.
  int64_t temp_tid = 0;
  int64_t parent_pk = 0;
};

struct FuzzTable {
  std::string name;
  int parent = -1;  ///< Index of the referenced table, -1 for roots.
  std::string fk_col;      ///< Local FK column name (children only).
  std::string md_tid_col;  ///< Local MD tid column name (children only).
  std::string own_tid_col;
  std::vector<FuzzColumn> cols;     ///< Data columns (excludes id/fk/tids).
  std::map<int64_t, FuzzRow> rows;  ///< Live rows only.
  int64_t next_pk = 1;
  bool in_aging_group = false;
};

const char* kStrings[] = {"red", "green", "blue", "gold", "grey"};

/// The whole per-seed state machine. Every mutation is emitted as trace
/// text first and then executed through TraceReplayer, so the recorded
/// trace is the exact program that ran — a replay cannot drift from the
/// original by construction.
class FuzzRun : public TraceEngineHost {
 public:
  FuzzRun(uint64_t seed, const FuzzOptions& options)
      : options_(options), rng_(seed) {
    report_.seed = seed;
    static const size_t kMaxEntries[] = {0, 2, 8, 64};
    config_.max_entries = kMaxEntries[rng_.UniformInt(0, 3)];
    config_.incremental_join_main_compensation = rng_.Chance(0.5);
    db_ = std::make_unique<Database>();
    if (options_.with_crashes) {
      data_dir_ = StrFormat("%s/seed%llu", options_.data_dir.c_str(),
                            static_cast<unsigned long long>(seed));
      std::error_code ec;
      std::filesystem::remove_all(data_dir_, ec);
      // Simulated kills preserve everything write(2)-ten, so sync and async
      // behave identically under this harness and both get coverage; kOff
      // would lose committed work the oracle cannot model, so it is only
      // exercised by the perf benchmarks.
      durability_options_.wal_policy = rng_.Chance(0.5)
                                           ? WalSyncPolicy::kSync
                                           : WalSyncPolicy::kAsync;
      auto durability_or =
          DurabilityManager::Open(data_dir_, db_.get(), durability_options_);
      if (!durability_or.ok()) {
        Fail("durability open", "", durability_or.status().ToString());
      } else {
        durability_ = std::move(durability_or).value();
      }
    }
    cache_ = std::make_unique<AggregateCacheManager>(db_.get(), config_);
    if (durability_ != nullptr) durability_->SetDescriptorSource(cache_.get());
    replayer_ = std::make_unique<TraceReplayer>(db_.get(), cache_.get());
    replayer_->SetEngineHost(this);
    trace_ += StrFormat(
        "# verify_fuzz seed=%llu max_entries=%zu incremental_join=%d "
        "crashes=%d\n",
        static_cast<unsigned long long>(seed), config_.max_entries,
        config_.incremental_join_main_compensation ? 1 : 0,
        options_.with_crashes ? 1 : 0);
  }

  ~FuzzRun() override {
    // Teardown order mirrors ownership: the cache unregisters its merge
    // observer from the database, the durability manager detaches from it.
    cache_.reset();
    durability_.reset();
    db_.reset();
  }

  // --- TraceEngineHost ------------------------------------------------------

  Status Crash() override {
    if (durability_ == nullptr) {
      return Status::FailedPrecondition("crash without durability");
    }
    durability_->SimulateCrash();
    return Status::Ok();
  }

  Status Recover() override {
    if (durability_ == nullptr) {
      return Status::FailedPrecondition("recover without a prior crash");
    }
    cache_.reset();
    durability_.reset();
    db_ = std::make_unique<Database>();
    ASSIGN_OR_RETURN(durability_, DurabilityManager::Open(
                                      data_dir_, db_.get(),
                                      durability_options_));
    cache_ = std::make_unique<AggregateCacheManager>(db_.get(), config_);
    cache_->ImportWarmDescriptors(durability_->TakeWarmDescriptors());
    durability_->SetDescriptorSource(cache_.get());
    replayer_->Rebind(db_.get(), cache_.get());
    return Status::Ok();
  }

  Status Checkpoint() override {
    if (durability_ == nullptr) {
      return Status::FailedPrecondition("checkpoint without durability");
    }
    return durability_->Checkpoint().status();
  }

  FuzzReport Run() {
    FaultInjector& injector = FaultInjector::Global();
    injector.DisarmAll();
    uint64_t fired_before = injector.TotalFired();
    if (options_.with_faults) {
      Exec(StrFormat("!faultseed %llu",
                     static_cast<unsigned long long>(report_.seed)));
    }

    GenerateSchema();
    for (FuzzTable& table : tables_) {
      size_t warmup = rng_.UniformInt(4, 8);
      for (size_t i = 0; i < warmup && !failed_; ++i) DoInsert(table);
    }

    size_t since_check = 0;
    for (size_t step = 0; step < options_.steps && !failed_; ++step) {
      ++report_.steps_executed;
      if (++since_check >= options_.check_every) {
        since_check = 0;
        DoCheckpoint();
        continue;
      }
      int dice = rng_.UniformInt(0, 99);
      if (dice < 31) {
        DoInsert(tables_[rng_.UniformInt(0, tables_.size() - 1)]);
      } else if (dice < 43) {
        DoUpdate();
      } else if (dice < 51) {
        DoDelete();
      } else if (dice < 59) {
        DoMerge();
      } else if (dice < 65) {
        DoSplitAndAge();
      } else if (dice < 69) {
        Exec("!clearcache");
      } else if (dice < 75) {
        DoAtomicBurst();
      } else if (dice < 85 && options_.with_faults) {
        DoFaultSchedule();
      } else if (dice < 93 && options_.with_crashes) {
        since_check = 0;  // Ends in a full differential sweep.
        DoCrashRecover();
      } else {
        since_check = 0;
        DoCheckpoint();
      }
    }
    // Every crash seed ends with at least one kill + recovery, so no seed
    // can pass without exercising the recovery path.
    if (!failed_ && options_.with_crashes) DoCrashRecover();
    if (!failed_) DoCheckpoint();

    report_.faults_fired = injector.TotalFired() - fired_before;
    injector.DisarmAll();
    ThreadPool::SetGlobalParallelism(1);
    report_.trace = trace_;
    return report_;
  }

 private:
  // --- Trace-driven execution --------------------------------------------

  /// Appends `text` to the trace and executes it. Any error that is not an
  /// expected injected-fault outcome fails the run.
  void Exec(const std::string& text) {
    if (failed_) return;
    trace_ += text + "\n";
    auto report_or = replayer_->ReplayString(text);
    if (!report_or.ok()) {
      Fail("operation: " + text, "", report_or.status().ToString());
    }
  }

  void Fail(const std::string& where, const std::string& sql,
            const std::string& description) {
    if (failed_) return;
    failed_ = true;
    report_.ok = false;
    report_.failure = FuzzFailure{where, sql, description};
    trace_ += "# FAILURE at " + where + "\n";
  }

  // --- Schema generation --------------------------------------------------

  void GenerateSchema() {
    size_t n = rng_.Chance(0.5) ? 3 : 2;
    for (size_t i = 0; i < n; ++i) {
      FuzzTable table;
      table.name = StrFormat("T%zu", i);
      if (i == 1) {
        table.parent = 0;
      } else if (i == 2) {
        table.parent = rng_.Chance(0.5) ? 0 : 1;
      }
      table.own_tid_col = "tid_" + table.name;
      std::string ddl =
          "CREATE TABLE " + table.name + " (id BIGINT PRIMARY KEY";
      if (table.parent >= 0) {
        const std::string& parent = tables_[table.parent].name;
        table.fk_col = "fk" + parent;
        table.md_tid_col = "ptid_" + parent;
        ddl += StrFormat(", %s BIGINT REFERENCES %s TID %s",
                         table.fk_col.c_str(), parent.c_str(),
                         table.md_tid_col.c_str());
      }
      table.cols.push_back(
          {StrFormat("g%zu", i),
           rng_.Chance(0.5) ? ColumnType::kInt64 : ColumnType::kString,
           true});
      if (rng_.Chance(0.5)) {
        table.cols.push_back({StrFormat("h%zu", i), ColumnType::kInt64, true});
      }
      table.cols.push_back({StrFormat("v%zu", i),
                            rng_.Chance(0.5) ? ColumnType::kInt64
                                             : ColumnType::kDouble,
                            false});
      if (rng_.Chance(0.5)) {
        table.cols.push_back(
            {StrFormat("w%zu", i), ColumnType::kDouble, false});
      }
      for (const FuzzColumn& col : table.cols) {
        const char* type = col.type == ColumnType::kInt64    ? "BIGINT"
                           : col.type == ColumnType::kDouble ? "DOUBLE"
                                                             : "VARCHAR";
        ddl += ", " + col.name + " " + type;
      }
      ddl += ", OWN TID " + table.own_tid_col + ");";
      tables_.push_back(std::move(table));
      Exec(ddl);
    }
  }

  // --- Value generation ---------------------------------------------------

  std::string RandomLiteral(const FuzzColumn& col) {
    switch (col.type) {
      case ColumnType::kInt64:
        return StrFormat("%lld",
                         static_cast<long long>(col.groupable
                                                    ? rng_.UniformInt(0, 4)
                                                    : rng_.UniformInt(0, 100)));
      case ColumnType::kDouble:
        return StrFormat("%.2f", rng_.UniformDouble(0.0, 100.0));
      case ColumnType::kString:
        return StrFormat("'%s'", kStrings[rng_.UniformInt(0, 4)]);
    }
    return "0";
  }

  /// A literal for a column of a row being written. Double literals are
  /// remembered for FilterLiteral.
  std::string RowLiteral(const FuzzColumn& col) {
    std::string literal = RandomLiteral(col);
    if (col.type == ColumnType::kDouble) {
      written_doubles_[col.name].push_back(literal);
    }
    return literal;
  }

  /// A filter literal. For a double column, half the time a value some row
  /// was written with: filters then sit on stored values, and a nudged
  /// re-run of the query (NudgeDoubleLiterals) changes which rows match.
  std::string FilterLiteral(const FuzzColumn& col) {
    auto written = written_doubles_.find(col.name);
    if (written != written_doubles_.end() && rng_.Chance(0.5)) {
      const std::vector<std::string>& values = written->second;
      return values[rng_.UniformInt(0, values.size() - 1)];
    }
    return RandomLiteral(col);
  }

  // --- Workload operations ------------------------------------------------

  /// Primary keys eligible as a join parent for new/updated child rows:
  /// live, and — once the aging group exists — hot (temperature tid at or
  /// above the split point), so matching rows never straddle the hot/cold
  /// boundary (the consistent-aging contract of Section 5.4).
  std::vector<int64_t> EligibleParents(const FuzzTable& parent) {
    std::vector<int64_t> pks;
    for (const auto& [pk, row] : parent.rows) {
      if (parent.in_aging_group && row.temp_tid < split_tid_) continue;
      pks.push_back(pk);
    }
    return pks;
  }

  void DoInsert(FuzzTable& table) {
    int64_t parent_pk = 0;
    std::string values =
        StrFormat("%lld", static_cast<long long>(table.next_pk));
    if (table.parent >= 0) {
      FuzzTable& parent = tables_[table.parent];
      std::vector<int64_t> pks = EligibleParents(parent);
      if (pks.empty()) return;  // No valid referent; skip this op.
      parent_pk = pks[rng_.UniformInt(0, pks.size() - 1)];
      values += StrFormat(", %lld", static_cast<long long>(parent_pk));
    }
    for (const FuzzColumn& col : table.cols) {
      values += ", " + RowLiteral(col);
    }
    Exec("INSERT INTO " + table.name + " VALUES (" + values + ");");
    if (failed_) return;
    int64_t temp_tid;
    if (table.parent >= 0) {
      temp_tid = tables_[table.parent].rows[parent_pk].temp_tid;
    } else {
      temp_tid = static_cast<int64_t>(db_->txn_manager().last_committed());
    }
    table.rows[table.next_pk] = FuzzRow{temp_tid, parent_pk};
    ++table.next_pk;
  }

  void DoUpdate() {
    FuzzTable& table = tables_[rng_.UniformInt(0, tables_.size() - 1)];
    // An update re-inserts the surviving version into the *hot* delta, so
    // under an aging group only hot objects may be updated; and the MD tid
    // re-lookup needs the referenced parent row to still exist.
    std::vector<int64_t> pks;
    for (const auto& [pk, row] : table.rows) {
      if (table.in_aging_group && row.temp_tid < split_tid_) continue;
      if (table.parent >= 0 &&
          !tables_[table.parent].rows.count(row.parent_pk)) {
        continue;
      }
      pks.push_back(pk);
    }
    if (pks.empty()) return;
    int64_t pk = pks[rng_.UniformInt(0, pks.size() - 1)];
    // New user values in schema order: id and fk are preserved (updates
    // change measures/dimensions, not object identity), the rest redrawn.
    std::string values = StrFormat("%lld", static_cast<long long>(pk));
    if (table.parent >= 0) {
      values +=
          StrFormat(" %lld", static_cast<long long>(table.rows[pk].parent_pk));
    }
    for (const FuzzColumn& col : table.cols) {
      values += " " + RowLiteral(col);
    }
    Exec(StrFormat("!update %s %lld %s", table.name.c_str(),
                   static_cast<long long>(pk), values.c_str()));
  }

  void DoDelete() {
    FuzzTable& table = tables_[rng_.UniformInt(0, tables_.size() - 1)];
    // Deletion is pure invalidation (no new row version), so it is safe on
    // both temperatures; keep a floor of rows so joins stay non-trivial.
    if (table.rows.size() < 3) return;
    auto it = table.rows.begin();
    std::advance(it, rng_.UniformInt(0, table.rows.size() - 1));
    Exec(StrFormat("!delete %s %lld", table.name.c_str(),
                   static_cast<long long>(it->first)));
    if (!failed_) table.rows.erase(it);
  }

  void DoMerge() {
    if (rng_.Chance(0.5)) {
      Exec("!merge");
    } else {
      const FuzzTable& table = tables_[rng_.UniformInt(0, tables_.size() - 1)];
      Exec("!merge " + table.name);
    }
  }

  /// Splits a root and its direct child on one tid threshold and registers
  /// them as an aging group — the §5.4 scenario. Runs at most once; fault
  /// injection is suspended so the preparatory merge cannot abort (replay
  /// stays deterministic and the split precondition — empty deltas —
  /// holds).
  void DoSplitAndAge() {
    if (aging_active_ || tables_.size() < 2 || tables_[1].parent != 0) {
      return;
    }
    if (options_.with_faults) Exec("!fault off");
    Exec("!merge");
    if (failed_) return;
    for (const FuzzTable& t : tables_) {
      const Table* table = db_->GetTable(t.name).value();
      for (size_t g = 0; g < table->num_groups(); ++g) {
        if (!table->group(g).delta.empty()) return;  // Unexpected; skip.
      }
    }
    split_tid_ = rng_.UniformInt(
        1, static_cast<int64_t>(db_->txn_manager().last_committed()));
    Exec(StrFormat("!split T0 %s %lld", tables_[0].own_tid_col.c_str(),
                   static_cast<long long>(split_tid_)));
    Exec(StrFormat("!split T1 %s %lld", tables_[1].md_tid_col.c_str(),
                   static_cast<long long>(split_tid_)));
    Exec("!aging T0 T1");
    if (failed_) return;
    aging_active_ = true;
    tables_[0].in_aging_group = true;
    tables_[1].in_aging_group = true;
  }

  void DoFaultSchedule() {
    if (rng_.Chance(0.3)) {
      Exec("!fault off");
      return;
    }
    static const char* kPoints[] = {
        "storage.merge", "maintenance.compensate", "maintenance.fold",
        "cache.evict_all",
    };
    std::string spec;
    for (const char* point : kPoints) {
      if (!rng_.Chance(options_.fault_probability)) continue;
      if (!spec.empty()) spec += ",";
      // storage.merge is capped: an always-failing merge would let deltas
      // grow for the rest of the run and starve the maintenance paths.
      if (std::string(point) == "storage.merge") {
        spec +=
            StrFormat("%s:%.2f:%lld", point, rng_.UniformDouble(0.3, 1.0),
                      static_cast<long long>(rng_.UniformInt(1, 3)));
      } else {
        spec += StrFormat("%s:%.2f", point, rng_.UniformDouble(0.2, 0.8));
      }
    }
    if (spec.empty()) spec = "maintenance.fold:0.5";
    Exec(StrFormat("!faultseed %lld",
                   static_cast<long long>(rng_.UniformInt(1, 1 << 20))));
    Exec("!fault " + spec);
  }

  // --- Durability: atomic scopes, crashes, recovery -----------------------

  /// One committed atomic write scope: a short burst of inserts that become
  /// visible (and durable) together when the scope closes.
  void DoAtomicBurst() {
    Exec("!atomic begin");
    size_t n = rng_.UniformInt(2, 4);
    for (size_t i = 0; i < n && !failed_; ++i) {
      DoInsert(tables_[rng_.UniformInt(0, tables_.size() - 1)]);
    }
    Exec("!atomic end");
  }

  /// An INSERT into the root table that is intentionally NOT recorded in
  /// the oracle: for rows the upcoming crash is expected to destroy
  /// (uncommitted scopes, WAL appends swallowed by an armed crash point).
  /// The primary key is burned so a later real insert cannot collide.
  void DoomedInsert() {
    FuzzTable& root = tables_[0];
    std::string values = StrFormat("%lld", static_cast<long long>(root.next_pk));
    ++root.next_pk;
    for (const FuzzColumn& col : root.cols) {
      values += ", " + RandomLiteral(col);
    }
    Exec("INSERT INTO " + root.name + " VALUES (" + values + ");");
  }

  /// Kills the engine at a randomly chosen crash point, recovers it from
  /// disk, and proves the recovered engine equals the oracle: a structural
  /// visible-row check per table, then a full differential query sweep.
  void DoCrashRecover() {
    if (failed_ || durability_ == nullptr) return;
    // The crash points below need the injector to themselves.
    Exec("!fault off");
    switch (rng_.UniformInt(0, 8)) {
      case 0:  // Plain kill between statements.
        break;
      case 1:  // Kill inside an open atomic scope: recovery rolls it back.
        Exec("!atomic begin");
        for (int i = 0; i < 2 && !failed_; ++i) DoomedInsert();
        break;
      case 2:  // Kill with a delta merge aborted mid-flight.
        Exec("!fault storage.merge:1:1");
        Exec("!merge");
        break;
      case 3:  // Statement lost before its WAL frame is written.
        Exec("!fault wal.append:1:1");
        DoomedInsert();
        break;
      case 4:  // Torn frame: only half the record reaches the log.
        Exec("!fault wal.append.torn:1:1");
        DoomedInsert();
        break;
      case 5:  // Kill right after the fsync: the statement IS durable.
        Exec("!fault wal.sync:1:1");
        DoInsert(tables_[rng_.UniformInt(0, tables_.size() - 1)]);
        break;
      case 6:  // Checkpoint dies writing its segment file.
        Exec("!fault checkpoint.write:1:1");
        Exec("!checkpoint");
        break;
      case 7:  // Checkpoint dies before the atomic rename publishes it.
        Exec("!fault checkpoint.publish:1:1");
        Exec("!checkpoint");
        break;
      case 8:  // Checkpoint published but the WAL truncation is lost.
        Exec("!fault checkpoint.truncate:1:1");
        Exec("!checkpoint");
        break;
    }
    if (failed_) return;
    Exec("!crash");
    Exec("!fault off");  // Nothing may fire inside recovery replay.
    Exec("!recover");
    if (failed_) return;
    Snapshot snapshot = db_->txn_manager().GlobalSnapshot();
    for (const FuzzTable& t : tables_) {
      auto table_or = db_->GetTable(t.name);
      if (!table_or.ok()) {
        Fail("recovery: " + t.name, "", table_or.status().ToString());
        return;
      }
      size_t visible = table_or.value()->VisibleRows(snapshot);
      if (visible != t.rows.size()) {
        Fail("recovery: " + t.name, "",
             StrFormat("%zu rows visible after recovery, oracle has %zu",
                       visible, t.rows.size()));
        return;
      }
    }
    ++report_.crashes_survived;
    DoCheckpoint();  // Differential sweep against the recovered engine.
  }

  // --- Query generation ---------------------------------------------------

  /// Random connected subset of the table tree (tables are only ever
  /// related through parent edges, and parents have smaller indices, so
  /// sorting the subset by index yields a valid left-deep join order).
  std::vector<size_t> PickJoinSubset() {
    std::vector<size_t> subset{
        static_cast<size_t>(rng_.UniformInt(0, tables_.size() - 1))};
    size_t extra = rng_.UniformInt(0, tables_.size() - 1);
    for (size_t round = 0; round < extra; ++round) {
      std::vector<size_t> candidates;
      for (size_t t = 0; t < tables_.size(); ++t) {
        if (std::count(subset.begin(), subset.end(), t)) continue;
        bool related = false;
        for (size_t member : subset) {
          if (tables_[t].parent == static_cast<int>(member) ||
              tables_[member].parent == static_cast<int>(t)) {
            related = true;
          }
        }
        if (related) candidates.push_back(t);
      }
      if (candidates.empty()) break;
      subset.push_back(candidates[rng_.UniformInt(0, candidates.size() - 1)]);
    }
    std::sort(subset.begin(), subset.end());
    return subset;
  }

  std::string GenerateQuerySql() {
    std::vector<size_t> subset = PickJoinSubset();

    // Group-by columns: 1-2 low-cardinality columns across the subset.
    struct QualifiedCol {
      std::string text;
      const FuzzColumn* col;
    };
    std::vector<QualifiedCol> groupable;
    std::vector<QualifiedCol> measures;
    for (size_t t : subset) {
      for (const FuzzColumn& col : tables_[t].cols) {
        QualifiedCol qc{tables_[t].name + "." + col.name, &col};
        (col.groupable ? groupable : measures).push_back(qc);
      }
    }
    size_t num_groups =
        rng_.UniformInt(1, std::min<size_t>(2, groupable.size()));
    std::vector<QualifiedCol> group_cols;
    for (size_t i = 0; i < num_groups; ++i) {
      QualifiedCol pick = groupable[rng_.UniformInt(0, groupable.size() - 1)];
      bool dup = false;
      for (const QualifiedCol& g : group_cols) dup |= g.text == pick.text;
      if (!dup) group_cols.push_back(pick);
    }

    // Aggregates: biased toward self-maintainable functions so both the
    // cached paths and the MIN/MAX uncached fallback get coverage.
    struct Agg {
      std::string fn_text;  ///< e.g. "SUM(T1.v1)".
    };
    std::vector<Agg> aggs;
    size_t num_aggs = rng_.UniformInt(1, 3);
    for (size_t i = 0; i < num_aggs; ++i) {
      int fn = rng_.Chance(0.6) ? rng_.UniformInt(0, 3)   // SUM/COUNT/AVG/*.
                                : rng_.UniformInt(4, 5);  // MIN/MAX.
      if (fn == 3 || measures.empty()) {
        aggs.push_back({"COUNT(*)"});
        continue;
      }
      const QualifiedCol& m = measures[rng_.UniformInt(0, measures.size() - 1)];
      static const char* kFn[] = {"SUM", "COUNT", "AVG", "", "MIN", "MAX"};
      aggs.push_back({StrFormat("%s(%s)", kFn[fn], m.text.c_str())});
    }

    std::string sql = "SELECT ";
    for (size_t i = 0; i < group_cols.size(); ++i) {
      sql += group_cols[i].text + ", ";
    }
    for (size_t i = 0; i < aggs.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += StrFormat("%s AS a%zu", aggs[i].fn_text.c_str(), i);
    }
    sql += " FROM ";
    for (size_t i = 0; i < subset.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += tables_[subset[i]].name;
    }

    // WHERE: join conditions for every subset edge, then 0-2 filters, with
    // an occasional raw tid-column predicate to stress MD-range pruning.
    std::vector<std::string> conjuncts;
    for (size_t i = 1; i < subset.size(); ++i) {
      const FuzzTable& child = tables_[subset[i]];
      if (child.parent < 0) continue;
      if (!std::count(subset.begin(), subset.end(),
                      static_cast<size_t>(child.parent))) {
        continue;
      }
      conjuncts.push_back(StrFormat(
          "%s.id = %s.%s", tables_[child.parent].name.c_str(),
          child.name.c_str(), child.fk_col.c_str()));
    }
    static const char* kOps[] = {"=", "<>", "<", "<=", ">", ">="};
    size_t num_filters = rng_.UniformInt(0, 2);
    for (size_t i = 0; i < num_filters; ++i) {
      std::vector<QualifiedCol> all = groupable;
      all.insert(all.end(), measures.begin(), measures.end());
      const QualifiedCol& c = all[rng_.UniformInt(0, all.size() - 1)];
      conjuncts.push_back(StrFormat("%s %s %s", c.text.c_str(),
                                    kOps[rng_.UniformInt(0, 5)],
                                    FilterLiteral(*c.col).c_str()));
    }
    if (rng_.Chance(0.15)) {
      const FuzzTable& t =
          tables_[subset[rng_.UniformInt(0, subset.size() - 1)]];
      const std::string& tid_col = (!t.md_tid_col.empty() && rng_.Chance(0.5))
                                       ? t.md_tid_col
                                       : t.own_tid_col;
      conjuncts.push_back(StrFormat(
          "%s.%s %s %lld", t.name.c_str(), tid_col.c_str(),
          rng_.Chance(0.5) ? "<=" : ">",
          static_cast<long long>(rng_.UniformInt(
              1, static_cast<int64_t>(db_->txn_manager().last_committed())))));
    }
    if (!conjuncts.empty()) {
      sql += " WHERE " + StrJoin(conjuncts, " AND ");
    }

    sql += " GROUP BY ";
    for (size_t i = 0; i < group_cols.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += group_cols[i].text;
    }

    // HAVING references select-list aggregates by (function, argument).
    if (rng_.Chance(0.25)) {
      const Agg& agg = aggs[rng_.UniformInt(0, aggs.size() - 1)];
      sql += StrFormat(" HAVING %s %s %lld", agg.fn_text.c_str(),
                       kOps[rng_.UniformInt(0, 5)],
                       static_cast<long long>(rng_.UniformInt(0, 200)));
    }
    return sql + ";";
  }

  /// `sql` with every decimal literal moved by 1e-7, below its 6th
  /// significant digit: a different query that a cache key rendering
  /// doubles inexactly would confuse with the original. The move is toward
  /// the side that flips a row holding exactly the literal (up after `<`
  /// and `>=`, down after `>` and `<=`), so with FilterLiteral the two
  /// queries often differ in answer. Identifiers never hold a digit
  /// followed by '.', so only literals match.
  std::string NudgeDoubleLiterals(const std::string& sql) {
    auto digit = [&sql](size_t i) {
      return i < sql.size() &&
             std::isdigit(static_cast<unsigned char>(sql[i]));
    };
    std::string out;
    size_t i = 0;
    while (i < sql.size()) {
      size_t end = i;
      while (digit(end)) ++end;
      if (end == i || (i > 0 && sql[i - 1] != ' ') || sql[end] != '.' ||
          !digit(end + 1)) {
        out += sql[i++];
        continue;
      }
      for (++end; digit(end);) ++end;
      // The comparison operator ends one space before the literal.
      const std::string op =
          out.substr(out.find_last_of(' ', out.size() - 2) + 1);
      bool up = op == "< " || op == ">= " ||
                ((op == "= " || op == "<> ") && rng_.Chance(0.5));
      double value = std::strtod(sql.c_str() + i, nullptr);
      out += StrFormat("%.7f", value + (up ? 1e-7 : -1e-7));
      i = end;
    }
    return out;
  }

  // --- Differential checkpoint -------------------------------------------

  void DoCheckpoint() {
    if (failed_) return;
    std::string sql;
    if (!query_pool_.empty() && rng_.Chance(0.35)) {
      // Re-run an earlier query: exercises cache hits and compensation of
      // entries that aged across merges, splits, and fault storms.
      sql = query_pool_[rng_.UniformInt(0, query_pool_.size() - 1)];
    } else if (!query_pool_.empty() && rng_.Chance(0.2)) {
      // The previous query with its double literals nudged: a different
      // query, which must not be served the previous query's entry (most
      // likely still cached).
      sql = NudgeDoubleLiterals(query_pool_.back());
    } else {
      sql = GenerateQuerySql();
      query_pool_.push_back(sql);
    }
    auto stmt_or = ParseStatement(sql, *db_);
    if (!stmt_or.ok()) {
      Fail("parse", sql, stmt_or.status().ToString());
      return;
    }
    const AggregateQuery& query = stmt_or.value().select;
    std::vector<AggregateFunction> functions = query.AggregateFunctions();

    // One transaction for the whole sweep: every engine combination and
    // the oracle read the exact same snapshot. The trace records the query
    // once (replay executes it under default options).
    trace_ += sql + "\n";
    Transaction txn = db_->Begin();
    auto oracle_or = OracleExecute(*db_, query, txn.snapshot());
    if (!oracle_or.ok()) {
      Fail("oracle", sql, oracle_or.status().ToString());
      return;
    }
    AggregateResult oracle = std::move(oracle_or).value();
    if (options_.inject_divergence && report_.queries_checked == 0) {
      // Self-test: corrupt the oracle so the first comparison must report.
      GroupKey key;
      for (size_t i = 0; i < query.group_by.size(); ++i) {
        key.values.push_back(Value(int64_t{424242}));
      }
      AggregateResult::GroupEntry entry;
      entry.states.resize(query.aggregates.size());
      entry.count_star = 1;
      for (AggregateState& s : entry.states) s.Add(Value(int64_t{1}));
      oracle.SetGroup(key, std::move(entry));
    }
    ++report_.queries_checked;

    static const ExecutionStrategy kStrategies[] = {
        ExecutionStrategy::kUncached,
        ExecutionStrategy::kCachedNoPruning,
        ExecutionStrategy::kCachedEmptyDeltaPruning,
        ExecutionStrategy::kCachedFullPruning,
    };
    for (size_t threads : options_.thread_counts) {
      ThreadPool::SetGlobalParallelism(threads);
      for (ExecutionStrategy strategy : kStrategies) {
        for (bool pushdown : {false, true}) {
          ExecutionOptions exec;
          exec.strategy = strategy;
          exec.use_predicate_pushdown = pushdown;
          std::string label =
              StrFormat("strategy=%s pushdown=%d threads=%zu",
                        ExecutionStrategyToString(strategy), pushdown ? 1 : 0,
                        threads);
          auto result_or = cache_->Execute(query, txn, exec);
          if (!result_or.ok()) {
            Fail(label, sql, result_or.status().ToString());
            return;
          }
          ++report_.combos_checked;
          std::optional<std::string> diff = DiffResults(
              oracle, result_or.value(), functions, options_.tolerance);
          if (diff.has_value()) {
            Fail(label, sql, "oracle divergence: " + *diff);
            return;
          }
        }
      }
    }
    if (options_.with_faults) {
      DoGovernanceSweep(query, txn, oracle, functions, sql);
    }
    ThreadPool::SetGlobalParallelism(1);
  }

  /// Re-executes the checkpoint query with the runtime.alloc and
  /// runtime.deadline points armed, so governance aborts strike at random
  /// charge/check sites inside scans, builds, and compensation. An
  /// execution may finish clean (the draw passed) — then it must match the
  /// oracle — or abort with a typed governance status. Either way, after
  /// disarming, per-query reservations must balance back to the pre-sweep
  /// level and a clean re-execution must still match the oracle: an abort
  /// may not leak reservations or leave partial cache state behind.
  void DoGovernanceSweep(const AggregateQuery& query, const Transaction& txn,
                         const AggregateResult& oracle,
                         const std::vector<AggregateFunction>& functions,
                         const std::string& sql) {
    if (failed_) return;
    static const char* kRuntimePoints[] = {"runtime.alloc",
                                           "runtime.deadline"};
    FaultInjector& injector = FaultInjector::Global();
    size_t balance_before = MemoryTracker::Queries().used();
    ThreadPool::SetGlobalParallelism(
        options_.thread_counts[rng_.UniformInt(
            0, options_.thread_counts.size() - 1)]);
    bool armed_any = false;
    for (const char* point : kRuntimePoints) {
      if (!rng_.Chance(0.6)) continue;
      FaultInjector::PointConfig config;
      config.probability = rng_.UniformDouble(0.3, 1.0);
      config.max_fires = rng_.UniformInt(1, 3);
      injector.Arm(point, config);
      armed_any = true;
    }
    if (!armed_any) {
      FaultInjector::PointConfig config;
      config.max_fires = 1;
      injector.Arm(kRuntimePoints[rng_.UniformInt(0, 1)], config);
    }
    {
      QueryContext context;
      ScopedQueryContext scope(&context);
      auto result_or = cache_->Execute(query, txn);
      if (result_or.ok()) {
        std::optional<std::string> diff = DiffResults(
            oracle, result_or.value(), functions, options_.tolerance);
        if (diff.has_value()) {
          Fail("governance sweep (no fault fired)", sql,
               "oracle divergence: " + *diff);
        }
      } else if (result_or.status().IsGovernanceAbort()) {
        ++report_.governance_aborts;
      } else {
        Fail("governance sweep", sql,
             "expected a typed governance abort, got: " +
                 result_or.status().ToString());
      }
    }
    for (const char* point : kRuntimePoints) injector.Disarm(point);
    if (failed_) return;
    size_t balance_after = MemoryTracker::Queries().used();
    if (balance_after != balance_before) {
      Fail("governance sweep", sql,
           StrFormat("per-query reservations leaked: %zu bytes tracked "
                     "before the sweep, %zu after",
                     balance_before, balance_after));
      return;
    }
    auto clean_or = cache_->Execute(query, txn);
    if (!clean_or.ok()) {
      Fail("governance sweep (clean re-execution)", sql,
           clean_or.status().ToString());
      return;
    }
    std::optional<std::string> diff =
        DiffResults(oracle, clean_or.value(), functions, options_.tolerance);
    if (diff.has_value()) {
      Fail("governance sweep (clean re-execution)", sql,
           "oracle divergence: " + *diff);
    }
  }

  FuzzOptions options_;
  Rng rng_;
  AggregateCacheManager::Config config_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<DurabilityManager> durability_;
  std::unique_ptr<AggregateCacheManager> cache_;
  std::unique_ptr<TraceReplayer> replayer_;
  std::vector<FuzzTable> tables_;
  std::vector<std::string> query_pool_;
  /// Double literals written to rows, by column name (unique across
  /// tables).
  std::map<std::string, std::vector<std::string>> written_doubles_;
  std::string trace_;
  std::string data_dir_;
  DurabilityOptions durability_options_;
  FuzzReport report_;
  bool failed_ = false;
  bool aging_active_ = false;
  int64_t split_tid_ = 0;
};

}  // namespace

FuzzReport RunFuzzSeed(uint64_t seed, const FuzzOptions& options) {
  FuzzRun run(seed, options);
  return run.Run();
}

}  // namespace aggcache
