// The benchmark program: one single-client, single-threaded process per run.
//
//   perfbench --workload <hot_hits|fresh_delta|dirty_main|ingest_merge>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --data-dir <dir> --trace-out <file>
//
// It generates ERP business objects (Header ⋈ Item ⋈ ProductCategory, ~10
// items per header) from --seed with its own generator, loads them through
// public engine calls, runs one workload, checks every answer, and prints
// an environment stamp, a determinism stamp and, as the last line, one JSON
// object with the run's metrics. perfbench/README.md explains the workloads
// and the metrics; perfbench/run.py builds and runs this program.

#include <malloc.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "aggcache/aggcache.h"
#include "storage/segment.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using aggcache::AggregateCacheManager;
using aggcache::AggregateResult;
using aggcache::ColumnType;
using aggcache::Database;
using aggcache::DurabilityManager;
using aggcache::DurabilityOptions;
using aggcache::EngineMetrics;
using aggcache::ExecutionOptions;
using aggcache::ExecutionStrategy;
using aggcache::ParsedStatement;
using aggcache::SchemaBuilder;
using aggcache::ScopedTransaction;
using aggcache::Status;
using aggcache::StatusOr;
using aggcache::Table;
using aggcache::Transaction;
using aggcache::Value;
using aggcache::WalSyncPolicy;

// ---------------------------------------------------------------------------
// Fixed conditions and data shape.

constexpr int64_t kYears[] = {2012, 2013, 2014};
constexpr const char* kLanguages[] = {"ENG", "GER"};
constexpr const char* kTxnTypes[] = {"DEBIT", "CREDIT", "TRANSFER"};
constexpr int kNumYears = 3;
constexpr int kNumLanguages = 2;
constexpr int kNumTxnTypes = 3;
constexpr int kNumCategories = 50;
constexpr int kMaxItemsPerHeader = 19;  // uniform 1..19, mean 10
constexpr size_t kEnginePool = 1;      // one client thread, no pool workers
constexpr int kSetupRepeats = 5;       // setup_s is the median of these
constexpr int kRecoveries = 3;         // recover_s is the median of these

enum class Kind { kHotHits, kFreshDelta, kDirtyMain, kIngestMerge };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  size_t main_headers;      // business objects loaded and merged into main
  size_t delta_objects;     // objects left in the delta after set-up
  size_t setup_updates;     // scattered header updates after set-up
  bool durable;             // sync WAL + checkpoints + recovery
  size_t reads_per_round;   // cached reads per round
  size_t writes_per_round;  // objects inserted (or headers updated)
  size_t rounds_per_merge;  // ingest_merge: rounds between merges (0: none)
  size_t merges_per_checkpoint;
  double rounds_per_second; // plan: rounds = ceil(seconds * this)
};

// The plan (rounds per second of --seconds) is fixed per workload, so the
// same seed and --seconds always run the same operations and every count
// repeats exactly; the rates were sized on a 4-vCPU x86 VM so the loop lasts
// about --seconds there. A loop that runs past twice --seconds stops early.
constexpr WorkloadSpec kWorkloads[] = {
    // name           kind                main    delta  upd  dur   rd   wr  merge ckpt rounds/s
    {"hot_hits",     Kind::kHotHits,     10000,     0,    0, false, 300,  0,  0,   0,  38.0},
    {"fresh_delta",  Kind::kFreshDelta,  10000,  3600,    0, false,  12,  1,  0,   0,  38.0},
    {"dirty_main",   Kind::kDirtyMain,   10000,     0,  100, false,   6,  1,  0,   0,  55.0},
    {"ingest_merge", Kind::kIngestMerge, 10000,     0,    0, true,    3,  8,  1,   8,   3.0},
};

// ---------------------------------------------------------------------------
// Deterministic input generator (independent of engine code, so a library
// change cannot change the inputs).

class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

 private:
  uint64_t state_;
};

class Digest {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001B3ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ull;
};

struct ItemRow {
  uint8_t language;
  uint8_t category;
  int32_t cents;
  int32_t quantity;
};

struct HeaderRow {
  uint8_t year;
  uint8_t txn_type;
  uint32_t first_item;  // index into Model::items (== ItemID - 1)
  uint32_t num_items;
};

/// What the database must contain: every acknowledged row, and the exact
/// per-group sums every statement must return (prices are whole cents).
class Model {
 public:
  Model() : cents_(kCells, 0), counts_(kCells, 0) {}

  /// Generates the next business object and records it.
  uint32_t NewObject(Rng& rng, Digest& inputs) {
    HeaderRow header;
    header.year = static_cast<uint8_t>(rng.Uniform(0, kNumYears - 1));
    header.txn_type = static_cast<uint8_t>(rng.Uniform(0, kNumTxnTypes - 1));
    header.first_item = static_cast<uint32_t>(items_.size());
    header.num_items =
        static_cast<uint32_t>(rng.Uniform(1, kMaxItemsPerHeader));
    inputs.Add(header.year * 16 + header.txn_type);
    for (uint32_t i = 0; i < header.num_items; ++i) {
      ItemRow item;
      item.language = static_cast<uint8_t>(rng.Uniform(0, kNumLanguages - 1));
      item.category = static_cast<uint8_t>(rng.Uniform(0, kNumCategories - 1));
      item.cents = static_cast<int32_t>(rng.Uniform(100, 100000));
      item.quantity = static_cast<int32_t>(rng.Uniform(1, 20));
      inputs.Add((static_cast<uint64_t>(item.cents) << 16) |
                 (item.category << 8) | item.language);
      items_.push_back(item);
      AddItem(header, item, +1);
    }
    headers_.push_back(header);
    return static_cast<uint32_t>(headers_.size());  // the new HeaderID
  }

  void MoveHeader(uint32_t header_id, uint8_t new_year) {
    HeaderRow& header = headers_[header_id - 1];
    for (uint32_t i = 0; i < header.num_items; ++i) {
      AddItem(header, items_[header.first_item + i], -1);
    }
    header.year = new_year;
    for (uint32_t i = 0; i < header.num_items; ++i) {
      AddItem(header, items_[header.first_item + i], +1);
    }
  }

  const HeaderRow& header(uint32_t id) const { return headers_[id - 1]; }
  const ItemRow& item(uint32_t id) const { return items_[id - 1]; }
  size_t num_headers() const { return headers_.size(); }
  size_t num_items() const { return items_.size(); }

  int64_t Cents(int y, int t, int l, int c) const {
    return cents_[Cell(y, t, l, c)];
  }
  int64_t Count(int y, int t, int l, int c) const {
    return counts_[Cell(y, t, l, c)];
  }

 private:
  static constexpr size_t kCells =
      kNumYears * kNumTxnTypes * kNumLanguages * kNumCategories;
  static size_t Cell(int y, int t, int l, int c) {
    return ((static_cast<size_t>(y) * kNumTxnTypes + t) * kNumLanguages + l) *
               kNumCategories + c;
  }
  void AddItem(const HeaderRow& h, const ItemRow& item, int sign) {
    size_t cell = Cell(h.year, h.txn_type, item.language, item.category);
    cents_[cell] += sign * item.cents;
    counts_[cell] += sign;
  }

  std::vector<HeaderRow> headers_;
  std::vector<ItemRow> items_;
  std::vector<int64_t> cents_;
  std::vector<int64_t> counts_;
};

/// A read the workload issues as SQL text: the paper's Listing 1 for one
/// fiscal year and language (cached), or an ad-hoc variant filtered by
/// transaction type over both languages (run uncached).
struct Statement {
  std::string sql;
  bool adhoc = false;
  int year = 0;
  int language = 0;  // Listing 1 only
  int txn_type = 0;  // ad-hoc only
};

std::string CategoryName(int c) { return "Category-" + std::to_string(c); }

std::vector<Statement> CachedStatements() {
  std::vector<Statement> out;
  for (int y = 0; y < kNumYears; ++y) {
    for (int l = 0; l < kNumLanguages; ++l) {
      Statement s;
      s.year = y;
      s.language = l;
      s.sql =
          "SELECT ProductCategory.Name, SUM(Item.Price) AS Profit "
          "FROM Header, Item, ProductCategory "
          "WHERE Item.HeaderID = Header.HeaderID "
          "AND Item.CategoryID = ProductCategory.CategoryID "
          "AND ProductCategory.Language = '" +
          std::string(kLanguages[l]) +
          "' AND Header.FiscalYear = " + std::to_string(kYears[y]) +
          " GROUP BY ProductCategory.Name";
      out.push_back(std::move(s));
    }
  }
  return out;
}

std::vector<Statement> AdhocStatements() {
  std::vector<Statement> out;
  for (int y = 0; y < kNumYears; ++y) {
    for (int t = 0; t < kNumTxnTypes; ++t) {
      Statement s;
      s.adhoc = true;
      s.year = y;
      s.txn_type = t;
      s.sql =
          "SELECT ProductCategory.Name, SUM(Item.Price) AS Revenue, "
          "COUNT(*) AS Items FROM Header, Item, ProductCategory "
          "WHERE Item.HeaderID = Header.HeaderID "
          "AND Item.CategoryID = ProductCategory.CategoryID "
          "AND Header.TxnType = '" +
          std::string(kTxnTypes[t]) +
          "' AND Header.FiscalYear = " + std::to_string(kYears[y]) +
          " GROUP BY ProductCategory.Name";
      out.push_back(std::move(s));
    }
  }
  return out;
}

/// Expected (cents, rows) per category for one statement.
std::vector<std::pair<int64_t, int64_t>> Expected(const Model& model,
                                                  const Statement& s) {
  std::vector<std::pair<int64_t, int64_t>> out(kNumCategories, {0, 0});
  for (int c = 0; c < kNumCategories; ++c) {
    for (int t = 0; t < kNumTxnTypes; ++t) {
      for (int l = 0; l < kNumLanguages; ++l) {
        if (s.adhoc ? t != s.txn_type : l != s.language) continue;
        out[c].first += model.Cents(s.year, t, l, c);
        out[c].second += model.Count(s.year, t, l, c);
      }
    }
  }
  return out;
}

/// True when `result` holds exactly the model's groups, with the model's row
/// counts and sums (to within floating-point summation error).
bool Matches(const AggregateResult& result, const Model& model,
             const Statement& s, std::string* why) {
  auto expected = Expected(model, s);
  size_t expected_groups = 0;
  for (const auto& e : expected) expected_groups += e.second > 0 ? 1 : 0;
  if (result.num_groups() != expected_groups) {
    *why = "group count " + std::to_string(result.num_groups()) + " != " +
           std::to_string(expected_groups);
    return false;
  }
  for (const auto& [key, entry] : result.groups()) {
    const std::string& name = key.values.at(0).AsString();
    int c = std::atoi(name.c_str() + std::strlen("Category-"));
    if (c < 0 || c >= kNumCategories || name != CategoryName(c)) {
      *why = "unexpected group " + name;
      return false;
    }
    const aggcache::AggregateState& sum = entry.states.at(0);
    double want = static_cast<double>(expected[c].first) / 100.0;
    if (sum.count != expected[c].second ||
        std::fabs(sum.sum_double - want) > 1e-7 * std::max(1.0, want)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s: rows %" PRId64 " sum %.4f, want %" PRId64 " / %.4f",
                    name.c_str(), sum.count, sum.sum_double,
                    expected[c].second, want);
      *why = buf;
      return false;
    }
  }
  return true;
}

void AddAnswers(const AggregateResult& result, Digest& digest) {
  std::vector<std::pair<std::string, const aggcache::AggregateState*>> groups;
  for (const auto& [key, entry] : result.groups()) {
    groups.emplace_back(key.values.at(0).AsString(), &entry.states.at(0));
  }
  std::sort(groups.begin(), groups.end());
  for (const auto& [name, state] : groups) {
    for (char ch : name) digest.Add(static_cast<uint8_t>(ch));
    digest.Add(static_cast<uint64_t>(state->count));
    digest.Add(static_cast<uint64_t>(std::llround(state->sum_double * 100.0)));
  }
}

// ---------------------------------------------------------------------------
// Measurements.

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double UsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

/// A resident-memory field of /proc/self/status ("VmRSS", "RssAnon"), in
/// bytes.
double RssBytes(const std::string& field = "VmRSS") {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) * 1024.0;
    }
  }
  return 0.0;
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

uint64_t NewestCheckpointBytes(const std::string& dir) {
  auto segments = aggcache::ListCheckpointSegments(dir);
  if (!segments.ok() || segments->empty()) return 0;
  std::error_code ec;
  return std::filesystem::file_size(segments->back().path, ec);
}

std::string FsType(const std::string& path) {
  struct statfs fs;
  if (::statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x9123683E: return "btrfs";
    case 0x58465342: return "xfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

/// Engine counters read around each operation, attributed by operation type.
struct Counts {
  uint64_t rows_scanned = 0;
  uint64_t subjoins = 0;
};

Counts ReadCounts() {
  const EngineMetrics& m = EngineMetrics::Get();
  return {m.exec_rows_scanned->Value(), m.exec_subjoins->Value()};
}

// ---------------------------------------------------------------------------
// The engine under test and the workload state.

struct Failure {
  int count = 0;
  void Record(const std::string& what) {
    if (++count <= 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
};

struct Engine {
  std::unique_ptr<Database> db;
  std::unique_ptr<DurabilityManager> durability;
  std::unique_ptr<AggregateCacheManager> cache;
  Table* header = nullptr;
  Table* item = nullptr;
  Table* category = nullptr;

  void Reset() {
    cache.reset();
    durability.reset();
    db.reset();
    header = item = category = nullptr;
  }
};

#define CHECK_OK(expr)                                                  \
  do {                                                                  \
    Status _s = (expr);                                                 \
    if (!_s.ok()) {                                                     \
      std::fprintf(stderr, "fatal: %s: %s\n", #expr, _s.ToString().c_str()); \
      std::exit(3);                                                     \
    }                                                                   \
  } while (0)

template <typename T>
T ValueOrDie(StatusOr<T> v, const char* what) {
  if (!v.ok()) {
    std::fprintf(stderr, "fatal: %s: %s\n", what, v.status().ToString().c_str());
    std::exit(3);
  }
  return std::move(*v);
}

DurabilityOptions Durability(WalSyncPolicy policy) {
  DurabilityOptions options;
  options.wal_policy = policy;
  // Checkpoints only where the workload asks for them.
  options.checkpoint_on_merge = false;
  options.checkpoint_wal_bytes = UINT64_MAX;
  return options;
}

Status CreateTables(Engine& e) {
  SchemaBuilder category("ProductCategory");
  category.AddColumn("CategoryID", ColumnType::kInt64).PrimaryKey();
  category.AddColumn("Name", ColumnType::kString);
  category.AddColumn("Language", ColumnType::kString);
  category.OwnTid("tid_Category");
  ASSIGN_OR_RETURN(e.category, e.db->CreateTable(category.Build()));

  SchemaBuilder header("Header");
  header.AddColumn("HeaderID", ColumnType::kInt64).PrimaryKey();
  header.AddColumn("FiscalYear", ColumnType::kInt64);
  header.AddColumn("TxnType", ColumnType::kString);
  header.OwnTid("tid_Header");
  ASSIGN_OR_RETURN(e.header, e.db->CreateTable(header.Build()));

  SchemaBuilder item("Item");
  item.AddColumn("ItemID", ColumnType::kInt64).PrimaryKey();
  item.AddColumn("HeaderID", ColumnType::kInt64)
      .References("Header", "tid_Header");
  item.AddColumn("CategoryID", ColumnType::kInt64)
      .References("ProductCategory", "tid_Category");
  item.AddColumn("Price", ColumnType::kDouble);
  item.AddColumn("Quantity", ColumnType::kInt64);
  item.OwnTid("tid_Item");
  ASSIGN_OR_RETURN(e.item, e.db->CreateTable(item.Build()));

  Transaction txn = e.db->Begin();
  for (int c = 0; c < kNumCategories; ++c) {
    for (int l = 0; l < kNumLanguages; ++l) {
      RETURN_IF_ERROR(e.category->Insert(
          txn, {Value(static_cast<int64_t>(c * kNumLanguages + l + 1)),
                Value(CategoryName(c)), Value(kLanguages[l])}));
    }
  }
  return Status::Ok();
}

int64_t CategoryId(const ItemRow& item) {
  return item.category * kNumLanguages + item.language + 1;
}

/// Rows of one business object, built before the timed write.
struct ObjectRows {
  std::vector<Value> header;
  std::vector<std::vector<Value>> items;
};

ObjectRows RowsOf(const Model& model, uint32_t header_id) {
  const HeaderRow& h = model.header(header_id);
  ObjectRows rows;
  rows.header = {Value(static_cast<int64_t>(header_id)), Value(kYears[h.year]),
                 Value(kTxnTypes[h.txn_type])};
  for (uint32_t i = 0; i < h.num_items; ++i) {
    uint32_t item_id = h.first_item + i + 1;
    const ItemRow& item = model.item(item_id);
    rows.items.push_back({Value(static_cast<int64_t>(item_id)),
                          Value(static_cast<int64_t>(header_id)),
                          Value(CategoryId(item)),
                          Value(static_cast<double>(item.cents) / 100.0),
                          Value(static_cast<int64_t>(item.quantity))});
  }
  return rows;
}

/// One business object in one atomic write scope.
Status WriteObject(Engine& e, const ObjectRows& rows) {
  std::optional<ScopedTransaction> scope;
  Traced(Call::kBeginAtomic, [&] { scope.emplace(e.db->BeginAtomic()); });
  Status status = Traced(Call::kInsert,
                         [&] { return e.header->Insert(*scope, rows.header); });
  for (size_t i = 0; status.ok() && i < rows.items.size(); ++i) {
    status = Traced(Call::kInsert,
                    [&] { return e.item->Insert(*scope, rows.items[i]); });
  }
  Traced(Call::kScopeCommit, [&] { scope.reset(); });
  return status;
}

StatusOr<AggregateResult> RunStatement(Engine& e, const Statement& s,
                                       ExecutionStrategy strategy) {
  StatusOr<ParsedStatement> parsed = Traced(
      Call::kParse, [&] { return aggcache::ParseStatement(s.sql, *e.db); });
  if (!parsed.ok()) return parsed.status();
  Transaction txn = Traced(Call::kBegin, [&] { return e.db->Begin(); });
  ExecutionOptions options;
  options.strategy = strategy;
  return Traced(Call::kExecute, [&] {
    return e.cache->Execute(parsed->select, txn, options);
  });
}

// ---------------------------------------------------------------------------
// One run.

struct Run {
  const WorkloadSpec& spec;
  uint64_t seed;
  double seconds;
  bool trace;
  std::string data_dir;

  Engine e;
  Model model;
  Digest inputs;
  Failure failures;
  uint64_t attempted = 0;
  std::vector<Statement> cached = CachedStatements();
  std::vector<Statement> adhoc = AdhocStatements();

  // Set-up measurements.
  std::vector<double> setup_s;
  double load_s = 0;     // final set-up: inserting rows (no merge)
  size_t loaded_rows = 0;
  double prewarm_ms = 0;
  double rss_after_setup = 0;
  double anon_after_setup = 0;  // anonymous part: no file pages

  // Loop measurements.
  std::vector<double> read_us, first_read_us, adhoc_us, write_us;
  std::vector<double> merge_ms, checkpoint_ms, recover_s;
  uint64_t merge_rows = 0, checkpoint_bytes = 0;
  size_t rounds_planned = 0, rounds_done = 0;
  double loop_s = 0, check_s = 0;
  bool stopped_early = false;
  Counts cached_counts, adhoc_counts;
  std::map<std::string, aggcache::MetricsRegistry::MetricSnapshot> before,
      after;
  aggcache::PruneStats prune_before, prune_after;
  uint64_t rows_written = 0;
  double rss_end = 0;
  uint64_t disk_bytes = 0;
  size_t cache_bytes = 0;
  uint64_t answers = 0;  // digest of the answers after the loop

  Run(const WorkloadSpec& s, uint64_t seed_in, double seconds_in, bool trace_in,
      std::string dir)
      : spec(s), seed(seed_in), seconds(seconds_in), trace(trace_in),
        data_dir(std::move(dir)) {}

  // --- set-up --------------------------------------------------------------

  /// Generating, loading, merging and pre-warming, up to the first
  /// measured operation. Each repeat starts from nothing.
  void Setup() {
    e.Reset();
    model = Model();
    inputs = Digest();
    loaded_rows = 0;
    Rng rng(seed);
    GlobalTracer().SetPhase(Phase::kSetup);
    e.db = std::make_unique<Database>();
    if (spec.durable) {
      // Bulk load without a WAL, publish one checkpoint, then reopen with
      // the sync WAL: recovery is the only way persisted state enters.
      std::error_code ec;
      std::filesystem::remove_all(data_dir, ec);
      std::filesystem::create_directories(data_dir, ec);
      e.durability = ValueOrDie(
          DurabilityManager::Open(data_dir, e.db.get(),
                                  Durability(WalSyncPolicy::kOff)),
          "open bulk-load engine");
    }
    CHECK_OK(CreateTables(e));
    auto load_start = Clock::now();
    for (size_t i = 0; i < spec.main_headers; ++i) {
      uint32_t id = model.NewObject(rng, inputs);
      CHECK_OK(WriteObject(e, RowsOf(model, id)));
      loaded_rows += 1 + model.header(id).num_items;
    }
    load_s = UsSince(load_start) / 1e6;
    CHECK_OK(e.db->MergeTables({"ProductCategory", "Header", "Item"}));
    if (spec.durable) {
      auto published = e.durability->Checkpoint();
      if (!published.ok() || !*published) {
        std::fprintf(stderr, "fatal: bulk-load checkpoint not published\n");
        std::exit(3);
      }
      e.Reset();
      e.db = std::make_unique<Database>();
      e.durability = ValueOrDie(
          DurabilityManager::Open(data_dir, e.db.get(),
                                  Durability(WalSyncPolicy::kSync)),
          "reopen with the sync WAL");
      e.header = ValueOrDie(e.db->GetTable("Header"), "Header");
      e.item = ValueOrDie(e.db->GetTable("Item"), "Item");
      e.category = ValueOrDie(e.db->GetTable("ProductCategory"), "Category");
    }
    e.cache = std::make_unique<AggregateCacheManager>(e.db.get());
    for (size_t i = 0; i < spec.delta_objects; ++i) {
      uint32_t id = model.NewObject(rng, inputs);
      CHECK_OK(WriteObject(e, RowsOf(model, id)));
    }
    for (size_t i = 0; i < spec.setup_updates; ++i) UpdateHeader(rng, false);
    auto prewarm_start = Clock::now();
    for (const Statement& s : cached) {
      auto parsed = ValueOrDie(aggcache::ParseStatement(s.sql, *e.db), "parse");
      CHECK_OK(Traced(Call::kPrewarm,
                      [&] { return e.cache->Prewarm(parsed.select); }));
    }
    prewarm_ms = UsSince(prewarm_start) / 1e3;
  }

  // --- operations ----------------------------------------------------------

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.Record(what);
  }

  /// One cached or ad-hoc read: timed parse + begin + execute, then its
  /// answer is checked against the model outside the timed region.
  void Read(const Statement& s, OpTag tag) {
    ++attempted;
    Counts c0 = ReadCounts();
    GlobalTracer().BeginOp(tag);
    auto start = Clock::now();
    StatusOr<AggregateResult> result = Traced(
        s.adhoc ? Call::kOpAdhoc : Call::kOpRead, [&] {
          return RunStatement(e, s, s.adhoc ? ExecutionStrategy::kUncached
                                            : ExecutionStrategy::kCachedFullPruning);
        });
    double us = UsSince(start);
    auto check_start = Clock::now();
    Counts c1 = ReadCounts();
    Counts& acc = s.adhoc ? adhoc_counts : cached_counts;
    acc.rows_scanned += c1.rows_scanned - c0.rows_scanned;
    acc.subjoins += c1.subjoins - c0.subjoins;
    if (s.adhoc) {
      adhoc_us.push_back(us);
    } else {
      read_us.push_back(us);
      if (tag == OpTag::kReadAfterWrite) first_read_us.push_back(us);
    }
    std::string why;
    if (!result.ok()) {
      failures.Record("read: " + result.status().ToString());
    } else if (!Matches(*result, model, s, &why)) {
      failures.Record("read answer: " + why + " in " + s.sql);
    }
    check_s += UsSince(check_start) / 1e6;
  }

  void Write(Rng& rng) {
    ++attempted;
    uint32_t id = model.NewObject(rng, inputs);
    ObjectRows rows = RowsOf(model, id);
    GlobalTracer().BeginOp(OpTag::kWrite);
    auto start = Clock::now();
    Status status = Traced(Call::kOpWrite, [&] { return WriteObject(e, rows); });
    write_us.push_back(UsSince(start));
    rows_written += 1 + rows.items.size();
    if (!status.ok()) failures.Record("write: " + status.ToString());
  }

  /// Moves one scattered main header to another fiscal year; the object
  /// tid is kept, so its items still match it.
  void UpdateHeader(Rng& rng, bool timed) {
    uint32_t id = static_cast<uint32_t>(
        rng.Uniform(1, static_cast<int64_t>(spec.main_headers)));
    uint8_t year = static_cast<uint8_t>(
        (model.header(id).year + rng.Uniform(1, kNumYears - 1)) % kNumYears);
    inputs.Add((static_cast<uint64_t>(id) << 8) | year);
    if (timed) {
      ++attempted;
      GlobalTracer().BeginOp(OpTag::kUpdate);
    }
    auto start = Clock::now();
    Status status = Traced(Call::kOpUpdate, [&] {
      Transaction txn = Traced(Call::kBegin, [&] { return e.db->Begin(); });
      return Traced(Call::kUpdate, [&] {
        return e.header->UpdateColumnByPk(txn, Value(static_cast<int64_t>(id)),
                                          "FiscalYear", Value(kYears[year]));
      });
    });
    if (timed) {
      write_us.push_back(UsSince(start));
      ++rows_written;
    }
    if (status.ok()) {
      model.MoveHeader(id, year);
    } else {
      failures.Record("update: " + status.ToString());
    }
  }

  void Merge() {
    GlobalTracer().BeginOp(OpTag::kMaintenance);
    auto start = Clock::now();
    Status status =
        Traced(Call::kMerge, [&] { return e.db->MergeTables({"Header", "Item"}); });
    merge_ms.push_back(UsSince(start) / 1e3);
    merge_rows += e.header->TotalRows() + e.item->TotalRows();
    if (!status.ok()) failures.Record("merge: " + status.ToString());
  }

  void Checkpoint() {
    GlobalTracer().BeginOp(OpTag::kMaintenance);
    auto start = Clock::now();
    StatusOr<bool> published =
        Traced(Call::kCheckpoint, [&] { return e.durability->Checkpoint(); });
    checkpoint_ms.push_back(UsSince(start) / 1e3);
    checkpoint_bytes += NewestCheckpointBytes(data_dir);
    Check(published.ok() && *published, "checkpoint not published");
  }

  /// Cached answers against uncached ones at one snapshot, and both against
  /// the model. Outside every timed region.
  void CheckAllStatements(const char* where) {
    Transaction txn = e.db->Begin();
    for (const Statement& s : cached) {
      ++attempted;
      auto parsed = aggcache::ParseStatement(s.sql, *e.db);
      if (!parsed.ok()) {
        failures.Record(std::string(where) + ": parse failed");
        continue;
      }
      ExecutionOptions uncached;
      uncached.strategy = ExecutionStrategy::kUncached;
      auto a = e.cache->Execute(parsed->select, txn);
      auto b = e.cache->Execute(parsed->select, txn, uncached);
      std::string why;
      if (!a.ok() || !b.ok()) {
        failures.Record(std::string(where) + ": execute failed");
      } else if (!a->ApproxEquals(*b, 1e-9, &why)) {
        failures.Record(std::string(where) + ": cached != uncached: " + why);
      } else if (!Matches(*a, model, s, &why)) {
        failures.Record(std::string(where) + ": answer: " + why);
      }
    }
  }

  // --- the measured loop ---------------------------------------------------

  void Loop() {
    Rng rng(seed ^ 0x5EED0F10A7ull);
    rounds_planned = static_cast<size_t>(
        std::ceil(seconds * spec.rounds_per_second));
    GlobalTracer().SetPhase(Phase::kLoop);
    before = aggcache::MetricsRegistry::Global().SnapshotValues();
    prune_before = e.cache->prune_stats();
    auto start = Clock::now();
    // Reads cycle through the cached statements in whole passes, so every
    // round reads the same mix of statements and each percentile falls at
    // the same place in that mix from run to run.
    auto read_pass = [&](size_t reads, size_t after_write) {
      for (size_t r = 0; r < reads; ++r) {
        Read(cached[r % cached.size()],
             r < after_write ? OpTag::kReadAfterWrite : OpTag::kRead);
      }
    };
    for (size_t round = 0; round < rounds_planned; ++round) {
      if (UsSince(start) > 2e6 * seconds) {
        stopped_early = true;
        break;
      }
      switch (spec.kind) {
        case Kind::kHotHits:
          read_pass(spec.reads_per_round, 0);
          Read(adhoc[round % adhoc.size()], OpTag::kAdhoc);
          break;
        case Kind::kFreshDelta:
          read_pass(spec.reads_per_round, round > 0 ? 1 : 0);
          Write(rng);
          break;
        case Kind::kDirtyMain:
          // The update invalidates every entry, and the round's pass over
          // the statements compensates each. The two entries of the header's
          // old fiscal year run a correction join over Item main: a third of
          // the reads, which set query_p90_us.
          UpdateHeader(rng, true);
          read_pass(spec.reads_per_round, cached.size());
          break;
        case Kind::kIngestMerge:
          // Reads run back to back after the write burst: a read right
          // after a write would start cold from the write's flush wait.
          for (size_t w = 0; w < spec.writes_per_round; ++w) Write(rng);
          read_pass(spec.reads_per_round, 1);
          if ((round + 1) % spec.rounds_per_merge == 0) {
            Merge();
            if (merge_ms.size() % spec.merges_per_checkpoint == 0) Checkpoint();
          }
          break;
      }
      ++rounds_done;
    }
    loop_s = UsSince(start) / 1e6;
    prune_after = e.cache->prune_stats();
    after = aggcache::MetricsRegistry::Global().SnapshotValues();
    malloc_trim(0);
    rss_end = RssBytes();
    cache_bytes = e.cache->total_bytes();
  }

  uint64_t Delta(const std::string& name) const {
    auto a = after.find(name);
    auto b = before.find(name);
    if (a == after.end()) return 0;
    int64_t base = b == before.end() ? 0 : b->second.value;
    return static_cast<uint64_t>(a->second.value - base);
  }

  // --- after the loop ------------------------------------------------------

  /// Digest of the cached statements' current answers, rounded to cents.
  uint64_t AnswerDigest() {
    Digest digest;
    Transaction txn = e.db->Begin();
    for (const Statement& s : cached) {
      auto parsed = aggcache::ParseStatement(s.sql, *e.db);
      auto result = parsed.ok() ? e.cache->Execute(parsed->select, txn)
                                : StatusOr<AggregateResult>(parsed.status());
      if (result.ok()) AddAnswers(*result, digest);
    }
    return digest.value();
  }

  /// Sync, crash, and recover the directory several times; every
  /// acknowledged object must come back, with the pre-crash answers.
  void CrashAndRecover() {
    GlobalTracer().SetPhase(Phase::kPost);
    GlobalTracer().BeginOp(OpTag::kMaintenance);
    CHECK_OK(Traced(Call::kSync, [&] { return e.durability->Sync(); }));
    disk_bytes = DirBytes(data_dir);
    e.durability->SimulateCrash();
    e.Reset();
    for (int r = 0; r < kRecoveries; ++r) {
      e.db = std::make_unique<Database>();
      GlobalTracer().BeginOp(OpTag::kMaintenance);
      auto start = Clock::now();
      auto opened = Traced(Call::kRecover, [&] {
        return DurabilityManager::Open(data_dir, e.db.get(),
                                       Durability(WalSyncPolicy::kSync));
      });
      recover_s.push_back(UsSince(start) / 1e6);
      ++attempted;
      if (!opened.ok()) {
        failures.Record("recovery: " + opened.status().ToString());
        e.Reset();
        continue;
      }
      e.durability = std::move(*opened);
      e.header = ValueOrDie(e.db->GetTable("Header"), "Header");
      e.item = ValueOrDie(e.db->GetTable("Item"), "Item");
      e.cache = std::make_unique<AggregateCacheManager>(e.db.get());
      auto snapshot = e.db->txn_manager().GlobalSnapshot();
      Check(e.header->VisibleRows(snapshot) == model.num_headers() &&
                e.item->VisibleRows(snapshot) == model.num_items(),
            "recovered row counts differ");
      bool all_present = true;
      for (size_t id = 1; id <= model.num_headers(); ++id) {
        all_present &=
            e.header->FindByPk(Value(static_cast<int64_t>(id))).has_value();
      }
      for (size_t id = 1; id <= model.num_items(); ++id) {
        all_present &=
            e.item->FindByPk(Value(static_cast<int64_t>(id))).has_value();
      }
      Check(all_present, "an acknowledged row is missing after recovery");
      Check(AnswerDigest() == answers,
            "recovered answers differ from the pre-crash answers");
      CheckAllStatements("after recovery");
      e.Reset();
    }
  }
};

// ---------------------------------------------------------------------------
// Output.

void Metric(std::string* json, const char* name, double value,
            const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                json->size() > 1 ? ", " : "", name, value, unit);
  *json += buf;
}

/// Per-layer metrics from the traced run's spans plus exact counter deltas.
/// A layer the workload does not load reports 0 and says so.
struct LayerTable {
  struct Row {
    std::string name;
    double value;
    std::string unit;
    bool loaded;
  };
  std::vector<Row> rows;
  void Add(const std::string& name, double value, const std::string& unit,
           bool loaded = true) {
    rows.push_back({name, loaded ? value : 0.0, unit, loaded});
  }
};

LayerTable PerLayer(const Run& run) {
  std::map<Call, std::vector<double>> loop_us;  // span durations in the loop
  std::vector<double> parse_us, hit_exec_us, first_exec_us;
  double parse_total = 0, read_total = 0, cached_exec_ns = 0, adhoc_exec_ns = 0;
  for (const SpanRecord& s : GlobalTracer().spans()) {
    if (s.phase != Phase::kLoop) continue;
    double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    bool cached_read = s.tag == OpTag::kRead || s.tag == OpTag::kReadAfterWrite;
    loop_us[s.call].push_back(us);
    if (s.call == Call::kOpRead) read_total += us;
    if (s.call == Call::kParse && cached_read) {
      parse_us.push_back(us);
      parse_total += us;
    }
    if (s.call == Call::kExecute && cached_read) {
      cached_exec_ns += us * 1e3;
      (s.tag == OpTag::kRead ? hit_exec_us : first_exec_us).push_back(us);
    }
    if (s.call == Call::kExecute && s.tag == OpTag::kAdhoc) {
      adhoc_exec_ns += us * 1e3;
    }
  }
  auto med = [&](Call c) { return Median(loop_us[c]); };
  std::vector<double> exec_us = hit_exec_us;
  exec_us.insert(exec_us.end(), first_exec_us.begin(), first_exec_us.end());
  const WorkloadSpec& spec = run.spec;
  bool updates = spec.kind == Kind::kDirtyMain;
  bool inserts = spec.writes_per_round > 0 && !updates;
  bool adhoc = !run.adhoc_us.empty();
  double cached_reads = static_cast<double>(run.read_us.size());
  uint64_t considered = run.prune_after.considered - run.prune_before.considered;
  uint64_t pruned =
      run.prune_after.total_pruned() - run.prune_before.total_pruned();
  uint64_t lookups = run.Delta("aggcache_cache_lookups_total");
  uint64_t hits = run.Delta("aggcache_cache_hits_total");

  LayerTable t;
  t.Add("sql.parse_us", Median(parse_us), "us");
  t.Add("sql.parse_share", read_total > 0 ? parse_total / read_total : 0, "ratio");
  t.Add("txn.begin_us", med(Call::kBegin), "us");
  t.Add("txn.scope_commit_us", med(Call::kScopeCommit), "us", inserts);
  t.Add("cache.hit_execute_us", Median(hit_exec_us), "us",
        !hit_exec_us.empty());
  t.Add("cache.execute_us", Median(exec_us), "us");
  t.Add("cache.first_read_after_write_us", Median(first_exec_us), "us",
        !first_exec_us.empty());
  t.Add("cache.hit_ratio", lookups > 0 ? double(hits) / double(lookups) : 0,
        "ratio");
  t.Add("cache.prewarm_ms", run.prewarm_ms, "ms");
  t.Add("cache.bytes", static_cast<double>(run.cache_bytes), "bytes");
  t.Add("objectaware.subjoins_per_read",
        cached_reads > 0 ? double(considered - pruned) / cached_reads : 0,
        "count");
  t.Add("objectaware.pruned_ratio",
        considered > 0 ? double(pruned) / double(considered) : 0, "ratio");
  double rows = static_cast<double>(run.cached_counts.rows_scanned);
  t.Add("query.rows_scanned_per_read", cached_reads > 0 ? rows / cached_reads : 0,
        "count");
  t.Add("query.ns_per_row", rows > 0 ? cached_exec_ns / rows : 0, "ns/row",
        rows > 0);
  double adhoc_rows = static_cast<double>(run.adhoc_counts.rows_scanned);
  t.Add("query.adhoc_ns_per_row", adhoc_rows > 0 ? adhoc_exec_ns / adhoc_rows : 0,
        "ns/row", adhoc);
  t.Add("storage.insert_row_us", med(Call::kInsert), "us", inserts);
  t.Add("storage.update_us", med(Call::kUpdate), "us", updates);
  bool merges = !run.merge_ms.empty();
  double merge_ns = 0;
  for (double ms : run.merge_ms) merge_ns += ms * 1e6;
  t.Add("storage.merge_ms", Median(run.merge_ms), "ms", merges);
  t.Add("storage.merge_ns_per_row",
        run.merge_rows > 0 ? merge_ns / double(run.merge_rows) : 0, "ns/row",
        merges);
  bool checkpoints = !run.checkpoint_ms.empty();
  double checkpoint_s = 0;
  for (double ms : run.checkpoint_ms) checkpoint_s += ms / 1e3;
  t.Add("storage.checkpoint_ms", Median(run.checkpoint_ms), "ms", checkpoints);
  t.Add("storage.checkpoint_mb_per_s",
        checkpoint_s > 0 ? double(run.checkpoint_bytes) / 1048576.0 / checkpoint_s
                         : 0,
        "MB/s", checkpoints);
  t.Add("storage.wal_bytes_per_row",
        run.rows_written > 0
            ? double(run.Delta("aggcache_wal_bytes_total")) / double(run.rows_written)
            : 0,
        "bytes/row", spec.durable);
  double recovered_rows =
      static_cast<double>(run.model.num_headers() + run.model.num_items() +
                          kNumCategories * kNumLanguages);
  t.Add("storage.recover_ns_per_row",
        Median(run.recover_s) * 1e9 / recovered_rows, "ns/row", spec.durable);
  t.Add("storage.load_us_per_row",
        run.load_s * 1e6 / static_cast<double>(run.loaded_rows), "us/row");
  t.Add("storage.rss_bytes_per_item_row",
        run.rss_end / static_cast<double>(run.model.num_items()), "bytes/row");
  return t;
}

/// Nanoseconds one span costs: the traced run's overhead estimate.
double SpanCostNs() {
  Tracer probe;
  probe.Enable(100000);
  int64_t start = NowNs();
  for (int i = 0; i < 100000; ++i) probe.Close(probe.Open(Call::kParse));
  return static_cast<double>(NowNs() - start) / 100000.0;
}

void ClearEngineEnvironment() {
  // Fixed conditions: engine knobs from the caller's environment (thread
  // count, WAL policy, spans, merge daemon, ...) must not change a run.
  std::vector<std::string> names;
  for (char** env = environ; *env != nullptr; ++env) {
    std::string entry(*env);
    if (entry.rfind("AGGCACHE_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) ::unsetenv(name.c_str());
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) break;
    args[argv[i] + 2] = argv[i + 1];
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args["workload"] == w.name) spec = &w;
  }
  if (spec == nullptr || args["seed"].empty() || args["seconds"].empty() ||
      args["data-dir"].empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <hot_hits|fresh_delta|"
                 "dirty_main|ingest_merge> --seed N --seconds S --trace 0|1 "
                 "--data-dir DIR [--trace-out FILE]\n");
    return 2;
  }
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "fatal: perfbench was built without optimization\n");
  return 2;
#endif
  std::string library_build = aggcache::GetBuildInfo().build_type;
  if (library_build != "Release" && library_build != "RelWithDebInfo") {
    std::fprintf(stderr, "fatal: engine library build type '%s' is not optimized\n",
                 library_build.c_str());
    return 2;
  }

  ClearEngineEnvironment();
  // Keep freed memory in the heap instead of returning it to the kernel
  // mid-loop, and fix the mmap threshold (glibc otherwise moves it with
  // the allocation history), so repeated runs make the same system calls.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  aggcache::ThreadPool::SetGlobalParallelism(kEnginePool);

  Run run(*spec, std::strtoull(args["seed"].c_str(), nullptr, 10),
          std::strtod(args["seconds"].c_str(), nullptr), args["trace"] == "1",
          args["data-dir"] + "/" + spec->name);
  std::string data_fs = FsType(args["data-dir"]);
  std::printf(
      "env: workload=%s seed=%" PRIu64 " seconds=%g trace=%d pool=%zu nproc=%u "
      "wal=%s data_dir=%s data_fs=%s build=%s optimized=1 git_sha=%s\n",
      spec->name, run.seed, run.seconds, run.trace ? 1 : 0,
      aggcache::ThreadPool::Global().parallelism(),
      std::thread::hardware_concurrency(),
      spec->durable ? "sync" : "none", run.data_dir.c_str(), data_fs.c_str(),
      library_build.c_str(), aggcache::GetBuildInfo().git_sha);
  if (spec->durable && data_fs != "tmpfs") {
    std::printf(
        "WARNING: data dir is on %s, not tmpfs: every WAL statement pays a "
        "device fdatasync, so write latency includes the disk's\n",
        data_fs.c_str());
  }

  for (int r = 0; r < kSetupRepeats; ++r) {
    bool final_repeat = r + 1 == kSetupRepeats;
    if (final_repeat && run.trace) GlobalTracer().Enable(1 << 20);
    auto start = Clock::now();
    run.Setup();
    run.setup_s.push_back(UsSince(start) / 1e6);
    if (!final_repeat) {
      run.e.Reset();
      malloc_trim(0);
    }
  }
  malloc_trim(0);
  run.rss_after_setup = RssBytes();
  run.anon_after_setup = RssBytes("RssAnon");
  run.CheckAllStatements("after set-up");
  run.Loop();
  run.CheckAllStatements("after the loop");
  run.answers = run.AnswerDigest();
  if (spec->durable) run.CrashAndRecover();
  uint64_t admitted = EngineMetrics::Get().admission_admitted->Value();

  uint64_t considered = run.prune_after.considered - run.prune_before.considered;
  uint64_t pruned =
      run.prune_after.total_pruned() - run.prune_before.total_pruned();
  std::printf(
      "stamp: inputs_digest=%016" PRIx64 " answers_digest=%016" PRIx64
      " rounds=%zu/%zu reads=%zu adhoc=%zu writes=%zu rows_written=%" PRIu64
      " rows_scanned=%" PRIu64 " adhoc_rows_scanned=%" PRIu64
      " subjoins_executed=%" PRIu64 " subjoins_considered=%" PRIu64
      " subjoins_pruned=%" PRIu64 " cache_hits=%" PRIu64 " cache_lookups=%" PRIu64
      " merges=%zu checkpoints=%zu wal_bytes=%" PRIu64 " disk_bytes=%" PRIu64
      " anon_after_setup_mb=%.3f rss_after_setup_mb=%.3f\n",
      run.inputs.value(), run.answers, run.rounds_done,
      run.rounds_planned, run.read_us.size(), run.adhoc_us.size(),
      run.write_us.size(), run.rows_written, run.cached_counts.rows_scanned,
      run.adhoc_counts.rows_scanned,
      run.cached_counts.subjoins + run.adhoc_counts.subjoins, considered, pruned,
      run.Delta("aggcache_cache_hits_total"),
      run.Delta("aggcache_cache_lookups_total"), run.merge_ms.size(),
      run.checkpoint_ms.size(), run.Delta("aggcache_wal_bytes_total"),
      run.disk_bytes, run.anon_after_setup / 1048576.0,
      run.rss_after_setup / 1048576.0);
  if (run.stopped_early) {
    std::printf("WARNING: loop stopped at 2x --seconds after %zu of %zu rounds\n",
                run.rounds_done, run.rounds_planned);
  }

  // End-to-end figures. The side_* figures time the workload's second
  // operation type: the uncached ad-hoc read on hot_hits, the client's merge on
  // ingest_merge (its writes wait for device flushes unless the data dir is
  // on tmpfs), and the write elsewhere.
  double ops = static_cast<double>(run.read_us.size() + run.adhoc_us.size() +
                                   run.write_us.size());
  double ops_per_s = ops / std::max(1e-9, run.loop_s - run.check_s);
  std::vector<double> merge_us;
  for (double ms : run.merge_ms) merge_us.push_back(ms * 1e3);
  const std::vector<double>& side = spec->kind == Kind::kHotHits ? run.adhoc_us
                                    : spec->durable              ? merge_us
                                                                 : run.write_us;
  std::printf(
      "e2e: setup_s=%.4f (samples %s) query_p50_us=%.2f query_p90_us=%.2f "
      "query_p99_us=%.2f (n=%zu) side_p50_us=%.2f side_p90_us=%.2f (n=%zu) "
      "ops_per_s=%.2f loop_s=%.3f rss_mb=%.2f\n",
      Median(run.setup_s),
      [&] {
        std::string s;
        for (double v : run.setup_s) s += (s.empty() ? "" : ",") + std::to_string(v);
        return s;
      }()
          .c_str(),
      Median(run.read_us), Quantile(run.read_us, 0.90),
      Quantile(run.read_us, 0.99), run.read_us.size(),
      Median(side), Quantile(side, 0.90), side.size(), ops_per_s, run.loop_s,
      run.rss_end / 1048576.0);
  std::printf(
      "workload: adhoc_p50_ms=%.3f write_p50_us=%.2f write_p99_us=%.2f (n=%zu) "
      "first_read_p50_us=%.2f disk_mb=%.3f recover_s=%.4f merge_ms_p50=%.1f "
      "checkpoint_ms_p50=%.1f\n",
      Median(run.adhoc_us) / 1e3, Median(run.write_us),
      Quantile(run.write_us, 0.99), run.write_us.size(),
      Median(run.first_read_us), run.disk_bytes / 1048576.0,
      Median(run.recover_s), Median(run.merge_ms), Median(run.checkpoint_ms));
  std::printf("runtime: not loaded (governance is off by default; "
              "admission_admitted=%" PRIu64 ")\n", admitted);

  std::string json = "{";
  if (run.trace) {
    LayerTable table = PerLayer(run);
    double span_ns = SpanCostNs();
    size_t loop_spans = 0;
    for (const SpanRecord& s : GlobalTracer().spans()) {
      loop_spans += s.phase == Phase::kLoop ? 1 : 0;
    }
    std::printf("trace: spans=%zu loop_spans=%zu span_cost_ns=%.1f "
                "overhead_pct=%.2f (span cost x loop spans / loop wall)\n",
                GlobalTracer().spans().size(), loop_spans, span_ns,
                100.0 * span_ns * loop_spans / (run.loop_s * 1e9));
    std::printf("%-36s %16s  %s\n", "per-layer metric", "value", "unit");
    for (const LayerTable::Row& row : table.rows) {
      std::printf("%-36s %16.4f  %s%s\n", row.name.c_str(), row.value,
                  row.unit.c_str(),
                  row.loaded ? "" : "  (layer not loaded by this workload)");
      Metric(&json, row.name.c_str(), row.value, row.unit.c_str());
    }
    std::string out = args["trace-out"];
    if (!out.empty()) {
      if (GlobalTracer().WriteTsv(out)) {
        std::printf("trace: wrote %s\n", out.c_str());
      } else {
        run.failures.Record("cannot write " + out);
      }
    }
  } else {
    Metric(&json, "setup_s", Median(run.setup_s), "s");
    Metric(&json, "query_p90_us", Quantile(run.read_us, 0.90), "us");
    Metric(&json, "side_p90_us", Quantile(side, 0.90), "us");
    Metric(&json, "rss_mb", run.rss_end / 1048576.0, "MB");
  }
  json += "}";
  bool correct = run.failures.count == 0;
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %d, \"metrics\": %s}\n",
              correct ? "true" : "false", run.attempted, run.failures.count,
              json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
