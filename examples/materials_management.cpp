// Materials management: the paper's second motivating domain (Section 3).
// Goods movements follow the same header/item pattern as financial
// documents: a movement header (warehouse origin/destination, movement
// type) with item lines (material, quantity). This example drives the
// engine purely through the SQL surface and the trace replayer, then shows
// the aggregate cache answering the stock-movement analysis that a
// warehouse dashboard would poll.

#include <cstdio>

#include "aggcache/aggcache.h"
#include "common/stopwatch.h"
#include "common/string_util.h"

namespace {

using namespace aggcache;  // NOLINT(build/namespaces) — example brevity.

constexpr const char* kSchemaTrace = R"(
# Dimension tables first (referenced by the transactional tables).
CREATE TABLE Material (
  MaterialID BIGINT PRIMARY KEY,
  Name VARCHAR(40),
  MaterialGroup VARCHAR(20),
  OWN TID tid_Material
);
CREATE TABLE Warehouse (
  WarehouseID BIGINT PRIMARY KEY,
  City VARCHAR(30),
  OWN TID tid_Warehouse
);
# The business object: movement header + movement items.
CREATE TABLE MovementHeader (
  MovementID BIGINT PRIMARY KEY,
  FromWarehouse BIGINT REFERENCES Warehouse TID tid_WarehouseFrom,
  MovementType VARCHAR(10),
  OWN TID tid_Movement
);
CREATE TABLE MovementItem (
  MovementItemID BIGINT PRIMARY KEY,
  MovementID BIGINT REFERENCES MovementHeader TID tid_Movement,
  MaterialID BIGINT REFERENCES Material TID tid_Material,
  Quantity DOUBLE,
  OWN TID tid_MovementItem
);
)";

Status LoadData(Database* db, size_t num_movements) {
  // Dimensions via the CSV loader.
  std::string materials = "MaterialID,Name,MaterialGroup\n";
  const char* groups[] = {"RAW", "SEMI", "FINISHED"};
  for (int m = 1; m <= 40; ++m) {
    materials += StrFormat("%d,Material-%d,%s\n", m, m, groups[m % 3]);
  }
  RETURN_IF_ERROR(LoadCsvFromString(db, "Material", materials).status());
  std::string warehouses = "WarehouseID,City\n";
  const char* cities[] = {"Walldorf", "Potsdam", "Waterloo", "Brussels"};
  for (int w = 1; w <= 4; ++w) {
    warehouses += StrFormat("%d,%s\n", w, cities[w - 1]);
  }
  RETURN_IF_ERROR(LoadCsvFromString(db, "Warehouse", warehouses).status());

  // Goods movements: header + items per transaction (temporal locality).
  ASSIGN_OR_RETURN(Table * header, db->GetTable("MovementHeader"));
  ASSIGN_OR_RETURN(Table * item, db->GetTable("MovementItem"));
  Rng rng(77);
  int64_t next_item_id = 1;
  const char* types[] = {"GR", "GI", "TRANSFER"};
  for (size_t m = 1; m <= num_movements; ++m) {
    Transaction txn = db->Begin();
    RETURN_IF_ERROR(header->Insert(
        txn, {Value(static_cast<int64_t>(m)), Value(rng.UniformInt(1, 4)),
              Value(types[rng.UniformInt(0, 2)])}));
    int lines = static_cast<int>(rng.UniformInt(1, 5));
    for (int l = 0; l < lines; ++l) {
      RETURN_IF_ERROR(item->Insert(
          txn, {Value(next_item_id++), Value(static_cast<int64_t>(m)),
                Value(rng.UniformInt(1, 40)),
                Value(rng.UniformDouble(1.0, 500.0))}));
    }
  }
  return Status::Ok();
}

}  // namespace

int main() {
  Database db;
  AggregateCacheManager cache(&db);

  // Schema via the trace replayer (pure SQL).
  TraceReplayer replayer(&db, &cache);
  auto schema_report = replayer.ReplayString(kSchemaTrace);
  if (!schema_report.ok()) {
    std::fprintf(stderr, "schema: %s\n",
                 schema_report.status().ToString().c_str());
    return 1;
  }

  Status load = LoadData(&db, /*num_movements=*/8000);
  if (!load.ok()) {
    std::fprintf(stderr, "load: %s\n", load.ToString().c_str());
    return 1;
  }
  // Related transactional tables merge together (Section 5.2), triggered by
  // a delta threshold.
  db.RegisterMergeGroup({"MovementHeader", "MovementItem"},
                        /*delta_row_threshold=*/5000);
  auto merged = db.AutoMergeTick();
  if (!merged.ok()) return 1;
  std::printf("loaded 8000 goods movements; auto-merge ran for %zu "
              "group(s)\n\n",
              *merged);

  // The dashboard query: moved quantity per material group and movement
  // type, large movements only.
  auto parsed = ParseStatement(
      "SELECT MaterialGroup, MovementType, SUM(Quantity) AS moved, "
      "COUNT(*) AS lines "
      "FROM MovementHeader, MovementItem, Material "
      "WHERE MovementHeader.MovementID = MovementItem.MovementID "
      "AND MovementItem.MaterialID = Material.MaterialID "
      "GROUP BY MaterialGroup, MovementType "
      "HAVING SUM(Quantity) > 1000",
      db);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  std::printf("Query: %s\n\n", parsed->select.ToSql().c_str());

  // Poll the dashboard while new movements stream in.
  Rng rng(5);
  Table* header = db.GetTable("MovementHeader").value();
  Table* item = db.GetTable("MovementItem").value();
  int64_t next_movement = 9000;
  int64_t next_item = 1000000;
  for (int round = 0; round < 3; ++round) {
    for (int m = 0; m < 300; ++m) {
      Transaction txn = db.Begin();
      if (!header
               ->Insert(txn, {Value(next_movement), Value(rng.UniformInt(1, 4)),
                              Value("GR")})
               .ok()) {
        return 1;
      }
      if (!item
               ->Insert(txn, {Value(next_item++), Value(next_movement),
                              Value(rng.UniformInt(1, 40)),
                              Value(rng.UniformDouble(1.0, 500.0))})
               .ok()) {
        return 1;
      }
      ++next_movement;
    }
    if (!db.AutoMergeTick().ok()) return 1;

    Stopwatch watch;
    Transaction txn = db.Begin();
    CacheExecStats stats;
    ExecutionOptions options;
    options.stats = &stats;
    auto result = cache.Execute(parsed->select, txn, options);
    if (!result.ok()) return 1;
    std::printf("round %d: %zu groups in %.3f ms (%s, %llu subjoins pruned)\n",
                round + 1, result->num_groups(), watch.ElapsedMillis(),
                stats.cache_hit ? "cache hit" : "entry created",
                static_cast<unsigned long long>(stats.subjoins_pruned));
  }

  // Final consistency check against uncached execution.
  Transaction txn = db.Begin();
  ExecutionOptions uncached;
  uncached.strategy = ExecutionStrategy::kUncached;
  auto cached_result = cache.Execute(parsed->select, txn);
  auto baseline = cache.Execute(parsed->select, txn, uncached);
  if (!cached_result.ok() || !baseline.ok()) return 1;
  bool equal = cached_result->ApproxEquals(*baseline, 1e-9);
  std::printf("\ncached == uncached: %s\n", equal ? "yes" : "NO");
  return equal ? 0 : 1;
}
