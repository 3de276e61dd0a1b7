#include "storage/snapshot.h"

#include <cinttypes>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "common/string_util.h"
#include "storage/delta_merge.h"
#include "storage/wal.h"

namespace aggcache {
namespace {

constexpr const char* kMagic = "AGGCACHE_SNAPSHOT v1";

// --- Value encoding --------------------------------------------------------
// One token per value: integers and doubles as plain text, strings quoted
// by the shared value text codec (storage/wal.h), so a row always fits one
// line.

std::string EncodeValue(const Value& v) {
  if (v.is_int64()) return StrFormat("%lld", static_cast<long long>(v.AsInt64()));
  if (v.is_double()) return StrFormat("%.17g", v.AsDouble());
  std::string out;
  AppendQuotedString(&out, v.AsString());
  return out;
}

// Reads one encoded value of the given type from `stream`; a number must
// fill its whole token.
StatusOr<Value> DecodeValue(std::istringstream& stream, ColumnType type) {
  if (type == ColumnType::kString) {
    ASSIGN_OR_RETURN(std::string s, ReadQuotedString(stream));
    return Value(std::move(s));
  }
  std::string token;
  if (!(stream >> token)) {
    return Status::InvalidArgument("missing value in snapshot row");
  }
  return ParseNumberToken(token, type);
}

// --- Writing ----------------------------------------------------------------

void WritePartition(const Partition& p, const char* kind,
                    std::ostream& out) {
  out << "partition " << kind << " " << p.num_rows() << "\n";
  for (size_t r = 0; r < p.num_rows(); ++r) {
    out << "row " << p.create_tid(r) << " " << p.invalidate_tid(r);
    for (size_t c = 0; c < p.num_columns(); ++c) {
      out << " " << EncodeValue(p.column(c).GetValue(r));
    }
    out << "\n";
  }
}

void WriteTable(const Table& table, std::ostream& out) {
  WriteSchemaText(table.schema(), out);
  out << "groups " << table.num_groups() << "\n";
  for (size_t g = 0; g < table.num_groups(); ++g) {
    const PartitionGroup& group = table.group(g);
    out << "group " << AgeClassToString(group.age) << "\n";
    WritePartition(group.main, "main", out);
    WritePartition(group.delta, "delta", out);
  }
  out << "end_table\n";
}

/// Orders tables so every foreign-key target precedes its referrer (any
/// existing catalog is acyclic because CreateTable requires targets to
/// exist first).
StatusOr<std::vector<const Table*>> TopologicalOrder(const Database& db) {
  std::vector<const Table*> tables;
  for (const std::string& name : db.TableNames()) {
    ASSIGN_OR_RETURN(const Table* table, db.GetTable(name));
    tables.push_back(table);
  }
  std::vector<const Table*> ordered;
  std::set<std::string> emitted;
  while (ordered.size() < tables.size()) {
    bool progressed = false;
    for (const Table* table : tables) {
      if (emitted.contains(table->name())) continue;
      bool ready = true;
      for (const ForeignKeyDef& fk : table->schema().foreign_keys) {
        if (!emitted.contains(fk.ref_table)) ready = false;
      }
      if (!ready) continue;
      ordered.push_back(table);
      emitted.insert(table->name());
      progressed = true;
    }
    if (!progressed) {
      return Status::Internal("cyclic foreign keys in catalog");
    }
  }
  return ordered;
}

// --- Reading ----------------------------------------------------------------

class SnapshotReader {
 public:
  explicit SnapshotReader(std::istream& in) : in_(in) {}

  StatusOr<std::string> NextLine() {
    std::string line;
    while (std::getline(in_, line)) {
      ++line_number_;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (!line.empty()) return line;
    }
    return Status::InvalidArgument("unexpected end of snapshot");
  }

  Status Fail(const std::string& message) const {
    return Status::InvalidArgument(StrFormat(
        "snapshot line %zu: %s", line_number_, message.c_str()));
  }

  size_t line_number() const { return line_number_; }

 private:
  std::istream& in_;
  size_t line_number_ = 0;
};

StatusOr<Partition> ReadPartition(SnapshotReader& reader,
                                  const TableSchema& schema,
                                  const char* expected_kind) {
  ASSIGN_OR_RETURN(std::string header, reader.NextLine());
  std::istringstream hs(header);
  std::string tag;
  std::string kind;
  size_t rows = 0;
  if (!(hs >> tag >> kind >> rows) || tag != "partition" ||
      kind != expected_kind) {
    return reader.Fail("expected 'partition " +
                       std::string(expected_kind) + " <rows>'");
  }

  // Rows load into a delta; a main is then built from all of them in code
  // space, as a merge into an empty main would, keeping row order and stamps.
  Partition delta = Partition::MakeDelta(schema);
  for (size_t r = 0; r < rows; ++r) {
    ASSIGN_OR_RETURN(std::string line, reader.NextLine());
    std::istringstream rs(line);
    std::string row_tag;
    Tid create_tid = 0;
    Tid invalidate_tid = 0;
    if (!(rs >> row_tag >> create_tid >> invalidate_tid) ||
        row_tag != "row") {
      return reader.Fail("expected a 'row' line");
    }
    std::vector<Value> values;
    values.reserve(schema.columns.size());
    for (const ColumnDef& c : schema.columns) {
      auto value = DecodeValue(rs, c.type);
      if (!value.ok()) return reader.Fail(value.status().message());
      values.push_back(std::move(value).value());
    }
    if (!(rs >> std::ws).eof()) {
      return reader.Fail("more values than columns in a 'row' line");
    }
    Status status = delta.AppendRow(values, create_tid);
    if (!status.ok()) return reader.Fail(status.message());
    if (invalidate_tid != kNoTid) delta.InvalidateRow(r, invalidate_tid);
  }
  if (kind == "delta") return delta;
  std::vector<uint32_t> all_rows(rows);
  std::iota(all_rows.begin(), all_rows.end(), 0);
  return BuildMainPartition(Partition::MakeEmptyMain(schema), {}, delta,
                            all_rows);
}

StatusOr<TableSchema> ReadSchema(SnapshotReader& reader,
                                 const std::string& table_name) {
  TableSchema schema;
  schema.name = table_name;

  ASSIGN_OR_RETURN(std::string line, reader.NextLine());
  std::istringstream cs(line);
  std::string tag;
  size_t num_columns = 0;
  if (!(cs >> tag >> num_columns) || tag != "columns") {
    return reader.Fail("expected 'columns <n>'");
  }
  for (size_t c = 0; c < num_columns; ++c) {
    ASSIGN_OR_RETURN(line, reader.NextLine());
    std::istringstream col(line);
    std::string name;
    int type = 0;
    int is_tid = 0;
    if (!(col >> tag >> name >> type >> is_tid) || tag != "column" ||
        type < 0 || type > 2) {
      return reader.Fail("expected 'column <name> <type> <is_tid>'");
    }
    schema.columns.push_back(
        ColumnDef{name, static_cast<ColumnType>(type), is_tid != 0});
  }

  auto read_index = [&](const char* what,
                        std::optional<size_t>* out) -> Status {
    ASSIGN_OR_RETURN(std::string index_line, reader.NextLine());
    std::istringstream is(index_line);
    std::string index_tag;
    long long index = -1;
    if (!(is >> index_tag >> index) || index_tag != what) {
      return reader.Fail(StrFormat("expected '%s <index>'", what));
    }
    if (index >= 0) *out = static_cast<size_t>(index);
    return Status::Ok();
  };
  RETURN_IF_ERROR(read_index("primary_key", &schema.primary_key));
  RETURN_IF_ERROR(read_index("own_tid", &schema.own_tid_column));

  ASSIGN_OR_RETURN(line, reader.NextLine());
  std::istringstream fs(line);
  size_t num_fks = 0;
  if (!(fs >> tag >> num_fks) || tag != "foreign_keys") {
    return reader.Fail("expected 'foreign_keys <n>'");
  }
  for (size_t f = 0; f < num_fks; ++f) {
    ASSIGN_OR_RETURN(line, reader.NextLine());
    std::istringstream fk_stream(line);
    ForeignKeyDef fk;
    long long tid_column = -1;
    if (!(fk_stream >> tag >> fk.column >> fk.ref_table >> tid_column) ||
        tag != "fk") {
      return reader.Fail("expected 'fk <col> <table> <tid col>'");
    }
    if (tid_column >= 0) fk.tid_column = static_cast<size_t>(tid_column);
    schema.foreign_keys.push_back(std::move(fk));
  }
  return schema;
}

}  // namespace

void WriteSchemaText(const TableSchema& schema, std::ostream& out) {
  out << "table " << schema.name << "\n";
  out << "columns " << schema.columns.size() << "\n";
  for (const ColumnDef& c : schema.columns) {
    out << "column " << c.name << " "
        << static_cast<int>(c.type) << " " << (c.is_tid ? 1 : 0) << "\n";
  }
  out << "primary_key "
      << (schema.primary_key ? static_cast<long long>(*schema.primary_key)
                             : -1)
      << "\n";
  out << "own_tid "
      << (schema.own_tid_column
              ? static_cast<long long>(*schema.own_tid_column)
              : -1)
      << "\n";
  out << "foreign_keys " << schema.foreign_keys.size() << "\n";
  for (const ForeignKeyDef& fk : schema.foreign_keys) {
    out << "fk " << fk.column << " " << fk.ref_table << " "
        << (fk.tid_column ? static_cast<long long>(*fk.tid_column) : -1)
        << "\n";
  }
}

StatusOr<TableSchema> ReadSchemaText(std::istream& in) {
  SnapshotReader reader(in);
  ASSIGN_OR_RETURN(std::string line, reader.NextLine());
  std::istringstream header(line);
  std::string tag;
  std::string table_name;
  if (!(header >> tag >> table_name) || tag != "table") {
    return reader.Fail("expected 'table <name>'");
  }
  return ReadSchema(reader, table_name);
}

Status WriteSnapshot(const Database& db, std::ostream& out) {
  out << kMagic << "\n";
  out << "last_tid " << db.txn_manager().last_committed() << "\n";
  out << "aging_groups " << db.aging_groups().size() << "\n";
  for (const std::vector<std::string>& group : db.aging_groups()) {
    out << "aging " << group.size();
    for (const std::string& name : group) out << " " << name;
    out << "\n";
  }
  ASSIGN_OR_RETURN(std::vector<const Table*> tables, TopologicalOrder(db));
  out << "tables " << tables.size() << "\n";
  for (const Table* table : tables) {
    WriteTable(*table, out);
  }
  out << "end_snapshot\n";
  if (!out.good()) return Status::Internal("snapshot stream write failed");
  return Status::Ok();
}

Status ReadSnapshot(std::istream& in, Database* db) {
  if (!db->TableNames().empty() || db->txn_manager().last_committed() != 0) {
    return Status::FailedPrecondition(
        "snapshots must be restored into an empty database");
  }
  SnapshotReader reader(in);
  ASSIGN_OR_RETURN(std::string line, reader.NextLine());
  if (line != kMagic) return reader.Fail("bad snapshot header");

  ASSIGN_OR_RETURN(line, reader.NextLine());
  std::istringstream ts(line);
  std::string tag;
  Tid last_tid = 0;
  if (!(ts >> tag >> last_tid) || tag != "last_tid") {
    return reader.Fail("expected 'last_tid <n>'");
  }

  ASSIGN_OR_RETURN(line, reader.NextLine());
  std::istringstream ags(line);
  size_t num_aging = 0;
  if (!(ags >> tag >> num_aging) || tag != "aging_groups") {
    return reader.Fail("expected 'aging_groups <n>'");
  }
  for (size_t a = 0; a < num_aging; ++a) {
    ASSIGN_OR_RETURN(line, reader.NextLine());
    std::istringstream as(line);
    size_t count = 0;
    if (!(as >> tag >> count) || tag != "aging") {
      return reader.Fail("expected 'aging <n> <tables...>'");
    }
    std::vector<std::string> group;
    std::string name;
    for (size_t i = 0; i < count; ++i) {
      if (!(as >> name)) return reader.Fail("truncated aging group");
      group.push_back(name);
    }
    db->RegisterAgingGroup(std::move(group));
  }

  ASSIGN_OR_RETURN(line, reader.NextLine());
  std::istringstream counts(line);
  size_t num_tables = 0;
  if (!(counts >> tag >> num_tables) || tag != "tables") {
    return reader.Fail("expected 'tables <n>'");
  }

  for (size_t t = 0; t < num_tables; ++t) {
    ASSIGN_OR_RETURN(line, reader.NextLine());
    std::istringstream header(line);
    std::string table_name;
    if (!(header >> tag >> table_name) || tag != "table") {
      return reader.Fail("expected 'table <name>'");
    }
    ASSIGN_OR_RETURN(TableSchema schema, ReadSchema(reader, table_name));
    ASSIGN_OR_RETURN(Table * table, db->CreateTable(schema));

    ASSIGN_OR_RETURN(line, reader.NextLine());
    std::istringstream gs(line);
    size_t num_groups = 0;
    if (!(gs >> tag >> num_groups) || tag != "groups" || num_groups == 0) {
      return reader.Fail("expected 'groups <n>'");
    }
    std::vector<PartitionGroup> groups;
    for (size_t g = 0; g < num_groups; ++g) {
      ASSIGN_OR_RETURN(line, reader.NextLine());
      std::istringstream age_stream(line);
      std::string age;
      if (!(age_stream >> tag >> age) || tag != "group" ||
          (age != "hot" && age != "cold")) {
        return reader.Fail("expected 'group hot|cold'");
      }
      ASSIGN_OR_RETURN(Partition main,
                       ReadPartition(reader, schema, "main"));
      ASSIGN_OR_RETURN(Partition delta,
                       ReadPartition(reader, schema, "delta"));
      groups.push_back(PartitionGroup{
          age == "hot" ? AgeClass::kHot : AgeClass::kCold, std::move(main),
          std::move(delta)});
    }
    table->RestoreGroups(std::move(groups));

    ASSIGN_OR_RETURN(line, reader.NextLine());
    if (line != "end_table") return reader.Fail("expected 'end_table'");
  }

  ASSIGN_OR_RETURN(line, reader.NextLine());
  if (line != "end_snapshot") return reader.Fail("expected 'end_snapshot'");
  db->txn_manager().AdvanceTo(last_tid);
  return Status::Ok();
}

}  // namespace aggcache
