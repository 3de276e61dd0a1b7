#include "sql/parser.h"

#include <cstdlib>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/string_util.h"
#include "sql/tokenizer.h"

namespace aggcache {
namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  Parser(std::vector<Token> tokens, const Database& db)
      : tokens_(std::move(tokens)), db_(db) {}

  StatusOr<ParsedStatement> Parse() {
    ParsedStatement statement;
    if (Peek().IsKeyword("SELECT")) {
      statement.kind = ParsedStatement::Kind::kSelect;
      ASSIGN_OR_RETURN(statement.select, ParseSelect());
    } else if (Peek().IsKeyword("EXPLAIN")) {
      // EXPLAIN AGGREGATE [JSON] SELECT ...: run the SELECT through the
      // cache manager with a QueryTrace installed and return the trace.
      statement.kind = ParsedStatement::Kind::kExplain;
      Advance();
      RETURN_IF_ERROR(ExpectKeyword("AGGREGATE"));
      if (Peek().IsKeyword("JSON")) {
        statement.explain_json = true;
        Advance();
      }
      ASSIGN_OR_RETURN(statement.select, ParseSelect());
    } else if (Peek().IsKeyword("INSERT")) {
      statement.kind = ParsedStatement::Kind::kInsert;
      RETURN_IF_ERROR(ParseInsert(&statement));
    } else if (Peek().IsKeyword("CREATE")) {
      statement.kind = ParsedStatement::Kind::kCreateTable;
      RETURN_IF_ERROR(ParseCreateTable(&statement));
    } else {
      return Error("expected SELECT, EXPLAIN, INSERT, or CREATE");
    }
    if (Peek().IsSymbol(";")) Advance();
    if (!Peek().Is(TokenType::kEnd)) {
      return Error("unexpected trailing input");
    }
    return statement;
  }

 private:
  // --- Token helpers -----------------------------------------------------

  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(StrFormat(
        "SQL parse error near position %zu ('%s'): %s", Peek().position,
        Peek().text.c_str(), message.c_str()));
  }

  Status ExpectKeyword(const std::string& keyword) {
    if (!Peek().IsKeyword(keyword)) return Error("expected " + keyword);
    Advance();
    return Status::Ok();
  }

  Status ExpectSymbol(const std::string& symbol) {
    if (!Peek().IsSymbol(symbol)) return Error("expected '" + symbol + "'");
    Advance();
    return Status::Ok();
  }

  StatusOr<std::string> ExpectIdentifier(const char* what) {
    if (!Peek().Is(TokenType::kIdentifier)) {
      return Error(std::string("expected ") + what);
    }
    return Advance().text;
  }

  // --- Shared pieces ------------------------------------------------------

  struct ColumnRef {
    std::string table;  ///< Empty when unqualified.
    std::string column;
  };

  StatusOr<ColumnRef> ParseColumnRef() {
    ColumnRef ref;
    ASSIGN_OR_RETURN(ref.column, ExpectIdentifier("column name"));
    if (Peek().IsSymbol(".")) {
      Advance();
      ref.table = ref.column;
      ASSIGN_OR_RETURN(ref.column, ExpectIdentifier("column name"));
    }
    return ref;
  }

  StatusOr<Value> ParseLiteral() {
    const Token& token = Peek();
    switch (token.type) {
      case TokenType::kInteger:
        Advance();
        return Value(static_cast<int64_t>(
            std::strtoll(token.text.c_str(), nullptr, 10)));
      case TokenType::kDouble:
        Advance();
        return Value(std::strtod(token.text.c_str(), nullptr));
      case TokenType::kString:
        Advance();
        return Value(token.text);
      default:
        return Error("expected a literal");
    }
  }

  static StatusOr<CompareOp> SymbolToOp(const std::string& symbol) {
    if (symbol == "=") return CompareOp::kEq;
    if (symbol == "<>") return CompareOp::kNe;
    if (symbol == "<") return CompareOp::kLt;
    if (symbol == "<=") return CompareOp::kLe;
    if (symbol == ">") return CompareOp::kGt;
    if (symbol == ">=") return CompareOp::kGe;
    return Status::InvalidArgument("unknown comparison operator " + symbol);
  }

  /// Coerces a numeric literal to the column's type (1 -> 1.0 for DOUBLE
  /// columns) so users need not spell exact literal types.
  static Value Coerce(const Value& v, ColumnType type) {
    if (type == ColumnType::kDouble && v.is_int64()) {
      return Value(static_cast<double>(v.AsInt64()));
    }
    if (type == ColumnType::kInt64 && v.is_double()) {
      double d = v.AsDouble();
      if (d == static_cast<double>(static_cast<int64_t>(d))) {
        return Value(static_cast<int64_t>(d));
      }
    }
    return v;
  }

  // --- SELECT -------------------------------------------------------------

  /// Resolves a column reference to (table index, column name) against the
  /// FROM tables; unqualified references must be unique.
  StatusOr<size_t> ResolveTable(const ColumnRef& ref) {
    if (!ref.table.empty()) {
      for (size_t t = 0; t < from_tables_.size(); ++t) {
        if (from_tables_[t]->name() == ref.table) return t;
      }
      return Status::InvalidArgument("table '" + ref.table +
                                     "' not in FROM clause");
    }
    size_t found = from_tables_.size();
    for (size_t t = 0; t < from_tables_.size(); ++t) {
      if (from_tables_[t]->schema().ColumnIndex(ref.column).ok()) {
        if (found != from_tables_.size()) {
          return Status::InvalidArgument("ambiguous column '" + ref.column +
                                         "'");
        }
        found = t;
      }
    }
    if (found == from_tables_.size()) {
      return Status::InvalidArgument("unknown column '" + ref.column + "'");
    }
    return found;
  }

  StatusOr<ColumnType> ColumnTypeOf(size_t table_index,
                                    const std::string& column) {
    ASSIGN_OR_RETURN(size_t col,
                     from_tables_[table_index]->schema().ColumnIndex(column));
    return from_tables_[table_index]->schema().columns[col].type;
  }

  struct SelectItem {
    bool is_aggregate = false;
    AggregateFunction fn = AggregateFunction::kSum;
    ColumnRef ref;           ///< Unset for COUNT(*).
    bool count_star = false;
    std::string alias;
  };

  StatusOr<SelectItem> ParseSelectItem() {
    SelectItem item;
    static const std::pair<const char*, AggregateFunction> kFunctions[] = {
        {"SUM", AggregateFunction::kSum},
        {"COUNT", AggregateFunction::kCount},
        {"AVG", AggregateFunction::kAvg},
        {"MIN", AggregateFunction::kMin},
        {"MAX", AggregateFunction::kMax},
    };
    for (const auto& [name, fn] : kFunctions) {
      if (Peek().IsKeyword(name) && Peek(1).IsSymbol("(")) {
        item.is_aggregate = true;
        item.fn = fn;
        Advance();
        Advance();  // '('
        if (Peek().IsSymbol("*")) {
          if (fn != AggregateFunction::kCount) {
            return Error("'*' is only valid in COUNT(*)");
          }
          item.count_star = true;
          item.fn = AggregateFunction::kCountStar;
          Advance();
        } else {
          ASSIGN_OR_RETURN(item.ref, ParseColumnRef());
        }
        RETURN_IF_ERROR(ExpectSymbol(")"));
        break;
      }
    }
    if (!item.is_aggregate) {
      ASSIGN_OR_RETURN(item.ref, ParseColumnRef());
    }
    if (Peek().IsKeyword("AS")) {
      Advance();
      ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
    }
    return item;
  }

  StatusOr<AggregateQuery> ParseSelect() {
    RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    std::vector<SelectItem> items;
    while (true) {
      ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      items.push_back(std::move(item));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }

    RETURN_IF_ERROR(ExpectKeyword("FROM"));
    AggregateQuery query;
    while (true) {
      ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
      ASSIGN_OR_RETURN(const Table* table, db_.GetTable(name));
      from_tables_.push_back(table);
      query.tables.push_back(TableRef{name});
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }

    if (Peek().IsKeyword("WHERE")) {
      Advance();
      while (true) {
        ASSIGN_OR_RETURN(ColumnRef left, ParseColumnRef());
        if (!Peek().Is(TokenType::kSymbol)) {
          return Error("expected a comparison operator");
        }
        ASSIGN_OR_RETURN(CompareOp op, SymbolToOp(Advance().text));
        ASSIGN_OR_RETURN(size_t left_table, ResolveTable(left));
        if (Peek().Is(TokenType::kIdentifier)) {
          // Column-vs-column: an equi-join condition.
          if (op != CompareOp::kEq) {
            return Error("join conditions must use '='");
          }
          ASSIGN_OR_RETURN(ColumnRef right, ParseColumnRef());
          ASSIGN_OR_RETURN(size_t right_table, ResolveTable(right));
          query.joins.push_back(JoinCondition{left_table, left.column,
                                              right_table, right.column});
        } else {
          ASSIGN_OR_RETURN(Value literal, ParseLiteral());
          ASSIGN_OR_RETURN(ColumnType type,
                           ColumnTypeOf(left_table, left.column));
          query.filters.push_back(FilterPredicate{
              left_table, left.column, op, Coerce(literal, type)});
        }
        if (!Peek().IsKeyword("AND")) break;
        Advance();
      }
    }

    RETURN_IF_ERROR(ExpectKeyword("GROUP"));
    RETURN_IF_ERROR(ExpectKeyword("BY"));
    while (true) {
      ASSIGN_OR_RETURN(ColumnRef ref, ParseColumnRef());
      ASSIGN_OR_RETURN(size_t table, ResolveTable(ref));
      query.group_by.push_back(GroupByRef{table, ref.column});
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }

    // HAVING: each predicate references an aggregate from the select list
    // (matched by function and argument after the list is assembled below,
    // so we record the raw pieces here).
    struct RawHaving {
      SelectItem item;
      CompareOp op;
      Value operand;
    };
    std::vector<RawHaving> raw_having;
    if (Peek().IsKeyword("HAVING")) {
      Advance();
      while (true) {
        RawHaving raw;
        ASSIGN_OR_RETURN(raw.item, ParseSelectItem());
        if (!raw.item.is_aggregate) {
          return Error("HAVING requires an aggregate function");
        }
        if (!Peek().Is(TokenType::kSymbol)) {
          return Error("expected a comparison operator in HAVING");
        }
        ASSIGN_OR_RETURN(raw.op, SymbolToOp(Advance().text));
        ASSIGN_OR_RETURN(raw.operand, ParseLiteral());
        raw_having.push_back(std::move(raw));
        if (!Peek().IsKeyword("AND")) break;
        Advance();
      }
    }

    // Map select items: aggregates become AggregateSpecs; plain columns
    // must appear in GROUP BY (the engine emits group columns implicitly).
    for (const SelectItem& item : items) {
      if (!item.is_aggregate) {
        ASSIGN_OR_RETURN(size_t table, ResolveTable(item.ref));
        bool grouped = false;
        for (const GroupByRef& g : query.group_by) {
          if (g.table_index == table && g.column == item.ref.column) {
            grouped = true;
          }
        }
        if (!grouped) {
          return Status::InvalidArgument(
              "column '" + item.ref.column +
              "' must appear in the GROUP BY clause");
        }
        continue;
      }
      AggregateSpec spec;
      spec.fn = item.fn;
      spec.output_name = item.alias;
      if (!item.count_star) {
        ASSIGN_OR_RETURN(spec.table_index, ResolveTable(item.ref));
        spec.column = item.ref.column;
      }
      query.aggregates.push_back(std::move(spec));
    }
    if (query.aggregates.empty()) {
      return Status::InvalidArgument(
          "SELECT list needs at least one aggregate function");
    }

    // Match HAVING aggregates against the select list.
    for (const RawHaving& raw : raw_having) {
      size_t matched = query.aggregates.size();
      size_t raw_table = 0;
      if (!raw.item.count_star) {
        ASSIGN_OR_RETURN(raw_table, ResolveTable(raw.item.ref));
      }
      for (size_t a = 0; a < query.aggregates.size(); ++a) {
        const AggregateSpec& spec = query.aggregates[a];
        if (spec.fn != raw.item.fn) continue;
        if (raw.item.count_star) {
          matched = a;
          break;
        }
        if (spec.table_index == raw_table &&
            spec.column == raw.item.ref.column) {
          matched = a;
          break;
        }
      }
      if (matched == query.aggregates.size()) {
        return Status::InvalidArgument(
            "HAVING aggregate does not appear in the SELECT list");
      }
      // Type-check the comparison literal. SUM/COUNT/AVG (and COUNT(*))
      // always finalize to a number; MIN/MAX finalize to the column's
      // type. Comparing across that divide can never be meant literally,
      // so it is rejected here instead of evaluating to false per group.
      const AggregateSpec& spec = query.aggregates[matched];
      bool numeric_aggregate = true;
      if (spec.fn == AggregateFunction::kMin ||
          spec.fn == AggregateFunction::kMax) {
        ASSIGN_OR_RETURN(
            const Table* table,
            db_.GetTable(query.tables[spec.table_index].table_name));
        ASSIGN_OR_RETURN(size_t col,
                         table->schema().ColumnIndex(spec.column));
        numeric_aggregate =
            table->schema().columns[col].type != ColumnType::kString;
      }
      bool numeric_operand =
          raw.operand.is_int64() || raw.operand.is_double();
      if (!raw.operand.is_null() && numeric_aggregate != numeric_operand) {
        return Status::InvalidArgument(
            "HAVING compares " +
            std::string(numeric_aggregate ? "a numeric aggregate"
                                          : "a string aggregate") +
            " with " +
            std::string(numeric_operand ? "a numeric literal"
                                        : "a string literal"));
      }
      query.having.push_back(
          HavingPredicate{matched, raw.op, raw.operand});
    }
    RETURN_IF_ERROR(query.Validate(db_));
    return query;
  }

  // --- INSERT -------------------------------------------------------------

  Status ParseInsert(ParsedStatement* statement) {
    RETURN_IF_ERROR(ExpectKeyword("INSERT"));
    RETURN_IF_ERROR(ExpectKeyword("INTO"));
    ASSIGN_OR_RETURN(statement->insert_table,
                     ExpectIdentifier("table name"));
    ASSIGN_OR_RETURN(const Table* table,
                     db_.GetTable(statement->insert_table));
    RETURN_IF_ERROR(ExpectKeyword("VALUES"));
    RETURN_IF_ERROR(ExpectSymbol("("));
    // Coerce literals to the user-column types in schema order.
    std::vector<ColumnType> user_types;
    for (const ColumnDef& def : table->schema().columns) {
      if (!def.is_tid) user_types.push_back(def.type);
    }
    while (true) {
      ASSIGN_OR_RETURN(Value literal, ParseLiteral());
      size_t index = statement->insert_values.size();
      if (index < user_types.size()) {
        literal = Coerce(literal, user_types[index]);
      }
      statement->insert_values.push_back(std::move(literal));
      if (!Peek().IsSymbol(",")) break;
      Advance();
    }
    RETURN_IF_ERROR(ExpectSymbol(")"));
    if (statement->insert_values.size() != user_types.size()) {
      return Status::InvalidArgument(StrFormat(
          "table '%s' expects %zu values, got %zu",
          statement->insert_table.c_str(), user_types.size(),
          statement->insert_values.size()));
    }
    return Status::Ok();
  }

  // --- CREATE TABLE -------------------------------------------------------

  StatusOr<ColumnType> ParseColumnType() {
    if (Peek().IsKeyword("BIGINT") || Peek().IsKeyword("INT") ||
        Peek().IsKeyword("INTEGER")) {
      Advance();
      return ColumnType::kInt64;
    }
    if (Peek().IsKeyword("DOUBLE") || Peek().IsKeyword("FLOAT") ||
        Peek().IsKeyword("REAL")) {
      Advance();
      return ColumnType::kDouble;
    }
    if (Peek().IsKeyword("VARCHAR") || Peek().IsKeyword("STRING") ||
        Peek().IsKeyword("TEXT")) {
      Advance();
      // Optional length suffix: VARCHAR(32).
      if (Peek().IsSymbol("(")) {
        Advance();
        if (!Peek().Is(TokenType::kInteger)) {
          return Error("expected a length in VARCHAR(n)");
        }
        Advance();
        RETURN_IF_ERROR(ExpectSymbol(")"));
      }
      return ColumnType::kString;
    }
    return Error("expected a column type (BIGINT, DOUBLE, VARCHAR)");
  }

  Status ParseCreateTable(ParsedStatement* statement) {
    RETURN_IF_ERROR(ExpectKeyword("CREATE"));
    RETURN_IF_ERROR(ExpectKeyword("TABLE"));
    ASSIGN_OR_RETURN(std::string name, ExpectIdentifier("table name"));
    SchemaBuilder builder(name);
    RETURN_IF_ERROR(ExpectSymbol("("));
    bool first = true;
    while (!Peek().IsSymbol(")")) {
      if (!first) RETURN_IF_ERROR(ExpectSymbol(","));
      first = false;
      if (Peek().IsKeyword("OWN")) {
        Advance();
        RETURN_IF_ERROR(ExpectKeyword("TID"));
        ASSIGN_OR_RETURN(std::string tid_name,
                         ExpectIdentifier("tid column name"));
        builder.OwnTid(tid_name);
        continue;
      }
      ASSIGN_OR_RETURN(std::string column, ExpectIdentifier("column name"));
      ASSIGN_OR_RETURN(ColumnType type, ParseColumnType());
      builder.AddColumn(column, type);
      if (Peek().IsKeyword("PRIMARY")) {
        Advance();
        RETURN_IF_ERROR(ExpectKeyword("KEY"));
        builder.PrimaryKey();
      }
      if (Peek().IsKeyword("REFERENCES")) {
        Advance();
        ASSIGN_OR_RETURN(std::string ref, ExpectIdentifier("table name"));
        std::string md_tid;
        if (Peek().IsKeyword("TID")) {
          Advance();
          ASSIGN_OR_RETURN(md_tid, ExpectIdentifier("tid column name"));
        }
        builder.References(ref, md_tid);
      }
    }
    RETURN_IF_ERROR(ExpectSymbol(")"));
    ASSIGN_OR_RETURN(statement->create_schema, builder.TryBuild());
    return Status::Ok();
  }

  std::vector<Token> tokens_;
  const Database& db_;
  size_t pos_ = 0;
  std::vector<const Table*> from_tables_;
};

/// Successfully parsed SELECT/EXPLAIN statements keyed by (database
/// instance id, SQL text). Lookups are heterogeneous, so a probe neither
/// copies the text nor allocates.
class StatementCache {
 public:
  static StatementCache& Get() {
    static StatementCache* cache = new StatementCache();
    return *cache;
  }

  std::shared_ptr<const ParsedStatement> Find(uint64_t db_id,
                                              const std::string& sql) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(KeyView{db_id, sql});
    return it == map_.end() ? nullptr : it->second;
  }

  void Insert(uint64_t db_id, const std::string& sql,
              const ParsedStatement& statement) {
    auto shared = std::make_shared<const ParsedStatement>(statement);
    std::lock_guard<std::mutex> lock(mu_);
    if (map_.size() >= kStatementCacheCapacity) map_.clear();
    map_.emplace(Key{db_id, sql}, std::move(shared));
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return map_.size();
  }

 private:
  using Key = std::pair<uint64_t, std::string>;
  using KeyView = std::pair<uint64_t, std::string_view>;
  struct KeyHash {
    using is_transparent = void;
    size_t operator()(const KeyView& key) const {
      return std::hash<std::string_view>()(key.second) ^
             (key.first * 0x9e3779b97f4a7c15ULL);
    }
  };
  struct KeyEq {
    using is_transparent = void;
    bool operator()(const KeyView& a, const KeyView& b) const {
      return a == b;
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<Key, std::shared_ptr<const ParsedStatement>, KeyHash,
                     KeyEq>
      map_;
};

}  // namespace

StatusOr<ParsedStatement> ParseStatement(const std::string& sql,
                                         const Database& db) {
  StatementCache& cache = StatementCache::Get();
  if (auto cached = cache.Find(db.instance_id(), sql)) return *cached;
  ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(sql));
  Parser parser(std::move(tokens), db);
  ASSIGN_OR_RETURN(ParsedStatement statement, parser.Parse());
  if (statement.kind == ParsedStatement::Kind::kSelect ||
      statement.kind == ParsedStatement::Kind::kExplain) {
    cache.Insert(db.instance_id(), sql, statement);
  }
  return statement;
}

size_t StatementCacheSize() { return StatementCache::Get().size(); }

Status ApplyStatement(const ParsedStatement& statement, Database* db) {
  switch (statement.kind) {
    case ParsedStatement::Kind::kSelect:
    case ParsedStatement::Kind::kExplain:
      return Status::InvalidArgument(
          "SELECT statements are executed through the cache manager");
    case ParsedStatement::Kind::kInsert: {
      ASSIGN_OR_RETURN(Table * table, db->GetTable(statement.insert_table));
      Transaction txn = db->Begin();
      return table->Insert(txn, statement.insert_values);
    }
    case ParsedStatement::Kind::kCreateTable: {
      ASSIGN_OR_RETURN(Table * table,
                       db->CreateTable(statement.create_schema));
      (void)table;
      return Status::Ok();
    }
  }
  return Status::Internal("unknown statement kind");
}

}  // namespace aggcache
