#ifndef AGGCACHE_SQL_PARSER_H_
#define AGGCACHE_SQL_PARSER_H_

#include <string>
#include <vector>

#include "query/aggregate_query.h"
#include "storage/database.h"

namespace aggcache {

/// A parsed SQL statement, dispatched on `kind`.
struct ParsedStatement {
  enum class Kind : uint8_t { kSelect, kInsert, kCreateTable, kExplain };

  Kind kind = Kind::kSelect;
  /// kSelect and kExplain: the aggregate query (already validated against
  /// the catalog).
  AggregateQuery select;
  /// kExplain: render the trace as JSON instead of text
  /// (EXPLAIN AGGREGATE JSON SELECT ...).
  bool explain_json = false;
  /// kInsert: target table and the user-column values in schema order
  /// (numeric literals coerced to the column types).
  std::string insert_table;
  std::vector<Value> insert_values;
  /// kCreateTable: the schema to create.
  TableSchema create_schema;
};

/// Parses one SQL statement of the dialect this engine supports:
///
///   SELECT <group columns and aggregates>
///   FROM t1, t2, ...
///   [WHERE <equi-join conditions AND column-vs-literal filters>]
///   GROUP BY col [, col ...]
///
///   EXPLAIN AGGREGATE [JSON] SELECT ...
///
///   INSERT INTO t VALUES (v1, v2, ...)
///
///   CREATE TABLE t (
///     col BIGINT|DOUBLE|VARCHAR [PRIMARY KEY]
///         [REFERENCES other [TID md_tid_column]],
///     ...,
///     [OWN TID tid_column]
///   )
///
/// Aggregates: SUM, COUNT, AVG, MIN, MAX, COUNT(*). Column references may
/// be qualified (`table.column`) or unqualified when unambiguous across
/// the FROM tables. `REFERENCES ... TID c` declares a foreign key with a
/// matching-dependency tid column; `OWN TID c` declares the table's own
/// temporal column (Section 5 of the paper). A trailing semicolon is
/// allowed. SELECT statements are validated against `db`.
///
/// Statements that parse as SELECT or EXPLAIN are kept in a process-wide
/// statement cache keyed by (`db.instance_id()`, `sql`), so a repeated read
/// costs one map lookup and a copy instead of a tokenize, parse and bind.
/// Failed parses are never kept: a statement that names a table not yet
/// created parses once the table exists. No invalidation is needed because
/// the catalog only grows (see Database::CreateTable). The cache holds at
/// most kStatementCacheCapacity statements and is cleared when full.
StatusOr<ParsedStatement> ParseStatement(const std::string& sql,
                                         const Database& db);

inline constexpr size_t kStatementCacheCapacity = 1024;

/// Number of statements the statement cache holds right now.
size_t StatementCacheSize();

/// Executes a parsed non-SELECT statement against the database (INSERT
/// runs in its own transaction; CREATE TABLE registers the schema).
Status ApplyStatement(const ParsedStatement& statement, Database* db);

}  // namespace aggcache

#endif  // AGGCACHE_SQL_PARSER_H_
