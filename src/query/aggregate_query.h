#ifndef AGGCACHE_QUERY_AGGREGATE_QUERY_H_
#define AGGCACHE_QUERY_AGGREGATE_QUERY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "query/aggregate_result.h"
#include "query/predicate.h"
#include "storage/database.h"

namespace aggcache {

/// Reference to one table of a join query.
struct TableRef {
  std::string table_name;
};

/// Equi-join condition between two query tables. Validation requires the
/// join graph to be a left-deep-compatible tree: every table after the
/// first must be connected to an earlier table.
struct JoinCondition {
  size_t left_table = 0;
  std::string left_column;
  size_t right_table = 0;
  std::string right_column;

  std::string ToString() const;
};

/// One group-by column.
struct GroupByRef {
  size_t table_index = 0;
  std::string column;
};

/// One aggregate in the select list.
struct AggregateSpec {
  AggregateFunction fn = AggregateFunction::kSum;
  size_t table_index = 0;  ///< Unused for COUNT(*).
  std::string column;      ///< Empty for COUNT(*).
  std::string output_name;
};

/// A HAVING predicate: a comparison on the finalized value of one select
/// aggregate, applied to whole groups after compensation. HAVING never
/// affects what the cache stores — the entry holds the unfiltered
/// aggregate, so queries differing only in HAVING share one entry.
struct HavingPredicate {
  size_t aggregate_index = 0;  ///< Index into `aggregates`.
  CompareOp op = CompareOp::kGt;
  Value operand;

  std::string ToString() const;
};

/// Logical aggregate query over a join of tables: the class of queries the
/// aggregate cache serves (grouping + self-maintainable aggregates +
/// conjunctive column/constant filters over an equi-join).
class AggregateQuery {
 public:
  std::vector<TableRef> tables;
  std::vector<JoinCondition> joins;
  std::vector<FilterPredicate> filters;
  std::vector<GroupByRef> group_by;
  std::vector<AggregateSpec> aggregates;
  std::vector<HavingPredicate> having;

  /// Checks table/column existence, type compatibility of join columns, and
  /// join-graph connectivity against the catalog: BoundQuery::Bind with the
  /// bound result dropped.
  Status Validate(const Database& db) const;

  /// True when every aggregate is self-maintainable, the admission
  /// precondition for the aggregate cache.
  bool IsCacheable() const;

  /// Aggregate functions in select-list order (for finalization).
  std::vector<AggregateFunction> AggregateFunctions() const;

  /// Canonical text of the query, rendered in one pass into one string;
  /// equal queries produce equal strings and distinct queries distinct ones
  /// (literals are written exactly and strings length-prefixed), which is
  /// what the aggregate cache key is derived from. HAVING predicates are
  /// deliberately excluded: they filter finalized groups after compensation,
  /// so queries differing only in HAVING can share one cache entry. Not
  /// memoized: the fields are public and mutable, so a memo could go stale.
  std::string CanonicalString() const;

  /// Filters `result` by the HAVING predicates (group-level comparisons on
  /// finalized aggregate values). A no-op when `having` is empty. Applied
  /// as the last step of query execution, after all compensation.
  AggregateResult ApplyHaving(AggregateResult result) const;

  /// Pretty SQL-ish rendering for logs and examples.
  std::string ToSql() const;
};

/// Fluent builder:
///
///   AggregateQuery q = QueryBuilder()
///       .From("Header").Join("Item", "HeaderID", "HeaderID")
///       .Join("ProductCategory", "CategoryID", "CategoryID", /*via=*/1)
///       .Filter("ProductCategory", "Language", CompareOp::kEq, Value("ENG"))
///       .GroupBy("ProductCategory", "Name")
///       .Sum("Item", "Price", "Profit")
///       .Build();
class QueryBuilder {
 public:
  QueryBuilder() = default;

  /// First (driving) table.
  QueryBuilder& From(const std::string& table);

  /// Adds `table`, joined on existing_tables[via].left_column = new
  /// table.right_column. `via` defaults to the most recently added table.
  QueryBuilder& Join(const std::string& table, const std::string& left_column,
                     const std::string& right_column, int via = -1);

  QueryBuilder& Filter(const std::string& table, const std::string& column,
                       CompareOp op, Value operand);
  QueryBuilder& GroupBy(const std::string& table, const std::string& column);

  /// Adds a HAVING predicate on the most recently added aggregate.
  QueryBuilder& Having(CompareOp op, Value operand);
  QueryBuilder& Sum(const std::string& table, const std::string& column,
                    const std::string& output_name);
  QueryBuilder& Count(const std::string& table, const std::string& column,
                      const std::string& output_name);
  QueryBuilder& Avg(const std::string& table, const std::string& column,
                    const std::string& output_name);
  QueryBuilder& Min(const std::string& table, const std::string& column,
                    const std::string& output_name);
  QueryBuilder& Max(const std::string& table, const std::string& column,
                    const std::string& output_name);
  QueryBuilder& CountStar(const std::string& output_name);

  AggregateQuery Build() const { return query_; }

 private:
  size_t TableIndex(const std::string& table) const;
  QueryBuilder& AddAggregate(AggregateFunction fn, const std::string& table,
                             const std::string& column,
                             const std::string& output_name);

  AggregateQuery query_;
};

}  // namespace aggcache

#endif  // AGGCACHE_QUERY_AGGREGATE_QUERY_H_
