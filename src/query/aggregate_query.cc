#include "query/aggregate_query.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "query/executor.h"

namespace aggcache {

std::string JoinCondition::ToString() const {
  return StrFormat("t%zu.%s = t%zu.%s", left_table, left_column.c_str(),
                   right_table, right_column.c_str());
}

std::string HavingPredicate::ToString() const {
  return StrFormat("agg#%zu %s %s", aggregate_index, CompareOpToString(op),
                   operand.ToString().c_str());
}

Status AggregateQuery::Validate(const Database& db) const {
  return BoundQuery::Bind(db, *this).status();
}

AggregateResult AggregateQuery::ApplyHaving(AggregateResult result) const {
  if (having.empty()) return result;
  AggregateResult filtered(aggregates.size());
  for (const auto& [key, entry] : result.groups()) {
    bool pass = true;
    for (const HavingPredicate& h : having) {
      Value finalized =
          entry.states[h.aggregate_index].Finalize(
              aggregates[h.aggregate_index].fn);
      // Compare numerically across int64/double so HAVING SUM(x) > 10
      // works regardless of the accumulator type.
      bool ok;
      if (!finalized.is_null() && !h.operand.is_null() &&
          !finalized.is_string() && !h.operand.is_string() &&
          finalized.type() != h.operand.type()) {
        ok = EvalCompare(h.op, Value(finalized.NumericAsDouble()),
                         Value(h.operand.NumericAsDouble()));
      } else {
        ok = EvalCompare(h.op, finalized, h.operand);
      }
      if (!ok) {
        pass = false;
        break;
      }
    }
    if (pass) filtered.SetGroup(key, entry);
  }
  return filtered;
}

bool AggregateQuery::IsCacheable() const {
  for (const AggregateSpec& agg : aggregates) {
    if (!IsSelfMaintainable(agg.fn)) return false;
  }
  return true;
}

std::vector<AggregateFunction> AggregateQuery::AggregateFunctions() const {
  std::vector<AggregateFunction> fns;
  fns.reserve(aggregates.size());
  for (const AggregateSpec& agg : aggregates) fns.push_back(agg.fn);
  return fns;
}

std::string AggregateQuery::CanonicalString() const {
  std::vector<std::string> parts;
  for (const TableRef& t : tables) parts.push_back("T:" + t.table_name);
  for (const JoinCondition& j : joins) parts.push_back("J:" + j.ToString());
  for (const FilterPredicate& f : filters) {
    parts.push_back("F:" + f.ToString());
  }
  for (const GroupByRef& g : group_by) {
    parts.push_back(StrFormat("G:t%zu.%s", g.table_index, g.column.c_str()));
  }
  for (const AggregateSpec& a : aggregates) {
    parts.push_back(StrFormat("A:%s(t%zu.%s)", AggregateFunctionToString(a.fn),
                              a.table_index, a.column.c_str()));
  }
  return StrJoin(parts, "|");
}

std::string AggregateQuery::ToSql() const {
  std::vector<std::string> select;
  for (const GroupByRef& g : group_by) {
    select.push_back(tables[g.table_index].table_name + "." + g.column);
  }
  for (const AggregateSpec& a : aggregates) {
    std::string arg = a.fn == AggregateFunction::kCountStar
                          ? "*"
                          : tables[a.table_index].table_name + "." + a.column;
    std::string fn = a.fn == AggregateFunction::kCountStar
                         ? "COUNT"
                         : AggregateFunctionToString(a.fn);
    select.push_back(
        StrFormat("%s(%s) AS %s", fn.c_str(), arg.c_str(),
                  a.output_name.empty() ? "agg" : a.output_name.c_str()));
  }
  std::vector<std::string> from;
  for (const TableRef& t : tables) from.push_back(t.table_name);
  std::vector<std::string> where;
  for (const JoinCondition& j : joins) {
    where.push_back(tables[j.left_table].table_name + "." + j.left_column +
                    " = " + tables[j.right_table].table_name + "." +
                    j.right_column);
  }
  for (const FilterPredicate& f : filters) {
    where.push_back(tables[f.table_index].table_name + "." + f.column + " " +
                    CompareOpToString(f.op) + " " + f.operand.ToString());
  }
  std::vector<std::string> group;
  for (const GroupByRef& g : group_by) {
    group.push_back(tables[g.table_index].table_name + "." + g.column);
  }
  std::string sql = "SELECT " + StrJoin(select, ", ") + " FROM " +
                    StrJoin(from, ", ");
  if (!where.empty()) sql += " WHERE " + StrJoin(where, " AND ");
  sql += " GROUP BY " + StrJoin(group, ", ");
  if (!having.empty()) {
    std::vector<std::string> having_parts;
    for (const HavingPredicate& h : having) {
      const AggregateSpec& a = aggregates[h.aggregate_index];
      std::string arg = a.fn == AggregateFunction::kCountStar
                            ? "*"
                            : tables[a.table_index].table_name + "." +
                                  a.column;
      std::string fn = a.fn == AggregateFunction::kCountStar
                           ? "COUNT"
                           : AggregateFunctionToString(a.fn);
      having_parts.push_back(StrFormat("%s(%s) %s %s", fn.c_str(),
                                       arg.c_str(), CompareOpToString(h.op),
                                       h.operand.ToString().c_str()));
    }
    sql += " HAVING " + StrJoin(having_parts, " AND ");
  }
  return sql;
}

size_t QueryBuilder::TableIndex(const std::string& table) const {
  for (size_t i = 0; i < query_.tables.size(); ++i) {
    if (query_.tables[i].table_name == table) return i;
  }
  AGGCACHE_CHECK(false) << "table '" << table << "' not in query";
  return 0;
}

QueryBuilder& QueryBuilder::From(const std::string& table) {
  AGGCACHE_CHECK(query_.tables.empty()) << "From() must come first";
  query_.tables.push_back(TableRef{table});
  return *this;
}

QueryBuilder& QueryBuilder::Join(const std::string& table,
                                 const std::string& left_column,
                                 const std::string& right_column, int via) {
  AGGCACHE_CHECK(!query_.tables.empty()) << "Join() before From()";
  size_t left = via < 0 ? query_.tables.size() - 1 : static_cast<size_t>(via);
  AGGCACHE_CHECK_LT(left, query_.tables.size()) << "via out of range";
  query_.tables.push_back(TableRef{table});
  query_.joins.push_back(JoinCondition{left, left_column,
                                       query_.tables.size() - 1,
                                       right_column});
  return *this;
}

QueryBuilder& QueryBuilder::Filter(const std::string& table,
                                   const std::string& column, CompareOp op,
                                   Value operand) {
  query_.filters.push_back(
      FilterPredicate{TableIndex(table), column, op, std::move(operand)});
  return *this;
}

QueryBuilder& QueryBuilder::GroupBy(const std::string& table,
                                    const std::string& column) {
  query_.group_by.push_back(GroupByRef{TableIndex(table), column});
  return *this;
}

QueryBuilder& QueryBuilder::Having(CompareOp op, Value operand) {
  AGGCACHE_CHECK(!query_.aggregates.empty()) << "Having() before aggregates";
  query_.having.push_back(HavingPredicate{query_.aggregates.size() - 1, op,
                                          std::move(operand)});
  return *this;
}

QueryBuilder& QueryBuilder::AddAggregate(AggregateFunction fn,
                                         const std::string& table,
                                         const std::string& column,
                                         const std::string& output_name) {
  size_t index = table.empty() ? 0 : TableIndex(table);
  query_.aggregates.push_back(AggregateSpec{fn, index, column, output_name});
  return *this;
}

QueryBuilder& QueryBuilder::Sum(const std::string& table,
                                const std::string& column,
                                const std::string& output_name) {
  return AddAggregate(AggregateFunction::kSum, table, column, output_name);
}

QueryBuilder& QueryBuilder::Count(const std::string& table,
                                  const std::string& column,
                                  const std::string& output_name) {
  return AddAggregate(AggregateFunction::kCount, table, column, output_name);
}

QueryBuilder& QueryBuilder::Avg(const std::string& table,
                                const std::string& column,
                                const std::string& output_name) {
  return AddAggregate(AggregateFunction::kAvg, table, column, output_name);
}

QueryBuilder& QueryBuilder::Min(const std::string& table,
                                const std::string& column,
                                const std::string& output_name) {
  return AddAggregate(AggregateFunction::kMin, table, column, output_name);
}

QueryBuilder& QueryBuilder::Max(const std::string& table,
                                const std::string& column,
                                const std::string& output_name) {
  return AddAggregate(AggregateFunction::kMax, table, column, output_name);
}

QueryBuilder& QueryBuilder::CountStar(const std::string& output_name) {
  return AddAggregate(AggregateFunction::kCountStar, "", "", output_name);
}

}  // namespace aggcache
