#include "query/aggregate_query.h"

#include <charconv>

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

namespace {

void AppendIndex(size_t i, std::string* out) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), i).ptr);
}

/// Appends `v` so that distinct operands render distinctly: doubles in
/// their shortest round-trip form, which is exact, and strings prefixed by
/// their length, so a literal cannot spell out further key parts. The type
/// is not tagged: Bind requires an operand to match its column's type, and
/// the key names the column.
void AppendOperand(const Value& v, std::string* out) {
  if (v.is_string()) {
    const std::string& s = v.AsString();
    AppendIndex(s.size(), out);
    *out += '\'';
    *out += s;
    *out += '\'';
    return;
  }
  if (v.is_null()) {
    *out += "NULL";
    return;
  }
  char buf[32];
  char* end = v.is_int64()
                  ? std::to_chars(buf, buf + sizeof(buf), v.AsInt64()).ptr
                  : std::to_chars(buf, buf + sizeof(buf), v.AsDouble()).ptr;
  out->append(buf, end);
}

}  // namespace

std::string AggregateQuery::CanonicalString() const {
  std::string out;
  out.reserve(256);
  auto part = [&out](const char* tag) {
    if (!out.empty()) out += '|';
    out += tag;
  };
  auto column = [&out](size_t table_index, const std::string& name) {
    out += 't';
    AppendIndex(table_index, &out);
    out += '.';
    out += name;
  };
  for (const TableRef& t : tables) {
    part("T:");
    out += t.table_name;
  }
  for (const JoinCondition& j : joins) {
    part("J:");
    column(j.left_table, j.left_column);
    out += " = ";
    column(j.right_table, j.right_column);
  }
  for (const FilterPredicate& f : filters) {
    part("F:");
    column(f.table_index, f.column);
    out += ' ';
    out += CompareOpToString(f.op);
    out += ' ';
    AppendOperand(f.operand, &out);
  }
  for (const GroupByRef& g : group_by) {
    part("G:");
    column(g.table_index, g.column);
  }
  for (const AggregateSpec& a : aggregates) {
    part("A:");
    out += AggregateFunctionToString(a.fn);
    out += '(';
    column(a.table_index, a.column);
    out += ')';
  }
  return out;
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
