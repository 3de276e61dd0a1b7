#include "common/value.h"

#include <cstdio>
#include <ostream>

namespace aggcache {
namespace {

// Rank used to order values of different variants: NULL < numeric < string.
int TypeRank(const Value& v) {
  if (v.is_null()) return 0;
  if (v.is_int64() || v.is_double()) return 1;
  return 2;
}

size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return "int64";
    case ColumnType::kDouble:
      return "double";
    case ColumnType::kString:
      return "string";
  }
  return "unknown";
}

double Value::NumericAsDouble() const {
  if (is_int64()) return static_cast<double>(AsInt64());
  AGGCACHE_CHECK(is_double()) << "value is not numeric";
  return AsDouble();
}

ColumnType Value::type() const {
  AGGCACHE_CHECK(!is_null()) << "NULL has no column type";
  if (is_int64()) return ColumnType::kInt64;
  if (is_double()) return ColumnType::kDouble;
  return ColumnType::kString;
}

bool Value::MatchesType(ColumnType t) const {
  return !is_null() && type() == t;
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(AsInt64());
  if (is_double()) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", AsDouble());
    return buf;
  }
  return "'" + AsString() + "'";
}

size_t Value::ByteSize() const {
  if (is_string()) return sizeof(Value) + AsString().capacity();
  return sizeof(Value);
}

bool Value::operator<(const Value& other) const {
  int lr = TypeRank(*this);
  int rr = TypeRank(other);
  if (lr != rr) return lr < rr;
  if (lr == 0) return false;  // NULL == NULL for ordering purposes.
  if (lr == 1) {
    // Two int64s compare exactly: through double, distinct values above
    // 2^53 would compare equal.
    if (is_int64() && other.is_int64()) return AsInt64() < other.AsInt64();
    return NumericAsDouble() < other.NumericAsDouble();
  }
  return AsString() < other.AsString();
}

size_t Value::Hash() const {
  if (is_null()) return 0x5bd1e995;
  if (is_int64()) {
    return HashCombine(1, std::hash<int64_t>()(AsInt64()));
  }
  if (is_double()) {
    return HashCombine(2, std::hash<double>()(AsDouble()));
  }
  return HashCombine(3, std::hash<std::string>()(AsString()));
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace aggcache
