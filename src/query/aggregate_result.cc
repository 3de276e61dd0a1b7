#include "query/aggregate_result.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/string_util.h"

namespace aggcache {

const char* AggregateFunctionToString(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kSum:
      return "SUM";
    case AggregateFunction::kCount:
      return "COUNT";
    case AggregateFunction::kAvg:
      return "AVG";
    case AggregateFunction::kMin:
      return "MIN";
    case AggregateFunction::kMax:
      return "MAX";
    case AggregateFunction::kCountStar:
      return "COUNT(*)";
  }
  return "?";
}

bool IsSelfMaintainable(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kSum:
    case AggregateFunction::kCount:
    case AggregateFunction::kAvg:
    case AggregateFunction::kCountStar:
      return true;
    case AggregateFunction::kMin:
    case AggregateFunction::kMax:
      return false;
  }
  return false;
}

std::string GroupKey::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values.size());
  for (const Value& v : values) parts.push_back(v.ToString());
  return "(" + StrJoin(parts, ", ") + ")";
}

size_t GroupKeyHash::operator()(const GroupKey& key) const {
  size_t seed = 0x9e3779b97f4a7c15ULL;
  for (const Value& v : key.values) {
    seed ^= v.Hash() + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
  }
  return seed;
}

void AggregateState::Add(const Value& v) {
  ++count;
  if (v.is_null()) return;
  if (v.is_int64()) {
    sum_int += v.AsInt64();
  } else if (v.is_double()) {
    sum_double += v.AsDouble();
    saw_double = true;
  }
  if (min.is_null() || v < min) min = v;
  if (max.is_null() || max < v) max = v;
}

void AggregateState::Merge(const AggregateState& other) {
  sum_int += other.sum_int;
  sum_double += other.sum_double;
  saw_double = saw_double || other.saw_double;
  count += other.count;
  if (!other.min.is_null() && (min.is_null() || other.min < min)) {
    min = other.min;
  }
  if (!other.max.is_null() && (max.is_null() || max < other.max)) {
    max = other.max;
  }
}

void AggregateState::Subtract(const AggregateState& other) {
  sum_int -= other.sum_int;
  sum_double -= other.sum_double;
  count -= other.count;
}

Value AggregateState::Finalize(AggregateFunction fn) const {
  switch (fn) {
    case AggregateFunction::kSum:
      if (saw_double) {
        return Value(static_cast<double>(sum_int) + sum_double);
      }
      return Value(sum_int);
    case AggregateFunction::kCount:
    case AggregateFunction::kCountStar:
      return Value(count);
    case AggregateFunction::kAvg: {
      if (count == 0) return Value();
      double total = static_cast<double>(sum_int) + sum_double;
      return Value(total / static_cast<double>(count));
    }
    case AggregateFunction::kMin:
      return min;
    case AggregateFunction::kMax:
      return max;
  }
  return Value();
}

void AggregateResult::Share() {
  if (shared_) return;
  shared_ = std::make_shared<const Groups>(std::move(groups_));
  groups_ = Groups();
}

AggregateResult::Groups& AggregateResult::MutableGroups() {
  if (shared_) {
    groups_ = *shared_;
    shared_.reset();
  }
  return groups_;
}

void AggregateResult::Accumulate(const GroupKey& key,
                                 const std::vector<Value>& inputs) {
  AGGCACHE_CHECK_EQ(inputs.size(), num_aggregates_);
  GroupEntry& entry = MutableGroups()[key];
  if (entry.states.empty()) entry.states.resize(num_aggregates_);
  for (size_t i = 0; i < num_aggregates_; ++i) {
    entry.states[i].Add(inputs[i]);
  }
  ++entry.count_star;
}

void AggregateResult::SetGroup(const GroupKey& key, GroupEntry entry) {
  AGGCACHE_CHECK_EQ(entry.states.size(), num_aggregates_);
  MutableGroups()[key] = std::move(entry);
}

void AggregateResult::MergeFrom(const AggregateResult& other) {
  AGGCACHE_CHECK_EQ(num_aggregates_, other.num_aggregates_);
  if (other.empty()) return;
  Groups& groups = MutableGroups();
  for (const auto& [key, other_entry] : other.groups()) {
    GroupEntry& entry = groups[key];
    if (entry.states.empty()) entry.states.resize(num_aggregates_);
    for (size_t i = 0; i < num_aggregates_; ++i) {
      entry.states[i].Merge(other_entry.states[i]);
    }
    entry.count_star += other_entry.count_star;
  }
}

Status AggregateResult::SubtractFrom(const AggregateResult& other) {
  if (num_aggregates_ != other.num_aggregates_) {
    return Status::InvalidArgument("aggregate arity mismatch in subtract");
  }
  if (other.empty()) return Status::Ok();
  Groups& groups = MutableGroups();
  for (const auto& [key, other_entry] : other.groups()) {
    auto it = groups.find(key);
    if (it == groups.end()) {
      return Status::FailedPrecondition(
          "subtracting a group absent from the result: " + key.ToString());
    }
    GroupEntry& entry = it->second;
    if (entry.count_star < other_entry.count_star) {
      return Status::FailedPrecondition("group count underflow: " +
                                        key.ToString());
    }
    for (size_t i = 0; i < num_aggregates_; ++i) {
      entry.states[i].Subtract(other_entry.states[i]);
    }
    entry.count_star -= other_entry.count_star;
    if (entry.count_star == 0) groups.erase(it);
  }
  return Status::Ok();
}

std::vector<std::vector<Value>> AggregateResult::Rows(
    const std::vector<AggregateFunction>& functions) const {
  AGGCACHE_CHECK_EQ(functions.size(), num_aggregates_);
  std::vector<std::vector<Value>> rows;
  rows.reserve(num_groups());
  for (const auto& [key, entry] : groups()) {
    std::vector<Value> row = key.values;
    for (size_t i = 0; i < num_aggregates_; ++i) {
      row.push_back(entry.states[i].Finalize(functions[i]));
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end(),
            [](const std::vector<Value>& a, const std::vector<Value>& b) {
              for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
                if (a[i] < b[i]) return true;
                if (b[i] < a[i]) return false;
              }
              return a.size() < b.size();
            });
  return rows;
}

namespace {

bool ApproxEqualNumber(double a, double b, double tolerance) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tolerance * scale;
}

}  // namespace

bool AggregateResult::ApproxEquals(const AggregateResult& other,
                                   double tolerance,
                                   std::string* difference) const {
  auto fail = [&](const std::string& message) {
    if (difference != nullptr) *difference = message;
    return false;
  };
  if (num_aggregates_ != other.num_aggregates_) {
    return fail("aggregate arity differs");
  }
  if (num_groups() != other.num_groups()) {
    return fail(StrFormat("group count differs: %zu vs %zu", num_groups(),
                          other.num_groups()));
  }
  for (const auto& [key, entry] : groups()) {
    auto it = other.groups().find(key);
    if (it == other.groups().end()) {
      return fail("group missing from other: " + key.ToString());
    }
    const GroupEntry& other_entry = it->second;
    if (entry.count_star != other_entry.count_star) {
      return fail(StrFormat("count(*) differs in group %s: %lld vs %lld",
                            key.ToString().c_str(),
                            static_cast<long long>(entry.count_star),
                            static_cast<long long>(other_entry.count_star)));
    }
    for (size_t i = 0; i < num_aggregates_; ++i) {
      const AggregateState& a = entry.states[i];
      const AggregateState& b = other_entry.states[i];
      if (a.count != b.count || a.sum_int != b.sum_int ||
          !ApproxEqualNumber(a.sum_double, b.sum_double, tolerance)) {
        return fail("aggregate state differs in group " + key.ToString());
      }
    }
  }
  return true;
}

size_t AggregateResult::ByteSize() const {
  size_t bytes = groups().bucket_count() * sizeof(void*);
  for (const auto& [key, entry] : groups()) {
    bytes += sizeof(GroupEntry) + sizeof(void*);
    for (const Value& v : key.values) bytes += v.ByteSize();
    bytes += entry.states.size() * sizeof(AggregateState);
    for (const AggregateState& s : entry.states) {
      bytes += s.min.ByteSize() + s.max.ByteSize() - 2 * sizeof(Value);
    }
  }
  return bytes;
}

}  // namespace aggcache
