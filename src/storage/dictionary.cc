#include "storage/dictionary.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.h"

namespace aggcache {

Dictionary::Dictionary(ColumnType type, Mode mode)
    : type_(type), mode_(mode) {}

Dictionary Dictionary::BuildSorted(ColumnType type,
                                   std::vector<Value> values) {
  for (const Value& v : values) {
    Status storable = CheckStorable(v, type);
    AGGCACHE_CHECK(storable.ok()) << "BuildSorted: " << storable.ToString();
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return FromSorted(type, std::move(values));
}

Dictionary Dictionary::FromSorted(ColumnType type, std::vector<Value> sorted) {
  Dictionary dict(type, Mode::kSortedMain);
  dict.values_ = std::move(sorted);
  for (const Value& v : dict.values_) dict.value_bytes_ += v.ByteSize();
  dict.Reindex(dict.values_.size());
  return dict;
}

Status Dictionary::CheckStorable(const Value& v, ColumnType type) {
  if (v.is_null()) {
    return Status::InvalidArgument("NULL values are not supported");
  }
  if (!v.MatchesType(type)) {
    return Status::InvalidArgument("value type does not match column type");
  }
  if (v.is_double() && std::isnan(v.AsDouble())) {
    return Status::InvalidArgument("NaN values are not supported");
  }
  return Status::Ok();
}

size_t Dictionary::Probe(const Value& v) const {
  // Fibonacci hashing: Value::Hash is close to the identity for int64, so
  // its high product bits pick the slot, not its low bits.
  const int shift = 64 - std::countr_zero(slots_.size());
  const size_t mask = slots_.size() - 1;
  size_t slot = (v.Hash() * 0x9e3779b97f4a7c15ULL) >> shift;
  while (slots_[slot] != kInvalidValueId && values_[slots_[slot]] != v) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

void Dictionary::Reindex(size_t n) {
  slots_.assign(n == 0 ? 0 : std::bit_ceil(2 * n), kInvalidValueId);
  for (size_t id = 0; id < values_.size(); ++id) {
    slots_[Probe(values_[id])] = static_cast<ValueId>(id);
  }
}

StatusOr<ValueId> Dictionary::GetOrAdd(const Value& v) {
  if (mode_ != Mode::kUnsortedDelta) {
    return Status::FailedPrecondition("GetOrAdd on immutable main dictionary");
  }
  RETURN_IF_ERROR(CheckStorable(v, type_));
  if (!slots_.empty()) {
    ValueId found = slots_[Probe(v)];
    if (found != kInvalidValueId) return found;
  }
  ValueId id = static_cast<ValueId>(values_.size());
  values_.push_back(v);
  value_bytes_ += v.ByteSize();
  if (2 * values_.size() > slots_.size()) {
    Reindex(values_.size());
  } else {
    slots_[Probe(v)] = id;
  }
  if (min_id_ == kInvalidValueId || v < values_[min_id_]) min_id_ = id;
  if (max_id_ == kInvalidValueId || values_[max_id_] < v) max_id_ = id;
  return id;
}

std::optional<ValueId> Dictionary::Find(const Value& v) const {
  if (slots_.empty()) return std::nullopt;
  ValueId id = slots_[Probe(v)];
  if (id == kInvalidValueId) return std::nullopt;
  return id;
}

const Value& Dictionary::min_value() const {
  AGGCACHE_CHECK(!values_.empty()) << "min_value of empty dictionary";
  if (mode_ == Mode::kSortedMain) return values_.front();
  return values_[min_id_];
}

const Value& Dictionary::max_value() const {
  AGGCACHE_CHECK(!values_.empty()) << "max_value of empty dictionary";
  if (mode_ == Mode::kSortedMain) return values_.back();
  return values_[max_id_];
}

size_t Dictionary::ByteSize() const {
  return value_bytes_ + slots_.capacity() * sizeof(ValueId);
}

}  // namespace aggcache
