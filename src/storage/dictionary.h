#ifndef AGGCACHE_STORAGE_DICTIONARY_H_
#define AGGCACHE_STORAGE_DICTIONARY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace aggcache {

/// Code assigned to a distinct value within one column's dictionary.
using ValueId = uint32_t;

inline constexpr ValueId kInvalidValueId = ~0U;

/// Per-column dictionary mapping distinct values to dense codes.
///
/// Two modes mirror the main-delta architecture:
///  * kSortedMain — immutable, value-ordered (codes preserve value order, so
///    code 0 is the minimum and the last code the maximum). Built during
///    delta merge.
///  * kUnsortedDelta — append-only in arrival order; min/max are tracked
///    incrementally.
///
/// Both modes find a value's code through one flat open-addressing table of
/// codes: it hashes with Value::Hash, compares against values_[code], and
/// holds no second copy of any value.
///
/// The O(1) min/max of both modes is what makes the paper's dynamic join
/// pruning prefilter (Eq. 5) essentially free: "min() and max() can be
/// obtained from current dictionaries of the respective partitions".
class Dictionary {
 public:
  enum class Mode { kSortedMain, kUnsortedDelta };

  /// Creates an empty dictionary. Unsorted dictionaries grow via GetOrAdd;
  /// sorted ones are produced by BuildSorted or FromSorted.
  Dictionary(ColumnType type, Mode mode);

  /// Builds an immutable sorted dictionary from `values` (sorted and
  /// de-duplicated here; NaN and values of the wrong type abort).
  static Dictionary BuildSorted(ColumnType type, std::vector<Value> values);

  /// Builds an immutable sorted dictionary from values already strictly
  /// ascending (the delta merge's output); indexes them in one pass.
  static Dictionary FromSorted(ColumnType type, std::vector<Value> sorted);

  /// OK when `v` can be stored in a dictionary of `type`: not NULL, not NaN
  /// (it equals nothing, itself included, so it has no code and no order),
  /// and of the column's type.
  static Status CheckStorable(const Value& v, ColumnType type);

  ColumnType type() const { return type_; }
  Mode mode() const { return mode_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Code for `v`, inserting it when absent. Only valid in delta mode;
  /// returns InvalidArgument for values CheckStorable rejects.
  StatusOr<ValueId> GetOrAdd(const Value& v);

  /// Code for `v` when present: one hash probe sequence.
  std::optional<ValueId> Find(const Value& v) const;

  /// Value for a code.
  const Value& value(ValueId id) const {
    AGGCACHE_CHECK_LT(id, values_.size());
    return values_[id];
  }

  /// All values, indexed by code.
  const std::vector<Value>& values() const { return values_; }

  /// Smallest / largest value currently in the dictionary. Aborts on empty
  /// dictionaries — callers must check empty() first (empty partitions are
  /// pruned before range tests, as in the paper's Section 5.1).
  const Value& min_value() const;
  const Value& max_value() const;

  /// Heap footprint: values plus the code table. O(1): the value byte total
  /// is maintained incrementally instead of rescanning every stored Value
  /// per call, so memory accounting (cache admission, the Section 6.2
  /// experiment) stays cheap on hot paths.
  size_t ByteSize() const;

 private:
  /// Slot where the probe sequence for `v` ends: its code's slot, or the
  /// empty slot where it would go.
  size_t Probe(const Value& v) const;
  /// Re-sizes the code table for `n` values and indexes every value.
  void Reindex(size_t n);

  ColumnType type_;
  Mode mode_;
  std::vector<Value> values_;
  // Open-addressing table (linear probing, power-of-two size, at most half
  // full) of codes; kInvalidValueId marks an empty slot.
  std::vector<ValueId> slots_;
  // Codes of the extreme values; only meaningful for unsorted mode.
  ValueId min_id_ = kInvalidValueId;
  ValueId max_id_ = kInvalidValueId;
  // Running sum of values_[i].ByteSize(); values are never removed.
  size_t value_bytes_ = 0;
};

}  // namespace aggcache

#endif  // AGGCACHE_STORAGE_DICTIONARY_H_
