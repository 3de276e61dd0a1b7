#ifndef AGGCACHE_STORAGE_COLUMN_H_
#define AGGCACHE_STORAGE_COLUMN_H_

#include <memory>
#include <vector>

#include "common/bit_packed_vector.h"
#include "common/status.h"
#include "common/value.h"
#include "storage/dictionary.h"

namespace aggcache {

/// One dictionary-encoded column of a partition.
///
/// Delta columns are append-only: codes live in a plain uint32 vector over an
/// unsorted dictionary (write-optimized). Main columns are immutable: codes
/// are bit-packed to ceil(log2(|dict|)) bits over a sorted dictionary
/// (read-optimized, compressed) and are produced by the delta merge. A main
/// dictionary is immutable and shared: a merge that neither adds nor drops a
/// value of the column hands the same dictionary to the new main.
class Column {
 public:
  /// Creates an empty, appendable delta column.
  static Column MakeDelta(ColumnType type);

  /// Creates an immutable main column from a sorted dictionary and one code
  /// per row (codes must reference `dict`).
  static Column MakeMain(Dictionary dict, const std::vector<ValueId>& codes);
  static Column MakeMain(std::shared_ptr<const Dictionary> dict,
                         BitPackedVector codes);

  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  ColumnType type() const { return dict_->type(); }
  size_t size() const { return is_main_ ? main_codes_.size()
                                        : delta_codes_.size(); }
  bool is_main() const { return is_main_; }

  /// Appends a value (delta columns only).
  Status Append(const Value& v);

  /// Dictionary code of row `row`.
  ValueId code(size_t row) const {
    return is_main_ ? main_codes_.Get(row) : delta_codes_[row];
  }

  /// Decoded value of row `row`.
  const Value& GetValue(size_t row) const { return dict_->value(code(row)); }

  /// Bulk-decodes the codes of rows [begin, begin+count) into `out`:
  /// a memcpy for delta columns, a sequential bit-unpack for main columns.
  /// The batched scan kernels use this instead of per-row code() calls.
  void UnpackCodes(size_t begin, size_t count, ValueId* out) const;

  /// Fast path for int64 columns (tid columns, keys).
  int64_t GetInt64(size_t row) const { return GetValue(row).AsInt64(); }

  const Dictionary& dictionary() const { return *dict_; }
  const std::shared_ptr<const Dictionary>& shared_dictionary() const {
    return dict_;
  }
  /// Bit-packed codes of a main column.
  const BitPackedVector& main_codes() const { return main_codes_; }

  /// Approximate heap footprint: codes plus dictionary. The compression gap
  /// between main (bit-packed) and delta (32-bit codes) feeds the Section
  /// 6.2 memory-overhead experiment. A shared dictionary counts in full in
  /// every column holding it.
  size_t ByteSize() const;

 private:
  Column(std::shared_ptr<const Dictionary> dict, bool is_main)
      : dict_(std::move(dict)), is_main_(is_main) {}

  std::shared_ptr<const Dictionary> dict_;
  // The delta column's own, writable view of dict_ (null in main columns).
  // Columns are move-only, so a delta dictionary is never shared.
  Dictionary* appendable_ = nullptr;
  bool is_main_;
  std::vector<ValueId> delta_codes_;
  BitPackedVector main_codes_{32};
};

}  // namespace aggcache

#endif  // AGGCACHE_STORAGE_COLUMN_H_
