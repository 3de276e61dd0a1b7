#ifndef AGGCACHE_COMMON_BIT_PACKED_VECTOR_H_
#define AGGCACHE_COMMON_BIT_PACKED_VECTOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace aggcache {

/// Fixed-width bit-packed array of unsigned integers.
///
/// Main-partition columns store dictionary codes bit-packed to
/// ceil(log2(dictionary size)) bits per row — the compression that makes the
/// read-optimized main store smaller than the write-optimized delta store
/// (plain 32-bit codes). This difference is what produces the paper's
/// Section 6.2 result that the tid-column overhead is ~10% in main vs ~13%
/// in delta.
class BitPackedVector {
 public:
  /// Creates an empty vector whose entries use `bits_per_entry` bits
  /// (1..32). Width 0 is promoted to 1 so a single-valued dictionary still
  /// round-trips.
  explicit BitPackedVector(int bits_per_entry = 32);

  int bits_per_entry() const { return bits_per_entry_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Appends `value`; the value must fit in bits_per_entry bits.
  void PushBack(uint32_t value);

  /// Appends `count` values at once; each must fit in bits_per_entry bits.
  void Append(const uint32_t* values, size_t count);

  /// Reserves room for `n` entries in total.
  void Reserve(size_t n) { words_.reserve((n * bits_per_entry_ + 63) >> 6); }

  uint32_t Get(size_t i) const;

  /// Bulk-decodes entries [begin, begin+count) into `out`. Equivalent to
  /// calling Get per index but walks the packed words sequentially, which
  /// is what the batched scan kernels run over main columns.
  void Unpack(size_t begin, size_t count, uint32_t* out) const;

  /// Heap footprint in bytes.
  size_t ByteSize() const { return words_.capacity() * sizeof(uint64_t); }

  /// Minimal width able to represent codes for a dictionary with
  /// `cardinality` distinct values.
  static int BitsForCardinality(size_t cardinality);

 private:
  int bits_per_entry_;
  uint32_t value_mask_;
  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace aggcache

#endif  // AGGCACHE_COMMON_BIT_PACKED_VECTOR_H_
