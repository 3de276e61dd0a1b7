#include "common/bit_packed_vector.h"

#include <bit>

#include "common/logging.h"

namespace aggcache {

BitPackedVector::BitPackedVector(int bits_per_entry)
    : bits_per_entry_(bits_per_entry < 1 ? 1 : bits_per_entry) {
  AGGCACHE_CHECK_LE(bits_per_entry_, 32) << "entry width above 32 bits";
  value_mask_ = bits_per_entry_ == 32
                    ? ~0U
                    : ((1U << bits_per_entry_) - 1);
}

void BitPackedVector::PushBack(uint32_t value) {
  AGGCACHE_CHECK_EQ(value & value_mask_, value)
      << "value " << value << " does not fit in " << bits_per_entry_
      << " bits";
  size_t bit_pos = size_ * bits_per_entry_;
  size_t word = bit_pos >> 6;
  int offset = static_cast<int>(bit_pos & 63);
  if (word >= words_.size()) words_.push_back(0);
  words_[word] |= static_cast<uint64_t>(value) << offset;
  int spill = offset + bits_per_entry_ - 64;
  if (spill > 0) {
    words_.push_back(static_cast<uint64_t>(value) >>
                     (bits_per_entry_ - spill));
  }
  ++size_;
}

void BitPackedVector::Append(const uint32_t* values, size_t count) {
  const int width = bits_per_entry_;
  size_t bit_pos = size_ * width;
  words_.resize((bit_pos + count * width + 63) >> 6, 0);
  uint64_t* words = words_.data();
  uint32_t all_bits = 0;
  for (size_t k = 0; k < count; ++k, bit_pos += width) {
    const uint64_t value = values[k];
    all_bits |= values[k];
    const size_t word = bit_pos >> 6;
    const int offset = static_cast<int>(bit_pos & 63);
    words[word] |= value << offset;
    const int spill = offset + width - 64;
    if (spill > 0) words[word + 1] |= value >> (width - spill);
  }
  AGGCACHE_CHECK_EQ(all_bits & value_mask_, all_bits)
      << "a value does not fit in " << bits_per_entry_ << " bits";
  size_ += count;
}

uint32_t BitPackedVector::Get(size_t i) const {
  AGGCACHE_CHECK_LT(i, size_);
  size_t bit_pos = i * bits_per_entry_;
  size_t word = bit_pos >> 6;
  int offset = static_cast<int>(bit_pos & 63);
  uint64_t bits = words_[word] >> offset;
  int spill = offset + bits_per_entry_ - 64;
  if (spill > 0) {
    bits |= words_[word + 1] << (bits_per_entry_ - spill);
  }
  return static_cast<uint32_t>(bits) & value_mask_;
}

void BitPackedVector::Unpack(size_t begin, size_t count, uint32_t* out) const {
  if (count == 0) return;
  AGGCACHE_CHECK_LE(begin + count, size_);
  const uint64_t* words = words_.data();
  const int width = bits_per_entry_;
  const uint32_t mask = value_mask_;
  size_t bit_pos = begin * width;
  for (size_t k = 0; k < count; ++k) {
    size_t word = bit_pos >> 6;
    int offset = static_cast<int>(bit_pos & 63);
    uint64_t bits = words[word] >> offset;
    int spill = offset + width - 64;
    if (spill > 0) {
      bits |= words[word + 1] << (width - spill);
    }
    out[k] = static_cast<uint32_t>(bits) & mask;
    bit_pos += width;
  }
}

int BitPackedVector::BitsForCardinality(size_t cardinality) {
  if (cardinality <= 1) return 1;
  return std::bit_width(cardinality - 1);
}

}  // namespace aggcache
