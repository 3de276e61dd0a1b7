#include "storage/column.h"

#include <cstring>

#include "common/logging.h"

namespace aggcache {

Column Column::MakeDelta(ColumnType type) {
  auto dict = std::make_shared<Dictionary>(
      type, Dictionary::Mode::kUnsortedDelta);
  Dictionary* appendable = dict.get();
  Column column(std::move(dict), /*is_main=*/false);
  column.appendable_ = appendable;
  return column;
}

Column Column::MakeMain(Dictionary dict, const std::vector<ValueId>& codes) {
  BitPackedVector packed(BitPackedVector::BitsForCardinality(dict.size()));
  for (ValueId code : codes) {
    AGGCACHE_CHECK_LT(code, dict.size()) << "code out of range";
    packed.PushBack(code);
  }
  return MakeMain(std::make_shared<const Dictionary>(std::move(dict)),
                  std::move(packed));
}

Column Column::MakeMain(std::shared_ptr<const Dictionary> dict,
                        BitPackedVector codes) {
  AGGCACHE_CHECK(dict->mode() == Dictionary::Mode::kSortedMain)
      << "main column requires a sorted dictionary";
  AGGCACHE_CHECK_EQ(codes.bits_per_entry(),
                    BitPackedVector::BitsForCardinality(dict->size()));
  Column column(std::move(dict), /*is_main=*/true);
  column.main_codes_ = std::move(codes);
  return column;
}

Status Column::Append(const Value& v) {
  if (is_main_) {
    return Status::FailedPrecondition("append to immutable main column");
  }
  ASSIGN_OR_RETURN(ValueId id, appendable_->GetOrAdd(v));
  delta_codes_.push_back(id);
  return Status::Ok();
}

void Column::UnpackCodes(size_t begin, size_t count, ValueId* out) const {
  if (count == 0) return;
  if (is_main_) {
    main_codes_.Unpack(begin, count, out);
    return;
  }
  AGGCACHE_CHECK_LE(begin + count, delta_codes_.size());
  std::memcpy(out, delta_codes_.data() + begin, count * sizeof(ValueId));
}

size_t Column::ByteSize() const {
  size_t codes_bytes = is_main_
                           ? main_codes_.ByteSize()
                           : delta_codes_.capacity() * sizeof(ValueId);
  return codes_bytes + dict_->ByteSize();
}

}  // namespace aggcache
