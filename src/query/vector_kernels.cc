#include "query/vector_kernels.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "runtime/query_context.h"

namespace aggcache {

namespace {

/// splitmix64 finalizer — full-avalanche mix for code and packed-code keys
/// (sequential dictionary codes would otherwise cluster in a power-of-two
/// table).
inline uint64_t MixKey(uint64_t key) {
  key ^= key >> 30;
  key *= 0xbf58476d1ce4e5b9ULL;
  key ^= key >> 27;
  key *= 0x94d049bb133111ebULL;
  key ^= key >> 31;
  return key;
}

inline size_t PowerOfTwoCapacity(size_t expected) {
  // Load factor <= 0.5.
  size_t capacity = std::bit_ceil(std::max<size_t>(expected * 2, 16));
  return capacity;
}

}  // namespace

bool CompileColumnFilter(const Column& column, CompareOp op,
                         const Value& operand, CompiledColumnFilter* out) {
  const Dictionary& dict = column.dictionary();
  if (!PredicateCanMatch(op, operand, dict)) return false;
  out->column = &column;
  out->op = op;
  out->operand = &operand;
  if (auto range = SortedDictionaryCodeRange(op, operand, dict)) {
    out->kind = CompiledColumnFilter::Kind::kCodeRange;
    out->lo = range->first;
    out->hi = range->second;
    return true;
  }
  if (op == CompareOp::kEq) {
    std::optional<ValueId> code = dict.Find(operand);
    if (!code.has_value()) return false;  // Equality with an absent value.
    out->kind = CompiledColumnFilter::Kind::kCodeEq;
    out->lo = *code;
    return true;
  }
  if (op != CompareOp::kNe && dict.mode() == Dictionary::Mode::kSortedMain) {
    // A sorted dictionary yields no code range for a range/equality
    // predicate only when no code matches. (`<>` never compiles to a range
    // and must fall back to value comparison.)
    return false;
  }
  out->kind = CompiledColumnFilter::Kind::kValue;
  return true;
}

namespace {

/// Applies one filter to the block-local survivor set idx[0..n), using
/// `codes` as scratch. `dense_base` is the row id of the block start when
/// the survivors are still the full contiguous block (enabling bulk code
/// unpacking), or kSparse after earlier stages dropped rows.
constexpr uint32_t kSparse = 0xFFFFFFFFu;

size_t ApplyFilterToBlock(const CompiledColumnFilter& f, uint32_t* idx,
                          size_t n, uint32_t dense_base, ValueId* codes) {
  const Column& column = *f.column;
  switch (f.kind) {
    case CompiledColumnFilter::Kind::kCodeRange: {
      if (dense_base != kSparse) {
        column.UnpackCodes(dense_base, n, codes);
      } else {
        for (size_t i = 0; i < n; ++i) codes[i] = column.code(idx[i]);
      }
      size_t m = 0;
      const ValueId lo = f.lo;
      const ValueId hi = f.hi;
      for (size_t i = 0; i < n; ++i) {
        // Branch-light compaction: the comparison result indexes the write.
        idx[m] = idx[i];
        m += (lo <= codes[i] && codes[i] <= hi) ? 1 : 0;
      }
      return m;
    }
    case CompiledColumnFilter::Kind::kCodeEq: {
      if (dense_base != kSparse) {
        column.UnpackCodes(dense_base, n, codes);
      } else {
        for (size_t i = 0; i < n; ++i) codes[i] = column.code(idx[i]);
      }
      size_t m = 0;
      const ValueId want = f.lo;
      for (size_t i = 0; i < n; ++i) {
        idx[m] = idx[i];
        m += (codes[i] == want) ? 1 : 0;
      }
      return m;
    }
    case CompiledColumnFilter::Kind::kValue: {
      size_t m = 0;
      for (size_t i = 0; i < n; ++i) {
        if (EvalCompare(f.op, column.GetValue(idx[i]), *f.operand)) {
          idx[m++] = idx[i];
        }
      }
      return m;
    }
  }
  return 0;
}

}  // namespace

size_t SelectRowsRange(const Partition& p, const SelectionInput& in,
                       uint32_t begin, uint32_t end,
                       std::vector<uint32_t>* out) {
  if (begin >= end) return 0;
  uint32_t idx[kSelectionBlockRows];
  ValueId codes[kSelectionBlockRows];
  const Tid* create = p.create_tids().data();
  const Tid* invalidate = p.invalidate_tids().data();
  size_t blocks = 0;
  for (uint32_t block = begin; block < end;
       block += kSelectionBlockRows, ++blocks) {
    if (in.context != nullptr && in.context->IsAborted()) break;
    const uint32_t block_end =
        static_cast<uint32_t>(std::min<size_t>(block + kSelectionBlockRows,
                                               end));
    size_t n = block_end - block;
    uint32_t dense_base = block;
    size_t m = 0;
    for (uint32_t r = block; r < block_end; ++r) {
      idx[m] = r;
      m += in.snapshot->RowVisible(create[r], invalidate[r]) ? 1 : 0;
    }
    if (m != n) dense_base = kSparse;
    n = m;
    for (const CompiledColumnFilter& f : in.filters) {
      if (n == 0) break;
      n = ApplyFilterToBlock(f, idx, n, dense_base, codes);
      dense_base = kSparse;  // Survivors may be sparse from here on.
    }
    out->insert(out->end(), idx, idx + n);
  }
  return blocks;
}

size_t SelectRowsGather(const SelectionInput& in,
                        std::span<const uint32_t> candidates,
                        std::vector<uint32_t>* out) {
  uint32_t idx[kSelectionBlockRows];
  ValueId codes[kSelectionBlockRows];
  size_t blocks = 0;
  for (size_t base = 0; base < candidates.size();
       base += kSelectionBlockRows, ++blocks) {
    if (in.context != nullptr && in.context->IsAborted()) break;
    const size_t block_n =
        std::min(kSelectionBlockRows, candidates.size() - base);
    std::copy_n(candidates.begin() + base, block_n, idx);
    size_t n = block_n;
    for (const CompiledColumnFilter& f : in.filters) {
      if (n == 0) break;
      n = ApplyFilterToBlock(f, idx, n, kSparse, codes);
    }
    out->insert(out->end(), idx, idx + n);
  }
  return blocks;
}

CodeHashTable::CodeHashTable(size_t expected_entries) {
  size_t capacity = PowerOfTwoCapacity(expected_entries);
  mask_ = capacity - 1;
  slots_.resize(capacity);
  nodes_.reserve(expected_entries);
}

size_t CodeHashTable::FindSlot(uint64_t key) const {
  size_t slot = MixKey(key) & mask_;
  while (true) {
    const Slot& s = slots_[slot];
    if (s.head == kNil) return kNotFound;
    if (s.key == key) return slot;
    slot = (slot + 1) & mask_;
  }
}

void CodeHashTable::Insert(uint64_t key, uint32_t payload) {
  size_t slot = MixKey(key) & mask_;
  while (true) {
    Slot& s = slots_[slot];
    if (s.head == kNil) {
      // Probing needs at least one empty slot to terminate; duplicates only
      // append nodes, so the guard is on distinct keys, not inserts.
      AGGCACHE_CHECK_LT(used_slots_ + 1, slots_.size())
          << "CodeHashTable over capacity (expected_entries too small)";
      ++used_slots_;
      uint32_t node = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(Node{payload, kNil});
      s.key = key;
      s.head = node;
      s.tail = node;
      return;
    }
    if (s.key == key) {
      uint32_t node = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(Node{payload, kNil});
      nodes_[s.tail].next = node;
      s.tail = node;
      return;
    }
    slot = (slot + 1) & mask_;
  }
}

std::optional<PackedKeyLayout> PlanPackedKeyLayout(
    std::span<const int> bits_per_field) {
  PackedKeyLayout layout;
  int shift = 0;
  for (int bits : bits_per_field) {
    AGGCACHE_CHECK(bits >= 1 && bits <= 32) << "field width out of range";
    if (shift + bits > 64) return std::nullopt;
    PackedKeyLayout::Field field;
    field.shift = shift;
    field.bits = bits;
    field.mask = bits == 64 ? ~uint64_t{0} : ((uint64_t{1} << bits) - 1);
    layout.fields.push_back(field);
    shift += bits;
  }
  layout.total_bits = shift;
  return layout;
}

GroupIndexMap::GroupIndexMap(size_t expected_groups) {
  size_t capacity = PowerOfTwoCapacity(expected_groups);
  mask_ = capacity - 1;
  slots_.resize(capacity);
}

void GroupIndexMap::Grow() {
  std::vector<Slot> old = std::move(slots_);
  size_t capacity = old.size() * 2;
  mask_ = capacity - 1;
  slots_.assign(capacity, Slot{});
  for (const Slot& s : old) {
    if (s.group == kEmpty) continue;
    size_t slot = MixKey(s.key) & mask_;
    while (slots_[slot].group != kEmpty) slot = (slot + 1) & mask_;
    slots_[slot] = s;
  }
}

uint32_t GroupIndexMap::InsertOrGet(uint64_t key) {
  if (num_groups_ * 2 >= slots_.size()) Grow();
  size_t slot = MixKey(key) & mask_;
  while (true) {
    Slot& s = slots_[slot];
    if (s.group == kEmpty) {
      s.key = key;
      s.group = static_cast<uint32_t>(num_groups_++);
      return s.group;
    }
    if (s.key == key) return s.group;
    slot = (slot + 1) & mask_;
  }
}

}  // namespace aggcache
