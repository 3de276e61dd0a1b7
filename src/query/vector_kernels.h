#ifndef AGGCACHE_QUERY_VECTOR_KERNELS_H_
#define AGGCACHE_QUERY_VECTOR_KERNELS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "query/predicate.h"
#include "storage/partition.h"
#include "txn/types.h"

namespace aggcache {

class QueryContext;

/// Batched ("code-space") execution kernels for the subjoin executor.
///
/// Every kernel works directly on dictionary codes in tight loops over
/// fixed-size blocks instead of decoding per-row `Value` objects: selection
/// compares integer codes against precompiled ranges, joins hash 32-bit
/// codes through a flat open-addressing table (with a main<->delta
/// code-translation memo where the two sides use different dictionaries),
/// and group-by packs the group columns' codes into one 64-bit key.
/// Values materialize only at result emission. See DESIGN.md "Batched
/// execution core".

/// Rows per selection block. Block-local scratch (row indexes + codes)
/// lives on the stack, so the working set of a scan stays in L1.
inline constexpr size_t kSelectionBlockRows = 1024;

/// A filter compiled against one partition's column: integer code
/// comparisons where the dictionary allows it (sorted main -> contiguous
/// code ranges; delta equality -> a single code), value comparison
/// otherwise.
struct CompiledColumnFilter {
  const Column* column = nullptr;
  enum class Kind : uint8_t { kCodeRange, kCodeEq, kValue } kind = Kind::kValue;
  ValueId lo = 0;
  ValueId hi = 0;
  CompareOp op = CompareOp::kEq;
  const Value* operand = nullptr;  ///< Borrowed; must outlive the filter.
};

/// Compiles `op operand` against `column`. Returns false when the predicate
/// provably matches no row of the partition (static pruning): the caller
/// must then skip the scan entirely. On success `*out` holds the compiled
/// filter; `operand` is borrowed and must stay alive while the filter is
/// used.
bool CompileColumnFilter(const Column& column, CompareOp op,
                         const Value& operand, CompiledColumnFilter* out);

/// Everything a selection kernel needs besides the row range: the MVCC
/// visibility snapshot and the compiled conjunctive filters.
struct SelectionInput {
  const Snapshot* snapshot = nullptr;
  std::span<const CompiledColumnFilter> filters;
  /// Optional governance token: the selection kernels poll it once per
  /// block and stop early when the owning query aborted (the caller's
  /// QueryContext::Check() then surfaces the typed error). nullptr = no
  /// governance.
  const QueryContext* context = nullptr;
};

/// Appends the row ids in [begin, end) of `p` that pass visibility and all
/// filters to `out`, in ascending order. Returns the number of blocks
/// processed (for the executor's batch counters).
size_t SelectRowsRange(const Partition& p, const SelectionInput& in,
                       uint32_t begin, uint32_t end,
                       std::vector<uint32_t>* out);

/// Appends the candidates that pass all filters to `out`, in the given
/// order: the executor's RowRestriction path. There is no visibility check;
/// the caller vouches for the candidates.
size_t SelectRowsGather(const SelectionInput& in,
                        std::span<const uint32_t> candidates,
                        std::vector<uint32_t>* out);

/// Flat open-addressing hash multimap from 64-bit keys to 32-bit payloads,
/// sized once for a known build-side cardinality (no rehash). Payload
/// chains preserve insertion order, so probe output order matches the
/// build order — results stay deterministic at any thread count.
class CodeHashTable {
 public:
  /// `expected_entries` is an upper bound on Insert calls.
  explicit CodeHashTable(size_t expected_entries);

  void Insert(uint64_t key, uint32_t payload);

  /// Invokes `fn(payload)` for every payload inserted under `key`, in
  /// insertion order.
  template <typename Fn>
  void ForEach(uint64_t key, Fn&& fn) const {
    size_t slot = FindSlot(key);
    if (slot == kNotFound) return;
    for (uint32_t n = slots_[slot].head; n != kNil; n = nodes_[n].next) {
      fn(nodes_[n].payload);
    }
  }

  size_t size() const { return nodes_.size(); }

 private:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;
  static constexpr size_t kNotFound = ~size_t{0};

  struct Slot {
    uint64_t key = 0;
    uint32_t head = kNil;  ///< kNil marks an empty slot.
    uint32_t tail = kNil;
  };
  struct Node {
    uint32_t payload = 0;
    uint32_t next = kNil;
  };

  size_t FindSlot(uint64_t key) const;

  size_t mask_ = 0;
  size_t used_slots_ = 0;
  std::vector<Slot> slots_;
  std::vector<Node> nodes_;
};

/// Lazily memoized translation of codes from one dictionary into another's
/// code space, with Value-equality semantics (Dictionary::Find). This is
/// what lets joins between a main and a delta partition — or any two
/// distinct dictionaries — run on integer codes: the probe side's code is
/// translated once per distinct value, not hashed per row.
class CodeTranslator {
 public:
  static constexpr ValueId kNoMatch = kInvalidValueId;

  /// `expected_lookups` bounds the dense-memo investment: initializing the
  /// memo costs O(|from|), so it is only built when the probe volume can
  /// amortize it; small probes against huge dictionaries go straight to
  /// Dictionary::Find per call.
  CodeTranslator(const Dictionary* from, const Dictionary* to,
                 size_t expected_lookups = ~size_t{0})
      : from_(from), to_(to) {
    if (from_->size() / 4 <= expected_lookups) {
      memo_.assign(from_->size(), kUnresolved);
    }
  }

  /// `to`-space code for `from`-space `code`, or kNoMatch when the value
  /// does not exist in `to`.
  ValueId Translate(ValueId code) {
    if (memo_.empty()) return Lookup(code);
    ValueId& slot = memo_[code];
    if (slot == kUnresolved) slot = Lookup(code);
    return slot;
  }

 private:
  static constexpr ValueId kUnresolved = kInvalidValueId - 1;

  ValueId Lookup(ValueId code) const {
    std::optional<ValueId> found = to_->Find(from_->value(code));
    return found.has_value() ? *found : kNoMatch;
  }

  const Dictionary* from_;
  const Dictionary* to_;
  std::vector<ValueId> memo_;
};

/// Bit layout packing several group-by columns' codes into one uint64 key.
struct PackedKeyLayout {
  struct Field {
    int shift = 0;
    int bits = 0;
    uint64_t mask = 0;  ///< Unshifted mask: (1 << bits) - 1.
  };
  std::vector<Field> fields;
  int total_bits = 0;

  uint64_t Pack(std::span<const ValueId> codes) const {
    uint64_t key = 0;
    for (size_t i = 0; i < fields.size(); ++i) {
      key |= static_cast<uint64_t>(codes[i]) << fields[i].shift;
    }
    return key;
  }

  ValueId Unpack(uint64_t key, size_t field) const {
    return static_cast<ValueId>((key >> fields[field].shift) &
                                fields[field].mask);
  }
};

/// Plans a packed layout for fields of the given code widths (in bits,
/// each 1..32). Returns nullopt when the widths do not fit in 64 bits —
/// callers fall back to materialized group keys.
std::optional<PackedKeyLayout> PlanPackedKeyLayout(
    std::span<const int> bits_per_field);

/// Flat open-addressing map from 64-bit keys to dense group indexes,
/// assigning indexes 0,1,2,... in first-seen order. Grows by doubling.
class GroupIndexMap {
 public:
  explicit GroupIndexMap(size_t expected_groups = 16);

  /// Index for `key`, assigning the next dense index when absent.
  uint32_t InsertOrGet(uint64_t key);

  size_t size() const { return num_groups_; }

 private:
  static constexpr uint32_t kEmpty = 0xFFFFFFFFu;

  struct Slot {
    uint64_t key = 0;
    uint32_t group = kEmpty;
  };

  void Grow();

  size_t mask_ = 0;
  size_t num_groups_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace aggcache

#endif  // AGGCACHE_QUERY_VECTOR_KERNELS_H_
