#include "storage/delta_merge.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/table.h"
#include "txn/epoch.h"
#include "verify/fault_injector.h"

namespace aggcache {
namespace {

constexpr size_t kBlockRows = 1024;

/// Calls `f(code)` for each of `rows` (ascending) of `column`, in order,
/// unpacking codes a block at a time.
template <typename F>
void ForEachCode(const Column& column, std::span<const uint32_t> rows, F f) {
  ValueId block[kBlockRows];
  for (size_t i = 0; i < rows.size();) {
    const size_t begin = rows[i];
    const size_t end = std::min(begin + kBlockRows, column.size());
    column.UnpackCodes(begin, end - begin, block);
    for (; i < rows.size() && rows[i] < end; ++i) f(block[rows[i] - begin]);
  }
}

/// One main column rebuilt in code space.
Column MergeColumn(const Column& main, std::span<const uint32_t> main_rows,
                   const Column& delta, std::span<const uint32_t> delta_rows) {
  const Dictionary& old_dict = main.dictionary();
  const Dictionary& delta_dict = delta.dictionary();
  const bool all_main_rows = main_rows.size() == main.size();

  // Step 1: the codes the selected rows use. With no main row dropped,
  // every old value stays in use. Only the delta's distinct values sort.
  std::vector<uint8_t> main_used(old_dict.size(), all_main_rows);
  if (!all_main_rows) {
    ForEachCode(main, main_rows, [&](ValueId c) { main_used[c] = 1; });
  }
  std::vector<uint8_t> delta_used(delta_dict.size(), 0);
  std::vector<ValueId> added;
  ForEachCode(delta, delta_rows, [&](ValueId c) {
    if (!delta_used[c]) added.push_back(c);
    delta_used[c] = 1;
  });
  std::sort(added.begin(), added.end(), [&](ValueId a, ValueId b) {
    return delta_dict.value(a) < delta_dict.value(b);
  });

  // Step 2: linear merge into monotone old→new and delta→new code maps.
  std::vector<ValueId> main_map(old_dict.size(), kInvalidValueId);
  std::vector<ValueId> delta_map(delta_dict.size(), kInvalidValueId);
  ValueId next = 0;
  size_t j = 0;
  bool changed = false;  // A value was added or dropped.
  bool identity = true;  // Every kept old code maps to itself.
  for (ValueId c = 0; c < old_dict.size(); ++c) {
    if (!main_used[c]) {
      changed = true;
      continue;
    }
    const Value& v = old_dict.value(c);
    for (; j < added.size() && delta_dict.value(added[j]) < v; ++j) {
      delta_map[added[j]] = next++;
      changed = true;
    }
    if (j < added.size() && delta_dict.value(added[j]) == v) {
      delta_map[added[j++]] = next;
    }
    identity = identity && next == c;
    main_map[c] = next++;
  }
  for (; j < added.size(); ++j) {
    delta_map[added[j]] = next++;
    changed = true;
  }

  std::shared_ptr<const Dictionary> dict = main.shared_dictionary();
  if (changed) {
    // Delta values first, so an old value wins over an equal delta value
    // (0.0 and -0.0).
    std::vector<Value> values(next);
    for (ValueId c = 0; c < delta_map.size(); ++c) {
      if (delta_map[c] != kInvalidValueId) {
        values[delta_map[c]] = delta_dict.value(c);
      }
    }
    for (ValueId c = 0; c < main_map.size(); ++c) {
      if (main_map[c] != kInvalidValueId) {
        values[main_map[c]] = old_dict.value(c);
      }
    }
    dict = std::make_shared<const Dictionary>(
        Dictionary::FromSorted(old_dict.type(), std::move(values)));
  }

  // Step 3: re-encode through the maps. Main codes that keep their values
  // and width are copied as they are.
  BitPackedVector codes(BitPackedVector::BitsForCardinality(dict->size()));
  const bool copy_main = identity && all_main_rows &&
      codes.bits_per_entry() == main.main_codes().bits_per_entry();
  if (copy_main) codes = main.main_codes();
  codes.Reserve(main_rows.size() + delta_rows.size());
  ValueId out[kBlockRows];
  size_t n = 0;
  auto emit = [&](ValueId code) {
    out[n++] = code;
    if (n == kBlockRows) {
      codes.Append(out, n);
      n = 0;
    }
  };
  if (!copy_main) {
    ForEachCode(main, main_rows, [&](ValueId c) { emit(main_map[c]); });
  }
  ForEachCode(delta, delta_rows, [&](ValueId c) { emit(delta_map[c]); });
  codes.Append(out, n);
  return Column::MakeMain(std::move(dict), std::move(codes));
}

}  // namespace

Partition BuildMainPartition(const Partition& main,
                             std::span<const uint32_t> main_rows,
                             const Partition& delta,
                             std::span<const uint32_t> delta_rows) {
  AGGCACHE_CHECK_EQ(main.num_columns(), delta.num_columns());
  std::vector<Column> columns;
  columns.reserve(main.num_columns());
  for (size_t c = 0; c < main.num_columns(); ++c) {
    columns.push_back(MergeColumn(main.column(c), main_rows, delta.column(c),
                                  delta_rows));
  }
  std::vector<Tid> create_tids;
  std::vector<Tid> invalidate_tids;
  create_tids.reserve(main_rows.size() + delta_rows.size());
  invalidate_tids.reserve(main_rows.size() + delta_rows.size());
  for (const auto& [p, rows] : {std::pair{&main, main_rows},
                                std::pair{&delta, delta_rows}}) {
    for (uint32_t r : rows) {
      create_tids.push_back(p->create_tid(r));
      invalidate_tids.push_back(p->invalidate_tid(r));
    }
  }
  return Partition::MakeMain(std::move(columns), std::move(create_tids),
                             std::move(invalidate_tids));
}

Status MergeTableGroup(Table& table, size_t group_index,
                       const MergeOptions& options, const Snapshot& snapshot) {
  if (group_index >= table.num_groups()) {
    return Status::OutOfRange("partition group index out of range");
  }
  PartitionGroup& group = table.mutable_group(group_index);

  // The row plan, one pass over the stamps. Main rows always have stable
  // create stamps (that is how they got into main); only their invalidation
  // may be unstable, in which case the row must survive — a snapshot
  // excluding the invalidator still sees it.
  auto dropped = [&](const Partition& p, uint32_t r) {
    return p.RowInvalidated(r) && !options.keep_invalidated &&
           snapshot.TidStable(p.invalidate_tid(r));
  };
  std::vector<uint32_t> main_rows;
  std::vector<uint32_t> moved;
  std::vector<uint32_t> kept;  // In-flight atomic scopes: stay in the delta.
  main_rows.reserve(group.main.num_rows());
  for (uint32_t r = 0; r < group.main.num_rows(); ++r) {
    if (!dropped(group.main, r)) main_rows.push_back(r);
  }
  for (uint32_t r = 0; r < group.delta.num_rows(); ++r) {
    if (!snapshot.TidStable(group.delta.create_tid(r))) {
      kept.push_back(r);
    } else if (!dropped(group.delta, r)) {
      moved.push_back(r);
    }
  }
  Partition new_main =
      BuildMainPartition(group.main, main_rows, group.delta, moved);
  Partition fresh_delta = Partition::MakeDelta(table.schema());
  for (uint32_t r : kept) fresh_delta.AppendRowFrom(group.delta, r);

  // Last abort opportunity before the new main becomes visible. Aborting
  // here leaves the group untouched — the built partitions are simply
  // dropped, so a retry starts from the same pre-merge state.
  RETURN_IF_ERROR(FaultInjector::Global().MaybeFail("storage.merge.publish"));
  const size_t old_main_rows = group.main.num_rows();
  Partition old_main = std::exchange(group.main, std::move(new_main));
  Partition old_delta = std::exchange(group.delta, std::move(fresh_delta));
  table.RelocateMergedRows(static_cast<uint32_t>(group_index), main_rows,
                           old_main_rows);
  if (EpochManager* ep = table.epochs()) {
    // The displaced partitions may still be referenced by in-flight readers
    // of *other* tables (the merge holds this table exclusively, but column
    // pointers can outlive the lock inside an epoch guard). Defer freeing.
    ep->Retire(std::move(old_main));
    ep->Retire(std::move(old_delta));
    ep->Advance();
  }
  return Status::Ok();
}

Status MergeTableGroup(Table& table, size_t group_index,
                       const MergeOptions& options) {
  // No-snapshot overload: every stamp is stable, everything merges.
  Snapshot all{std::numeric_limits<Tid>::max(), {}};
  return MergeTableGroup(table, group_index, options, all);
}

}  // namespace aggcache
