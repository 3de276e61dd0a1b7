#ifndef AGGCACHE_STORAGE_PARTITION_H_
#define AGGCACHE_STORAGE_PARTITION_H_

#include <span>
#include <vector>

#include "common/bit_vector.h"
#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "txn/types.h"

namespace aggcache {

/// Horizontal role of a partition within a table.
enum class PartitionKind : uint8_t { kMain = 0, kDelta = 1 };

/// Temperature class for the multi-partition scenario of Section 5.4.
enum class AgeClass : uint8_t { kHot = 0, kCold = 1 };

const char* PartitionKindToString(PartitionKind kind);
const char* AgeClassToString(AgeClass age);

/// One horizontal partition: a set of columns plus per-row MVCC timestamps.
///
/// Rows are appended (delta) or bulk-built (main by the delta merge) and
/// never updated in place; an update elsewhere invalidates the old row by
/// setting its invalidate_tid — exactly the general main-delta update
/// mechanism the paper describes in Section 2.
class Partition {
 public:
  /// Creates an empty write-optimized delta partition for `schema`.
  static Partition MakeDelta(const TableSchema& schema);

  /// Creates a read-optimized main partition from prebuilt columns and MVCC
  /// timestamps (all columns and tid vectors must have `num_rows` entries).
  static Partition MakeMain(std::vector<Column> columns,
                            std::vector<Tid> create_tids,
                            std::vector<Tid> invalidate_tids);

  /// Creates an empty main partition for `schema`.
  static Partition MakeEmptyMain(const TableSchema& schema);

  PartitionKind kind() const { return kind_; }
  size_t num_rows() const { return create_tids_.size(); }
  bool empty() const { return create_tids_.empty(); }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  /// Appends a full row to a delta partition.
  Status AppendRow(const std::vector<Value>& values, Tid create_tid);

  /// Appends row `row` of `src` (same schema) with both of its MVCC stamps
  /// to a delta partition.
  void AppendRowFrom(const Partition& src, size_t row);

  /// Marks row `row` invalid as of transaction `tid` (update/delete).
  void InvalidateRow(size_t row, Tid tid);

  Tid create_tid(size_t row) const { return create_tids_[row]; }
  Tid invalidate_tid(size_t row) const { return invalidate_tids_[row]; }
  bool RowInvalidated(size_t row) const {
    return invalidate_tids_[row] != kNoTid;
  }

  std::span<const Tid> create_tids() const { return create_tids_; }
  std::span<const Tid> invalidate_tids() const { return invalidate_tids_; }

  /// Number of rows that were ever invalidated (the cache entry dirty
  /// counter compares against this to detect pending main compensation).
  uint64_t invalidation_count() const { return invalidation_count_; }

  /// Largest invalidate_tid of any row (kNoTid when none was invalidated):
  /// when it is stable under a snapshot, so is every invalidation here.
  Tid max_invalidate_tid() const { return max_invalidate_tid_; }

  /// Full row decoded to values.
  std::vector<Value> GetRow(size_t row) const;

  /// Approximate heap footprint (columns only; MVCC vectors excluded so the
  /// Section 6.2 accounting isolates column storage, plus they are identical
  /// with and without tid columns).
  size_t ColumnByteSize() const;

 private:
  Partition(PartitionKind kind, std::vector<Column> columns)
      : kind_(kind), columns_(std::move(columns)) {}

  PartitionKind kind_;
  std::vector<Column> columns_;
  std::vector<Tid> create_tids_;
  std::vector<Tid> invalidate_tids_;
  uint64_t invalidation_count_ = 0;
  Tid max_invalidate_tid_ = kNoTid;
};

}  // namespace aggcache

#endif  // AGGCACHE_STORAGE_PARTITION_H_
