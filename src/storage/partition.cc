#include "storage/partition.h"

#include <algorithm>

#include "common/logging.h"

namespace aggcache {

const char* PartitionKindToString(PartitionKind kind) {
  return kind == PartitionKind::kMain ? "main" : "delta";
}

const char* AgeClassToString(AgeClass age) {
  return age == AgeClass::kHot ? "hot" : "cold";
}

Partition Partition::MakeDelta(const TableSchema& schema) {
  std::vector<Column> columns;
  columns.reserve(schema.columns.size());
  for (const ColumnDef& def : schema.columns) {
    columns.push_back(Column::MakeDelta(def.type));
  }
  return Partition(PartitionKind::kDelta, std::move(columns));
}

Partition Partition::MakeMain(std::vector<Column> columns,
                              std::vector<Tid> create_tids,
                              std::vector<Tid> invalidate_tids) {
  AGGCACHE_CHECK_EQ(create_tids.size(), invalidate_tids.size());
  for (const Column& c : columns) {
    AGGCACHE_CHECK_EQ(c.size(), create_tids.size())
        << "column length mismatch in MakeMain";
    AGGCACHE_CHECK(c.is_main()) << "MakeMain requires main columns";
  }
  Partition partition(PartitionKind::kMain, std::move(columns));
  partition.create_tids_ = std::move(create_tids);
  partition.invalidate_tids_ = std::move(invalidate_tids);
  for (Tid t : partition.invalidate_tids_) {
    if (t != kNoTid) ++partition.invalidation_count_;
    partition.max_invalidate_tid_ = std::max(partition.max_invalidate_tid_, t);
  }
  return partition;
}

Partition Partition::MakeEmptyMain(const TableSchema& schema) {
  std::vector<Column> columns;
  for (const ColumnDef& def : schema.columns) {
    columns.push_back(
        Column::MakeMain(Dictionary::BuildSorted(def.type, {}), {}));
  }
  return MakeMain(std::move(columns), {}, {});
}

Status Partition::AppendRow(const std::vector<Value>& values,
                            Tid create_tid) {
  if (kind_ != PartitionKind::kDelta) {
    return Status::FailedPrecondition("append to main partition");
  }
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument("row arity does not match schema");
  }
  // Validate all values before mutating any column so a failed append leaves
  // the partition unchanged.
  for (size_t i = 0; i < values.size(); ++i) {
    Status storable = Dictionary::CheckStorable(values[i], columns_[i].type());
    if (!storable.ok()) {
      return Status::InvalidArgument(storable.message() + " (column " +
                                     std::to_string(i) + ")");
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    Status status = columns_[i].Append(values[i]);
    AGGCACHE_CHECK(status.ok()) << status.ToString();
  }
  create_tids_.push_back(create_tid);
  invalidate_tids_.push_back(kNoTid);
  return Status::Ok();
}

void Partition::AppendRowFrom(const Partition& src, size_t row) {
  for (size_t c = 0; c < columns_.size(); ++c) {
    Status status = columns_[c].Append(src.column(c).GetValue(row));
    AGGCACHE_CHECK(status.ok()) << status.ToString();
  }
  create_tids_.push_back(src.create_tid(row));
  invalidate_tids_.push_back(kNoTid);
  if (src.RowInvalidated(row)) {
    InvalidateRow(num_rows() - 1, src.invalidate_tid(row));
  }
}

void Partition::InvalidateRow(size_t row, Tid tid) {
  AGGCACHE_CHECK_LT(row, invalidate_tids_.size());
  AGGCACHE_CHECK_EQ(invalidate_tids_[row], kNoTid)
      << "row invalidated twice";
  invalidate_tids_[row] = tid;
  ++invalidation_count_;
  max_invalidate_tid_ = std::max(max_invalidate_tid_, tid);
}

std::vector<Value> Partition::GetRow(size_t row) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const Column& c : columns_) values.push_back(c.GetValue(row));
  return values;
}

size_t Partition::ColumnByteSize() const {
  size_t bytes = 0;
  for (const Column& c : columns_) bytes += c.ByteSize();
  return bytes;
}

}  // namespace aggcache
