#ifndef AGGCACHE_TESTS_REFERENCE_MERGE_H_
#define AGGCACHE_TESTS_REFERENCE_MERGE_H_

// A row-at-a-time main builder: decode every row, sort every column's
// values, look each value up again. It shares no logic with the engine's
// code-space builder (storage/delta_merge.h), which the differential merge
// tests compare against it.

#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "storage/column.h"
#include "storage/dictionary.h"
#include "storage/partition.h"
#include "storage/schema.h"
#include "txn/types.h"

namespace aggcache {

/// Accumulates rows and builds a read-optimized main partition: per-column
/// sorted dictionaries and bit-packed codes.
class MainPartitionBuilder {
 public:
  explicit MainPartitionBuilder(const TableSchema& schema)
      : schema_(schema), column_values_(schema.columns.size()) {}

  /// Adds one row (decoded values, full schema arity) with its MVCC
  /// timestamps.
  void AddRow(std::vector<Value> values, Tid create_tid, Tid invalidate_tid) {
    AGGCACHE_CHECK_EQ(values.size(), column_values_.size());
    for (size_t c = 0; c < values.size(); ++c) {
      column_values_[c].push_back(std::move(values[c]));
    }
    create_tids_.push_back(create_tid);
    invalidate_tids_.push_back(invalidate_tid);
  }

  size_t num_rows() const { return create_tids_.size(); }

  /// Builds the partition; the builder is consumed.
  Partition Build() {
    std::vector<Column> columns;
    for (size_t c = 0; c < column_values_.size(); ++c) {
      Dictionary dict =
          Dictionary::BuildSorted(schema_.columns[c].type, column_values_[c]);
      std::vector<ValueId> codes;
      for (const Value& v : column_values_[c]) {
        std::optional<ValueId> id = dict.Find(v);
        AGGCACHE_CHECK(id.has_value());
        codes.push_back(*id);
      }
      columns.push_back(Column::MakeMain(std::move(dict), codes));
    }
    return Partition::MakeMain(std::move(columns), std::move(create_tids_),
                               std::move(invalidate_tids_));
  }

 private:
  const TableSchema& schema_;
  std::vector<std::vector<Value>> column_values_;  // [column][row]
  std::vector<Tid> create_tids_;
  std::vector<Tid> invalidate_tids_;
};

}  // namespace aggcache

#endif  // AGGCACHE_TESTS_REFERENCE_MERGE_H_
