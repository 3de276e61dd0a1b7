#include "cache/cache_entry.h"

#include "common/logging.h"
#include "storage/table.h"

namespace aggcache {

bool CacheEntry::IsDirty() const {
  const std::vector<const Table*>& tables = bound_.tables;
  AGGCACHE_CHECK_EQ(tables.size(), snapshots_.size());
  for (size_t t = 0; t < tables.size(); ++t) {
    for (size_t g = 0; g < snapshots_[t].size(); ++g) {
      if (tables[t]->group(g).main.invalidation_count() !=
          snapshots_[t][g].invalidation_count) {
        return true;
      }
    }
  }
  return false;
}

bool CacheEntry::ShapeMatches() const {
  const std::vector<const Table*>& tables = bound_.tables;
  if (needs_rebuild_) return false;
  if (snapshots_.size() != tables.size()) return false;
  for (size_t t = 0; t < tables.size(); ++t) {
    if (snapshots_[t].size() != tables[t]->num_groups()) return false;
    for (size_t g = 0; g < snapshots_[t].size(); ++g) {
      if (snapshots_[t][g].row_count != tables[t]->group(g).main.num_rows()) {
        return false;
      }
    }
  }
  return true;
}

void CacheEntry::PublishMainResult() {
  AggregateResult merged(query_.aggregates.size());
  for (const auto& [combo, partial] : main_partials_) {
    merged.MergeFrom(partial);
  }
  merged.Share();
  main_result_ = std::move(merged);

  size_t bytes = main_result_.ByteSize();
  for (const auto& [combo, partial] : main_partials_) {
    bytes += partial.ByteSize() + combo.size() * sizeof(PartitionRef);
  }
  for (const auto& per_table : snapshots_) {
    for (const MainSnapshot& snapshot : per_table) {
      bytes += snapshot.visibility.ByteSize() + sizeof(MainSnapshot);
    }
  }
  metrics_.size_bytes = bytes;
}

}  // namespace aggcache
