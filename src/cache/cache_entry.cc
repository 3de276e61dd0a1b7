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
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_ != nullptr) bytes += memo_->bytes;
  metrics_.size_bytes = bytes;
}

std::shared_ptr<const DeltaMemo> CacheEntry::delta_memo(
    MemoReset* dropped) const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (dropped != nullptr) *dropped = memo_dropped_;
  return memo_;
}

bool CacheEntry::PublishDeltaMemo(const DeltaMemo* expected,
                                  std::shared_ptr<const DeltaMemo> next,
                                  MemoReset reason) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_.get() != expected) return false;
  SwapDeltaMemoLocked(std::move(next), reason);
  return true;
}

bool CacheEntry::DropDeltaMemo(MemoReset reason) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  if (memo_ == nullptr) return false;
  SwapDeltaMemoLocked(nullptr, reason);
  return true;
}

void CacheEntry::SwapDeltaMemoLocked(std::shared_ptr<const DeltaMemo> next,
                                     MemoReset reason) {
  size_t bytes = metrics_.size_bytes;
  if (memo_ != nullptr) bytes -= memo_->bytes;
  if (next != nullptr) bytes += next->bytes;
  metrics_.size_bytes = bytes;
  memo_ = std::move(next);
  memo_dropped_ = memo_ != nullptr ? MemoReset::kNone : reason;
}

}  // namespace aggcache
