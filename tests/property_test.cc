// Randomized end-to-end property tests: under an arbitrary interleaving of
// inserts, updates, deletes, merges, and hot/cold partition splits, every
// cached execution strategy (with and without pruning and pushdown) must
// agree with uncached execution — the paper's guarantee that compensation
// and dynamic pruning are always correct. The aggregate function is also
// randomized per run, including MIN/MAX, which are not self-maintainable
// and must exercise the uncached-fallback path instead.

#include <map>
#include <set>

#include <sstream>

#include "gtest/gtest.h"
#include "objectaware/matching_dependency.h"
#include "storage/snapshot.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class RandomWorkloadTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    cache_ = std::make_unique<AggregateCacheManager>(&db_);
    rng_ = Rng(GetParam());
  }

  void InsertBusinessObject() {
    Transaction txn = db_.Begin();
    int64_t header_id = next_header_id_++;
    ASSERT_OK(header_->Insert(
        txn, {Value(header_id),
              Value(int64_t{2010} + rng_.UniformInt(0, 4))}));
    live_headers_.insert(header_id);
    header_tid_[header_id] = txn.tid();
    int items = static_cast<int>(rng_.UniformInt(1, 4));
    for (int i = 0; i < items; ++i) {
      int64_t item_id = next_item_id_++;
      ASSERT_OK(item_->Insert(txn, {Value(item_id), Value(header_id),
                                    Value(rng_.UniformDouble(1.0, 50.0))}));
      live_items_[item_id] = header_id;
    }
  }

  // After a consistent-aging split, updates and late child inserts must
  // target hot objects only (Section 5.4): cold partitions stay immutable,
  // which is what keeps cold⋈hot logical pruning sound. Deletes are pure
  // invalidations and remain safe anywhere.
  bool IsHot(int64_t header_id) const {
    if (split_tid_ == 0) return true;
    auto it = header_tid_.find(header_id);
    return it != header_tid_.end() &&
           it->second >= static_cast<Tid>(split_tid_);
  }

  std::set<int64_t> MutableHeaders() const {
    if (split_tid_ == 0) return live_headers_;
    std::set<int64_t> hot;
    for (int64_t id : live_headers_) {
      if (IsHot(id)) hot.insert(id);
    }
    return hot;
  }

  void InsertLateItem() {
    std::set<int64_t> candidates = MutableHeaders();
    if (candidates.empty()) return;
    Transaction txn = db_.Begin();
    int64_t header_id = RandomFrom(candidates);
    int64_t item_id = next_item_id_++;
    ASSERT_OK(item_->Insert(txn, {Value(item_id), Value(header_id),
                                  Value(rng_.UniformDouble(1.0, 50.0))}));
    live_items_[item_id] = header_id;
  }

  void UpdateHeader() {
    std::set<int64_t> candidates = MutableHeaders();
    if (candidates.empty()) return;
    Transaction txn = db_.Begin();
    int64_t header_id = RandomFrom(candidates);
    ASSERT_OK(header_->UpdateByPk(
        txn, Value(header_id),
        {Value(header_id), Value(int64_t{2010} + rng_.UniformInt(0, 4))}));
  }

  void UpdateItem() {
    std::vector<int64_t> candidates;
    for (const auto& [item_id, header_id] : live_items_) {
      if (IsHot(header_id)) candidates.push_back(item_id);
    }
    if (candidates.empty()) return;
    Transaction txn = db_.Begin();
    int64_t item_id = candidates[rng_.UniformInt(
        0, static_cast<int64_t>(candidates.size()) - 1)];
    ASSERT_OK(item_->UpdateByPk(
        txn, Value(item_id),
        {Value(item_id), Value(live_items_[item_id]),
         Value(rng_.UniformDouble(1.0, 50.0))}));
  }

  void DeleteItem() {
    if (live_items_.empty()) return;
    Transaction txn = db_.Begin();
    auto it = live_items_.begin();
    std::advance(it, rng_.UniformInt(
                         0, static_cast<int64_t>(live_items_.size()) - 1));
    ASSERT_OK(item_->DeleteByPk(txn, Value(it->first)));
    live_items_.erase(it);
  }

  void DeleteHeaderWithItems() {
    if (live_headers_.empty()) return;
    Transaction txn = db_.Begin();
    int64_t header_id = RandomFrom(live_headers_);
    // Business-object delete: items first, then the header.
    for (auto it = live_items_.begin(); it != live_items_.end();) {
      if (it->second == header_id) {
        ASSERT_OK(item_->DeleteByPk(txn, Value(it->first)));
        it = live_items_.erase(it);
      } else {
        ++it;
      }
    }
    ASSERT_OK(header_->DeleteByPk(txn, Value(header_id)));
    live_headers_.erase(header_id);
  }

  void MergeSomething() {
    int64_t choice = rng_.UniformInt(0, 3);
    MergeOptions options;
    options.keep_invalidated = rng_.Chance(0.3);
    if (choice == 0) {
      ASSERT_OK(db_.Merge("Header", options));
    } else if (choice == 1) {
      ASSERT_OK(db_.Merge("Item", options));
    } else {
      ASSERT_OK(db_.MergeTables({"Header", "Item"}, options));
    }
  }

  // One-time hot/cold split of the business object along the temporal MD
  // columns (Section 5.4's consistent aging): merge both tables so the
  // deltas are empty, split the header on its own tid and the item on the
  // propagated header tid at the same threshold, and register the aging
  // group so the pruner may treat cold⋈hot combinations as empty.
  void MaybeSplitHotCold() {
    if (split_tid_ != 0) return;
    Tid last = db_.txn_manager().last_committed();
    if (last < 4 || live_headers_.empty()) return;
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    int64_t threshold = rng_.UniformInt(1, static_cast<int64_t>(last));
    ASSERT_OK(header_->SplitHotCold("tid_Header", Value(threshold)));
    ASSERT_OK(item_->SplitHotCold("tid_Header", Value(threshold)));
    db_.RegisterAgingGroup({"Header", "Item"});
    split_tid_ = threshold;
    ASSERT_EQ(header_->num_groups(), 2u);
    ASSERT_EQ(item_->num_groups(), 2u);
    ASSERT_TRUE(db_.InSameAgingGroup("Header", "Item"));
  }

  void RunOneStep() {
    int64_t op = rng_.UniformInt(0, 10);
    switch (op) {
      case 0:
      case 1:
      case 2:
        InsertBusinessObject();
        break;
      case 3:
        InsertLateItem();
        break;
      case 4:
        UpdateHeader();
        break;
      case 5:
        UpdateItem();
        break;
      case 6:
        DeleteItem();
        break;
      case 7:
        DeleteHeaderWithItems();
        break;
      case 8:
        MaybeSplitHotCold();
        break;
      default:
        MergeSomething();
        break;
    }
  }

  int64_t RandomFrom(const std::set<int64_t>& ids) {
    auto it = ids.begin();
    std::advance(it, rng_.UniformInt(
                         0, static_cast<int64_t>(ids.size()) - 1));
    return *it;
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  std::unique_ptr<AggregateCacheManager> cache_;
  Rng rng_{0};
  int64_t next_header_id_ = 1;
  int64_t next_item_id_ = 1;
  std::set<int64_t> live_headers_;
  std::map<int64_t, int64_t> live_items_;  // item -> header.
  std::map<int64_t, Tid> header_tid_;     // header -> creating txn.
  int64_t split_tid_ = 0;  // 0 until the one-time hot/cold split.
};

TEST_P(RandomWorkloadTest, AllStrategiesAlwaysAgree) {
  AggregateQuery join_query = testing_util::HeaderItemQuery();
  AggregateQuery single_query = QueryBuilder()
                                    .From("Item")
                                    .GroupBy("Item", "HeaderID")
                                    .Sum("Item", "Amount", "total")
                                    .CountStar("n")
                                    .Build();
  for (int step = 0; step < 60; ++step) {
    RunOneStep();
    if (step % 5 == 4) {
      testing_util::ExpectAllStrategiesAgree(&db_, cache_.get(), join_query);
      testing_util::ExpectAllStrategiesAgree(&db_, cache_.get(),
                                             single_query);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "diverged at step " << step << " (seed " << GetParam()
               << ")";
      }
    }
  }
}

TEST_P(RandomWorkloadTest, RandomizedAggregateFunctionAgrees) {
  // One aggregate function per run, derived from the seed so the suite
  // deterministically covers all five. MIN and MAX are not
  // self-maintainable: the cache must refuse them and every "cached"
  // strategy must fall back to uncached execution — still correct, never
  // a stale partial.
  int64_t pick = static_cast<int64_t>(GetParam() % 5);
  QueryBuilder builder;
  builder.From("Header")
      .Join("Item", "HeaderID", "HeaderID")
      .GroupBy("Header", "FiscalYear");
  switch (pick) {
    case 0:
      builder.Sum("Item", "Amount", "agg");
      break;
    case 1:
      builder.Count("Item", "Amount", "agg");
      break;
    case 2:
      builder.Avg("Item", "Amount", "agg");
      break;
    case 3:
      builder.Min("Item", "Amount", "agg");
      break;
    default:
      builder.Max("Item", "Amount", "agg");
      break;
  }
  AggregateQuery query = builder.CountStar("n").Build();
  for (int step = 0; step < 40; ++step) {
    RunOneStep();
    if (step % 5 != 4) continue;
    testing_util::ExpectAllStrategiesAgree(&db_, cache_.get(), query);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << AggregateFunctionToString(query.aggregates[0].fn)
             << " diverged at step " << step << " (seed " << GetParam()
             << ")";
    }
  }
  if (pick >= 3) {
    Transaction txn = db_.Begin();
    CacheExecStats stats;
    ExecutionOptions options;
    options.stats = &stats;
    auto result = cache_->Execute(query, txn, options);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_FALSE(stats.used_cache);
    EXPECT_EQ(cache_->Find(query), nullptr);
  }
}

TEST_P(RandomWorkloadTest, MatchingDependencyAlwaysHolds) {
  for (int step = 0; step < 60; ++step) {
    RunOneStep();
    if (step % 10 == 9) {
      auto holds = VerifyMdHolds(db_, "Header", "Item");
      ASSERT_TRUE(holds.ok());
      EXPECT_TRUE(*holds) << "MD violated at step " << step;
    }
  }
}

TEST_P(RandomWorkloadTest, PrunedSubjoinsAreEmpty) {
  AggregateQuery query = testing_util::HeaderItemQuery();
  for (int step = 0; step < 40; ++step) {
    RunOneStep();
    if (step % 8 != 7) continue;
    auto bound = BoundQuery::Bind(db_, query);
    ASSERT_TRUE(bound.ok());
    JoinPruner pruner(&db_, PruneLevel::kFull);
    Executor executor(&db_);
    Snapshot now = db_.txn_manager().GlobalSnapshot();
    for (const SubjoinCombination& combo :
         EnumerateAllCombinations(bound->tables)) {
      if (!pruner.ShouldPrune(*bound, combo).pruned) continue;
      auto result = executor.ExecuteSubjoin(*bound, combo, now);
      ASSERT_TRUE(result.ok());
      EXPECT_TRUE(result->empty())
          << "pruned non-empty subjoin " << CombinationToString(combo)
          << " at step " << step << " (seed " << GetParam() << ")";
    }
  }
}

TEST_P(RandomWorkloadTest, SnapshotRoundTripPreservesEverything) {
  AggregateQuery query = testing_util::HeaderItemQuery();
  for (int step = 0; step < 30; ++step) {
    RunOneStep();
    if (step % 10 != 9) continue;
    std::ostringstream out;
    ASSERT_OK(WriteSnapshot(db_, out));
    Database restored;
    std::istringstream in(out.str());
    ASSERT_OK(ReadSnapshot(in, &restored));
    // Same visible data, same query results, same transaction counter.
    EXPECT_EQ(restored.txn_manager().last_committed(),
              db_.txn_manager().last_committed());
    Executor original_exec(&db_);
    Executor restored_exec(&restored);
    auto a = original_exec.ExecuteUncached(
        query, db_.txn_manager().GlobalSnapshot());
    auto b = restored_exec.ExecuteUncached(
        query, restored.txn_manager().GlobalSnapshot());
    ASSERT_TRUE(a.ok() && b.ok());
    std::string diff;
    EXPECT_TRUE(a->ApproxEquals(*b, 1e-12, &diff))
        << "step " << step << " (seed " << GetParam() << "): " << diff;
    // A second-generation snapshot is byte-identical (canonical form).
    std::ostringstream out2;
    ASSERT_OK(WriteSnapshot(restored, out2));
    EXPECT_EQ(out.str(), out2.str()) << "snapshot not canonical at step "
                                     << step;
  }
}

TEST_P(RandomWorkloadTest, HavingAgreesAcrossStrategies) {
  AggregateQuery query = QueryBuilder()
                             .From("Header")
                             .Join("Item", "HeaderID", "HeaderID")
                             .GroupBy("Header", "FiscalYear")
                             .Sum("Item", "Amount", "revenue")
                             .Having(CompareOp::kGt, Value(40.0))
                             .CountStar("n")
                             .Build();
  for (int step = 0; step < 30; ++step) {
    RunOneStep();
    if (step % 6 != 5) continue;
    testing_util::ExpectAllStrategiesAgree(&db_, cache_.get(), query);
  }
}

TEST_P(RandomWorkloadTest, VisibleRowCountsConsistentAcrossMerges) {
  for (int step = 0; step < 40; ++step) {
    RunOneStep();
    Snapshot now = db_.txn_manager().GlobalSnapshot();
    EXPECT_EQ(header_->VisibleRows(now), live_headers_.size());
    EXPECT_EQ(item_->VisibleRows(now), live_items_.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorkloadTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace aggcache
