#include "objectaware/join_pruning.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class JoinPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
  }

  void LoadAndMerge(int64_t num_objects) {
    for (int64_t h = 1; h <= num_objects; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2013, 2, 1.0, &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  }

  BoundQuery Bind() {
    auto bound = BoundQuery::Bind(db_, query_);
    AGGCACHE_CHECK(bound.ok());
    return std::move(bound).value();
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
  AggregateQuery query_ = testing_util::HeaderItemQuery();
};

TEST_F(JoinPruningTest, LevelNoneNeverPrunes) {
  LoadAndMerge(3);
  BoundQuery bound = Bind();
  JoinPruner pruner(&db_, PruneLevel::kNone);
  for (const SubjoinCombination& combo :
       EnumerateCompensationCombinations(bound.tables)) {
    EXPECT_FALSE(pruner.ShouldPrune(bound, combo).pruned);
  }
  EXPECT_EQ(pruner.stats().total_pruned(), 0u);
}

TEST_F(JoinPruningTest, EmptyPartitionPruning) {
  LoadAndMerge(3);  // Deltas now empty.
  BoundQuery bound = Bind();
  JoinPruner pruner(&db_, PruneLevel::kEmptyPartitions);
  // All three compensation combos involve an empty delta.
  for (const SubjoinCombination& combo :
       EnumerateCompensationCombinations(bound.tables)) {
    PruneDecision decision = pruner.ShouldPrune(bound, combo);
    EXPECT_TRUE(decision.pruned);
    EXPECT_EQ(decision.reason, "empty-partition");
  }
  EXPECT_EQ(pruner.stats().pruned_empty, 3u);
}

TEST_F(JoinPruningTest, TidRangePruningAfterTransactionalInserts) {
  LoadAndMerge(5);
  // New business objects: matching rows are all in the deltas.
  for (int64_t h = 6; h <= 8; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, h,
                                                 2013, 2, 1.0,
                                                 &next_item_id_));
  }
  BoundQuery bound = Bind();
  JoinPruner pruner(&db_, PruneLevel::kFull);

  SubjoinCombination main_delta = {{0, PartitionKind::kMain},
                                   {0, PartitionKind::kDelta}};
  SubjoinCombination delta_main = {{0, PartitionKind::kDelta},
                                   {0, PartitionKind::kMain}};
  SubjoinCombination delta_delta = {{0, PartitionKind::kDelta},
                                    {0, PartitionKind::kDelta}};
  EXPECT_TRUE(pruner.ShouldPrune(bound, main_delta).pruned);
  EXPECT_EQ(pruner.ShouldPrune(bound, main_delta).reason, "tid-range");
  EXPECT_TRUE(pruner.ShouldPrune(bound, delta_main).pruned);
  // delta x delta contains the matches and must not be pruned.
  EXPECT_FALSE(pruner.ShouldPrune(bound, delta_delta).pruned);
}

TEST_F(JoinPruningTest, LateItemPreventsPruning) {
  LoadAndMerge(5);
  // A late item referencing a merged header: Header_main x Item_delta is
  // now non-empty and the tid ranges overlap.
  Transaction txn = db_.Begin();
  ASSERT_OK(item_->Insert(
      txn, {Value(next_item_id_++), Value(int64_t{2}), Value(1.0)}));
  BoundQuery bound = Bind();
  JoinPruner pruner(&db_, PruneLevel::kFull);
  SubjoinCombination main_delta = {{0, PartitionKind::kMain},
                                   {0, PartitionKind::kDelta}};
  EXPECT_FALSE(pruner.ShouldPrune(bound, main_delta).pruned);
  // The reverse side stays prunable: Header_delta is empty.
  SubjoinCombination delta_main = {{0, PartitionKind::kDelta},
                                   {0, PartitionKind::kMain}};
  EXPECT_TRUE(pruner.ShouldPrune(bound, delta_main).pruned);
}

TEST_F(JoinPruningTest, PaperFigure5Scenario) {
  // Reproduce Fig. 5: header merged before item would leave matching
  // tuples split across Header_main/Item_delta... here we emulate the
  // asymmetric state by merging only the Header table.
  LoadAndMerge(3);
  for (int64_t h = 4; h <= 5; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, h,
                                                 2013, 2, 1.0,
                                                 &next_item_id_));
  }
  ASSERT_OK(db_.Merge("Header"));  // Item delta still holds items 4..5.
  BoundQuery bound = Bind();
  JoinPruner pruner(&db_, PruneLevel::kFull);
  // Header_main x Item_delta cannot be pruned: the merged headers 4,5 match
  // delta items.
  SubjoinCombination main_delta = {{0, PartitionKind::kMain},
                                   {0, PartitionKind::kDelta}};
  EXPECT_FALSE(pruner.ShouldPrune(bound, main_delta).pruned);
  // Header_delta is empty -> prunable.
  SubjoinCombination delta_main = {{0, PartitionKind::kDelta},
                                   {0, PartitionKind::kMain}};
  EXPECT_TRUE(pruner.ShouldPrune(bound, delta_main).pruned);
}

TEST_F(JoinPruningTest, PrunedSubjoinsAreActuallyEmpty) {
  // Soundness: every pruned combination, when executed anyway, yields an
  // empty result. Exercise a mixed state: merge, add objects, add a late
  // item, merge one table only.
  LoadAndMerge(4);
  for (int64_t h = 5; h <= 7; ++h) {
    ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, h,
                                                 2013, 2, 1.0,
                                                 &next_item_id_));
  }
  Transaction txn = db_.Begin();
  ASSERT_OK(item_->Insert(
      txn, {Value(next_item_id_++), Value(int64_t{1}), Value(1.0)}));
  ASSERT_OK(db_.Merge("Item"));

  BoundQuery bound = Bind();
  JoinPruner pruner(&db_, PruneLevel::kFull);
  Executor executor(&db_);
  Snapshot now = db_.txn_manager().GlobalSnapshot();
  size_t pruned = 0;
  for (const SubjoinCombination& combo :
       EnumerateAllCombinations(bound.tables)) {
    if (!pruner.ShouldPrune(bound, combo).pruned) continue;
    ++pruned;
    auto result = executor.ExecuteSubjoin(bound, combo, now);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->empty()) << CombinationToString(combo);
  }
  EXPECT_GT(pruned, 0u);
}

TEST_F(JoinPruningTest, AgingGroupPruning) {
  LoadAndMerge(10);
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{6})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{6})));
  db_.RegisterAgingGroup({"Header", "Item"});
  BoundQuery bound = Bind();
  JoinPruner pruner(&db_, PruneLevel::kFull);
  // Hot header main x cold item main: logically pruned via aging group.
  SubjoinCombination cross = {{0, PartitionKind::kMain},
                              {1, PartitionKind::kMain}};
  PruneDecision decision = pruner.ShouldPrune(bound, cross);
  EXPECT_TRUE(decision.pruned);
  EXPECT_EQ(decision.reason, "aging-group");
  // Same temperature not pruned by rule 2 (and not by tid ranges, since
  // matching rows live there).
  SubjoinCombination hot_hot = {{0, PartitionKind::kMain},
                                {0, PartitionKind::kMain}};
  EXPECT_FALSE(pruner.ShouldPrune(bound, hot_hot).pruned);
}

TEST_F(JoinPruningTest, NoAgingGroupNoLogicalPruning) {
  LoadAndMerge(10);
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{6})));
  ASSERT_OK(item_->SplitHotCold("HeaderID", Value(int64_t{6})));
  // No RegisterAgingGroup: rule 2 must not fire; tid ranges still prune
  // cross-temperature mains because the split is tid-correlated here.
  BoundQuery bound = Bind();
  JoinPruner pruner(&db_, PruneLevel::kFull);
  SubjoinCombination cross = {{0, PartitionKind::kMain},
                              {1, PartitionKind::kMain}};
  PruneDecision decision = pruner.ShouldPrune(bound, cross);
  EXPECT_TRUE(decision.pruned);
  EXPECT_EQ(decision.reason, "tid-range");
}

TEST_F(JoinPruningTest, TidRangesDisjointHelper) {
  LoadAndMerge(2);
  const Partition& main = header_->group(0).main;
  const Partition& delta = header_->group(0).delta;
  // Empty delta: disjoint by definition.
  EXPECT_TRUE(TidRangesDisjoint(main, 2, delta, 2));
  EXPECT_TRUE(TidRangesDisjoint(delta, 2, main, 2));
  // A partition is never disjoint with itself when non-empty.
  EXPECT_FALSE(TidRangesDisjoint(main, 2, main, 2));
}

TEST_F(JoinPruningTest, LevelNames) {
  EXPECT_STREQ(PruneLevelToString(PruneLevel::kNone), "none");
  EXPECT_STREQ(PruneLevelToString(PruneLevel::kEmptyPartitions),
               "empty-partitions");
  EXPECT_STREQ(PruneLevelToString(PruneLevel::kFull), "full");
}

}  // namespace
}  // namespace aggcache
