#include "cache/compensation.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class CompensationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    for (int64_t h = 1; h <= 6; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, h <= 3 ? 2013 : 2014, 2, 10.0,
          &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    // Two new business objects in the deltas.
    for (int64_t h = 7; h <= 8; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2014, 2, 5.0, &next_item_id_));
    }
  }

  Snapshot Now() { return db_.txn_manager().GlobalSnapshot(); }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
};

TEST_F(CompensationTest, DeltaCompensationCompletesTheCachedResult) {
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  Executor executor(&db_);

  // Cached part: the all-main subjoin.
  SubjoinCombination all_main = {{0, PartitionKind::kMain},
                                 {0, PartitionKind::kMain}};
  auto cached = executor.ExecuteSubjoin(*bound, all_main, Now());
  ASSERT_TRUE(cached.ok());

  JoinPruner pruner(&db_, PruneLevel::kFull);
  ExecutorStats stats;
  auto delta = DeltaCompensate(executor, *bound, pruner,
                               /*use_pushdown=*/false, Now(), &stats);
  ASSERT_TRUE(delta.ok());

  AggregateResult combined = *cached;
  combined.MergeFrom(*delta);
  auto uncached = executor.ExecuteUncached(query, Now());
  ASSERT_TRUE(uncached.ok());
  std::string diff;
  EXPECT_TRUE(combined.ApproxEquals(*uncached, 1e-9, &diff)) << diff;

  // Stats add up: 3 compensation combos considered, 2 prunable (perfect
  // temporal locality), 1 executed.
  EXPECT_EQ(pruner.stats().considered, 3u);
  EXPECT_EQ(pruner.stats().total_pruned(), 2u);
  EXPECT_EQ(stats.subjoins_executed, 1u);
}

TEST_F(CompensationTest, PushdownDoesNotChangeDeltaCompensation) {
  // Add a late item so a main x delta subjoin survives pruning.
  Transaction txn = db_.Begin();
  ASSERT_OK(item_->Insert(
      txn, {Value(next_item_id_++), Value(int64_t{1}), Value(3.0)}));

  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  Executor executor(&db_);

  JoinPruner pruner_a(&db_, PruneLevel::kFull);
  auto plain = DeltaCompensate(executor, *bound, pruner_a, false,
                               Now(), nullptr);
  JoinPruner pruner_b(&db_, PruneLevel::kFull);
  auto pushed = DeltaCompensate(executor, *bound, pruner_b, true,
                                Now(), nullptr);
  ASSERT_TRUE(plain.ok() && pushed.ok());
  std::string diff;
  EXPECT_TRUE(plain->ApproxEquals(*pushed, 1e-9, &diff)) << diff;
}

TEST_F(CompensationTest, RestrictedSubjoinSeesOnlyGivenRows) {
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  Executor executor(&db_);
  SubjoinCombination all_main = {{0, PartitionKind::kMain},
                                 {0, PartitionKind::kMain}};
  // Restrict Header to its first main row: only that header's items join.
  Executor::RowRestriction restriction;
  restriction.rows.resize(2);
  restriction.rows[0] = std::vector<uint32_t>{0};
  auto result = executor.ExecuteSubjoin(*bound, all_main, Now(), {},
                                        &restriction);
  ASSERT_TRUE(result.ok());
  int64_t total = 0;
  for (const auto& [key, entry] : result->groups()) {
    total += entry.count_star;
  }
  EXPECT_EQ(total, 2);  // Two items per header.
}

TEST_F(CompensationTest, RestrictionBypassesVisibilityWhenAsked) {
  // Delete a header in main; under the current snapshot it is invisible,
  // but a restriction to it still joins it (the negative-delta correction
  // case): restricted rows skip the visibility check.
  Transaction txn = db_.Begin();
  auto loc = header_->FindByPk(Value(int64_t{2}));
  ASSERT_TRUE(loc.has_value());
  uint32_t deleted_row = loc->row;
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{2})));

  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  Executor executor(&db_);
  SubjoinCombination all_main = {{0, PartitionKind::kMain},
                                 {0, PartitionKind::kMain}};

  Executor::RowRestriction restriction;
  restriction.rows.resize(2);
  restriction.rows[0] = std::vector<uint32_t>{deleted_row};
  auto visible = executor.ExecuteSubjoin(*bound, all_main, Now(), {},
                                         &restriction);
  ASSERT_TRUE(visible.ok());
  EXPECT_FALSE(visible->empty());
}

}  // namespace
}  // namespace aggcache
