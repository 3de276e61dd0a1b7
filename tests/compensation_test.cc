#include "cache/compensation.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"
#include "workload/erp_generator.h"

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
                               /*use_pushdown=*/false, Now(),
                               /*memo=*/nullptr, &stats);
  ASSERT_TRUE(delta.ok());

  AggregateResult combined = *cached;
  combined.MergeFrom(delta->result);
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
                               Now(), /*memo=*/nullptr, nullptr);
  JoinPruner pruner_b(&db_, PruneLevel::kFull);
  auto pushed = DeltaCompensate(executor, *bound, pruner_b, true,
                                Now(), /*memo=*/nullptr, nullptr);
  ASSERT_TRUE(plain.ok() && pushed.ok());
  std::string diff;
  EXPECT_TRUE(plain->result.ApproxEquals(pushed->result, 1e-9, &diff))
      << diff;
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

// The delta memo's work on the ERP schema (Header x Item x ProductCategory),
// unfiltered so every planned subjoin scans all of its tables.
class DeltaMemoCountTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ErpConfig config;
    config.num_headers_main = 200;
    config.num_categories = 10;
    ASSERT_OK_AND_ASSIGN(ErpDataset dataset, ErpDataset::Create(&db_, config));
    dataset_.emplace(std::move(dataset));
    query_ = QueryBuilder()
                 .From("Header")
                 .Join("Item", "HeaderID", "HeaderID")
                 .Join("ProductCategory", "CategoryID", "CategoryID")
                 .GroupBy("ProductCategory", "Name")
                 .Sum("Item", "Price", "Revenue")
                 .Build();
    ASSERT_OK_AND_ASSIGN(bound_, BoundQuery::Bind(db_, query_));
  }

  StatusOr<DeltaCompensation> Compensate(const DeltaMemo* memo,
                                         ExecutorStats* stats,
                                         PruneStats* prune) {
    JoinPruner pruner(&db_, PruneLevel::kFull);
    auto comp = DeltaCompensate(executor_, bound_, pruner,
                                /*use_pushdown=*/false,
                                db_.txn_manager().GlobalSnapshot(), memo,
                                stats);
    *prune = pruner.stats();
    return comp;
  }

  /// Inserts `objects` business objects; returns their item count.
  size_t InsertObjects(int objects) {
    size_t items = 0;
    for (int i = 0; i < objects; ++i) {
      auto inserted = dataset_->InsertBusinessObject(rng_);
      EXPECT_TRUE(inserted.ok());
      items += inserted.ok() ? *inserted : 0;
    }
    return items;
  }

  Database db_;
  std::optional<ErpDataset> dataset_;
  AggregateQuery query_;
  BoundQuery bound_;
  Executor executor_{&db_};
  Rng rng_{11};
};

TEST_F(DeltaMemoCountTest, WarmHitScansOnlyNewObjectsAndTheDimensionMain) {
  InsertObjects(20);
  ExecutorStats cold_stats;
  PruneStats prune;
  ASSERT_OK_AND_ASSIGN(DeltaCompensation cold,
                       Compensate(nullptr, &cold_stats, &prune));
  ASSERT_TRUE(cold.publish.has_value() && *cold.publish != nullptr);
  std::shared_ptr<const DeltaMemo> memo = *cold.publish;

  const int kNewObjects = 3;
  const size_t new_items = InsertObjects(kNewObjects);
  ExecutorStats stats;
  ASSERT_OK_AND_ASSIGN(DeltaCompensation warm,
                       Compensate(memo.get(), &stats, &prune));
  EXPECT_TRUE(warm.memo_used);
  // One subjoin runs, new headers x new items x category main; Eq. 5 on
  // the row ranges prunes every other combination with a new range.
  EXPECT_EQ(stats.subjoins_executed, 1u);
  EXPECT_EQ(stats.rows_scanned,
            kNewObjects + new_items +
                dataset_->category()->group(0).main.num_rows());
  EXPECT_EQ(prune.considered, 5u);
  EXPECT_LT(stats.rows_scanned, cold_stats.rows_scanned);

  // main x main plus the memo-backed compensation is the full answer.
  SubjoinCombination all_main(3, PartitionRef{0, PartitionKind::kMain});
  auto main = executor_.ExecuteSubjoin(bound_, all_main,
                                       db_.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(main.ok());
  AggregateResult combined = *main;
  combined.MergeFrom(warm.result);
  auto uncached = executor_.ExecuteUncached(
      query_, db_.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(uncached.ok());
  std::string diff;
  EXPECT_TRUE(combined.ApproxEquals(*uncached, 1e-9, &diff)) << diff;

  // Nothing new since: no combination is even considered.
  ASSERT_TRUE(warm.publish.has_value() && *warm.publish != nullptr);
  ExecutorStats clean;
  ASSERT_OK_AND_ASSIGN(DeltaCompensation repeat,
                       Compensate(warm.publish->get(), &clean, &prune));
  EXPECT_TRUE(repeat.memo_used);
  EXPECT_FALSE(repeat.publish.has_value());
  EXPECT_EQ(prune.considered, 0u);
  EXPECT_EQ(clean.rows_scanned, 0u);
}

TEST_F(DeltaMemoCountTest, CleanHitOverEmptyDeltasConsidersNothing) {
  ExecutorStats stats;
  PruneStats prune;
  ASSERT_OK_AND_ASSIGN(DeltaCompensation cold,
                       Compensate(nullptr, &stats, &prune));
  EXPECT_EQ(prune.considered, 7u);  // The first read plans every one.
  ASSERT_TRUE(cold.publish.has_value());
  ASSERT_OK_AND_ASSIGN(DeltaCompensation warm,
                       Compensate(cold.publish->get(), &stats, &prune));
  EXPECT_TRUE(warm.memo_used);
  EXPECT_EQ(prune.considered, 0u);
  EXPECT_TRUE(warm.result.empty());
}

}  // namespace
}  // namespace aggcache
