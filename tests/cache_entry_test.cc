#include "cache/cache_entry.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class CacheEntryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    for (int64_t h = 1; h <= 4; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2013, 2, 1.0, &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    query_ = testing_util::HeaderItemQuery();
  }

  // Entries never move (their binding points at their own query), so each
  // test constructs one in place and fills its snapshots here.
  void TakeSnapshots(CacheEntry& entry) {
    entry.snapshots().resize(2);
    for (size_t t = 0; t < 2; ++t) {
      const Partition& main = entry.bound().tables[t]->group(0).main;
      entry.snapshots()[t].resize(1);
      entry.snapshots()[t][0].visibility = BitVector(main.num_rows(), true);
      entry.snapshots()[t][0].row_count = main.num_rows();
      entry.snapshots()[t][0].invalidation_count =
          main.invalidation_count();
    }
  }

  BoundQuery Bind() {
    auto bound = BoundQuery::Bind(db_, query_);
    AGGCACHE_CHECK(bound.ok()) << bound.status().ToString();
    return std::move(bound).value();
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1;
  AggregateQuery query_;
};

TEST_F(CacheEntryTest, CleanEntryIsNotDirty) {
  CacheEntry entry(MakeCacheKey(query_), Bind());
  TakeSnapshots(entry);
  EXPECT_FALSE(entry.IsDirty());
  EXPECT_TRUE(entry.ShapeMatches());
}

TEST_F(CacheEntryTest, InvalidationMakesEntryDirty) {
  CacheEntry entry(MakeCacheKey(query_), Bind());
  TakeSnapshots(entry);
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{1})));
  EXPECT_TRUE(entry.IsDirty());
  // The shape still matches (row counts unchanged by invalidation).
  EXPECT_TRUE(entry.ShapeMatches());
}

TEST_F(CacheEntryTest, DeltaInsertsDoNotDirtyTheEntry) {
  CacheEntry entry(MakeCacheKey(query_), Bind());
  TakeSnapshots(entry);
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 9,
                                               2014, 2, 1.0,
                                               &next_item_id_));
  // The aggregate cache never goes stale from inserts: they live in the
  // delta, outside the cached extent.
  EXPECT_FALSE(entry.IsDirty());
  EXPECT_TRUE(entry.ShapeMatches());
}

TEST_F(CacheEntryTest, MergeChangesShape) {
  CacheEntry entry(MakeCacheKey(query_), Bind());
  TakeSnapshots(entry);
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 9,
                                               2014, 2, 1.0,
                                               &next_item_id_));
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  EXPECT_FALSE(entry.ShapeMatches());
}

TEST_F(CacheEntryTest, SplitChangesShape) {
  CacheEntry entry(MakeCacheKey(query_), Bind());
  TakeSnapshots(entry);
  ASSERT_OK(header_->SplitHotCold("HeaderID", Value(int64_t{3})));
  EXPECT_FALSE(entry.ShapeMatches());
}

TEST_F(CacheEntryTest, PublishMainResultUnionsPartials) {
  CacheEntry entry(MakeCacheKey(query_), Bind());
  TakeSnapshots(entry);
  AggregateResult a(2);
  a.Accumulate(GroupKey{{Value(int64_t{1})}},
               {Value(int64_t{10}), Value(int64_t{0})});
  AggregateResult b(2);
  b.Accumulate(GroupKey{{Value(int64_t{1})}},
               {Value(int64_t{5}), Value(int64_t{0})});
  b.Accumulate(GroupKey{{Value(int64_t{2})}},
               {Value(int64_t{7}), Value(int64_t{0})});
  entry.main_partials()[{{0, PartitionKind::kMain},
                         {0, PartitionKind::kMain}}] = std::move(a);
  entry.main_partials()[{{1, PartitionKind::kMain},
                         {0, PartitionKind::kMain}}] = std::move(b);
  EXPECT_TRUE(entry.main_result().empty());  // Nothing published yet.
  entry.PublishMainResult();
  const AggregateResult& merged = entry.main_result();
  EXPECT_EQ(merged.num_groups(), 2u);
  auto rows =
      merged.Rows({AggregateFunction::kSum, AggregateFunction::kCountStar});
  EXPECT_EQ(rows[0][1], Value(int64_t{15}));
  EXPECT_EQ(rows[0][2], Value(int64_t{2}));
  EXPECT_EQ(rows[1][1], Value(int64_t{7}));
}

TEST_F(CacheEntryTest, PublishMainResultCountsResultPartialsAndSnapshots) {
  CacheEntry entry(MakeCacheKey(query_), Bind());
  TakeSnapshots(entry);
  entry.PublishMainResult();
  size_t baseline = entry.metrics().size_bytes;
  EXPECT_GT(baseline, 0u);
  AggregateResult big(2);
  for (int64_t g = 0; g < 200; ++g) {
    big.Accumulate(GroupKey{{Value(g)}}, {Value(g), Value(g)});
  }
  size_t partial_bytes = big.ByteSize();
  entry.main_partials()[{{0, PartitionKind::kMain},
                         {0, PartitionKind::kMain}}] = std::move(big);
  entry.PublishMainResult();
  // The partial and the published union of it both count.
  EXPECT_GE(entry.metrics().size_bytes,
            baseline + partial_bytes + entry.main_result().ByteSize());
}

TEST_F(CacheEntryTest, MetricsProfitModel) {
  CacheEntryMetrics metrics;
  metrics.main_exec_ms = 100.0;
  metrics.size_bytes = 1000;
  // Unused entry: profit = one saved execution.
  EXPECT_DOUBLE_EQ(metrics.Profit(), 100.0);
  // Used twice with cheap compensation: profit grows.
  metrics.hit_count = 2;
  metrics.total_delta_comp_ms = 10.0;
  metrics.delta_comp_count = 2;
  EXPECT_DOUBLE_EQ(metrics.AvgDeltaCompMs(), 5.0);
  EXPECT_DOUBLE_EQ(metrics.Profit(), (100.0 - 5.0) * 3);
  // Maintenance cost reduces profit.
  metrics.maintenance_ms = 85.0;
  EXPECT_DOUBLE_EQ(metrics.Profit(), (100.0 - 5.0) * 3 - 85.0);
}

}  // namespace
}  // namespace aggcache
