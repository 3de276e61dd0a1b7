#include "objectaware/predicate_pushdown.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class PredicatePushdownTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    // 10 merged business objects, then 3 new ones and one late item so the
    // Header_main x Item_delta subjoin is non-prunable.
    for (int64_t h = 1; h <= 10; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2013, 2, 1.0, &next_item_id_));
    }
    ASSERT_OK(db_.MergeTables({"Header", "Item"}));
    for (int64_t h = 11; h <= 13; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, 2013, 2, 1.0, &next_item_id_));
    }
    Transaction txn = db_.Begin();
    ASSERT_OK(item_->Insert(
        txn, {Value(next_item_id_++), Value(int64_t{10}), Value(1.0)}));
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

TEST_F(PredicatePushdownTest, DerivesRangeFiltersAcrossMainDelta) {
  BoundQuery bound = Bind();
  SubjoinCombination main_delta = {{0, PartitionKind::kMain},
                                   {0, PartitionKind::kDelta}};
  std::vector<FilterPredicate> filters =
      DerivePushdownFilters(bound, main_delta);
  // One MD edge crossing main/delta: two bounds per side.
  ASSERT_EQ(filters.size(), 4u);
  for (const FilterPredicate& f : filters) {
    EXPECT_EQ(f.column, "tid_Header");
    EXPECT_TRUE(f.op == CompareOp::kGe || f.op == CompareOp::kLe);
  }
  // The Header-side filter restricts to the delta's tid range.
  const Dictionary& delta_tids =
      item_->group(0).delta.column(2).dictionary();
  bool found_ge = false;
  for (const FilterPredicate& f : filters) {
    if (f.table_index == 0 && f.op == CompareOp::kGe) {
      EXPECT_EQ(f.operand, delta_tids.min_value());
      found_ge = true;
    }
  }
  EXPECT_TRUE(found_ge);
}

TEST_F(PredicatePushdownTest, NoFiltersForSameKindPairs) {
  BoundQuery bound = Bind();
  SubjoinCombination delta_delta = {{0, PartitionKind::kDelta},
                                    {0, PartitionKind::kDelta}};
  EXPECT_TRUE(DerivePushdownFilters(bound, delta_delta).empty());
  SubjoinCombination main_main = {{0, PartitionKind::kMain},
                                  {0, PartitionKind::kMain}};
  EXPECT_TRUE(DerivePushdownFilters(bound, main_main).empty());
}

TEST_F(PredicatePushdownTest, NoFiltersWhenSideEmpty) {
  // Fresh database: deltas empty.
  Database db;
  Table* h = nullptr;
  Table* i = nullptr;
  testing_util::CreateHeaderItemTables(&db, &h, &i);
  auto bound = BoundQuery::Bind(db, query_);
  ASSERT_TRUE(bound.ok());
  SubjoinCombination main_delta = {{0, PartitionKind::kMain},
                                   {0, PartitionKind::kDelta}};
  EXPECT_TRUE(DerivePushdownFilters(*bound, main_delta).empty());
}

TEST_F(PredicatePushdownTest, PushdownPreservesSubjoinResult) {
  BoundQuery bound = Bind();
  Executor executor(&db_);
  Snapshot now = db_.txn_manager().GlobalSnapshot();
  for (const SubjoinCombination& combo :
       EnumerateAllCombinations(bound.tables)) {
    std::vector<FilterPredicate> filters =
        DerivePushdownFilters(bound, combo);
    auto plain = executor.ExecuteSubjoin(bound, combo, now);
    auto pushed = executor.ExecuteSubjoin(bound, combo, now, filters);
    ASSERT_TRUE(plain.ok() && pushed.ok());
    std::string diff;
    EXPECT_TRUE(plain->ApproxEquals(*pushed, 1e-9, &diff))
        << CombinationToString(combo) << ": " << diff;
  }
}

TEST_F(PredicatePushdownTest, PushdownReducesScannedRows) {
  BoundQuery bound = Bind();
  Snapshot now = db_.txn_manager().GlobalSnapshot();
  // Header_delta x Item_main: only one late item in main matches; the
  // pushdown bounds Item_main's hash-build input by the delta tid range.
  SubjoinCombination delta_main = {{0, PartitionKind::kDelta},
                                   {0, PartitionKind::kMain}};
  Executor executor(&db_);
  ExecutorStats plain_stats;
  auto plain = executor.ExecuteSubjoin(bound, delta_main, now, {},
                                       /*restriction=*/nullptr, &plain_stats);
  ASSERT_TRUE(plain.ok());

  ExecutorStats pushed_stats;
  std::vector<FilterPredicate> filters =
      DerivePushdownFilters(bound, delta_main);
  auto pushed = executor.ExecuteSubjoin(bound, delta_main, now, filters,
                                        /*restriction=*/nullptr,
                                        &pushed_stats);
  ASSERT_TRUE(pushed.ok());
  EXPECT_LT(pushed_stats.rows_selected, plain_stats.rows_selected);
}

}  // namespace
}  // namespace aggcache
