#include "query/executor.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing_util::CreateHeaderItemTables(&db_, &header_, &item_);
    // Headers 1..4 across two years, 3 items each of amount 10.
    int64_t next_item = 1;
    for (int64_t h = 1; h <= 4; ++h) {
      ASSERT_OK(testing_util::InsertBusinessObject(
          &db_, header_, item_, h, h <= 2 ? 2013 : 2014, 3, 10.0,
          &next_item));
    }
  }

  Snapshot Now() { return db_.txn_manager().GlobalSnapshot(); }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  int64_t next_item_id_ = 1000;
};

TEST_F(ExecutorTest, SingleTableAggregation) {
  AggregateQuery query = QueryBuilder()
                             .From("Header")
                             .GroupBy("Header", "FiscalYear")
                             .CountStar("n")
                             .Build();
  Executor executor(&db_);
  auto result = executor.ExecuteUncached(query, Now());
  ASSERT_TRUE(result.ok()) << result.status();
  auto rows = result->Rows({AggregateFunction::kCountStar});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<Value>{Value(int64_t{2013}),
                                         Value(int64_t{2})}));
  EXPECT_EQ(rows[1], (std::vector<Value>{Value(int64_t{2014}),
                                         Value(int64_t{2})}));
}

TEST_F(ExecutorTest, TwoTableJoinAggregation) {
  Executor executor(&db_);
  auto result =
      executor.ExecuteUncached(testing_util::HeaderItemQuery(), Now());
  ASSERT_TRUE(result.ok()) << result.status();
  auto rows = result->Rows(
      {AggregateFunction::kSum, AggregateFunction::kCountStar});
  ASSERT_EQ(rows.size(), 2u);
  // 2 headers x 3 items x 10.0 per year.
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 60.0);
  EXPECT_EQ(rows[0][2], Value(int64_t{6}));
  EXPECT_DOUBLE_EQ(rows[1][1].AsDouble(), 60.0);
}

TEST_F(ExecutorTest, JoinSpansMainAndDelta) {
  // Merge, then insert more: matches must cross the main/delta boundary.
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  Transaction txn = db_.Begin();
  // Late item for merged header 1 (2013).
  ASSERT_OK(item_->Insert(
      txn, {Value(int64_t{100}), Value(int64_t{1}), Value(5.0)}));
  Executor executor(&db_);
  auto result =
      executor.ExecuteUncached(testing_util::HeaderItemQuery(), Now());
  ASSERT_TRUE(result.ok());
  auto rows = result->Rows(
      {AggregateFunction::kSum, AggregateFunction::kCountStar});
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 65.0);
  EXPECT_EQ(rows[0][2], Value(int64_t{7}));
}

TEST_F(ExecutorTest, FiltersApply) {
  AggregateQuery query = QueryBuilder()
                             .From("Header")
                             .Join("Item", "HeaderID", "HeaderID")
                             .Filter("Header", "FiscalYear", CompareOp::kEq,
                                     Value(int64_t{2013}))
                             .GroupBy("Header", "FiscalYear")
                             .Sum("Item", "Amount", "s")
                             .Build();
  Executor executor(&db_);
  auto result = executor.ExecuteUncached(query, Now());
  ASSERT_TRUE(result.ok());
  auto rows = result->Rows({AggregateFunction::kSum});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{2013}));
}

TEST_F(ExecutorTest, SnapshotIsolation) {
  Snapshot before = Now();
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{99}), Value(int64_t{2013})}));
  AggregateQuery query = QueryBuilder()
                             .From("Header")
                             .GroupBy("Header", "FiscalYear")
                             .CountStar("n")
                             .Build();
  Executor executor(&db_);
  auto old_view = executor.ExecuteUncached(query, before);
  auto new_view = executor.ExecuteUncached(query, Now());
  ASSERT_TRUE(old_view.ok() && new_view.ok());
  auto old_rows = old_view->Rows({AggregateFunction::kCountStar});
  auto new_rows = new_view->Rows({AggregateFunction::kCountStar});
  EXPECT_EQ(old_rows[0][1], Value(int64_t{2}));
  EXPECT_EQ(new_rows[0][1], Value(int64_t{3}));
}

TEST_F(ExecutorTest, InvalidatedRowsExcluded) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{1})));
  Executor executor(&db_);
  auto result =
      executor.ExecuteUncached(testing_util::HeaderItemQuery(), Now());
  ASSERT_TRUE(result.ok());
  auto rows = result->Rows(
      {AggregateFunction::kSum, AggregateFunction::kCountStar});
  // Year 2013 lost header 1's three items.
  EXPECT_EQ(rows[0][2], Value(int64_t{3}));
}

TEST_F(ExecutorTest, ExecuteSubjoinRespectsCombination) {
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 50,
                                               2013, 2, 1.0,
                                               &next_item_id_));
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  Executor executor(&db_);

  // delta x delta sees only the new business object.
  SubjoinCombination dd = {{0, PartitionKind::kDelta},
                           {0, PartitionKind::kDelta}};
  auto dd_result = executor.ExecuteSubjoin(*bound, dd, Now());
  ASSERT_TRUE(dd_result.ok());
  auto rows = dd_result->Rows(
      {AggregateFunction::kSum, AggregateFunction::kCountStar});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][2], Value(int64_t{2}));

  // main x delta is empty (no late items).
  SubjoinCombination md = {{0, PartitionKind::kMain},
                           {0, PartitionKind::kDelta}};
  auto md_result = executor.ExecuteSubjoin(*bound, md, Now());
  ASSERT_TRUE(md_result.ok());
  EXPECT_TRUE(md_result->empty());
}

TEST_F(ExecutorTest, UnionOfSubjoinsEqualsUncached) {
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  ASSERT_OK(testing_util::InsertBusinessObject(&db_, header_, item_, 60,
                                               2014, 4, 2.0,
                                               &next_item_id_));
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  Executor executor(&db_);
  AggregateResult merged(bound->aggregates.size());
  for (const SubjoinCombination& combo :
       EnumerateAllCombinations(bound->tables)) {
    auto partial = executor.ExecuteSubjoin(*bound, combo, Now());
    ASSERT_TRUE(partial.ok());
    merged.MergeFrom(*partial);
  }
  auto uncached = executor.ExecuteUncached(query, Now());
  ASSERT_TRUE(uncached.ok());
  std::string diff;
  EXPECT_TRUE(merged.ApproxEquals(*uncached, 1e-9, &diff)) << diff;
}

TEST_F(ExecutorTest, ExtraFiltersRestrictSubjoin) {
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  Executor executor(&db_);
  SubjoinCombination dd = {{0, PartitionKind::kDelta},
                           {0, PartitionKind::kDelta}};
  std::vector<FilterPredicate> extra = {
      {0, "FiscalYear", CompareOp::kEq, Value(int64_t{2013})}};
  auto result = executor.ExecuteSubjoin(*bound, dd, Now(), extra);
  ASSERT_TRUE(result.ok());
  auto rows = result->Rows(
      {AggregateFunction::kSum, AggregateFunction::kCountStar});
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0], Value(int64_t{2013}));
}

TEST_F(ExecutorTest, FilterOpsAgreeAcrossMainAndDelta) {
  // Exercise every comparison operator against both a sorted main column
  // (code-range fast path) and an unsorted delta column (value fallback):
  // results must match a row-by-row evaluation.
  ASSERT_OK(db_.MergeTables({"Header", "Item"}));
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{50}), Value(int64_t{2015})}));
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{51}), Value(int64_t{2016})}));

  Executor executor(&db_);
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    for (int64_t operand : {2012, 2013, 2014, 2015, 2016, 2017}) {
      AggregateQuery query = QueryBuilder()
                                 .From("Header")
                                 .Filter("Header", "FiscalYear", op,
                                         Value(operand))
                                 .GroupBy("Header", "FiscalYear")
                                 .CountStar("n")
                                 .Build();
      auto result = executor.ExecuteUncached(query, Now());
      ASSERT_TRUE(result.ok());
      // Reference: count matching rows by direct evaluation.
      int64_t expected = 0;
      for (size_t g = 0; g < header_->num_groups(); ++g) {
        for (const Partition* p : {&header_->group(g).main,
                                   &header_->group(g).delta}) {
          for (size_t r = 0; r < p->num_rows(); ++r) {
            if (!Now().RowVisible(p->create_tid(r), p->invalidate_tid(r))) {
              continue;
            }
            if (EvalCompare(op, p->column(1).GetValue(r), Value(operand))) {
              ++expected;
            }
          }
        }
      }
      int64_t actual = 0;
      for (const auto& [key, entry] : result->groups()) {
        actual += entry.count_star;
      }
      EXPECT_EQ(actual, expected)
          << CompareOpToString(op) << " " << operand;
    }
  }
}

TEST_F(ExecutorTest, StatsCountWork) {
  Executor executor(&db_);
  ExecutorStats snapshot;
  auto result = executor.ExecuteUncached(testing_util::HeaderItemQuery(),
                                         Now(), &snapshot);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(snapshot.subjoins_executed, 4u);
  EXPECT_GT(snapshot.rows_scanned, 0u);
  EXPECT_EQ(snapshot.tuples_joined, 12u);  // All items join.
}

TEST_F(ExecutorTest, CombinationArityMismatchRejected) {
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto bound = BoundQuery::Bind(db_, query);
  ASSERT_TRUE(bound.ok());
  Executor executor(&db_);
  SubjoinCombination wrong = {{0, PartitionKind::kMain}};
  EXPECT_FALSE(executor.ExecuteSubjoin(*bound, wrong, Now()).ok());
}

}  // namespace
}  // namespace aggcache
