#include "storage/delta_merge.h"
#include "tests/reference_merge.h"

#include "gtest/gtest.h"
#include "storage/database.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

using testing_util::CreateHeaderItemTables;

class DeltaMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateHeaderItemTables(&db_, &header_, &item_);
    for (int64_t h = 1; h <= 10; ++h) {
      Transaction txn = db_.Begin();
      ASSERT_OK(header_->Insert(txn, {Value(h), Value(int64_t{2013})}));
    }
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
};

TEST_F(DeltaMergeTest, MovesDeltaRowsIntoMain) {
  EXPECT_EQ(header_->group(0).delta.num_rows(), 10u);
  EXPECT_EQ(header_->group(0).main.num_rows(), 0u);
  ASSERT_OK(db_.Merge("Header"));
  EXPECT_EQ(header_->group(0).delta.num_rows(), 0u);
  EXPECT_EQ(header_->group(0).main.num_rows(), 10u);
  // Data preserved, pk index rebuilt to main locations.
  auto loc = header_->FindByPk(Value(int64_t{3}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->kind, PartitionKind::kMain);
  EXPECT_EQ(header_->ValueAt(*loc, 1), Value(int64_t{2013}));
}

TEST_F(DeltaMergeTest, MainDictionariesAreSorted) {
  ASSERT_OK(db_.Merge("Header"));
  const Dictionary& dict =
      header_->group(0).main.column(0).dictionary();
  EXPECT_EQ(dict.mode(), Dictionary::Mode::kSortedMain);
  EXPECT_EQ(dict.min_value(), Value(int64_t{1}));
  EXPECT_EQ(dict.max_value(), Value(int64_t{10}));
  for (size_t i = 1; i < dict.size(); ++i) {
    EXPECT_TRUE(dict.value(i - 1) < dict.value(i));
  }
}

TEST_F(DeltaMergeTest, CreateTidsSurviveMerge) {
  Tid first_tid = header_->group(0).delta.create_tid(0);
  ASSERT_OK(db_.Merge("Header"));
  EXPECT_EQ(header_->group(0).main.create_tid(0), first_tid);
}

TEST_F(DeltaMergeTest, DropsInvalidatedRowsByDefault) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{5})));
  ASSERT_OK(db_.Merge("Header"));
  EXPECT_EQ(header_->group(0).main.num_rows(), 9u);
  EXPECT_FALSE(header_->FindByPk(Value(int64_t{5})).has_value());
  EXPECT_EQ(header_->MainInvalidationCount(), 0u);
}

TEST_F(DeltaMergeTest, KeepInvalidatedRetainsHistory) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn, Value(int64_t{5})));
  MergeOptions options;
  options.keep_invalidated = true;
  ASSERT_OK(db_.Merge("Header", options));
  EXPECT_EQ(header_->group(0).main.num_rows(), 10u);
  EXPECT_EQ(header_->MainInvalidationCount(), 1u);
  // Visible count excludes the historical row; the pk index does too.
  EXPECT_EQ(header_->VisibleRows(db_.txn_manager().GlobalSnapshot()), 9u);
  EXPECT_FALSE(header_->FindByPk(Value(int64_t{5})).has_value());
  // An old snapshot can still see the deleted row (temporal queries).
  EXPECT_EQ(header_->VisibleRows(Snapshot{txn.tid() - 1}), 10u);
}

TEST_F(DeltaMergeTest, SecondMergeAppendsNewDelta) {
  ASSERT_OK(db_.Merge("Header"));
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{11}), Value(int64_t{2014})}));
  ASSERT_OK(db_.Merge("Header"));
  EXPECT_EQ(header_->group(0).main.num_rows(), 11u);
  EXPECT_EQ(header_->group(0).delta.num_rows(), 0u);
}

TEST_F(DeltaMergeTest, UpdateInMainThenMerge) {
  ASSERT_OK(db_.Merge("Header"));
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->UpdateByPk(txn, Value(int64_t{2}),
                                {Value(int64_t{2}), Value(int64_t{2020})}));
  EXPECT_EQ(header_->MainInvalidationCount(), 1u);
  ASSERT_OK(db_.Merge("Header"));
  EXPECT_EQ(header_->group(0).main.num_rows(), 10u);
  auto loc = header_->FindByPk(Value(int64_t{2}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(header_->ValueAt(*loc, 1), Value(int64_t{2020}));
}

TEST_F(DeltaMergeTest, GroupIndexOutOfRange) {
  MergeOptions options;
  EXPECT_EQ(MergeTableGroup(*header_, 5, options).code(),
            StatusCode::kOutOfRange);
}

TEST(MainPartitionBuilderTest, BuildsEmptyPartition) {
  TableSchema schema = SchemaBuilder("T")
                           .AddColumn("a", ColumnType::kInt64)
                           .Build();
  MainPartitionBuilder builder(schema);
  Partition main = builder.Build();
  EXPECT_EQ(main.num_rows(), 0u);
  EXPECT_EQ(main.kind(), PartitionKind::kMain);
}

}  // namespace
}  // namespace aggcache
