#include "storage/table.h"

#include <limits>
#include <string>

#include "gtest/gtest.h"
#include "storage/database.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

using testing_util::CreateHeaderItemTables;

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateHeaderItemTables(&db_, &header_, &item_);
    ASSERT_NE(header_, nullptr);
    ASSERT_NE(item_, nullptr);
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
};

TEST_F(TableTest, InsertFillsOwnTid) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{1}), Value(int64_t{2013})}));
  auto loc = header_->FindByPk(Value(int64_t{1}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(loc->kind, PartitionKind::kDelta);
  // Columns: HeaderID, FiscalYear, tid_Header.
  EXPECT_EQ(header_->ValueAt(*loc, 2),
            Value(static_cast<int64_t>(txn.tid())));
}

TEST_F(TableTest, InsertEnforcesMatchingDependency) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{7}), Value(int64_t{2014})}));
  ASSERT_OK(item_->Insert(
      txn, {Value(int64_t{100}), Value(int64_t{7}), Value(9.5)}));
  auto loc = item_->FindByPk(Value(int64_t{100}));
  ASSERT_TRUE(loc.has_value());
  // Columns: ItemID, HeaderID, tid_Header, Amount, tid_Item.
  EXPECT_EQ(item_->ValueAt(*loc, 2),
            Value(static_cast<int64_t>(txn.tid())));
  EXPECT_EQ(item_->ValueAt(*loc, 4),
            Value(static_cast<int64_t>(txn.tid())));
}

TEST_F(TableTest, MdTidDiffersWhenHeaderInsertedEarlier) {
  Transaction txn1 = db_.Begin();
  ASSERT_OK(header_->Insert(txn1, {Value(int64_t{1}), Value(int64_t{2010})}));
  Transaction txn2 = db_.Begin();
  ASSERT_OK(item_->Insert(
      txn2, {Value(int64_t{10}), Value(int64_t{1}), Value(1.0)}));
  auto loc = item_->FindByPk(Value(int64_t{10}));
  ASSERT_TRUE(loc.has_value());
  // tid_Header carries the header's (earlier) tid, not the item's.
  EXPECT_EQ(item_->ValueAt(*loc, 2),
            Value(static_cast<int64_t>(txn1.tid())));
  EXPECT_EQ(item_->ValueAt(*loc, 4),
            Value(static_cast<int64_t>(txn2.tid())));
}

TEST_F(TableTest, InsertRejectsForeignKeyViolation) {
  Transaction txn = db_.Begin();
  Status status = item_->Insert(
      txn, {Value(int64_t{1}), Value(int64_t{999}), Value(1.0)});
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(item_->TotalRows(), 0u);
}

TEST_F(TableTest, InsertWithoutChecksSkipsLookup) {
  Transaction txn = db_.Begin();
  InsertOptions options;
  options.check_referential_integrity = false;
  options.maintain_tid_columns = false;
  ASSERT_OK(item_->Insert(
      txn, {Value(int64_t{1}), Value(int64_t{999}), Value(1.0)}, options));
  auto loc = item_->FindByPk(Value(int64_t{1}));
  ASSERT_TRUE(loc.has_value());
  EXPECT_EQ(item_->ValueAt(*loc, 2), Value(int64_t{0}));  // Unset MD tid.
}

TEST_F(TableTest, InsertRejectsDuplicatePk) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{1}), Value(int64_t{2013})}));
  Status status =
      header_->Insert(txn, {Value(int64_t{1}), Value(int64_t{2014})});
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
}

TEST_F(TableTest, InsertRejectsWrongArity) {
  Transaction txn = db_.Begin();
  EXPECT_FALSE(header_->Insert(txn, {Value(int64_t{1})}).ok());
  EXPECT_FALSE(
      header_
          ->Insert(txn, {Value(int64_t{1}), Value(int64_t{2}),
                         Value(int64_t{3})})
          .ok());
}

// NaN equals nothing, itself included, so it can have no dictionary code
// and no place in a sorted dictionary: inserts and updates reject it like
// NULL and leave the table as it was, the old version of an updated row
// included.
TEST_F(TableTest, InsertAndUpdateRejectNaN) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{7}), Value(int64_t{2014})}));
  ASSERT_OK(item_->Insert(
      txn, {Value(int64_t{100}), Value(int64_t{7}), Value(2.5)}));
  Status nan = item_->Insert(
      txn, {Value(int64_t{101}), Value(int64_t{7}),
            Value(std::numeric_limits<double>::quiet_NaN())});
  EXPECT_EQ(nan.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(nan.message().find("NaN"), std::string::npos) << nan;
  EXPECT_EQ(item_->group(0).delta.num_rows(), 1u);
  EXPECT_FALSE(item_->FindByPk(Value(int64_t{101})).has_value());
  const Value negative_nan(-std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(item_->UpdateByPk(txn, Value(int64_t{100}),
                              {Value(int64_t{100}), Value(int64_t{7}),
                               negative_nan})
                .code(),
            StatusCode::kInvalidArgument);
  // The failed update left the old version live.
  EXPECT_TRUE(item_->FindByPk(Value(int64_t{100})).has_value());
  ASSERT_OK(db_.Merge("Item"));
  const Dictionary& amounts = item_->group(0).main.column(3).dictionary();
  EXPECT_EQ(amounts.values(), std::vector<Value>{Value(2.5)});
}

TEST_F(TableTest, UpdateInvalidatesOldVersionAndPreservesObjectTid) {
  Transaction txn1 = db_.Begin();
  ASSERT_OK(header_->Insert(txn1, {Value(int64_t{1}), Value(int64_t{2013})}));
  auto old_loc = *header_->FindByPk(Value(int64_t{1}));

  Transaction txn2 = db_.Begin();
  ASSERT_OK(header_->UpdateByPk(txn2, Value(int64_t{1}),
                                {Value(int64_t{1}), Value(int64_t{2014})}));
  // The old version is invalidated at txn2.
  const Partition& delta = header_->group(0).delta;
  EXPECT_EQ(delta.invalidate_tid(old_loc.row), txn2.tid());
  // The new version is found via the pk index and keeps the original tid.
  auto new_loc = *header_->FindByPk(Value(int64_t{1}));
  EXPECT_NE(new_loc.row, old_loc.row);
  EXPECT_EQ(header_->ValueAt(new_loc, 1), Value(int64_t{2014}));
  EXPECT_EQ(header_->ValueAt(new_loc, 2),
            Value(static_cast<int64_t>(txn1.tid())));
  // Physical rows: 2 (old invalidated + new); visible rows: 1.
  EXPECT_EQ(header_->TotalRows(), 2u);
  EXPECT_EQ(header_->VisibleRows(txn2.snapshot()), 1u);
  // The old snapshot still sees the old version.
  EXPECT_EQ(header_->VisibleRows(txn1.snapshot()), 1u);
}

TEST_F(TableTest, DeleteInvalidates) {
  Transaction txn1 = db_.Begin();
  ASSERT_OK(header_->Insert(txn1, {Value(int64_t{1}), Value(int64_t{2013})}));
  Transaction txn2 = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn2, Value(int64_t{1})));
  EXPECT_FALSE(header_->FindByPk(Value(int64_t{1})).has_value());
  EXPECT_EQ(header_->VisibleRows(txn2.snapshot()), 0u);
  EXPECT_EQ(header_->VisibleRows(txn1.snapshot()), 1u);
  // Deleting again fails.
  EXPECT_EQ(header_->DeleteByPk(txn2, Value(int64_t{1})).code(),
            StatusCode::kNotFound);
}

TEST_F(TableTest, UpdateMissingRowFails) {
  Transaction txn = db_.Begin();
  EXPECT_EQ(header_
                ->UpdateByPk(txn, Value(int64_t{5}),
                             {Value(int64_t{5}), Value(int64_t{2000})})
                .code(),
            StatusCode::kNotFound);
}

TEST_F(TableTest, MainInvalidationCountTracksMainOnly) {
  Transaction txn = db_.Begin();
  ASSERT_OK(header_->Insert(txn, {Value(int64_t{1}), Value(int64_t{2013})}));
  ASSERT_OK(db_.Merge("Header"));
  EXPECT_EQ(header_->MainInvalidationCount(), 0u);
  Transaction txn2 = db_.Begin();
  ASSERT_OK(header_->DeleteByPk(txn2, Value(int64_t{1})));
  EXPECT_EQ(header_->MainInvalidationCount(), 1u);
}

TEST_F(TableTest, ForeignKeyToMissingTableRejectedAtCreate) {
  Database db;
  auto result = db.CreateTable(SchemaBuilder("Orphan")
                                   .AddColumn("id", ColumnType::kInt64)
                                   .PrimaryKey()
                                   .AddColumn("ref", ColumnType::kInt64)
                                   .References("Nowhere")
                                   .Build());
  EXPECT_FALSE(result.ok());
}

TEST_F(TableTest, MdRequiresRefOwnTid) {
  Database db;
  auto no_tid = db.CreateTable(SchemaBuilder("Plain")
                                   .AddColumn("id", ColumnType::kInt64)
                                   .PrimaryKey()
                                   .Build());
  ASSERT_TRUE(no_tid.ok());
  auto result = db.CreateTable(SchemaBuilder("Child")
                                   .AddColumn("id", ColumnType::kInt64)
                                   .PrimaryKey()
                                   .AddColumn("ref", ColumnType::kInt64)
                                   .References("Plain", "tid_Plain")
                                   .Build());
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace aggcache
