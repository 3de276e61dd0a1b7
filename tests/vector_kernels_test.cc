#include "query/vector_kernels.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "gtest/gtest.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "storage/database.h"
#include "storage/dictionary.h"
#include "storage/partition.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

using testing_util::CreateHeaderItemTables;
using testing_util::InsertBusinessObject;

// ---------------------------------------------------------------------------
// PackedKeyLayout

TEST(PackedKeyLayoutTest, TwoFullWidthFieldsFitExactly) {
  std::vector<int> bits = {32, 32};
  auto layout = PlanPackedKeyLayout(bits);
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->total_bits, 64);
  ASSERT_EQ(layout->fields.size(), 2u);
  EXPECT_EQ(layout->fields[0].shift, 0);
  EXPECT_EQ(layout->fields[1].shift, 32);

  // Round-trip at the extremes of both fields.
  std::vector<ValueId> codes = {0xFFFFFFFFu, 0xFFFFFFFEu};
  uint64_t key = layout->Pack(codes);
  EXPECT_EQ(layout->Unpack(key, 0), 0xFFFFFFFFu);
  EXPECT_EQ(layout->Unpack(key, 1), 0xFFFFFFFEu);
}

TEST(PackedKeyLayoutTest, OneBitPastTheBoundaryFallsBack) {
  std::vector<int> bits = {32, 32, 1};
  EXPECT_FALSE(PlanPackedKeyLayout(bits).has_value());
}

TEST(PackedKeyLayoutTest, EmptyLayoutPacksToZero) {
  std::vector<int> bits;
  auto layout = PlanPackedKeyLayout(bits);
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->total_bits, 0);
  EXPECT_EQ(layout->Pack({}), 0u);
}

TEST(PackedKeyLayoutTest, MixedWidthsRoundTrip) {
  std::vector<int> bits = {7, 13, 32, 12};
  auto layout = PlanPackedKeyLayout(bits);
  ASSERT_TRUE(layout.has_value());
  EXPECT_EQ(layout->total_bits, 64);
  std::vector<ValueId> codes = {100, 8000, 0x89ABCDEFu, 4095};
  uint64_t key = layout->Pack(codes);
  for (size_t f = 0; f < codes.size(); ++f) {
    EXPECT_EQ(layout->Unpack(key, f), codes[f]) << "field " << f;
  }
}

// ---------------------------------------------------------------------------
// CodeHashTable

TEST(CodeHashTableTest, EmptyBuildSideFindsNothing) {
  CodeHashTable table(0);
  size_t calls = 0;
  table.ForEach(42, [&](uint32_t) { ++calls; });
  EXPECT_EQ(calls, 0u);
  EXPECT_EQ(table.size(), 0u);
}

TEST(CodeHashTableTest, DuplicateKeysPreserveInsertionOrder) {
  CodeHashTable table(4);
  table.Insert(5, 100);
  table.Insert(7, 200);
  table.Insert(5, 101);
  table.Insert(5, 102);
  std::vector<uint32_t> got;
  table.ForEach(5, [&](uint32_t p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<uint32_t>{100, 101, 102}));
  got.clear();
  table.ForEach(7, [&](uint32_t p) { got.push_back(p); });
  EXPECT_EQ(got, (std::vector<uint32_t>{200}));
  got.clear();
  table.ForEach(6, [&](uint32_t p) { got.push_back(p); });
  EXPECT_TRUE(got.empty());
}

TEST(CodeHashTableTest, ManyDistinctKeysAllRetrievable) {
  constexpr size_t kKeys = 5000;
  CodeHashTable table(kKeys);
  for (size_t k = 0; k < kKeys; ++k) {
    table.Insert(k * 1024, static_cast<uint32_t>(k));
  }
  for (size_t k = 0; k < kKeys; ++k) {
    std::vector<uint32_t> got;
    table.ForEach(k * 1024, [&](uint32_t p) { got.push_back(p); });
    ASSERT_EQ(got.size(), 1u) << "key " << k;
    EXPECT_EQ(got[0], k);
  }
}

// ---------------------------------------------------------------------------
// GroupIndexMap

TEST(GroupIndexMapTest, AssignsDenseIndexesInFirstSeenOrder) {
  GroupIndexMap map;
  EXPECT_EQ(map.InsertOrGet(900), 0u);
  EXPECT_EQ(map.InsertOrGet(100), 1u);
  EXPECT_EQ(map.InsertOrGet(900), 0u);
  EXPECT_EQ(map.InsertOrGet(500), 2u);
  EXPECT_EQ(map.size(), 3u);
}

TEST(GroupIndexMapTest, GrowsPastInitialCapacity) {
  GroupIndexMap map(4);
  constexpr uint64_t kGroups = 1000;
  for (uint64_t g = 0; g < kGroups; ++g) {
    ASSERT_EQ(map.InsertOrGet(g * 7919), g);
  }
  for (uint64_t g = 0; g < kGroups; ++g) {
    ASSERT_EQ(map.InsertOrGet(g * 7919), g);
  }
  EXPECT_EQ(map.size(), kGroups);
}

// ---------------------------------------------------------------------------
// CodeTranslator

TEST(CodeTranslatorTest, TranslatesBetweenDeltaAndSortedMainDictionaries) {
  // Delta dictionary in arrival order: 30 -> 0, 10 -> 1, 20 -> 2.
  Dictionary delta(ColumnType::kInt64, Dictionary::Mode::kUnsortedDelta);
  ASSERT_OK(delta.GetOrAdd(Value(int64_t{30})).status());
  ASSERT_OK(delta.GetOrAdd(Value(int64_t{10})).status());
  ASSERT_OK(delta.GetOrAdd(Value(int64_t{20})).status());
  // Sorted main dictionary: 10 -> 0, 20 -> 1, 40 -> 2. 30 is absent.
  Dictionary main = Dictionary::BuildSorted(
      ColumnType::kInt64,
      {Value(int64_t{40}), Value(int64_t{10}), Value(int64_t{20})});

  CodeTranslator to_main(&delta, &main);
  EXPECT_EQ(to_main.Translate(0), CodeTranslator::kNoMatch);  // 30 absent.
  EXPECT_EQ(to_main.Translate(1), 0u);                        // 10.
  EXPECT_EQ(to_main.Translate(2), 1u);                        // 20.
  // Memo hit: same answer on repeat.
  EXPECT_EQ(to_main.Translate(0), CodeTranslator::kNoMatch);

  CodeTranslator to_delta(&main, &delta);
  EXPECT_EQ(to_delta.Translate(0), 1u);                       // 10.
  EXPECT_EQ(to_delta.Translate(1), 2u);                       // 20.
  EXPECT_EQ(to_delta.Translate(2), CodeTranslator::kNoMatch); // 40 absent.

  // The unmemoized path (tiny probe volume against a large dictionary)
  // must agree with the memoized one.
  CodeTranslator direct(&delta, &main, /*expected_lookups=*/0);
  EXPECT_EQ(direct.Translate(0), CodeTranslator::kNoMatch);
  EXPECT_EQ(direct.Translate(1), 0u);
  EXPECT_EQ(direct.Translate(2), 1u);
}

TEST(CodeTranslatorTest, VariantEqualityNeverCrossMatchesTypes) {
  // Joins use Value variant equality: int64(5) != double(5.0). The
  // translator must preserve that — a numeric-equality translation would
  // silently change join results.
  Dictionary ints(ColumnType::kInt64, Dictionary::Mode::kUnsortedDelta);
  ASSERT_OK(ints.GetOrAdd(Value(int64_t{5})).status());
  Dictionary doubles(ColumnType::kDouble, Dictionary::Mode::kUnsortedDelta);
  ASSERT_OK(doubles.GetOrAdd(Value(5.0)).status());

  CodeTranslator translator(&ints, &doubles);
  EXPECT_EQ(translator.Translate(0), CodeTranslator::kNoMatch);
}

// ---------------------------------------------------------------------------
// Selection kernels vs row-at-a-time evaluation

class SelectionKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CreateHeaderItemTables(&db_, &header_, &item_);
    // 2500 headers across 5 years; merge the first 1500 into main, keep the
    // rest in the delta, and invalidate a sprinkling of rows in both.
    for (int64_t h = 1; h <= 1500; ++h) {
      Transaction txn = db_.Begin();
      ASSERT_OK(header_->Insert(txn, {Value(h), Value(2010 + h % 5)}));
    }
    ASSERT_OK(db_.Merge("Header"));
    for (int64_t h = 1501; h <= 2500; ++h) {
      Transaction txn = db_.Begin();
      ASSERT_OK(header_->Insert(txn, {Value(h), Value(2010 + h % 5)}));
    }
    for (int64_t h = 3; h <= 2500; h += 97) {
      Transaction txn = db_.Begin();
      ASSERT_OK(header_->DeleteByPk(txn, Value(h)));
    }
    snapshot_ = db_.txn_manager().GlobalSnapshot();
  }

  // Row-at-a-time reference: visibility plus all (op, operand) filters.
  std::vector<uint32_t> BruteForce(
      const Partition& p,
      const std::vector<std::pair<CompareOp, Value>>& filters,
      size_t column) {
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r < p.num_rows(); ++r) {
      if (!snapshot_.RowVisible(p.create_tid(r), p.invalidate_tid(r))) {
        continue;
      }
      bool pass = true;
      for (const auto& [op, operand] : filters) {
        if (!EvalCompare(op, p.column(column).GetValue(r), operand)) {
          pass = false;
          break;
        }
      }
      if (pass) rows.push_back(r);
    }
    return rows;
  }

  void ExpectKernelMatchesBruteForce(
      const Partition& p,
      const std::vector<std::pair<CompareOp, Value>>& filters,
      size_t column) {
    std::vector<CompiledColumnFilter> compiled(filters.size());
    for (size_t i = 0; i < filters.size(); ++i) {
      ASSERT_TRUE(CompileColumnFilter(p.column(column), filters[i].first,
                                      filters[i].second, &compiled[i]));
    }
    SelectionInput input;
    input.snapshot = &snapshot_;
    input.filters = compiled;
    std::vector<uint32_t> got;
    size_t batches = SelectRowsRange(
        p, input, 0, static_cast<uint32_t>(p.num_rows()), &got);
    EXPECT_EQ(batches, (p.num_rows() + kSelectionBlockRows - 1) /
                           kSelectionBlockRows);
    EXPECT_EQ(got, BruteForce(p, filters, column));
  }

  Database db_;
  Table* header_ = nullptr;
  Table* item_ = nullptr;
  Snapshot snapshot_;
};

TEST_F(SelectionKernelTest, RangeFilterOnSortedMainMatchesBruteForce) {
  const Partition& main = header_->group(0).main;
  ASSERT_GT(main.num_rows(), 0u);
  ExpectKernelMatchesBruteForce(
      main, {{CompareOp::kLe, Value(int64_t{2012})}}, /*column=*/1);
  ExpectKernelMatchesBruteForce(
      main, {{CompareOp::kEq, Value(int64_t{2013})}}, /*column=*/1);
  ExpectKernelMatchesBruteForce(
      main, {{CompareOp::kNe, Value(int64_t{2011})}}, /*column=*/1);
}

TEST_F(SelectionKernelTest, FiltersOnUnsortedDeltaMatchBruteForce) {
  const Partition& delta = header_->group(0).delta;
  ASSERT_GT(delta.num_rows(), 0u);
  // Equality compiles to a single-code comparison on delta dictionaries;
  // ranges fall back to value comparison.
  ExpectKernelMatchesBruteForce(
      delta, {{CompareOp::kEq, Value(int64_t{2014})}}, /*column=*/1);
  ExpectKernelMatchesBruteForce(
      delta, {{CompareOp::kGt, Value(int64_t{2012})}}, /*column=*/1);
  // Conjunction exercises the sparse (post-first-filter) block path.
  ExpectKernelMatchesBruteForce(delta,
                                {{CompareOp::kGe, Value(int64_t{2011})},
                                 {CompareOp::kLt, Value(int64_t{2014})}},
                                /*column=*/1);
}

TEST_F(SelectionKernelTest, EqualityWithAbsentValueRefusesToCompile) {
  const Partition& main = header_->group(0).main;
  CompiledColumnFilter f;
  EXPECT_FALSE(CompileColumnFilter(main.column(1), CompareOp::kEq,
                                   Value(int64_t{1999}), &f));
}

TEST_F(SelectionKernelTest, GatherMatchesRangeOnCandidateSubset) {
  // Gather skips the visibility check (its caller vouches for the rows), so
  // it is compared with range on visible candidates only.
  const Partition& main = header_->group(0).main;
  std::vector<uint32_t> candidates;
  for (uint32_t r = 1; r < main.num_rows(); r += 3) {
    if (snapshot_.RowVisible(main.create_tid(r), main.invalidate_tid(r))) {
      candidates.push_back(r);
    }
  }
  ASSERT_FALSE(candidates.empty());

  Value operand(int64_t{2012});
  CompiledColumnFilter f;
  ASSERT_TRUE(CompileColumnFilter(main.column(1), CompareOp::kGe, operand,
                                  &f));
  SelectionInput input;
  input.snapshot = &snapshot_;
  input.filters = std::span<const CompiledColumnFilter>(&f, 1);

  std::vector<uint32_t> got;
  SelectRowsGather(input, candidates, &got);

  std::vector<uint32_t> range;
  SelectRowsRange(main, input, 0, static_cast<uint32_t>(main.num_rows()),
                  &range);
  std::vector<uint32_t> expected;
  std::set_intersection(range.begin(), range.end(), candidates.begin(),
                        candidates.end(), std::back_inserter(expected));
  EXPECT_EQ(got, expected);
}

// ---------------------------------------------------------------------------
// Executor-level behavior of the batched pipeline

TEST(VectorExecutorTest, EmptyBuildSideYieldsEmptyResult) {
  Database db;
  ASSERT_OK(db.CreateTable(SchemaBuilder("A")
                               .AddColumn("aid", ColumnType::kInt64)
                               .PrimaryKey()
                               .AddColumn("k", ColumnType::kInt64)
                               .Build())
                .status());
  ASSERT_OK(db.CreateTable(SchemaBuilder("B")
                               .AddColumn("bid", ColumnType::kInt64)
                               .PrimaryKey()
                               .AddColumn("k", ColumnType::kInt64)
                               .Build())
                .status());
  Table* a = db.GetTable("A").value();
  Table* b = db.GetTable("B").value();
  {
    Transaction txn = db.Begin();
    ASSERT_OK(a->Insert(txn, {Value(int64_t{1}), Value(int64_t{7})}));
    ASSERT_OK(a->Insert(txn, {Value(int64_t{2}), Value(int64_t{8})}));
  }
  AggregateQuery query = QueryBuilder()
                             .From("A")
                             .Join("B", "k", "k")
                             .GroupBy("A", "k")
                             .CountStar("n")
                             .Build();
  Executor executor(&db);
  // B has no rows at all: one join side selects nothing.
  auto result =
      executor.ExecuteUncached(query, db.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->empty());

  // B non-empty but with keys absent from A's dictionary: the probe-side
  // code translation yields no match for every tuple.
  {
    Transaction txn = db.Begin();
    ASSERT_OK(b->Insert(txn, {Value(int64_t{1}), Value(int64_t{99})}));
    ASSERT_OK(b->Insert(txn, {Value(int64_t{2}), Value(int64_t{98})}));
  }
  result =
      executor.ExecuteUncached(query, db.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->empty());
}

TEST(VectorExecutorTest, DuplicateKeysOnBothSidesCrossProduct) {
  Database db;
  ASSERT_OK(db.CreateTable(SchemaBuilder("A")
                               .AddColumn("aid", ColumnType::kInt64)
                               .PrimaryKey()
                               .AddColumn("k", ColumnType::kInt64)
                               .Build())
                .status());
  ASSERT_OK(db.CreateTable(SchemaBuilder("B")
                               .AddColumn("bid", ColumnType::kInt64)
                               .PrimaryKey()
                               .AddColumn("k", ColumnType::kInt64)
                               .Build())
                .status());
  Table* a = db.GetTable("A").value();
  Table* b = db.GetTable("B").value();
  {
    Transaction txn = db.Begin();
    // A: k=1 twice, k=2 once. B: k=1 three times, k=2 twice.
    ASSERT_OK(a->Insert(txn, {Value(int64_t{1}), Value(int64_t{1})}));
    ASSERT_OK(a->Insert(txn, {Value(int64_t{2}), Value(int64_t{1})}));
    ASSERT_OK(a->Insert(txn, {Value(int64_t{3}), Value(int64_t{2})}));
    ASSERT_OK(b->Insert(txn, {Value(int64_t{1}), Value(int64_t{1})}));
    ASSERT_OK(b->Insert(txn, {Value(int64_t{2}), Value(int64_t{1})}));
    ASSERT_OK(b->Insert(txn, {Value(int64_t{3}), Value(int64_t{1})}));
    ASSERT_OK(b->Insert(txn, {Value(int64_t{4}), Value(int64_t{2})}));
    ASSERT_OK(b->Insert(txn, {Value(int64_t{5}), Value(int64_t{2})}));
  }
  AggregateQuery query = QueryBuilder()
                             .From("A")
                             .Join("B", "k", "k")
                             .GroupBy("A", "k")
                             .CountStar("n")
                             .Build();
  Executor executor(&db);
  auto result =
      executor.ExecuteUncached(query, db.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(result.ok()) << result.status();
  auto rows = result->Rows({AggregateFunction::kCountStar});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<Value>{Value(int64_t{1}),
                                         Value(int64_t{6})}));  // 2 x 3.
  EXPECT_EQ(rows[1], (std::vector<Value>{Value(int64_t{2}),
                                         Value(int64_t{2})}));  // 1 x 2.
}

TEST(VectorExecutorTest, MultiConditionResidualJoin) {
  Database db;
  ASSERT_OK(db.CreateTable(SchemaBuilder("Header")
                               .AddColumn("HeaderID", ColumnType::kInt64)
                               .PrimaryKey()
                               .AddColumn("FiscalYear", ColumnType::kInt64)
                               .Build())
                .status());
  ASSERT_OK(db.CreateTable(SchemaBuilder("Item")
                               .AddColumn("ItemID", ColumnType::kInt64)
                               .PrimaryKey()
                               .AddColumn("HeaderID", ColumnType::kInt64)
                               .AddColumn("Year", ColumnType::kInt64)
                               .AddColumn("Amount", ColumnType::kDouble)
                               .Build())
                .status());
  Table* header = db.GetTable("Header").value();
  Table* item = db.GetTable("Item").value();
  {
    Transaction txn = db.Begin();
    ASSERT_OK(header->Insert(txn, {Value(int64_t{1}), Value(int64_t{2013})}));
    ASSERT_OK(header->Insert(txn, {Value(int64_t{2}), Value(int64_t{2014})}));
    // Item 1 matches header 1 on both conditions; item 2 matches the key
    // but not the year (residual kills it); item 3 matches header 2.
    ASSERT_OK(item->Insert(txn, {Value(int64_t{1}), Value(int64_t{1}),
                                 Value(int64_t{2013}), Value(10.0)}));
    ASSERT_OK(item->Insert(txn, {Value(int64_t{2}), Value(int64_t{1}),
                                 Value(int64_t{2014}), Value(20.0)}));
    ASSERT_OK(item->Insert(txn, {Value(int64_t{3}), Value(int64_t{2}),
                                 Value(int64_t{2014}), Value(30.0)}));
  }
  AggregateQuery query = QueryBuilder()
                             .From("Header")
                             .Join("Item", "HeaderID", "HeaderID")
                             .GroupBy("Header", "FiscalYear")
                             .Sum("Item", "Amount", "Revenue")
                             .Build();
  // Second condition between the same tables: Header.FiscalYear =
  // Item.Year. It rides as a residual check on the driving hash join.
  query.joins.push_back(JoinCondition{0, "FiscalYear", 1, "Year"});

  Executor executor(&db);
  auto result =
      executor.ExecuteUncached(query, db.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(result.ok()) << result.status();
  auto rows = result->Rows({AggregateFunction::kSum});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], Value(int64_t{2013}));
  EXPECT_DOUBLE_EQ(rows[0][1].AsDouble(), 10.0);
  EXPECT_EQ(rows[1][0], Value(int64_t{2014}));
  EXPECT_DOUBLE_EQ(rows[1][1].AsDouble(), 30.0);
}

TEST(VectorExecutorTest, ResultsUnchangedAcrossMainDeltaCodeSpaces) {
  Database db;
  Table* header = nullptr;
  Table* item = nullptr;
  CreateHeaderItemTables(&db, &header, &item);
  int64_t next_item = 1;
  for (int64_t h = 1; h <= 50; ++h) {
    ASSERT_OK(InsertBusinessObject(&db, header, item, h,
                                   h % 2 == 0 ? 2013 : 2014, 4, 2.5,
                                   &next_item));
  }
  Executor executor(&db);
  AggregateQuery query = testing_util::HeaderItemQuery();
  auto all_delta = executor.ExecuteUncached(
      query, db.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(all_delta.ok()) << all_delta.status();

  // Merge only Header: joins now translate between a sorted main
  // dictionary and Item's unsorted delta dictionary.
  ASSERT_OK(db.Merge("Header"));
  auto mixed = executor.ExecuteUncached(
      query, db.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(mixed.ok()) << mixed.status();
  std::string diff;
  EXPECT_TRUE(mixed->ApproxEquals(*all_delta, 1e-9, &diff)) << diff;

  // Merge Item as well: both sides sorted-main code spaces.
  ASSERT_OK(db.Merge("Item"));
  auto both_main = executor.ExecuteUncached(
      query, db.txn_manager().GlobalSnapshot());
  ASSERT_TRUE(both_main.ok()) << both_main.status();
  EXPECT_TRUE(both_main->ApproxEquals(*all_delta, 1e-9, &diff)) << diff;
}

TEST(VectorExecutorTest, BatchedPipelineCountersAdvance) {
  Database db;
  Table* header = nullptr;
  Table* item = nullptr;
  CreateHeaderItemTables(&db, &header, &item);
  int64_t next_item = 1;
  for (int64_t h = 1; h <= 20; ++h) {
    ASSERT_OK(InsertBusinessObject(&db, header, item, h, 2013, 3, 1.0,
                                   &next_item));
  }
  Executor executor(&db);
  ExecutorStats stats;
  auto result = executor.ExecuteUncached(testing_util::HeaderItemQuery(),
                                         db.txn_manager().GlobalSnapshot(),
                                         &stats);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(stats.selection_batches, 0u);
  EXPECT_GT(stats.code_joins, 0u);
  EXPECT_GT(stats.packed_groupings, 0u);
  EXPECT_EQ(stats.fallback_groupings, 0u);
}

}  // namespace
}  // namespace aggcache
