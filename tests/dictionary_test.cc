#include "storage/dictionary.h"

#include <cmath>
#include <limits>
#include <string>

#include "gtest/gtest.h"

namespace aggcache {
namespace {

TEST(DictionaryTest, DeltaGetOrAddAssignsDenseCodes) {
  Dictionary dict(ColumnType::kInt64, Dictionary::Mode::kUnsortedDelta);
  auto a = dict.GetOrAdd(Value(int64_t{10}));
  auto b = dict.GetOrAdd(Value(int64_t{20}));
  auto c = dict.GetOrAdd(Value(int64_t{10}));  // Duplicate.
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  EXPECT_EQ(*c, 0u);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.value(0), Value(int64_t{10}));
  EXPECT_EQ(dict.value(1), Value(int64_t{20}));
}

TEST(DictionaryTest, DeltaRejectsNullAndTypeMismatch) {
  Dictionary dict(ColumnType::kInt64, Dictionary::Mode::kUnsortedDelta);
  EXPECT_EQ(dict.GetOrAdd(Value()).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dict.GetOrAdd(Value("string")).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DictionaryTest, DeltaTracksMinMaxIncrementally) {
  Dictionary dict(ColumnType::kInt64, Dictionary::Mode::kUnsortedDelta);
  ASSERT_TRUE(dict.GetOrAdd(Value(int64_t{5})).ok());
  EXPECT_EQ(dict.min_value(), Value(int64_t{5}));
  EXPECT_EQ(dict.max_value(), Value(int64_t{5}));
  ASSERT_TRUE(dict.GetOrAdd(Value(int64_t{2})).ok());
  ASSERT_TRUE(dict.GetOrAdd(Value(int64_t{9})).ok());
  ASSERT_TRUE(dict.GetOrAdd(Value(int64_t{7})).ok());
  EXPECT_EQ(dict.min_value(), Value(int64_t{2}));
  EXPECT_EQ(dict.max_value(), Value(int64_t{9}));
}

TEST(DictionaryTest, SortedMainIsValueOrdered) {
  Dictionary dict = Dictionary::BuildSorted(
      ColumnType::kInt64,
      {Value(int64_t{30}), Value(int64_t{10}), Value(int64_t{20}),
       Value(int64_t{10})});
  EXPECT_EQ(dict.size(), 3u);  // De-duplicated.
  EXPECT_EQ(dict.value(0), Value(int64_t{10}));
  EXPECT_EQ(dict.value(1), Value(int64_t{20}));
  EXPECT_EQ(dict.value(2), Value(int64_t{30}));
  EXPECT_EQ(dict.min_value(), Value(int64_t{10}));
  EXPECT_EQ(dict.max_value(), Value(int64_t{30}));
}

TEST(DictionaryTest, SortedMainIsImmutable) {
  Dictionary dict = Dictionary::BuildSorted(ColumnType::kInt64,
                                            {Value(int64_t{1})});
  EXPECT_EQ(dict.GetOrAdd(Value(int64_t{2})).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(DictionaryTest, Find) {
  Dictionary dict = Dictionary::BuildSorted(
      ColumnType::kString, {Value("b"), Value("a"), Value("c")});
  EXPECT_EQ(*dict.Find(Value("a")), 0u);
  EXPECT_EQ(*dict.Find(Value("c")), 2u);
  EXPECT_FALSE(dict.Find(Value("z")).has_value());
}

TEST(DictionaryTest, StringMinMax) {
  Dictionary dict(ColumnType::kString, Dictionary::Mode::kUnsortedDelta);
  ASSERT_TRUE(dict.GetOrAdd(Value("mango")).ok());
  ASSERT_TRUE(dict.GetOrAdd(Value("apple")).ok());
  ASSERT_TRUE(dict.GetOrAdd(Value("zebra")).ok());
  EXPECT_EQ(dict.min_value(), Value("apple"));
  EXPECT_EQ(dict.max_value(), Value("zebra"));
}

TEST(DictionaryTest, EmptySortedDictionary) {
  Dictionary dict = Dictionary::BuildSorted(ColumnType::kInt64, {});
  EXPECT_TRUE(dict.empty());
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_FALSE(dict.Find(Value(int64_t{1})).has_value());
}

TEST(DictionaryTest, ByteSizeGrowsWithContent) {
  Dictionary small(ColumnType::kString, Dictionary::Mode::kUnsortedDelta);
  ASSERT_TRUE(small.GetOrAdd(Value("a")).ok());
  Dictionary large(ColumnType::kString, Dictionary::Mode::kUnsortedDelta);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(large.GetOrAdd(Value("value-" + std::to_string(i))).ok());
  }
  EXPECT_GT(large.ByteSize(), small.ByteSize());
}

TEST(DictionaryTest, RejectsNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Dictionary dict(ColumnType::kDouble, Dictionary::Mode::kUnsortedDelta);
  EXPECT_EQ(dict.GetOrAdd(Value(nan)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(dict.empty());
  EXPECT_FALSE(dict.Find(Value(nan)).has_value());
  EXPECT_DEATH(Dictionary::BuildSorted(ColumnType::kDouble,
                                       {Value(3.0), Value(nan), Value(1.0)}),
               "NaN");
}

// Keys that share their low bits (multiples of 2^16), dense keys and
// negative keys, in one dictionary that grows from empty through many
// resizes: every code is found again and no absent key is.
TEST(DictionaryIndexTest, CollisionsAndGrowth) {
  Dictionary dict(ColumnType::kInt64, Dictionary::Mode::kUnsortedDelta);
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 3000; ++i) {
    keys.push_back(i << 16);
    keys.push_back(i);
    keys.push_back(-7 - i * 1024);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    auto id = dict.GetOrAdd(Value(keys[i]));
    ASSERT_TRUE(id.ok());
    // (i << 16) == i only for i == 0; that key repeats.
    if (i == 1) {
      EXPECT_EQ(*id, 0u);
    }
  }
  EXPECT_EQ(dict.size(), keys.size() - 1);
  for (ValueId id = 0; id < dict.size(); ++id) {
    EXPECT_EQ(dict.Find(dict.value(id)), std::optional<ValueId>(id));
    EXPECT_EQ(*dict.GetOrAdd(dict.value(id)), id);
  }
  for (int64_t i = 0; i < 3000; ++i) {
    EXPECT_FALSE(dict.Find(Value((i << 16) + 70000)).has_value());
  }
  EXPECT_EQ(dict.size(), keys.size() - 1);

  std::vector<Value> values;
  for (int64_t k : keys) values.push_back(Value(k));
  Dictionary sorted = Dictionary::BuildSorted(ColumnType::kInt64, values);
  ASSERT_EQ(sorted.size(), dict.size());
  for (ValueId id = 0; id < sorted.size(); ++id) {
    EXPECT_EQ(sorted.Find(sorted.value(id)), std::optional<ValueId>(id));
    if (id > 0) {
      EXPECT_LT(sorted.value(id - 1), sorted.value(id));
    }
  }
}

TEST(DictionaryIndexTest, ExactValueEquality) {
  // int64 5 and double 5.0 compare equal as numbers, but are different
  // values: neither finds the other.
  Dictionary ints = Dictionary::BuildSorted(ColumnType::kInt64,
                                            {Value(int64_t{5})});
  EXPECT_TRUE(ints.Find(Value(int64_t{5})).has_value());
  EXPECT_FALSE(ints.Find(Value(5.0)).has_value());
  Dictionary doubles(ColumnType::kDouble, Dictionary::Mode::kUnsortedDelta);
  ASSERT_TRUE(doubles.GetOrAdd(Value(5.0)).ok());
  EXPECT_FALSE(doubles.Find(Value(int64_t{5})).has_value());
  // 0.0 and -0.0 are one value.
  auto zero = doubles.GetOrAdd(Value(0.0));
  auto negative_zero = doubles.GetOrAdd(Value(-0.0));
  ASSERT_TRUE(zero.ok() && negative_zero.ok());
  EXPECT_EQ(*zero, *negative_zero);
  EXPECT_EQ(doubles.size(), 2u);
  Dictionary sorted = Dictionary::BuildSorted(
      ColumnType::kDouble, {Value(-0.0), Value(1.5), Value(0.0)});
  EXPECT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted.Find(Value(0.0)), std::optional<ValueId>(0));
  EXPECT_EQ(sorted.Find(Value(-0.0)), std::optional<ValueId>(0));
  // int64 keys above 2^53 are distinct, in order, as integers.
  const int64_t big = int64_t{1} << 60;
  Dictionary huge = Dictionary::BuildSorted(
      ColumnType::kInt64,
      {Value(big + 1), Value(big), Value(big + 2), Value(big)});
  ASSERT_EQ(huge.size(), 3u);
  EXPECT_EQ(huge.value(0), Value(big));
  EXPECT_EQ(huge.value(2), Value(big + 2));
  EXPECT_EQ(huge.Find(Value(big + 1)), std::optional<ValueId>(1));
}

TEST(DictionaryIndexTest, StringsAndEmpty) {
  Dictionary dict(ColumnType::kString, Dictionary::Mode::kUnsortedDelta);
  EXPECT_FALSE(dict.Find(Value("")).has_value());
  EXPECT_EQ(dict.ByteSize(), 0u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(dict.GetOrAdd(Value(std::string(i % 50, 'x') +
                                    std::to_string(i)))
                    .ok());
  }
  ASSERT_TRUE(dict.GetOrAdd(Value("")).ok());
  EXPECT_EQ(dict.size(), 501u);
  EXPECT_EQ(dict.Find(Value("")), std::optional<ValueId>(500));
  EXPECT_EQ(dict.Find(Value("xx2")), std::optional<ValueId>(2));
  EXPECT_FALSE(dict.Find(Value("xx3")).has_value());
  EXPECT_FALSE(dict.Find(Value(int64_t{2})).has_value());
  Dictionary empty = Dictionary::BuildSorted(ColumnType::kString, {});
  EXPECT_FALSE(empty.Find(Value("a")).has_value());
  EXPECT_EQ(empty.ByteSize(), 0u);
}

// ByteSize is the values plus a code table of at most four 4-byte slots
// per value: no per-entry node, no second copy of a value.
TEST(DictionaryIndexTest, ByteSizeIsValuesPlusCodeTable) {
  for (size_t n : {1u, 2u, 3u, 100u, 1000u, 4097u}) {
    Dictionary delta(ColumnType::kInt64, Dictionary::Mode::kUnsortedDelta);
    std::vector<Value> values;
    for (size_t i = 0; i < n; ++i) {
      values.push_back(Value(static_cast<int64_t>(i * 31)));
      ASSERT_TRUE(delta.GetOrAdd(values.back()).ok());
    }
    Dictionary sorted = Dictionary::BuildSorted(ColumnType::kInt64, values);
    for (const Dictionary* d : {&delta, &sorted}) {
      const size_t value_bytes = n * sizeof(Value);
      EXPECT_GE(d->ByteSize(), value_bytes + 2 * n * sizeof(ValueId)) << n;
      EXPECT_LE(d->ByteSize(), value_bytes + 4 * n * sizeof(ValueId)) << n;
    }
  }
  Dictionary strings(ColumnType::kString, Dictionary::Mode::kUnsortedDelta);
  ASSERT_TRUE(strings.GetOrAdd(Value(std::string(100, 'a'))).ok());
  EXPECT_GE(strings.ByteSize(), sizeof(Value) + 100);
}

}  // namespace
}  // namespace aggcache
