#include "cache/cache_key.h"

#include "gtest/gtest.h"
#include "tests/test_util.h"

namespace aggcache {
namespace {

TEST(CacheKeyTest, EqualQueriesProduceEqualKeys) {
  AggregateQuery a = testing_util::HeaderItemQuery();
  AggregateQuery b = testing_util::HeaderItemQuery();
  CacheKey ka = MakeCacheKey(a);
  CacheKey kb = MakeCacheKey(b);
  EXPECT_EQ(ka, kb);
  EXPECT_EQ(ka.hash, kb.hash);
  EXPECT_EQ(CacheKeyHash()(ka), ka.hash);
}

TEST(CacheKeyTest, DifferentFiltersDifferentKeys) {
  AggregateQuery a = testing_util::HeaderItemQuery();
  AggregateQuery b = a;
  b.filters.push_back(FilterPredicate{0, "FiscalYear", CompareOp::kEq,
                                      Value(int64_t{2013})});
  EXPECT_FALSE(MakeCacheKey(a) == MakeCacheKey(b));
}

TEST(CacheKeyTest, DifferentOperandsDifferentKeys) {
  AggregateQuery a = testing_util::HeaderItemQuery();
  a.filters.push_back(FilterPredicate{0, "FiscalYear", CompareOp::kEq,
                                      Value(int64_t{2013})});
  AggregateQuery b = testing_util::HeaderItemQuery();
  b.filters.push_back(FilterPredicate{0, "FiscalYear", CompareOp::kEq,
                                      Value(int64_t{2014})});
  EXPECT_FALSE(MakeCacheKey(a) == MakeCacheKey(b));
}

TEST(CacheKeyTest, DifferentAggregatesDifferentKeys) {
  AggregateQuery a = testing_util::HeaderItemQuery();
  AggregateQuery b = a;
  b.aggregates[0].fn = AggregateFunction::kAvg;
  EXPECT_FALSE(MakeCacheKey(a) == MakeCacheKey(b));
}

TEST(CacheKeyTest, DifferentGroupByDifferentKeys) {
  AggregateQuery a = testing_util::HeaderItemQuery();
  AggregateQuery b = a;
  b.group_by[0].column = "HeaderID";
  EXPECT_FALSE(MakeCacheKey(a) == MakeCacheKey(b));
}

TEST(CacheKeyTest, NearbyDoubleOperandsDifferentKeys) {
  // Below the 6th significant digit: a %.6g rendering made these equal.
  AggregateQuery a = testing_util::HeaderItemQuery();
  a.filters.push_back(
      FilterPredicate{1, "Amount", CompareOp::kGt, Value(12.34 - 1e-9)});
  AggregateQuery b = testing_util::HeaderItemQuery();
  b.filters.push_back(
      FilterPredicate{1, "Amount", CompareOp::kGt, Value(12.34 + 1e-9)});
  EXPECT_FALSE(MakeCacheKey(a) == MakeCacheKey(b));
  // Exact rendering still maps one double to one key.
  AggregateQuery c = testing_util::HeaderItemQuery();
  c.filters.push_back(
      FilterPredicate{1, "Amount", CompareOp::kGt, Value(12.34 - 1e-9)});
  EXPECT_EQ(MakeCacheKey(a), MakeCacheKey(c));
}

TEST(CacheKeyTest, StringOperandCannotSpellExtraFilters) {
  AggregateQuery one = testing_util::HeaderItemQuery();
  one.filters.push_back(FilterPredicate{0, "Lang", CompareOp::kEq,
                                        Value("ENG'|F:t0.Region = 'X")});
  AggregateQuery two = testing_util::HeaderItemQuery();
  two.filters.push_back(
      FilterPredicate{0, "Lang", CompareOp::kEq, Value("ENG")});
  two.filters.push_back(
      FilterPredicate{0, "Region", CompareOp::kEq, Value("X")});
  EXPECT_FALSE(MakeCacheKey(one) == MakeCacheKey(two));
}

}  // namespace
}  // namespace aggcache
