#include "common/string_util.h"

#include "gtest/gtest.h"

namespace aggcache {
namespace {

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 5, "abc"), "x=5 y=abc");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(5000, 'z');
  std::string result = StrFormat("<%s>", long_arg.c_str());
  EXPECT_EQ(result.size(), 5002u);
  EXPECT_EQ(result.front(), '<');
  EXPECT_EQ(result.back(), '>');
}

TEST(StrJoinTest, JoinsParts) {
  EXPECT_EQ(StrJoin({}, ", "), "");
  EXPECT_EQ(StrJoin({"a"}, ", "), "a");
  EXPECT_EQ(StrJoin({"a", "b", "c"}, "|"), "a|b|c");
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(2048), "2.0 KiB");
  EXPECT_EQ(HumanBytes(3 << 20), "3.0 MiB");
  EXPECT_EQ(HumanBytes(size_t{5} << 30), "5.0 GiB");
}

TEST(JsonEscapeTest, EscapesQuoteBackslashAndControlBytes) {
  std::string out = "prefix:";
  AppendJsonEscaped(&out, "a\"b\\c\nd\te\x01" "f");
  EXPECT_EQ(out, "prefix:a\\\"b\\\\c\\nd\\te\\u0001f");
  EXPECT_EQ(JsonEscape("plain text"), "plain text");
}

TEST(SplitKeyValueSpecTest, SplitsPairsAndSkipsBareParts) {
  auto pairs = SplitKeyValueSpec("on,events=4096,,dir=a=b,threads=");
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], std::make_pair(std::string("events"),
                                     std::string("4096")));
  EXPECT_EQ(pairs[1], std::make_pair(std::string("dir"), std::string("a=b")));
  EXPECT_EQ(pairs[2], std::make_pair(std::string("threads"), std::string()));
  EXPECT_TRUE(SplitKeyValueSpec("").empty());
}

}  // namespace
}  // namespace aggcache
