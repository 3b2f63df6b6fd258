#include "util/str.h"

#include <gtest/gtest.h>

namespace tagg {
namespace {

TEST(StrTest, ToLower) {
  EXPECT_EQ(ToLower("SeLeCt"), "select");
  EXPECT_EQ(ToLower("abc123"), "abc123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StrTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("COUNT", "count"));
  EXPECT_TRUE(EqualsIgnoreCase("", ""));
  EXPECT_FALSE(EqualsIgnoreCase("count", "counts"));
  EXPECT_FALSE(EqualsIgnoreCase("count", "coint"));
}

TEST(StrTest, Trim) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("hello"), "hello");
  EXPECT_EQ(Trim("\t\n x \r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(StrTest, SplitKeepsEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x,", ','), (std::vector<std::string>{"x", ""}));
}

TEST(StrTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrTest, SplitJoinRoundTrip) {
  const std::string s = "one,two,three";
  EXPECT_EQ(Join(Split(s, ','), ","), s);
}

TEST(StrTest, StringPrintf) {
  EXPECT_EQ(StringPrintf("%d + %d = %d", 1, 2, 3), "1 + 2 = 3");
  EXPECT_EQ(StringPrintf("%s", ""), "");
  EXPECT_EQ(StringPrintf("%zu tuples", static_cast<size_t>(42)),
            "42 tuples");
}

TEST(StrTest, ParseIntTakesWholeIntegersInRange) {
  EXPECT_EQ(ParseInt("0").value(), 0);
  EXPECT_EQ(ParseInt("-42").value(), -42);
  EXPECT_EQ(ParseInt("9223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(ParseInt("65535", 0, 65535).value(), 65535);
}

TEST(StrTest, ParseIntRejectsNonIntegers) {
  for (const char* bad : {"", " 5", "5 ", "5x", "x5", "1e3", "+", "-", "--1",
                          "0x10", "3.0"}) {
    Result<int64_t> v = ParseInt(bad);
    ASSERT_FALSE(v.ok()) << "'" << bad << "'";
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(StrTest, ParseIntReportsOutOfRange) {
  // Overflow and bounds alike: an integer, just not a usable one.
  for (const char* big : {"9223372036854775808", "-9223372036854775809",
                          "99999999999999999999999999"}) {
    Result<int64_t> v = ParseInt(big);
    ASSERT_FALSE(v.ok()) << big;
    EXPECT_EQ(v.status().code(), StatusCode::kOutOfRange) << big;
  }
  Result<int64_t> port = ParseInt("70000", 0, 65535);
  ASSERT_FALSE(port.ok());
  EXPECT_EQ(port.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(port.status().message().find("[0, 65535]"), std::string::npos);
  EXPECT_FALSE(ParseInt("-1", 0, 10).ok());
}

}  // namespace
}  // namespace tagg
