#include "query/parser.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

namespace tagg {
namespace {

TEST(ParserTest, MinimalCount) {
  auto stmt = ParseSelect("SELECT COUNT(name) FROM employed");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->items.size(), 1u);
  EXPECT_TRUE(stmt->items[0].is_aggregate);
  EXPECT_EQ(stmt->items[0].aggregate, AggregateKind::kCount);
  EXPECT_EQ(stmt->items[0].column, "name");
  EXPECT_EQ(stmt->relation, "employed");
  EXPECT_EQ(stmt->where, nullptr);
  EXPECT_TRUE(stmt->group_by.empty());
  EXPECT_EQ(stmt->temporal.kind, TemporalGrouping::Kind::kInstant);
}

TEST(ParserTest, CountStar) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t;");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->items[0].column.empty());
}

TEST(ParserTest, StarOnlyForCount) {
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) FROM t").ok());
}

TEST(ParserTest, MultipleItemsAndGroupBy) {
  auto stmt = ParseSelect(
      "SELECT dept, AVG(salary), MAX(salary) FROM employed GROUP BY dept");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt->items.size(), 3u);
  EXPECT_FALSE(stmt->items[0].is_aggregate);
  EXPECT_EQ(stmt->items[0].column, "dept");
  EXPECT_EQ(stmt->items[1].aggregate, AggregateKind::kAvg);
  EXPECT_EQ(stmt->items[2].aggregate, AggregateKind::kMax);
  EXPECT_EQ(stmt->group_by, std::vector<std::string>{"dept"});
}

TEST(ParserTest, WherePredicatePrecedence) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE a = 1 OR b > 2 AND NOT c < 3");
  ASSERT_TRUE(stmt.ok());
  ASSERT_NE(stmt->where, nullptr);
  // OR binds loosest: (a = 1) OR ((b > 2) AND (NOT (c < 3))).
  EXPECT_EQ(stmt->where->kind, Predicate::Kind::kOr);
  EXPECT_EQ(stmt->where->lhs->kind, Predicate::Kind::kComparison);
  EXPECT_EQ(stmt->where->rhs->kind, Predicate::Kind::kAnd);
  EXPECT_EQ(stmt->where->rhs->rhs->kind, Predicate::Kind::kNot);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  auto stmt =
      ParseSelect("SELECT COUNT(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, Predicate::Kind::kAnd);
  EXPECT_EQ(stmt->where->lhs->kind, Predicate::Kind::kOr);
}

TEST(ParserTest, AllComparisonOperators) {
  for (const char* op : {"=", "<>", "!=", "<", "<=", ">", ">="}) {
    const std::string sql =
        std::string("SELECT COUNT(*) FROM t WHERE x ") + op + " 5";
    EXPECT_TRUE(ParseSelect(sql).ok()) << sql;
  }
}

TEST(ParserTest, LiteralTypes) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE a = 5 AND b = 2.5 AND c = 'x'");
  ASSERT_TRUE(stmt.ok());
  const Predicate* and1 = stmt->where.get();
  EXPECT_EQ(and1->rhs->literal, Value::String("x"));
  EXPECT_EQ(and1->lhs->rhs->literal, Value::Double(2.5));
  EXPECT_EQ(and1->lhs->lhs->literal, Value::Int(5));
}

TEST(ParserTest, SignedLiterals) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE a > -5 AND b = -1.5 AND c = -0.0 AND "
      "d >= -9223372036854775808 AND e <= 9223372036854775807");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  // ((((a AND b) AND c) AND d) AND e)
  const Predicate* p = stmt->where.get();
  EXPECT_EQ(p->rhs->literal,
            Value::Int(std::numeric_limits<int64_t>::max()));
  p = p->lhs.get();
  EXPECT_EQ(p->rhs->literal,
            Value::Int(std::numeric_limits<int64_t>::min()));
  p = p->lhs.get();
  ASSERT_EQ(p->rhs->literal.type(), ValueType::kDouble);
  EXPECT_EQ(p->rhs->literal.AsDouble(), 0.0);
  EXPECT_TRUE(std::signbit(p->rhs->literal.AsDouble()))
      << "-0.0 lost its sign";
  p = p->lhs.get();
  EXPECT_EQ(p->rhs->literal, Value::Double(-1.5));
  EXPECT_EQ(p->lhs->literal, Value::Int(-5));
}

TEST(ParserTest, OutOfRangeLiteralsAreErrors) {
  for (const char* literal :
       {"-9223372036854775809", "9223372036854775808",
        "-99999999999999999999"}) {
    auto stmt = ParseSelect(std::string("SELECT COUNT(*) FROM t WHERE a > ") +
                            literal);
    EXPECT_TRUE(stmt.status().IsInvalidArgument())
        << literal << ": " << stmt.status().ToString();
  }
  // A float literal beyond the double range is an error, not a throw.
  const std::string huge = "1" + std::string(400, '0') + ".5";
  for (const std::string& literal : {huge, "-" + huge}) {
    auto stmt =
        ParseSelect("SELECT COUNT(*) FROM t WHERE a > " + literal);
    EXPECT_TRUE(stmt.status().IsInvalidArgument())
        << stmt.status().ToString();
  }
}

TEST(ParserTest, NegativePeriodStartIsRejected) {
  // A sign reaches the instants too; a period before the origin is still
  // invalid.
  EXPECT_FALSE(
      ParseSelect("SELECT COUNT(*) FROM t WHERE VALID OVERLAPS -5 TO 10")
          .ok());
}

TEST(ParserTest, SpanGrouping) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t GROUP BY SPAN 100 FROM 0 TO 999");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->temporal.kind, TemporalGrouping::Kind::kSpan);
  EXPECT_EQ(stmt->temporal.span_width, 100);
  ASSERT_TRUE(stmt->temporal.has_window);
  EXPECT_EQ(stmt->temporal.window_start, 0);
  EXPECT_EQ(stmt->temporal.window_end, 999);
}

TEST(ParserTest, SpanWithoutWindow) {
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t GROUP BY SPAN 50");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->temporal.kind, TemporalGrouping::Kind::kSpan);
  EXPECT_FALSE(stmt->temporal.has_window);
}

TEST(ParserTest, ExplicitInstantGrouping) {
  auto stmt = ParseSelect("SELECT dept, COUNT(*) FROM t GROUP BY dept, INSTANT");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->temporal.kind, TemporalGrouping::Kind::kInstant);
  EXPECT_EQ(stmt->group_by, std::vector<std::string>{"dept"});
}

TEST(ParserTest, DoubleTemporalClauseRejected) {
  EXPECT_FALSE(
      ParseSelect("SELECT COUNT(*) FROM t GROUP BY INSTANT, SPAN 5").ok());
}

TEST(ParserTest, ColumnNamedCountIsUsable) {
  // "count" not followed by '(' is an ordinary identifier.
  auto stmt = ParseSelect("SELECT count, MAX(x) FROM t GROUP BY count");
  ASSERT_TRUE(stmt.ok());
  EXPECT_FALSE(stmt->items[0].is_aggregate);
  EXPECT_EQ(stmt->items[0].column, "count");
}

TEST(ParserTest, SyntaxErrorsCarryPosition) {
  auto r = ParseSelect("SELECT FROM t");
  EXPECT_FALSE(r.ok());
  r = ParseSelect("SELECT COUNT(name FROM t");
  EXPECT_FALSE(r.ok());
  r = ParseSelect("SELECT COUNT(name) FROM");
  EXPECT_FALSE(r.ok());
  r = ParseSelect("SELECT COUNT(name) FROM t WHERE");
  EXPECT_FALSE(r.ok());
  r = ParseSelect("SELECT COUNT(name) FROM t GROUP dept");
  EXPECT_FALSE(r.ok());
  r = ParseSelect("SELECT COUNT(name) FROM t trailing junk");
  EXPECT_FALSE(r.ok());
}

TEST(ParserTest, ValidOverlapsPredicate) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE VALID OVERLAPS 10 TO 20");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->where->kind, Predicate::Kind::kValidOverlaps);
  EXPECT_EQ(stmt->where->period, Period(10, 20));
}

TEST(ParserTest, ValidOverlapsForever) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE VALID OVERLAPS 10 TO FOREVER");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->period, Period(10, kForever));
}

TEST(ParserTest, ValidOverlapsCombinesWithValuePredicates) {
  auto stmt = ParseSelect(
      "SELECT COUNT(*) FROM t WHERE salary > 5 AND VALID OVERLAPS 0 TO 9");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, Predicate::Kind::kAnd);
  EXPECT_EQ(stmt->where->rhs->kind, Predicate::Kind::kValidOverlaps);
}

TEST(ParserTest, ValidOverlapsRejectsBadPeriod) {
  EXPECT_FALSE(
      ParseSelect("SELECT COUNT(*) FROM t WHERE VALID OVERLAPS 20 TO 10")
          .ok());
  EXPECT_FALSE(
      ParseSelect("SELECT COUNT(*) FROM t WHERE VALID OVERLAPS x TO 10")
          .ok());
}

TEST(ParserTest, ColumnNamedValidStillComparable) {
  // "VALID" not followed by OVERLAPS falls back to a column reference.
  auto stmt = ParseSelect("SELECT COUNT(*) FROM t WHERE valid = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->kind, Predicate::Kind::kComparison);
}

TEST(ParserTest, ExplainPrefix) {
  auto stmt = ParseSelect("EXPLAIN SELECT COUNT(*) FROM t");
  ASSERT_TRUE(stmt.ok());
  EXPECT_TRUE(stmt->explain);
  EXPECT_EQ(stmt->ToString(), "EXPLAIN SELECT COUNT(*) FROM t");
  auto plain = ParseSelect("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->explain);
  // EXPLAIN alone is not a statement.
  EXPECT_FALSE(ParseSelect("EXPLAIN").ok());
}

TEST(ParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(
      ParseSelect("select count(*) from t where x = 1 group by instant")
          .ok());
}

TEST(ParserTest, ToStringRoundTripsShape) {
  auto stmt = ParseSelect(
      "SELECT dept, AVG(salary) FROM employed WHERE salary >= 100 "
      "GROUP BY dept");
  ASSERT_TRUE(stmt.ok());
  const std::string rendered = stmt->ToString();
  auto again = ParseSelect(rendered);
  ASSERT_TRUE(again.ok()) << rendered;
  EXPECT_EQ(again->ToString(), rendered);
}

}  // namespace
}  // namespace tagg
