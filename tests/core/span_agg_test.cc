#include "core/span_agg.h"

#include <gtest/gtest.h>

#include "tests/core/test_util.h"

namespace tagg {
namespace {

TEST(SpanAggTest, MakeValidates) {
  EXPECT_FALSE(SpanAggregator<CountOp>::Make(Period(0, 99), 0).ok());
  EXPECT_FALSE(SpanAggregator<CountOp>::Make(Period(0, 99), -5).ok());
  EXPECT_FALSE(
      SpanAggregator<CountOp>::Make(Period(0, kForever), 10).ok());
  EXPECT_TRUE(SpanAggregator<CountOp>::Make(Period(0, 99), 10).ok());
}

TEST(SpanAggTest, BucketCountRoundsUp) {
  auto agg = SpanAggregator<CountOp>::Make(Period(0, 99), 10);
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->bucket_count(), 10u);
  auto odd = SpanAggregator<CountOp>::Make(Period(0, 104), 10);
  ASSERT_TRUE(odd.ok());
  EXPECT_EQ(odd->bucket_count(), 11u);
}

TEST(SpanAggTest, CountsTuplesOverlappingEachSpan) {
  auto agg = SpanAggregator<CountOp>::Make(Period(0, 99), 10);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->Add(Period(5, 14), 0).ok());   // spans 0 and 1
  ASSERT_TRUE(agg->Add(Period(10, 10), 0).ok());  // span 1
  ASSERT_TRUE(agg->Add(Period(0, 99), 0).ok());   // all spans
  auto out = agg->FinishTyped();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 10u);
  EXPECT_EQ((*out)[0], (TypedInterval<int64_t>{0, 9, 2}));
  EXPECT_EQ((*out)[1], (TypedInterval<int64_t>{10, 19, 3}));
  EXPECT_EQ((*out)[2], (TypedInterval<int64_t>{20, 29, 1}));
  EXPECT_EQ((*out)[9], (TypedInterval<int64_t>{90, 99, 1}));
}

TEST(SpanAggTest, FinalSpanMayBeShort) {
  auto agg = SpanAggregator<CountOp>::Make(Period(0, 104), 10);
  ASSERT_TRUE(agg.ok());
  auto out = agg->FinishTyped();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->back().start, 100);
  EXPECT_EQ(out->back().end, 104);
}

TEST(SpanAggTest, TuplesOutsideWindowIgnored) {
  auto agg = SpanAggregator<CountOp>::Make(Period(100, 199), 50);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->Add(Period(0, 50), 0).ok());      // before window
  ASSERT_TRUE(agg->Add(Period(300, 400), 0).ok());   // after window
  ASSERT_TRUE(agg->Add(Period(0, kForever), 0).ok());  // clipped to window
  auto out = agg->FinishTyped();
  ASSERT_TRUE(out.ok());
  EXPECT_EQ((*out)[0].state, 1);
  EXPECT_EQ((*out)[1].state, 1);
}

TEST(SpanAggTest, WindowNotStartingAtOrigin) {
  auto agg = SpanAggregator<CountOp>::Make(Period(1000, 1099), 25);
  ASSERT_TRUE(agg.ok());
  ASSERT_TRUE(agg->Add(Period(1010, 1030), 0).ok());
  auto out = agg->FinishTyped();
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 4u);
  EXPECT_EQ((*out)[0], (TypedInterval<int64_t>{1000, 1024, 1}));
  EXPECT_EQ((*out)[1], (TypedInterval<int64_t>{1025, 1049, 1}));
  EXPECT_EQ((*out)[2].state, 0);
}

TEST(SpanAggTest, ComputeSpanAggregateDispatch) {
  Relation r = testutil::MakeRelation(
      {{0, 9, 100}, {5, 14, 200}, {10, 19, 300}});
  SpanAggregateOptions options;
  options.aggregate = AggregateKind::kMax;
  options.attribute = 1;
  options.window = Period(0, 19);
  options.span_width = 10;
  auto series = ComputeSpanAggregate(r, options);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->intervals.size(), 2u);
  EXPECT_EQ(series->intervals[0].value, Value::Double(200));
  EXPECT_EQ(series->intervals[1].value, Value::Double(300));
}

TEST(SpanAggTest, ComputeSpanAggregateValidatesAttribute) {
  Relation r = testutil::MakeRelation({{0, 9, 1}});
  SpanAggregateOptions options;
  options.aggregate = AggregateKind::kSum;
  options.window = Period(0, 9);
  options.span_width = 5;
  EXPECT_TRUE(
      ComputeSpanAggregate(r, options).status().IsInvalidArgument());
  options.attribute = 9;
  EXPECT_TRUE(
      ComputeSpanAggregate(r, options).status().IsInvalidArgument());
}

TEST(SpanAggTest, FarFewerBucketsThanConstantIntervals) {
  // Section 7: span grouping needs only #spans buckets.
  Relation r = testutil::MakeRelation({});
  for (int i = 0; i < 200; ++i) {
    r.AppendUnchecked(Tuple({Value::String("x"), Value::Int(1)},
                            Period(i * 7, i * 7 + 3)));
  }
  SpanAggregateOptions options;
  options.window = Period(0, 1399);
  options.span_width = 700;
  auto series = ComputeSpanAggregate(r, options);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->intervals.size(), 2u);
  EXPECT_EQ(series->stats.peak_live_nodes, 2u);
}

TEST(SpanAggTest, ASelectionReadsOnlyItsRows) {
  Relation relation = testutil::MakeRelation(
      {{0, 9, 10}, {5, 14, 20}, {12, 25, 30}, {20, 29, 40}});
  const std::vector<size_t> rows = {3, 1};
  SpanAggregateOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = 1;
  options.window = Period(0, 29);
  options.span_width = 10;
  auto series = ComputeSpanAggregate(RowSelection(relation, rows), options);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  ASSERT_EQ(series->intervals.size(), 3u);
  EXPECT_EQ(series->intervals[0].value, Value::Double(20));
  EXPECT_EQ(series->intervals[1].value, Value::Double(20));
  EXPECT_EQ(series->intervals[2].value, Value::Double(40));
}

}  // namespace
}  // namespace tagg
