#include "live/live_index.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/workload.h"
#include "tests/core/test_util.h"

namespace tagg {
namespace {

/// Builds a live index configured like the batch AggregateOptions the core
/// tests use: attribute 1 (salary) for value aggregates, COUNT(*) for
/// COUNT, and loads every tuple of `relation` in order.
std::unique_ptr<LiveAggregateIndex> MakeLoadedIndex(
    const Relation& relation, AggregateKind aggregate) {
  LiveIndexOptions options;
  options.aggregate = aggregate;
  options.attribute =
      aggregate == AggregateKind::kCount ? AggregateOptions::kNoAttribute : 1;
  auto index = LiveAggregateIndex::Create(options);
  EXPECT_TRUE(index.ok()) << index.status().ToString();
  for (const Tuple& t : relation) {
    const Status st = (*index)->InsertTuple(t);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
  return std::move(index).value();
}

/// The reference oracle's series for the same aggregate configuration.
AggregateSeries ReferenceSeries(const Relation& relation,
                                AggregateKind aggregate) {
  AggregateOptions options;
  options.aggregate = aggregate;
  options.algorithm = AlgorithmKind::kReference;
  options.attribute =
      aggregate == AggregateKind::kCount ? AggregateOptions::kNoAttribute : 1;
  auto series = ComputeTemporalAggregate(relation, options);
  EXPECT_TRUE(series.ok()) << series.status().ToString();
  return std::move(series).value();
}

/// Clips a full-time-line series to `query` (the expected AggregateOver
/// answer for a sub-range).
std::vector<ResultInterval> ClipSeries(const AggregateSeries& series,
                                       const Period& query) {
  std::vector<ResultInterval> out;
  for (const ResultInterval& ri : series.intervals) {
    if (!ri.period.Overlaps(query)) continue;
    const Instant lo = std::max(ri.period.start(), query.start());
    const Instant hi = std::min(ri.period.end(), query.end());
    out.push_back({Period(lo, hi), ri.value});
  }
  return out;
}

constexpr AggregateKind kAllAggregates[] = {
    AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
    AggregateKind::kMax, AggregateKind::kAvg};

TEST(LiveIndexTest, Figure1CountReproducesTable1) {
  const Relation employed = MakeFigure1EmployedRelation();
  auto index = MakeLoadedIndex(employed, AggregateKind::kCount);

  auto series = index->AggregateOver(Period::All(), /*coalesce=*/false);
  ASSERT_TRUE(series.ok()) << series.status().ToString();
  EXPECT_EQ(series->intervals, ReferenceSeries(employed,
                                               AggregateKind::kCount)
                                   .intervals);

  // Table 1's headline row: three employees over [18, 20].
  auto at = index->AggregateAt(18);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(*at, Value::Int(3));
}

TEST(LiveIndexTest, AllAggregatesMatchReferenceOnRandomWorkload) {
  WorkloadSpec spec;
  spec.num_tuples = 500;
  spec.lifespan = 20000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 20260805;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  for (AggregateKind aggregate : kAllAggregates) {
    const AggregateSeries want = ReferenceSeries(*relation, aggregate);
    auto index = MakeLoadedIndex(*relation, aggregate);
    auto got = index->AggregateOver(Period::All(), /*coalesce=*/false);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->intervals, want.intervals)
        << "aggregate=" << AggregateKindToString(aggregate);
  }
}

TEST(LiveIndexTest, InsertBatchEqualsSingletonInserts) {
  WorkloadSpec spec;
  spec.num_tuples = 400;
  spec.lifespan = 8000;
  spec.long_lived_fraction = 0.3;
  spec.seed = 424242;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  std::vector<std::pair<Period, double>> batch;
  for (const Tuple& t : *relation) {
    auto salary = t.value(1).ToNumeric();
    ASSERT_TRUE(salary.ok());
    batch.emplace_back(t.valid(), *salary);
  }

  const AggregateSeries want = ReferenceSeries(*relation, AggregateKind::kSum);
  LiveIndexOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = 1;
  auto index = LiveAggregateIndex::Create(options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->InsertBatch(batch).ok());
  // One batch = one publication, but the epoch still counts tuples.
  EXPECT_EQ((*index)->epoch(), batch.size());
  auto got = (*index)->AggregateOver(Period::All(), /*coalesce=*/false);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->intervals, want.intervals);
  // Empty batches are a no-op, not a publication.
  const uint64_t versions = (*index)->Stats().versions_published;
  ASSERT_TRUE((*index)->InsertBatch({}).ok());
  EXPECT_EQ((*index)->Stats().versions_published, versions);
}

TEST(LiveIndexTest, StaysCorrectAfterEveryIncrementalInsert) {
  // The tentpole property: absorbing one tuple at a time, the resident
  // tree answers exactly what a from-scratch rebuild over the prefix
  // would — no rebuild ever happens.
  WorkloadSpec spec;
  spec.num_tuples = 64;
  spec.lifespan = 2000;
  spec.long_lived_fraction = 0.25;
  spec.seed = 7;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  LiveIndexOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = 1;
  auto index = LiveAggregateIndex::Create(options);
  ASSERT_TRUE(index.ok());

  Relation prefix(relation->schema(), relation->name());
  for (const Tuple& t : *relation) {
    ASSERT_TRUE((*index)->InsertTuple(t).ok());
    prefix.AppendUnchecked(t);
    auto got = (*index)->AggregateOver(Period::All(), /*coalesce=*/false);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->intervals,
              ReferenceSeries(prefix, AggregateKind::kSum).intervals)
        << "after " << prefix.size() << " inserts";
  }
}

TEST(LiveIndexTest, AggregateAtMatchesTheSeriesEverywhere) {
  WorkloadSpec spec;
  spec.num_tuples = 300;
  spec.lifespan = 5000;
  spec.seed = 99;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  for (AggregateKind aggregate : kAllAggregates) {
    auto index = MakeLoadedIndex(*relation, aggregate);
    const AggregateSeries want = ReferenceSeries(*relation, aggregate);
    for (const ResultInterval& ri : want.intervals) {
      for (Instant t : {ri.period.start(), ri.period.end()}) {
        auto at = index->AggregateAt(t);
        ASSERT_TRUE(at.ok());
        EXPECT_EQ(*at, ri.value)
            << "t=" << t << " aggregate="
            << AggregateKindToString(aggregate);
      }
    }
  }
}

TEST(LiveIndexTest, AggregateOverSubrangeEqualsClippedReference) {
  WorkloadSpec spec;
  spec.num_tuples = 200;
  spec.lifespan = 4000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 3;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  auto index = MakeLoadedIndex(*relation, AggregateKind::kCount);
  const AggregateSeries full =
      ReferenceSeries(*relation, AggregateKind::kCount);
  for (const Period query :
       {Period(100, 2500), Period(0, 0), Period(3999, kForever),
        Period(1234, 1234)}) {
    auto got = index->AggregateOver(query, /*coalesce=*/false);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got->intervals, ClipSeries(full, query))
        << "query=" << query.ToString();
    // The answer exactly covers the query period.
    ASSERT_FALSE(got->intervals.empty());
    EXPECT_EQ(got->intervals.front().period.start(), query.start());
    EXPECT_EQ(got->intervals.back().period.end(), query.end());
  }
}

TEST(LiveIndexTest, CoalesceMergesValueEqualNeighbours) {
  const Relation employed = MakeFigure1EmployedRelation();
  auto index = MakeLoadedIndex(employed, AggregateKind::kCount);
  auto got = index->AggregateOver(Period::All(), /*coalesce=*/true);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->intervals,
            CoalesceEqualValues(
                ReferenceSeries(employed, AggregateKind::kCount).intervals));
}

TEST(LiveIndexTest, EmptyIndexServesTheIdentity) {
  LiveIndexOptions count;
  auto index = LiveAggregateIndex::Create(count);
  ASSERT_TRUE(index.ok());
  auto at = (*index)->AggregateAt(12345);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(*at, Value::Int(0));
  auto over = (*index)->AggregateOver(Period::All(), /*coalesce=*/false);
  ASSERT_TRUE(over.ok());
  ASSERT_EQ(over->intervals.size(), 1u);
  EXPECT_EQ(over->intervals[0].period, Period::All());
  EXPECT_EQ(over->intervals[0].value, Value::Int(0));

  LiveIndexOptions avg;
  avg.aggregate = AggregateKind::kAvg;
  avg.attribute = 1;
  auto avg_index = LiveAggregateIndex::Create(avg);
  ASSERT_TRUE(avg_index.ok());
  auto avg_at = (*avg_index)->AggregateAt(0);
  ASSERT_TRUE(avg_at.ok());
  EXPECT_TRUE(avg_at->is_null());
}

TEST(LiveIndexTest, CreateRequiresAttributeForValueAggregates) {
  for (AggregateKind aggregate :
       {AggregateKind::kSum, AggregateKind::kMin, AggregateKind::kMax,
        AggregateKind::kAvg}) {
    LiveIndexOptions options;
    options.aggregate = aggregate;
    EXPECT_TRUE(
        LiveAggregateIndex::Create(options).status().IsInvalidArgument())
        << AggregateKindToString(aggregate);
  }
}

TEST(LiveIndexTest, AggregateAtRejectsInstantsOffTheTimeline) {
  LiveIndexOptions options;
  auto index = LiveAggregateIndex::Create(options);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->AggregateAt(-1).status().IsInvalidArgument());
}

TEST(LiveIndexTest, InsertTupleRejectsArityMismatch) {
  LiveIndexOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = 5;
  auto index = LiveAggregateIndex::Create(options);
  ASSERT_TRUE(index.ok());
  const Status st =
      (*index)->InsertTuple(Tuple({Value::Int(1)}, Period(0, 10)));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(LiveIndexTest, EpochCountsSkippedNullsAndStatsAdvance) {
  LiveIndexOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = 1;
  auto created = LiveAggregateIndex::Create(options);
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;

  ASSERT_TRUE(index
                  .InsertTuple(Tuple({Value::String("a"), Value::Int(100)},
                                     Period(0, 9)))
                  .ok());
  // NULL salary: seen (epoch) but not folded (absorbed).
  ASSERT_TRUE(index
                  .InsertTuple(
                      Tuple({Value::String("b"), Value::Null()}, Period(5, 14)))
                  .ok());

  LiveIndexStats stats = index.Stats();
  EXPECT_EQ(stats.epoch, 2u);
  EXPECT_EQ(index.epoch(), 2u);
  EXPECT_EQ(stats.inserts_absorbed, 1u);
  EXPECT_GE(stats.tree_depth, 1u);
  EXPECT_GE(stats.live_nodes, 1u);
  EXPECT_EQ(stats.paper_bytes, stats.live_nodes * kPaperNodeBytes);
  EXPECT_GE(stats.snapshot_age_seconds, 0.0);

  const uint64_t queries_before = stats.queries_served;
  uint64_t snapshot_epoch = 0;
  auto at = index.AggregateAt(7, &snapshot_epoch);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(snapshot_epoch, 2u);
  EXPECT_EQ(*at, Value::Double(100.0));  // the NULL tuple contributed nothing
  auto over = index.AggregateOver(Period::All(), true, &snapshot_epoch);
  ASSERT_TRUE(over.ok());
  EXPECT_EQ(index.Stats().queries_served, queries_before + 2);
  EXPECT_FALSE(index.Stats().ToString().empty());
}

}  // namespace
}  // namespace tagg
