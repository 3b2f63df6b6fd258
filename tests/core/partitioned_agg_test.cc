#include "core/partitioned_agg.h"

#include <gtest/gtest.h>

#include <string>

#include "core/aggregation_tree.h"
#include "core/workload.h"
#include "tests/core/test_util.h"
#include "util/cpu_features.h"

namespace tagg {
namespace {

constexpr AggregateKind kAllKinds[] = {
    AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
    AggregateKind::kMax, AggregateKind::kAvg};

size_t AttributeFor(AggregateKind kind) {
  return kind == AggregateKind::kCount ? AggregateOptions::kNoAttribute : 1;
}

void ExpectMatchesSingleTree(const Relation& relation,
                             const PartitionedOptions& options) {
  AggregateOptions single;
  single.aggregate = options.aggregate;
  single.attribute = options.attribute;
  single.algorithm = AlgorithmKind::kAggregationTree;
  auto want = ComputeTemporalAggregate(relation, single);
  ASSERT_TRUE(want.ok());
  auto got = ComputePartitionedAggregate(relation, options);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->intervals, want->intervals)
      << "partitions=" << options.partitions
      << " spill=" << options.spill_to_disk
      << " workers=" << options.parallel_workers
      << " simd=" << SimdLevelToString(ActiveSimdLevel());
}

/// Both SIMD dispatch levels (kAvx2 clamps to kScalar on CPUs without it).
constexpr SimdLevel kSimdLevels[] = {SimdLevel::kAvx2, SimdLevel::kScalar};

TEST(PartitionedAggTest, ValidatesOptions) {
  Relation r = testutil::MakeRelation({{0, 9, 1}});
  PartitionedOptions options;
  options.partitions = 0;
  EXPECT_TRUE(
      ComputePartitionedAggregate(r, options).status().IsInvalidArgument());
  options.partitions = 4;
  options.aggregate = AggregateKind::kSum;
  options.attribute = 99;
  EXPECT_TRUE(
      ComputePartitionedAggregate(r, options).status().IsInvalidArgument());
}

TEST(PartitionedAggTest, SinglePartitionEqualsPlainTree) {
  Relation employed = MakeFigure1EmployedRelation();
  PartitionedOptions options;
  options.partitions = 1;
  ExpectMatchesSingleTree(employed, options);
}

TEST(PartitionedAggTest, EmployedAcrossPartitionCounts) {
  Relation employed = MakeFigure1EmployedRelation();
  for (size_t p : {2, 3, 4, 7, 16}) {
    PartitionedOptions options;
    options.partitions = p;
    options.attribute = 0;
    ExpectMatchesSingleTree(employed, options);
  }
}

TEST(PartitionedAggTest, RandomWorkloadsMatch) {
  for (double ll : {0.0, 0.4, 0.8}) {
    WorkloadSpec spec;
    spec.num_tuples = 300;
    spec.lifespan = 20000;
    spec.long_lived_fraction = ll;
    spec.seed = 123 + static_cast<uint64_t>(ll * 10);
    auto relation = GenerateEmployedRelation(spec);
    ASSERT_TRUE(relation.ok());
    for (size_t p : {2, 8, 32}) {
      for (AggregateKind kind : kAllKinds) {
        PartitionedOptions options;
        options.partitions = p;
        options.aggregate = kind;
        options.attribute = AttributeFor(kind);
        ExpectMatchesSingleTree(*relation, options);
      }
    }
  }
}

TEST(PartitionedAggTest, SpillToDiskMatches) {
  WorkloadSpec spec;
  spec.num_tuples = 250;
  spec.lifespan = 15000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 321;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  PartitionedOptions options;
  options.partitions = 8;
  options.spill_to_disk = true;
  ExpectMatchesSingleTree(*relation, options);
}

TEST(PartitionedAggTest, ColumnarKernelMatchesAcrossDispatchModes) {
  // The columnar kernel (the pick for invertible aggregates) must
  // reproduce the tree result exactly in both dispatch modes — the AVX2
  // body and the pinned scalar body share the emitter semantics.
  WorkloadSpec spec;
  spec.num_tuples = 400;
  spec.lifespan = 25000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 616;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg}) {
    for (SimdLevel level : kSimdLevels) {
      SimdLevelOverride pin(level);
      PartitionedOptions options;
      options.partitions = 8;
      options.aggregate = kind;
      options.attribute = AttributeFor(kind);
      ExpectMatchesSingleTree(*relation, options);
    }
  }
}

TEST(PartitionedAggTest, SpillColumnarSortsThroughRuns) {
  // A spill budget far below the region event counts forces the
  // PodRunSorter into run generation + k-way merge over compressed runs;
  // both dispatch modes must reproduce the tree answer.
  WorkloadSpec spec;
  spec.num_tuples = 400;
  spec.lifespan = 20000;
  spec.long_lived_fraction = 0.5;
  spec.seed = 4242;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kAvg}) {
    for (SimdLevel level : kSimdLevels) {
      SimdLevelOverride pin(level);
      PartitionedOptions options;
      options.partitions = 4;
      options.aggregate = kind;
      options.attribute = AttributeFor(kind);
      options.spill_to_disk = true;
      options.spill_sort_budget_records = 8;
      ExpectMatchesSingleTree(*relation, options);
    }
  }
}

TEST(PartitionedAggTest, PeakMemoryDropsWithPartitions) {
  WorkloadSpec spec;
  spec.num_tuples = 2000;
  spec.lifespan = 1000000;
  spec.seed = 9;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  PartitionedOptions one;
  one.partitions = 1;
  auto whole = ComputePartitionedAggregate(*relation, one);
  ASSERT_TRUE(whole.ok());

  PartitionedOptions sixteen;
  sixteen.partitions = 16;
  auto split = ComputePartitionedAggregate(*relation, sixteen);
  ASSERT_TRUE(split.ok());

  // Short-lived tuples rarely straddle regions: peak working-set size
  // should fall by roughly the partition count.
  EXPECT_LT(split->stats.peak_live_nodes * 4,
            whole->stats.peak_live_nodes);
}

TEST(PartitionedAggTest, ParallelWorkersMatchSequential) {
  WorkloadSpec spec;
  spec.num_tuples = 1000;
  spec.lifespan = 100000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 555;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  PartitionedOptions sequential;
  sequential.partitions = 16;
  auto want = ComputePartitionedAggregate(*relation, sequential);
  ASSERT_TRUE(want.ok());

  for (size_t workers : {2, 4, 8}) {
    PartitionedOptions parallel = sequential;
    parallel.parallel_workers = workers;
    auto got = ComputePartitionedAggregate(*relation, parallel);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->intervals, want->intervals) << workers << " workers";
  }
}

TEST(PartitionedAggTest, SpillCombinesWithParallelWorkers) {
  // PR 1 rejected this combination because all regions shared one replay
  // file; per-region spill files (storage/spill_file) made it legal.
  WorkloadSpec spec;
  spec.num_tuples = 600;
  spec.lifespan = 50000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 808;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  for (size_t workers : {2, 4}) {
    PartitionedOptions options;
    options.partitions = 16;
    options.spill_to_disk = true;
    options.parallel_workers = workers;
    ExpectMatchesSingleTree(*relation, options);
  }
}

TEST(PartitionedAggTest, SpillWithSingleWorkerIsAllowed) {
  // parallel_workers = 1 (or the 0 "default" a caller might pass) with
  // spilling enabled is the plain sequential limited-memory mode.
  Relation r = testutil::MakeRelation({{0, 9, 1}, {5, 14, 1}});
  for (size_t workers : {size_t{0}, size_t{1}}) {
    PartitionedOptions options;
    options.spill_to_disk = true;
    options.parallel_workers = workers;
    auto got = ComputePartitionedAggregate(r, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    PartitionedOptions in_memory;
    auto want = ComputePartitionedAggregate(r, in_memory);
    ASSERT_TRUE(want.ok());
    EXPECT_EQ(got->intervals, want->intervals);
  }
}

TEST(PartitionedAggTest, BoundaryExactlyOnTupleEndpointIsReal) {
  // Construct a tuple ending exactly where a region begins; the boundary
  // is then real and the two sides must NOT be merged.
  // Lifespan [0, 99] with 2 partitions puts a boundary at 50.
  // COUNT runs the columnar sweep, MAX the tree.
  Relation r = testutil::MakeRelation(
      {{0, 49, 1}, {50, 99, 1}});  // endpoints exactly at the boundary
  for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kMax}) {
    PartitionedOptions options;
    options.partitions = 2;
    options.aggregate = kind;
    options.attribute = AttributeFor(kind);
    auto got = ComputePartitionedAggregate(r, options);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->intervals.size(), 3u) << AggregateKindToString(kind);
    EXPECT_EQ(got->intervals[0].period, Period(0, 49));
    EXPECT_EQ(got->intervals[1].period, Period(50, 99));
  }
}

TEST(PartitionedAggTest, ArtificialBoundaryIsStitched) {
  // One tuple spanning the whole [0, 99] lifespan; the region boundary at
  // 50 is artificial, so the result must be a single interval across it.
  // COUNT runs the columnar sweep, MAX the tree.
  Relation r = testutil::MakeRelation({{0, 99, 1}});
  for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kMax}) {
    PartitionedOptions options;
    options.partitions = 2;
    options.aggregate = kind;
    options.attribute = AttributeFor(kind);
    auto got = ComputePartitionedAggregate(r, options);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->intervals.size(), 2u) << AggregateKindToString(kind);
    EXPECT_EQ(got->intervals[0].period, Period(0, 99));
    EXPECT_EQ(got->intervals[0].value, kind == AggregateKind::kCount
                                           ? Value::Int(1)
                                           : Value::Double(1.0));
    EXPECT_EQ(got->intervals[1].period, Period(100, kForever));
  }
}

TEST(PartitionedAggTest, MorePartitionsThanTuples) {
  Relation r = testutil::MakeRelation({{10, 20, 1}, {30, 40, 2}});
  PartitionedOptions options;
  options.partitions = 64;
  ExpectMatchesSingleTree(r, options);
}

// Returns the reported value on the constant interval containing `t`.
Value ValueAt(const AggregateSeries& series, Instant t) {
  for (const ResultInterval& iv : series.intervals) {
    if (iv.period.start() <= t && t <= iv.period.end()) return iv.value;
  }
  ADD_FAILURE() << "no interval contains instant " << t;
  return Value::Null();
}

TEST(PartitionedAggTest, SweepKernelSurvivesCatastrophicCancellation) {
  // Regression: the columnar sweep keeps one running accumulator and adds a
  // tuple's value at its start and the negation at its end.  Plain IEEE
  // accumulation loses a small addend absorbed under a large magnitude
  // (1e17 + 1 rounds to 1e17), and the damage persists after the large
  // tuple retires: SUM over [20, 39] came back 0.0 instead of 1.0.  The
  // Neumaier-compensated accumulator carries the lost low-order part.
  Relation r = testutil::MakeRelation(
      {{0, 19, 100000000000000000LL}, {10, 39, 1}});
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg}) {
    AggregateOptions tree;
    tree.aggregate = kind;
    tree.attribute = 1;
    tree.algorithm = AlgorithmKind::kAggregationTree;
    auto want = ComputeTemporalAggregate(r, tree);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (SimdLevel level : kSimdLevels) {
      SimdLevelOverride pin(level);
      PartitionedOptions sweep;
      sweep.partitions = 1;  // one region: whole cancellation in one sweep
      sweep.aggregate = kind;
      sweep.attribute = 1;
      auto got = ComputePartitionedAggregate(r, sweep);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      // After the 1e17 tuple retires at 20 only the value-1 tuple lives.
      EXPECT_EQ(ValueAt(*got, 30), Value::Double(1.0))
          << AggregateKindToString(kind)
          << " simd=" << SimdLevelToString(ActiveSimdLevel());
      EXPECT_EQ(got->intervals, want->intervals)
          << "sweep and tree disagree for " << AggregateKindToString(kind)
          << " simd=" << SimdLevelToString(ActiveSimdLevel());
    }
  }
}

TEST(PartitionedAggTest, SweepKernelReportsEmptyIntervalsAsNull) {
  // Regression companion to the cancellation fix: on an interval where
  // every tuple has retired the sweep must report NULL (no rows), not the
  // accumulator's 0.0 — SUM of nothing and SUM of values summing to zero
  // are different answers.
  Relation r = testutil::MakeRelation({{0, 9, 5}, {50, 59, 7}});
  for (AggregateKind kind : {AggregateKind::kSum, AggregateKind::kAvg}) {
    PartitionedOptions options;
    options.partitions = 1;
    options.aggregate = kind;
    options.attribute = 1;
    auto got = ComputePartitionedAggregate(r, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(ValueAt(*got, 5), Value::Double(5.0))
        << AggregateKindToString(kind);
    EXPECT_EQ(ValueAt(*got, 30), Value::Null())
        << AggregateKindToString(kind);
    EXPECT_EQ(ValueAt(*got, 1000), Value::Null())
        << AggregateKindToString(kind);
  }
}

TEST(PartitionedAggTest, EmptyRelation) {
  Relation r(EmployedSchema(), "empty");
  PartitionedOptions options;
  options.partitions = 4;
  auto got = ComputePartitionedAggregate(r, options);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->intervals.size(), 1u);
  EXPECT_EQ(got->intervals[0].period, Period::All());
}

// ---------------------------------------------------------------------------
// Parametrized oracle: every (workers, spill, aggregate) combination must
// reproduce the sequential single-tree result on a workload with both
// real and artificial region boundaries.  This suite also runs under
// ThreadSanitizer in CI.
// ---------------------------------------------------------------------------

struct OracleParam {
  size_t workers;
  bool spill;
  AggregateKind kind;
};

std::string OracleParamName(
    const ::testing::TestParamInfo<OracleParam>& info) {
  std::string name = "w" + std::to_string(info.param.workers);
  name += info.param.spill ? "_spill_" : "_mem_";
  name += AggregateKindToString(info.param.kind);
  return name;
}

class PartitionedOracleTest : public ::testing::TestWithParam<OracleParam> {
};

TEST_P(PartitionedOracleTest, MatchesSequentialAggregate) {
  const OracleParam& param = GetParam();
  WorkloadSpec spec;
  spec.num_tuples = 500;
  spec.lifespan = 40000;
  spec.long_lived_fraction = 0.5;  // plenty of region-straddling tuples
  spec.seed = 2026;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  PartitionedOptions options;
  options.partitions = 16;
  options.aggregate = param.kind;
  options.attribute = AttributeFor(param.kind);
  options.parallel_workers = param.workers;
  options.spill_to_disk = param.spill;
  ExpectMatchesSingleTree(*relation, options);
}

std::vector<OracleParam> AllOracleParams() {
  std::vector<OracleParam> params;
  for (size_t workers : {2, 4}) {
    for (bool spill : {false, true}) {
      for (AggregateKind kind : kAllKinds) {
        params.push_back({workers, spill, kind});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(AllCombinations, PartitionedOracleTest,
                         ::testing::ValuesIn(AllOracleParams()),
                         OracleParamName);

TEST(PartitionedAggTest, RowsStartingAtForeverSplitWithoutOverflow) {
  // A lifespan that starts at forever makes the bounded part of the
  // time-line 2^63 instants wide; splitting it must not overflow.
  Relation relation = testutil::MakeRelation(
      {{kForever, kForever, 4}, {kForever, kForever, 9}});
  for (AggregateKind kind : kAllKinds) {
    SCOPED_TRACE(AggregateKindToString(kind));
    PartitionedOptions options;
    options.aggregate = kind;
    options.attribute = AttributeFor(kind);
    options.partitions = 8;
    ExpectMatchesSingleTree(relation, options);
  }
}

TEST(PartitionedAggTest, ASelectionMatchesAFilteredCopy) {
  // The regions split the selection's lifespan, so reading the rows in
  // place is the evaluation of the copy holding just them.
  WorkloadSpec spec;
  spec.num_tuples = 400;
  spec.lifespan = 20000;
  spec.long_lived_fraction = 0.2;
  spec.seed = 91;
  const Relation relation = GenerateEmployedRelation(spec).value();
  std::vector<size_t> rows;
  for (size_t i = 0; i < relation.size(); ++i) {
    if (relation.tuple(i).start() > 5000) rows.push_back(i);
  }
  Relation copy(relation.schema(), relation.name());
  for (size_t i : rows) copy.AppendUnchecked(relation.tuple(i));
  for (AggregateKind kind : kAllKinds) {
    SCOPED_TRACE(AggregateKindToString(kind));
    PartitionedOptions options;
    options.aggregate = kind;
    options.attribute = AttributeFor(kind);
    options.partitions = 6;
    options.parallel_workers = 2;
    auto got =
        ComputePartitionedAggregate(RowSelection(relation, rows), options);
    auto want = ComputePartitionedAggregate(copy, options);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    EXPECT_EQ(got->intervals, want->intervals);
    EXPECT_EQ(got->stats.work_steps, want->stats.work_steps);
  }
}

}  // namespace
}  // namespace tagg
