#include "core/column_scan.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "core/workload.h"
#include "storage/relation_io.h"
#include "util/cpu_features.h"

namespace tagg {
namespace {

namespace fs = std::filesystem;

std::string TestPath(const std::string& stem) {
  return (fs::temp_directory_path() /
          (stem + "_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() +
           ".tcr"))
      .string();
}

/// Workload with a mix of short and long periods, so windows produce all
/// three block classes (skipped, summarized, decoded).
Relation ScanRelation(size_t n, uint32_t seed = 42) {
  WorkloadSpec spec;
  spec.num_tuples = n;
  spec.lifespan = 100000;
  spec.short_min_duration = 1;
  spec.short_max_duration = 500;
  spec.long_lived_fraction = 0.15;
  spec.seed = seed;
  auto rel = GenerateEmployedRelation(spec);
  EXPECT_TRUE(rel.ok()) << rel.status().ToString();
  return std::move(rel).value();
}

/// The value of a series (a partition of some period) at instant `t`.
Value SeriesValueAt(const AggregateSeries& series, Instant t) {
  const auto it = std::partition_point(
      series.intervals.begin(), series.intervals.end(),
      [t](const ResultInterval& ri) { return ri.period.end() < t; });
  if (it != series.intervals.end() && it->period.Contains(t)) {
    return it->value;
  }
  ADD_FAILURE() << "series does not cover t=" << t;
  return Value::Null();
}

/// Asserts `series` partitions `window` exactly: consecutive, gap-free,
/// in time order.
void ExpectPartitions(const AggregateSeries& series, const Period& window) {
  ASSERT_FALSE(series.intervals.empty());
  EXPECT_EQ(series.intervals.front().period.start(), window.start());
  EXPECT_EQ(series.intervals.back().period.end(), window.end());
  for (size_t i = 1; i < series.intervals.size(); ++i) {
    EXPECT_EQ(series.intervals[i].period.start(),
              series.intervals[i - 1].period.end() + 1)
        << "gap or overlap at interval " << i;
  }
}

class ColumnScanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TestPath("column_scan");
    relation_ = ScanRelation(3000);
    auto column = WriteRelationToColumnFile(relation_, path_,
                                            /*rows_per_block=*/128);
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    column_ = std::move(column).value();
  }

  void TearDown() override { fs::remove(path_); }

  AggregateSeries Reference(AggregateKind kind, size_t attribute) {
    AggregateOptions options;
    options.aggregate = kind;
    options.attribute = attribute;
    options.algorithm = AlgorithmKind::kReference;
    auto series = ComputeTemporalAggregate(relation_, options);
    EXPECT_TRUE(series.ok()) << series.status().ToString();
    return std::move(series).value();
  }

  std::string path_;
  Relation relation_;
  std::shared_ptr<const ColumnRelation> column_;
};

TEST_F(ColumnScanTest, FullWindowMatchesReferenceForEveryAggregate) {
  const struct {
    AggregateKind kind;
    size_t attribute;
  } cases[] = {
      {AggregateKind::kCount, AggregateOptions::kNoAttribute},
      {AggregateKind::kCount, kColumnValueAttribute},
      {AggregateKind::kSum, kColumnValueAttribute},
      {AggregateKind::kMin, kColumnValueAttribute},
      {AggregateKind::kMax, kColumnValueAttribute},
      {AggregateKind::kAvg, kColumnValueAttribute},
  };
  for (const auto& c : cases) {
    ColumnScanOptions options;
    options.aggregate = c.kind;
    options.attribute = c.attribute;
    auto scan = ComputeColumnScanAggregate(*column_, options);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ExpectPartitions(*scan, Period::All());
    const AggregateSeries reference = Reference(c.kind, c.attribute);
    // Same step function: compare at every boundary of both partitions.
    for (const ResultInterval& ri : scan->intervals) {
      EXPECT_EQ(ri.value, SeriesValueAt(reference, ri.period.start()))
          << AggregateKindToString(c.kind) << " at " << ri.period.start();
    }
    for (const ResultInterval& ri : reference.intervals) {
      EXPECT_EQ(SeriesValueAt(*scan, ri.period.start()), ri.value)
          << AggregateKindToString(c.kind) << " at " << ri.period.start();
    }
  }
}

TEST_F(ColumnScanTest, WindowedScanMatchesReferenceRestriction) {
  const Period windows[] = {Period(200, 200), Period(1000, 2500),
                            Period(0, 99999), Period(90000, kForever)};
  const AggregateKind kinds[] = {AggregateKind::kCount, AggregateKind::kSum,
                                 AggregateKind::kMin, AggregateKind::kMax,
                                 AggregateKind::kAvg};
  for (const Period& window : windows) {
    for (AggregateKind kind : kinds) {
      const size_t attribute = kind == AggregateKind::kCount
                                   ? AggregateOptions::kNoAttribute
                                   : kColumnValueAttribute;
      ColumnScanOptions options;
      options.aggregate = kind;
      options.attribute = attribute;
      options.window = window;
      auto scan = ComputeColumnScanAggregate(*column_, options);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      ExpectPartitions(*scan, window);
      const AggregateSeries reference = Reference(kind, attribute);
      for (const ResultInterval& ri : scan->intervals) {
        EXPECT_EQ(ri.value, SeriesValueAt(reference, ri.period.start()))
            << AggregateKindToString(kind) << " window "
            << window.ToString() << " at " << ri.period.start();
      }
    }
  }
}

TEST_F(ColumnScanTest, PruningAndSummariesAreResultInvariant) {
  // Skipped and summarized blocks are never decoded, yet the scan must
  // equal the brute-force reference restricted to the window, at every
  // boundary of either series, for every aggregate and worker count.
  const Period window(500, 60000);
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    const size_t attribute = kind == AggregateKind::kCount
                                 ? AggregateOptions::kNoAttribute
                                 : kColumnValueAttribute;
    const AggregateSeries reference = Reference(kind, attribute);
    for (size_t workers : {size_t{1}, size_t{3}}) {
      ColumnScanOptions options;
      options.aggregate = kind;
      options.attribute = attribute;
      options.window = window;
      options.parallel_workers = workers;
      ColumnScanStats stats;
      auto pruned = ComputeColumnScanAggregate(*column_, options, &stats);
      ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
      EXPECT_GT(stats.blocks_skipped, 0u);
      ExpectPartitions(*pruned, window);
      for (const ResultInterval& ri : pruned->intervals) {
        EXPECT_EQ(ri.value, SeriesValueAt(reference, ri.period.start()))
            << AggregateKindToString(kind) << " workers=" << workers
            << " at " << ri.period.start();
      }
      for (const ResultInterval& ri : reference.intervals) {
        const Instant t = std::max(ri.period.start(), window.start());
        if (t > std::min(ri.period.end(), window.end())) continue;
        EXPECT_EQ(SeriesValueAt(*pruned, t), ri.value)
            << AggregateKindToString(kind) << " workers=" << workers
            << " at " << t;
      }
    }
  }
}

TEST_F(ColumnScanTest, NarrowWindowSkipsMostBlocks) {
  // Short-lived tuples only: a long-lived tuple inflates its block's
  // max_end past any narrow window, which (correctly) disqualifies the
  // block from skipping.  With every duration <= 500 instants, only the
  // block(s) straddling [49500, 50010] survive the zone map.
  WorkloadSpec spec;
  spec.num_tuples = 3000;
  spec.lifespan = 100000;
  spec.short_min_duration = 1;
  spec.short_max_duration = 500;
  spec.long_lived_fraction = 0.0;
  spec.seed = 7;
  Relation short_lived = GenerateEmployedRelation(spec).value();
  const std::string path = TestPath("column_scan_narrow");
  auto column = WriteRelationToColumnFile(short_lived, path,
                                          /*rows_per_block=*/128);
  ASSERT_TRUE(column.ok()) << column.status().ToString();

  ColumnScanOptions options;
  options.aggregate = AggregateKind::kCount;
  options.window = Period(50000, 50010);
  ColumnScanStats stats;
  auto scan = ComputeColumnScanAggregate(**column, options, &stats);
  fs::remove(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(stats.blocks_total, (*column)->blocks().size());
  EXPECT_EQ(stats.blocks_skipped + stats.blocks_summarized +
                stats.blocks_decoded,
            stats.blocks_total);
  // A ~10-instant window in a 100k lifespan with 128-row blocks must
  // prune the overwhelming majority of blocks.
  EXPECT_GE(stats.blocks_skipped * 10, stats.blocks_total * 9)
      << stats.blocks_skipped << " of " << stats.blocks_total;
  EXPECT_GT(stats.bytes_pruned, 0u);
}

TEST_F(ColumnScanTest, SummariesAvoidDecodingCoveringBlocks) {
  // Build a relation where one block's rows all cover the window: all
  // periods [0, 100000], window well inside.
  const std::string path = TestPath("column_scan_cover");
  Relation covering(relation_.schema(), "covering");
  for (int i = 0; i < 256; ++i) {
    covering.AppendUnchecked(
        Tuple({Value::String("x"), Value::Int(i)}, Period(0, 100000)));
  }
  auto column = WriteRelationToColumnFile(covering, path,
                                          /*rows_per_block=*/64);
  ASSERT_TRUE(column.ok());
  for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kSum,
                             AggregateKind::kMin, AggregateKind::kMax,
                             AggregateKind::kAvg}) {
    ColumnScanOptions options;
    options.aggregate = kind;
    options.attribute = kind == AggregateKind::kCount
                            ? AggregateOptions::kNoAttribute
                            : kColumnValueAttribute;
    options.window = Period(40000, 50000);
    ColumnScanStats stats;
    auto scan = ComputeColumnScanAggregate(**column, options, &stats);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(stats.blocks_summarized, stats.blocks_total);
    EXPECT_EQ(stats.blocks_decoded, 0u);
    EXPECT_EQ(stats.rows_decoded, 0u);
    ASSERT_EQ(scan->intervals.size(), 1u);
    switch (kind) {
      case AggregateKind::kCount:
        EXPECT_EQ(scan->intervals[0].value, Value::Int(256));
        break;
      case AggregateKind::kSum:
        EXPECT_EQ(scan->intervals[0].value, Value::Double(255.0 * 128));
        break;
      case AggregateKind::kMin:
        EXPECT_EQ(scan->intervals[0].value, Value::Double(0.0));
        break;
      case AggregateKind::kMax:
        EXPECT_EQ(scan->intervals[0].value, Value::Double(255.0));
        break;
      case AggregateKind::kAvg:
        EXPECT_EQ(scan->intervals[0].value, Value::Double(127.5));
        break;
    }
  }
  fs::remove(path);
}

TEST_F(ColumnScanTest, ScalarKernelMatchesDispatch) {
  for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kSum}) {
    ColumnScanOptions options;
    options.aggregate = kind;
    options.attribute = kind == AggregateKind::kCount
                            ? AggregateOptions::kNoAttribute
                            : kColumnValueAttribute;
    auto dispatched = ComputeColumnScanAggregate(*column_, options);
    auto scalar = [&] {
      SimdLevelOverride pin(SimdLevel::kScalar);
      return ComputeColumnScanAggregate(*column_, options);
    }();
    ASSERT_TRUE(dispatched.ok());
    ASSERT_TRUE(scalar.ok());
    ASSERT_EQ(dispatched->intervals.size(), scalar->intervals.size());
    for (size_t i = 0; i < scalar->intervals.size(); ++i) {
      EXPECT_EQ(dispatched->intervals[i].period, scalar->intervals[i].period);
      EXPECT_EQ(dispatched->intervals[i].value, scalar->intervals[i].value);
    }
  }
}

TEST_F(ColumnScanTest, PointQueryMatchesSeries) {
  ColumnScanOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = kColumnValueAttribute;
  auto series = ComputeColumnScanAggregate(*column_, options);
  ASSERT_TRUE(series.ok());
  for (Instant t : {Instant{0}, Instant{777}, Instant{50000}, kForever}) {
    auto at = ComputeColumnScanAt(*column_, t, options);
    ASSERT_TRUE(at.ok()) << at.status().ToString();
    EXPECT_EQ(*at, SeriesValueAt(*series, t)) << "t=" << t;
  }
}

TEST_F(ColumnScanTest, RejectsForeignAttributes) {
  ColumnScanOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = 0;  // the name column
  EXPECT_TRUE(
      ComputeColumnScanAggregate(*column_, options).status().IsNotSupported());
  options.aggregate = AggregateKind::kMin;
  options.attribute = AggregateOptions::kNoAttribute;
  EXPECT_TRUE(
      ComputeColumnScanAggregate(*column_, options).status().IsNotSupported());
}

// Sorted short-lived rows are the unbalanced tree's worst case (the
// paper's Figure 7): MIN/MAX must run through the k = 1 tree, whose
// working set stays near the number of concurrently live tuples.
TEST(ColumnScanSortedTest, MinMaxOverSortedRowsKeepAConstantWorkingSet) {
  constexpr size_t kRows = size_t{1} << 14;
  WorkloadSpec spec;
  spec.num_tuples = kRows;
  spec.order = TupleOrder::kSorted;
  spec.seed = 7;
  auto sorted = GenerateEmployedRelation(spec);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  const std::string path = TestPath("column_scan_sorted");
  auto column = WriteRelationToColumnFile(*sorted, path,
                                          /*rows_per_block=*/256);
  ASSERT_TRUE(column.ok()) << column.status().ToString();

  // The batch oracle sees the same tuples in random order.
  Relation shuffled(sorted->schema(), "shuffled");
  std::vector<Tuple> tuples = sorted->tuples();
  std::shuffle(tuples.begin(), tuples.end(), std::mt19937_64(11));
  for (Tuple& t : tuples) shuffled.AppendUnchecked(std::move(t));

  for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax}) {
    AggregateOptions batch_options;
    batch_options.aggregate = kind;
    batch_options.attribute = kColumnValueAttribute;
    batch_options.algorithm = AlgorithmKind::kAggregationTree;
    auto batch = ComputeTemporalAggregate(shuffled, batch_options);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const Period& window : {Period::All(), Period(400000, 410000)}) {
      std::vector<ResultInterval> expected;
      for (const ResultInterval& ri : batch->intervals) {
        if (!ri.period.Overlaps(window)) continue;
        expected.push_back({*ri.period.Intersect(window), ri.value});
      }
      expected = CoalesceEqualValues(std::move(expected));
      for (size_t workers : {size_t{1}, size_t{3}}) {
        ColumnScanOptions options;
        options.aggregate = kind;
        options.attribute = kColumnValueAttribute;
        options.window = window;
        options.parallel_workers = workers;
        auto scan = ComputeColumnScanAggregate(**column, options);
        ASSERT_TRUE(scan.ok()) << scan.status().ToString();
        EXPECT_EQ(CoalesceEqualValues(scan->intervals), expected)
            << AggregateKindToString(kind) << " window " << window.ToString()
            << " workers " << workers;
        EXPECT_LT(scan->stats.peak_live_nodes, kRows / 16)
            << AggregateKindToString(kind) << " window " << window.ToString()
            << " workers " << workers;
      }
    }
  }
  fs::remove(path);
}

TEST(ColumnScanEmptyTest, EmptyRelationYieldsIdentitySeries) {
  const std::string path = TestPath("column_scan_empty");
  auto writer = ColumnRelationWriter::Create(path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  auto column = ColumnRelation::Open(path);
  ASSERT_TRUE(column.ok());
  for (AggregateKind kind : {AggregateKind::kCount, AggregateKind::kSum,
                             AggregateKind::kMin, AggregateKind::kMax,
                             AggregateKind::kAvg}) {
    ColumnScanOptions options;
    options.aggregate = kind;
    options.attribute = kind == AggregateKind::kCount
                            ? AggregateOptions::kNoAttribute
                            : kColumnValueAttribute;
    auto scan = ComputeColumnScanAggregate(**column, options);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ASSERT_EQ(scan->intervals.size(), 1u);
    EXPECT_EQ(scan->intervals[0].period, Period::All());
    EXPECT_EQ(scan->intervals[0].value, kind == AggregateKind::kCount
                                            ? Value::Int(0)
                                            : Value::Null());
  }
  fs::remove(path);
}

}  // namespace
}  // namespace tagg
