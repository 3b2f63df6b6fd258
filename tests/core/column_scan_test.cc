#include "core/column_scan.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/k_ordered_tree.h"
#include "core/workload.h"
#include "storage/relation_io.h"
#include "testing/fault_injector.h"
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
  // boundary of either series, for every aggregate.
  const Period window(500, 60000);
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    const size_t attribute = kind == AggregateKind::kCount
                                 ? AggregateOptions::kNoAttribute
                                 : kColumnValueAttribute;
    const AggregateSeries reference = Reference(kind, attribute);
    ColumnScanOptions options;
    options.aggregate = kind;
    options.attribute = attribute;
    options.window = window;
    ColumnScanStats stats;
    auto pruned = ComputeColumnScanAggregate(*column_, options, &stats);
    ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
    EXPECT_GT(stats.blocks_skipped, 0u);
    ExpectPartitions(*pruned, window);
    for (const ResultInterval& ri : pruned->intervals) {
      EXPECT_EQ(ri.value, SeriesValueAt(reference, ri.period.start()))
          << AggregateKindToString(kind) << " at " << ri.period.start();
    }
    for (const ResultInterval& ri : reference.intervals) {
      const Instant t = std::max(ri.period.start(), window.start());
      if (t > std::min(ri.period.end(), window.end())) continue;
      EXPECT_EQ(SeriesValueAt(*pruned, t), ri.value)
          << AggregateKindToString(kind) << " at " << t;
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

/// The k = 1 tree's stats when fed every row of `column` that meets
/// `window`, clipped to it, in file order.
template <typename Op>
ExecutionStats TreeStatsInFileOrder(const ColumnRelation& column,
                                    const Period& window) {
  KOrderedTreeAggregator<Op> tree(1);
  auto reader = column.NewReader();
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  std::vector<ColumnRecord> rows;
  for (size_t b = 0; b < column.blocks().size(); ++b) {
    rows.clear();
    EXPECT_TRUE((*reader)->ReadBlock(b, &rows).ok());
    for (const ColumnRecord& r : rows) {
      if (r.start > window.end() || r.end < window.start()) continue;
      EXPECT_TRUE(tree.Add(Period(std::max(r.start, window.start()),
                                  std::min(r.end, window.end())),
                           static_cast<double>(r.salary))
                      .ok());
    }
  }
  EXPECT_TRUE(tree.FinishTyped().ok());
  return tree.stats();
}

TEST_F(ColumnScanTest, MinMaxFeedsTheTreeInFileOrder) {
  // The scan hands the k = 1 tree its kept rows as it decodes them, with
  // no sort, so its work counters are exactly those of the tree fed the
  // same clipped rows in file order.  No block is summarized for these
  // windows, so every row meeting the window reaches the tree.
  for (const Period& window : {Period::All(), Period(1000, 2500)}) {
    for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax}) {
      ColumnScanOptions options;
      options.aggregate = kind;
      options.attribute = kColumnValueAttribute;
      options.window = window;
      ColumnScanStats stats;
      auto scan = ComputeColumnScanAggregate(*column_, options, &stats);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      ASSERT_EQ(stats.blocks_summarized, 0u) << window.ToString();
      const ExecutionStats want =
          kind == AggregateKind::kMin
              ? TreeStatsInFileOrder<MinOp>(*column_, window)
              : TreeStatsInFileOrder<MaxOp>(*column_, window);
      EXPECT_GT(want.work_steps, 0u);
      EXPECT_EQ(scan->stats.work_steps, want.work_steps)
          << AggregateKindToString(kind) << " window " << window.ToString();
      EXPECT_EQ(scan->stats.peak_live_nodes, want.peak_live_nodes)
          << AggregateKindToString(kind) << " window " << window.ToString();
    }
  }
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
      ColumnScanOptions options;
      options.aggregate = kind;
      options.attribute = kColumnValueAttribute;
      options.window = window;
      auto scan = ComputeColumnScanAggregate(**column, options);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      EXPECT_EQ(CoalesceEqualValues(scan->intervals), expected)
          << AggregateKindToString(kind) << " window " << window.ToString();
      EXPECT_LT(scan->stats.peak_live_nodes, kRows / 16)
          << AggregateKindToString(kind) << " window " << window.ToString();
    }
  }
  fs::remove(path);
}

// A file whose blocks hold disjoint salary bands: block b (16 rows) holds
// salaries [1000 b, 1000 b + 15] over periods that start at the row's
// index and end at 1000 + index, so every block covers [200, 300].
class ColumnScanValueSetTest : public ::testing::Test {
 protected:
  static constexpr size_t kBlocks = 8;
  static constexpr size_t kRowsPerBlock = 16;

  void SetUp() override {
    path_ = TestPath("column_scan_bands");
    relation_ = Relation(EmployedSchema(), "bands");
    for (size_t j = 0; j < kBlocks * kRowsPerBlock; ++j) {
      const auto salary =
          static_cast<int64_t>(1000 * (j / kRowsPerBlock) + j % kRowsPerBlock);
      const auto start = static_cast<Instant>(j);
      relation_.AppendUnchecked(Tuple(
          {Value::String("r"), Value::Int(salary)}, Period(start, 1000 + start)));
    }
    auto column = WriteRelationToColumnFile(relation_, path_, kRowsPerBlock);
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    column_ = std::move(column).value();
    ASSERT_EQ(column_->blocks().size(), kBlocks);
  }

  void TearDown() override { fs::remove(path_); }

  /// The brute-force answer: the reference over the rows in `set`.
  AggregateSeries Reference(AggregateKind kind, const ValueSet& set) {
    const Relation kept = relation_.Filter([&](const Tuple& t) {
      const int64_t v = t.value(kColumnValueAttribute).AsInt();
      return std::any_of(set.begin(), set.end(), [v](const ValueRange& r) {
        return r.lo <= v && v <= r.hi;
      });
    });
    AggregateOptions options;
    options.aggregate = kind;
    options.attribute = kColumnValueAttribute;
    options.algorithm = AlgorithmKind::kReference;
    auto series = ComputeTemporalAggregate(kept, options);
    EXPECT_TRUE(series.ok()) << series.status().ToString();
    return std::move(series).value();
  }

  std::string path_;
  Relation relation_;
  std::shared_ptr<const ColumnRelation> column_;
};

TEST_F(ColumnScanValueSetTest, BlocksDisjointByValueAreNeverDecoded) {
  ColumnScanOptions options;
  options.values = ValueSet{{3000, 3015}};  // block 3's band
  ColumnScanStats stats;
  auto scan = ComputeColumnScanAggregate(*column_, options, &stats);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(stats.blocks_decoded, 1u);
  EXPECT_EQ(stats.blocks_skipped, kBlocks - 1);
  EXPECT_EQ(stats.rows_decoded, kRowsPerBlock);
  EXPECT_EQ(stats.rows_kept, kRowsPerBlock);
  uint64_t block_bytes = 0;
  for (const ColumnBlockInfo& b : column_->blocks()) {
    block_bytes += b.encoded_bytes;
  }
  EXPECT_EQ(stats.bytes_pruned + stats.bytes_decoded, block_bytes);

  // A set between two bands passes no block: nothing is read, and the
  // series is the empty aggregate over the whole window.
  for (const ValueSet& none :
       {ValueSet{{3016, 3999}}, ValueSet{}, ValueSet{{-50, -1}, {8000, 9000}}}) {
    options.values = none;
    scan = ComputeColumnScanAggregate(*column_, options, &stats);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_EQ(stats.blocks_decoded, 0u);
    EXPECT_EQ(stats.blocks_skipped, kBlocks);
    EXPECT_EQ(stats.rows_kept, 0u);
    ASSERT_EQ(scan->intervals.size(), 1u);
    EXPECT_EQ(scan->intervals[0].value, Value::Int(0));
  }
}

TEST_F(ColumnScanValueSetTest, BlocksWhoseRowsAllPassAreSummarized) {
  // Blocks 2 and 3 lie inside the set's one range and cover the window:
  // both are summarized.  Block 5 meets the set's second range in half
  // its rows and is decoded and filtered; the rest are skipped.
  ColumnScanOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = kColumnValueAttribute;
  options.window = Period(200, 300);
  options.values = ValueSet{{1900, 3500}, {5008, 5100}};
  ColumnScanStats stats;
  auto scan = ComputeColumnScanAggregate(*column_, options, &stats);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(stats.blocks_summarized, 2u);
  EXPECT_EQ(stats.blocks_decoded, 1u);
  EXPECT_EQ(stats.blocks_skipped, kBlocks - 3);
  EXPECT_EQ(stats.rows_decoded, kRowsPerBlock);
  EXPECT_EQ(stats.rows_kept, kRowsPerBlock / 2);
  ASSERT_EQ(scan->intervals.size(), 1u);
  double want = 0;
  for (int64_t v = 2000; v <= 2015; ++v) want += static_cast<double>(v);
  for (int64_t v = 3000; v <= 3015; ++v) want += static_cast<double>(v);
  for (int64_t v = 5008; v <= 5015; ++v) want += static_cast<double>(v);
  EXPECT_EQ(scan->intervals[0].value, Value::Double(want));
}

TEST_F(ColumnScanValueSetTest, FilteredMinMaxMatchBruteForce) {
  const ValueSet sets[] = {
      {{1005, 1010}},
      {{0, 3}, {2014, 4001}, {6010, 6010}},
      {{std::numeric_limits<int64_t>::min(), 999}},
      {{7015, std::numeric_limits<int64_t>::max()}},
  };
  const Period windows[] = {Period::All(), Period(50, 120),
                            Period(1040, 1100)};
  for (const ValueSet& set : sets) {
    for (const Period& window : windows) {
      for (AggregateKind kind : {AggregateKind::kMin, AggregateKind::kMax}) {
        const AggregateSeries reference = Reference(kind, set);
        ColumnScanOptions options;
        options.aggregate = kind;
        options.attribute = kColumnValueAttribute;
        options.window = window;
        options.values = set;
        auto scan = ComputeColumnScanAggregate(*column_, options);
        ASSERT_TRUE(scan.ok()) << scan.status().ToString();
        ExpectPartitions(*scan, window);
        for (const ResultInterval& ri : scan->intervals) {
          EXPECT_EQ(ri.value, SeriesValueAt(reference, ri.period.start()))
              << AggregateKindToString(kind) << " window "
              << window.ToString() << " at " << ri.period.start();
        }
        for (const ResultInterval& ri : reference.intervals) {
          const Instant t = std::max(ri.period.start(), window.start());
          if (t > std::min(ri.period.end(), window.end())) continue;
          EXPECT_EQ(SeriesValueAt(*scan, t), ri.value)
              << AggregateKindToString(kind) << " at " << t;
        }
      }
    }
  }
}

TEST(ColumnScanValueSetRoundingTest, FooterBoundsAboveTwoToThe53AreWidened) {
  // Above 2^53 the footer's double MIN/MAX round the stored salaries: the
  // salary 2^60 + 100 is stored exactly but its footer image is 2^60.
  // Taking the image at its word would skip the block for a set that holds
  // the salary, or pass every row for a set that does not.
  const std::string path = TestPath("column_scan_rounding");
  const int64_t big = (int64_t{1} << 60) + 100;
  Relation relation(EmployedSchema(), "big");
  for (int i = 0; i < 4; ++i) {
    relation.AppendUnchecked(
        Tuple({Value::String("b"), Value::Int(big)}, Period(i, 100)));
  }
  auto column = WriteRelationToColumnFile(relation, path,
                                          /*rows_per_block=*/4);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  ASSERT_EQ((*column)->blocks()[0].min_value, 0x1p60);
  const struct {
    ValueSet values;
    int64_t count;
  } cases[] = {
      {{{big - 50, big + 50}}, 4},
      {{{big, big}}, 4},
      {{{(int64_t{1} << 60) - 50, (int64_t{1} << 60) + 50}}, 0},
      {{{big + 1, std::numeric_limits<int64_t>::max()}}, 0},
  };
  for (const auto& c : cases) {
    ColumnScanOptions options;
    options.window = Period(50, 60);
    options.values = c.values;
    auto scan = ComputeColumnScanAggregate(**column, options);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ASSERT_EQ(scan->intervals.size(), 1u);
    EXPECT_EQ(scan->intervals[0].value, Value::Int(c.count))
        << "[" << c.values[0].lo << ", " << c.values[0].hi << "]";
  }
  fs::remove(path);
}

TEST_F(ColumnScanValueSetTest, RejectsMalformedValueSets) {
  for (const ValueSet& bad :
       {ValueSet{{5, 4}}, ValueSet{{0, 10}, {10, 20}}, ValueSet{{9, 9}, {0, 1}}}) {
    ColumnScanOptions options;
    options.values = bad;
    auto scan = ComputeColumnScanAggregate(*column_, options);
    EXPECT_TRUE(scan.status().IsInvalidArgument()) << scan.status().ToString();
  }
}

TEST_F(ColumnScanTest, ValueSetMatchesFilteredReference) {
  // Random salaries in [30000, 100000]: every block meets the set, so the
  // per-row test decides, across windows and aggregates.
  const ValueSet set = {{30000, 41000}, {65000, 65999}, {90001, 99999}};
  const Relation kept = relation_.Filter([&](const Tuple& t) {
    const int64_t v = t.value(kColumnValueAttribute).AsInt();
    return v <= 41000 || (v >= 65000 && v <= 65999) ||
           (v >= 90001 && v <= 99999);
  });
  for (const Period& window :
       {Period::All(), Period(1000, 2500), Period(90000, kForever)}) {
    for (AggregateKind kind :
         {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
          AggregateKind::kMax, AggregateKind::kAvg}) {
      AggregateOptions ref;
      ref.aggregate = kind;
      ref.attribute = kind == AggregateKind::kCount
                          ? AggregateOptions::kNoAttribute
                          : kColumnValueAttribute;
      ref.algorithm = AlgorithmKind::kReference;
      auto reference = ComputeTemporalAggregate(kept, ref);
      ASSERT_TRUE(reference.ok());
      ColumnScanOptions options;
      options.aggregate = kind;
      options.attribute = ref.attribute;
      options.window = window;
      options.values = set;
      ColumnScanStats stats;
      auto scan = ComputeColumnScanAggregate(*column_, options, &stats);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      ExpectPartitions(*scan, window);
      EXPECT_LT(stats.rows_kept, stats.rows_decoded);
      for (const ResultInterval& ri : scan->intervals) {
        const Value want = SeriesValueAt(*reference, ri.period.start());
        if (kind == AggregateKind::kSum || kind == AggregateKind::kAvg) {
          ASSERT_EQ(ri.value.is_null(), want.is_null());
          if (want.is_null()) continue;
          EXPECT_NEAR(ri.value.ToNumeric().value(),
                      want.ToNumeric().value(),
                      1e-9 * std::abs(want.ToNumeric().value()));
        } else {
          EXPECT_EQ(ri.value, want) << AggregateKindToString(kind)
                                    << " at " << ri.period.start();
        }
      }
    }
  }
}

/// Every aggregate over every window of `windows`, scanned from
/// `column`, against the reference over `relation` restricted to the
/// window, at every boundary of the scan's series.
void ExpectScansMatchReference(const ColumnRelation& column,
                               const Relation& relation,
                               const std::vector<Period>& windows) {
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    AggregateOptions ref;
    ref.aggregate = kind;
    ref.attribute = kind == AggregateKind::kCount
                        ? AggregateOptions::kNoAttribute
                        : kColumnValueAttribute;
    ref.algorithm = AlgorithmKind::kReference;
    auto reference = ComputeTemporalAggregate(relation, ref);
    ASSERT_TRUE(reference.ok());
    for (const Period& window : windows) {
      ColumnScanOptions options;
      options.aggregate = kind;
      options.attribute = ref.attribute;
      options.window = window;
      auto scan = ComputeColumnScanAggregate(column, options);
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      ExpectPartitions(*scan, window);
      for (const ResultInterval& ri : scan->intervals) {
        EXPECT_EQ(ri.value, SeriesValueAt(*reference, ri.period.start()))
            << AggregateKindToString(kind) << " window " << window.ToString()
            << " at " << ri.period.start();
      }
    }
  }
}

TEST(ColumnScanReuseTest, OneThreadScansLargeThenSmallBlocksThenAfterFaults) {
  // A scan decodes into buffers its thread keeps across scans.  One
  // thread scans a file of 4,096-row blocks, then one of 16-row blocks,
  // then, after a scan that fails at each read seam, the first again:
  // every scan must see only its own blocks' rows.
  const Relation relation = ScanRelation(5000, 9);
  const std::string big_path = TestPath("column_scan_big");
  const std::string small_path = TestPath("column_scan_small");
  auto big = WriteRelationToColumnFile(relation, big_path);
  auto small = WriteRelationToColumnFile(relation, small_path,
                                         /*rows_per_block=*/16);
  ASSERT_TRUE(big.ok()) << big.status().ToString();
  ASSERT_TRUE(small.ok()) << small.status().ToString();
  ASSERT_EQ((*big)->blocks().size(), 2u);
  const std::vector<Period> windows = {Period::All(), Period(1000, 2500),
                                       Period(70000, 70000)};
  ExpectScansMatchReference(**big, relation, windows);
  ExpectScansMatchReference(**small, relation, windows);
  testing::FaultInjector& injector = testing::FaultInjector::Global();
  // Each arm fails the scan's second block read, after its first block
  // is in the buffers (the read seam's first hit is the reader's open).
  const struct {
    const char* site;
    uint64_t nth;
  } faults[] = {{"column_relation.read", 3}, {"temporal_column.decode", 2}};
  for (const auto& [site, nth] : faults) {
    ColumnScanOptions options;
    options.aggregate = AggregateKind::kSum;
    options.attribute = kColumnValueAttribute;
    injector.Arm(site, nth);
    auto failed = ComputeColumnScanAggregate(**small, options);
    EXPECT_EQ(injector.injected(), 1u) << site;
    injector.Disarm();
    EXPECT_TRUE(failed.status().IsIOError())
        << site << ": " << failed.status().ToString();
  }
  ExpectScansMatchReference(**big, relation, windows);
  ExpectScansMatchReference(**small, relation, windows);
  fs::remove(big_path);
  fs::remove(small_path);
}

TEST_F(ColumnScanTest, TwoThreadsScanOneRelationAtOnce) {
  // Each thread decodes into its own buffers: two threads scanning the
  // same relation concurrently get the series a lone scan gets.
  std::vector<ColumnScanOptions> queries;
  for (AggregateKind kind :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
        AggregateKind::kMax, AggregateKind::kAvg}) {
    for (const Period& window :
         {Period::All(), Period(1000, 2500), Period(50000, 50000)}) {
      ColumnScanOptions options;
      options.aggregate = kind;
      options.attribute = kind == AggregateKind::kCount
                              ? AggregateOptions::kNoAttribute
                              : kColumnValueAttribute;
      options.window = window;
      queries.push_back(options);
    }
  }
  std::vector<AggregateSeries> want;
  for (const ColumnScanOptions& options : queries) {
    auto scan = ComputeColumnScanAggregate(*column_, options);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    want.push_back(std::move(scan).value());
  }
  std::atomic<size_t> mismatches{0};
  auto scan_all = [&](size_t first) {
    for (size_t round = 0; round < 4; ++round) {
      for (size_t q = 0; q < queries.size(); ++q) {
        const size_t i = (first + q) % queries.size();
        auto scan = ComputeColumnScanAggregate(*column_, queries[i]);
        if (!scan.ok() ||
            scan->intervals.size() != want[i].intervals.size()) {
          ++mismatches;
          continue;
        }
        for (size_t k = 0; k < scan->intervals.size(); ++k) {
          if (scan->intervals[k].period != want[i].intervals[k].period ||
              scan->intervals[k].value != want[i].intervals[k].value) {
            ++mismatches;
            break;
          }
        }
      }
    }
  };
  std::thread a(scan_all, 0);
  std::thread b(scan_all, queries.size() / 2);
  a.join();
  b.join();
  EXPECT_EQ(mismatches.load(), 0u);
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
