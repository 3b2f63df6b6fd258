// The edge-case matrix: every adversarial relation shape through every
// algorithm and every aggregate, in one table.
//
// tests/core/property_test.cc already walks the five batch algorithms over
// adversarial shapes; this matrix extends the sweep to the evaluation
// paths that file cannot reach — the partitioned evaluation (partition
// counts, workers, spill) and the live serving index — and diffs every
// result against the reference oracle as a *step function* (via
// testing::CompareSeries), so a configuration that merely coalesces
// differently does not fail while a wrong value anywhere on the time-line
// does.

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregates.h"
#include "core/partitioned_agg.h"
#include "live/live_index.h"
#include "testing/differential.h"
#include "tests/core/test_util.h"

namespace tagg {
namespace {

constexpr AggregateKind kAllKinds[] = {
    AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
    AggregateKind::kMax, AggregateKind::kAvg};

constexpr AlgorithmKind kAllAlgorithms[] = {
    AlgorithmKind::kReference,    AlgorithmKind::kLinkedList,
    AlgorithmKind::kAggregationTree, AlgorithmKind::kKOrderedTree,
    AlgorithmKind::kBalancedTree, AlgorithmKind::kTwoScan};

size_t AttributeFor(AggregateKind kind) {
  return kind == AggregateKind::kCount ? AggregateOptions::kNoAttribute : 1;
}

struct EdgeCase {
  const char* name;
  std::vector<std::tuple<Instant, Instant, int64_t>> rows;
};

const std::vector<EdgeCase>& AllEdgeCases() {
  static const std::vector<EdgeCase> cases = {
      {"empty", {}},
      {"single-tuple", {{10, 20, 7}}},
      {"whole-timeline", {{kOrigin, kForever, 3}}},
      {"adjacent-boundaries",
       // Periods meeting exactly: [0,9][10,19][20,29] plus one straddling
       // tuple so both real and coalescible boundaries appear.
       {{0, 9, 1}, {10, 19, 2}, {20, 29, 3}, {5, 24, 4}}},
      {"all-identical", {{10, 20, 7}, {10, 20, 7}, {10, 20, 7}, {10, 20, 7}}},
  };
  return cases;
}

class EdgeMatrixTest
    : public ::testing::TestWithParam<AggregateKind> {
 protected:
  /// The oracle series for this case/aggregate.
  AggregateSeries Reference(const Relation& relation) {
    AggregateOptions options;
    options.algorithm = AlgorithmKind::kReference;
    options.aggregate = GetParam();
    options.attribute = AttributeFor(GetParam());
    auto series = ComputeTemporalAggregate(relation, options);
    EXPECT_TRUE(series.ok()) << series.status().ToString();
    return std::move(series).value();
  }

  /// Diffs `got` against `want` as step functions under the documented
  /// policy (inputs here are small integers, so SUM/AVG are exact too).
  void ExpectSameStepFunction(const AggregateSeries& want,
                              const AggregateSeries& got,
                              const std::string& label,
                              const char* case_name) {
    const Status diff = testing::CompareSeries(want.intervals, got.intervals,
                                               GetParam());
    EXPECT_TRUE(diff.ok()) << "case=" << case_name << " config=" << label
                           << ": " << diff.ToString();
  }
};

TEST_P(EdgeMatrixTest, BatchAlgorithms) {
  for (const EdgeCase& ec : AllEdgeCases()) {
    Relation relation = testutil::MakeRelation(ec.rows);
    const AggregateSeries want = Reference(relation);
    for (AlgorithmKind algorithm : kAllAlgorithms) {
      AggregateOptions options;
      options.algorithm = algorithm;
      options.aggregate = GetParam();
      options.attribute = AttributeFor(GetParam());
      options.k = 1;
      options.presort = true;
      auto got = ComputeTemporalAggregate(relation, options);
      ASSERT_TRUE(got.ok()) << "case=" << ec.name << " algorithm="
                            << AlgorithmKindToString(algorithm) << ": "
                            << got.status().ToString();
      ExpectSameStepFunction(want, *got,
                             std::string(AlgorithmKindToString(algorithm)),
                             ec.name);
    }
  }
}

TEST_P(EdgeMatrixTest, PartitionedConfigurations) {
  struct Config {
    const char* label;
    size_t partitions;
    size_t workers;
    bool spill;
  };
  const Config configs[] = {
      {"partitioned/p1", 1, 1, false},
      {"partitioned/p3-w2", 3, 2, false},
      {"partitioned/p4-spill", 4, 1, true},
  };
  for (const EdgeCase& ec : AllEdgeCases()) {
    Relation relation = testutil::MakeRelation(ec.rows);
    const AggregateSeries want = Reference(relation);
    for (const Config& config : configs) {
      PartitionedOptions options;
      options.partitions = config.partitions;
      options.parallel_workers = config.workers;
      options.spill_to_disk = config.spill;
      options.aggregate = GetParam();
      options.attribute = AttributeFor(GetParam());
      auto got = ComputePartitionedAggregate(relation, options);
      ASSERT_TRUE(got.ok()) << "case=" << ec.name << " config="
                            << config.label << ": "
                            << got.status().ToString();
      ExpectSameStepFunction(want, *got, config.label, ec.name);
    }
  }
}

TEST_P(EdgeMatrixTest, LiveIndex) {
  for (const EdgeCase& ec : AllEdgeCases()) {
    Relation relation = testutil::MakeRelation(ec.rows);
    const AggregateSeries want = Reference(relation);
    LiveIndexOptions options;
    options.aggregate = GetParam();
    options.attribute = AttributeFor(GetParam());
    auto index = LiveAggregateIndex::Create(options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (const Tuple& t : relation) {
      ASSERT_TRUE((*index)->InsertTuple(t).ok()) << "case=" << ec.name;
    }
    auto got = (*index)->AggregateOver(Period::All(), /*coalesce=*/true);
    ASSERT_TRUE(got.ok()) << "case=" << ec.name << ": "
                          << got.status().ToString();
    ExpectSameStepFunction(want, *got, "live-index", ec.name);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllAggregates, EdgeMatrixTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<AggregateKind>& param_info) {
      return std::string(AggregateKindToString(param_info.param));
    });

}  // namespace
}  // namespace tagg
