#include "core/multi_agg.h"

#include <gtest/gtest.h>

#include "core/workload.h"
#include "tests/core/test_util.h"

namespace tagg {
namespace {

std::vector<MultiSpec> AllFiveSpecs() {
  return {
      {AggregateKind::kCount, AggregateOptions::kNoAttribute},
      {AggregateKind::kSum, 1},
      {AggregateKind::kMin, 1},
      {AggregateKind::kMax, 1},
      {AggregateKind::kAvg, 1},
  };
}

/// The fused result must equal the five independent single-aggregate runs.
void ExpectMatchesSeparateRuns(const Relation& relation,
                               AlgorithmKind algorithm, int64_t k,
                               bool presort) {
  MultiAggregateOptions multi;
  multi.specs = AllFiveSpecs();
  multi.algorithm = algorithm;
  multi.k = k;
  multi.presort = presort;
  auto fused = ComputeMultiAggregate(relation, multi);
  ASSERT_TRUE(fused.ok()) << fused.status().ToString();

  for (size_t a = 0; a < multi.specs.size(); ++a) {
    AggregateOptions single;
    single.aggregate = multi.specs[a].kind;
    single.attribute = multi.specs[a].attribute;
    single.algorithm = AlgorithmKind::kReference;
    auto want = ComputeTemporalAggregate(relation, single);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(fused->periods.size(), want->intervals.size())
        << AlgorithmKindToString(algorithm);
    for (size_t i = 0; i < want->intervals.size(); ++i) {
      EXPECT_EQ(fused->periods[i], want->intervals[i].period);
      EXPECT_EQ(fused->value(i, a), want->intervals[i].value)
          << "aggregate " << a << " interval " << i;
    }
  }
}

TEST(MultiOpTest, MakeValidates) {
  EXPECT_FALSE(MultiOp::Make({}).ok());
  EXPECT_TRUE(MultiOp::Make({AggregateKind::kCount}).ok());
  std::vector<AggregateKind> too_many(kMaxMultiAggregates + 1,
                                      AggregateKind::kCount);
  EXPECT_FALSE(MultiOp::Make(too_many).ok());
}

TEST(MultiOpTest, MonoidLaws) {
  auto op = MultiOp::Make({AggregateKind::kCount, AggregateKind::kSum,
                           AggregateKind::kMin, AggregateKind::kMax,
                           AggregateKind::kAvg})
                .value();
  MultiOp::Input in1;
  in1.values = {0, 5, 5, 5, 5};
  in1.valid_mask = 0x1F;
  MultiOp::Input in2;
  in2.values = {0, -3, -3, -3, -3};
  in2.valid_mask = 0x1F;

  MultiOp::State a = op.Identity();
  op.Add(a, in1);
  MultiOp::State b = op.Identity();
  op.Add(b, in2);

  // Identity.
  EXPECT_EQ(op.Combine(a, op.Identity()), a);
  EXPECT_EQ(op.Combine(op.Identity(), a), a);
  // Commutativity.
  EXPECT_EQ(op.Combine(a, b), op.Combine(b, a));
  // Associativity with a third state.
  MultiOp::State c = op.Identity();
  MultiOp::Input in3;
  in3.values = {0, 10, 10, 10, 10};
  in3.valid_mask = 0x1F;
  op.Add(c, in3);
  EXPECT_EQ(op.Combine(op.Combine(a, b), c),
            op.Combine(a, op.Combine(b, c)));
}

TEST(MultiOpTest, FinalizeMatchesSingleOps) {
  auto op = MultiOp::Make({AggregateKind::kCount, AggregateKind::kSum,
                           AggregateKind::kMin, AggregateKind::kMax,
                           AggregateKind::kAvg})
                .value();
  MultiOp::State s = op.Identity();
  for (double v : {4.0, -1.0, 9.0}) {
    MultiOp::Input in;
    in.values = {0, v, v, v, v};
    in.valid_mask = 0x1F;
    op.Add(s, in);
  }
  EXPECT_EQ(op.FinalizeAt(s, 0), Value::Int(3));
  EXPECT_EQ(op.FinalizeAt(s, 1), Value::Double(12.0));
  EXPECT_EQ(op.FinalizeAt(s, 2), Value::Double(-1.0));
  EXPECT_EQ(op.FinalizeAt(s, 3), Value::Double(9.0));
  EXPECT_EQ(op.FinalizeAt(s, 4), Value::Double(4.0));
}

TEST(MultiOpTest, EmptyStateFinalizesLikeEmptyGroups) {
  auto op = MultiOp::Make({AggregateKind::kCount, AggregateKind::kMin})
                .value();
  const MultiOp::State s = op.Identity();
  EXPECT_EQ(op.FinalizeAt(s, 0), Value::Int(0));
  EXPECT_EQ(op.FinalizeAt(s, 1), Value::Null());
}

TEST(MultiAggregateTest, ValidatesSpecs) {
  Relation r = testutil::MakeRelation({{0, 9, 1}});
  MultiAggregateOptions options;
  options.specs = {{AggregateKind::kSum, AggregateOptions::kNoAttribute}};
  EXPECT_TRUE(
      ComputeMultiAggregate(r, options).status().IsInvalidArgument());
  options.specs = {{AggregateKind::kSum, 99}};
  EXPECT_TRUE(
      ComputeMultiAggregate(r, options).status().IsInvalidArgument());
}

TEST(MultiAggregateTest, EmployedFusedMatchesSeparate) {
  Relation employed = MakeFigure1EmployedRelation();
  ExpectMatchesSeparateRuns(employed, AlgorithmKind::kAggregationTree, 1,
                            false);
}

TEST(MultiAggregateTest, EveryAlgorithmProducesTheSameFusion) {
  WorkloadSpec spec;
  spec.num_tuples = 150;
  spec.lifespan = 8000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 222;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  for (AlgorithmKind algorithm :
       {AlgorithmKind::kLinkedList, AlgorithmKind::kAggregationTree,
        AlgorithmKind::kBalancedTree, AlgorithmKind::kTwoScan,
        AlgorithmKind::kReference}) {
    ExpectMatchesSeparateRuns(*relation, algorithm, 1, false);
  }
  // k-ordered tree needs the sort.
  ExpectMatchesSeparateRuns(*relation, AlgorithmKind::kKOrderedTree, 1,
                            true);
}

TEST(MultiAggregateTest, NullInputsFeedOnlyValidSubAggregates) {
  Relation r(EmployedSchema(), "t");
  r.AppendUnchecked(
      Tuple({Value::String("a"), Value::Null()}, Period(0, 9)));
  r.AppendUnchecked(
      Tuple({Value::String("b"), Value::Int(5)}, Period(0, 9)));
  MultiAggregateOptions options;
  options.specs = {{AggregateKind::kCount, AggregateOptions::kNoAttribute},
                   {AggregateKind::kCount, 1},
                   {AggregateKind::kSum, 1}};
  auto fused = ComputeMultiAggregate(r, options);
  ASSERT_TRUE(fused.ok());
  ASSERT_EQ(fused->periods.size(), 2u);
  EXPECT_EQ(fused->periods[0], Period(0, 9));
  EXPECT_EQ(fused->value(0, 0), Value::Int(2));  // COUNT(*): both tuples
  EXPECT_EQ(fused->value(0, 1), Value::Int(1));  // COUNT(salary): non-null
  EXPECT_EQ(fused->value(0, 2), Value::Double(5.0));
}

TEST(MultiAggregateTest, SingleSpecDegeneratesToPlainRun) {
  Relation employed = MakeFigure1EmployedRelation();
  MultiAggregateOptions options;
  options.specs = {{AggregateKind::kCount, AggregateOptions::kNoAttribute}};
  auto fused = ComputeMultiAggregate(employed, options);
  ASSERT_TRUE(fused.ok());
  AggregateOptions single;
  auto want = ComputeTemporalAggregate(employed, single);
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(fused->periods.size(), want->intervals.size());
  for (size_t i = 0; i < fused->periods.size(); ++i) {
    EXPECT_EQ(fused->value(i, 0), want->intervals[i].value);
  }
}

/// A generated relation in which every fifth salary is NULL.
Relation WithSomeNullSalaries(uint64_t seed) {
  WorkloadSpec spec;
  spec.num_tuples = 120;
  spec.lifespan = 5000;
  spec.long_lived_fraction = 0.3;
  spec.seed = seed;
  const Relation generated = GenerateEmployedRelation(spec).value();
  Relation out(generated.schema(), generated.name());
  for (size_t i = 0; i < generated.size(); ++i) {
    std::vector<Value> values = generated.tuple(i).values();
    if (i % 5 == 0) values[1] = Value::Null();
    out.AppendUnchecked(Tuple(std::move(values), generated.tuple(i).valid()));
  }
  return out;
}

TEST(MultiAggregateTest, OneSpecIsTupleIdenticalToTheSingleAggregateRun) {
  // A lone spec runs its aggregate's own monoid: the series, the work and
  // any error must be exactly those of ComputeTemporalAggregate.
  const Relation relation = WithSomeNullSalaries(31);
  const MultiSpec specs[] = {
      {AggregateKind::kCount, AggregateOptions::kNoAttribute},
      {AggregateKind::kCount, 1},
      {AggregateKind::kSum, 1},
      {AggregateKind::kMin, 1},
      {AggregateKind::kMax, 1},
      {AggregateKind::kAvg, 1},
  };
  for (const MultiSpec& spec : specs) {
    for (AlgorithmKind algorithm :
         {AlgorithmKind::kLinkedList, AlgorithmKind::kAggregationTree,
          AlgorithmKind::kKOrderedTree, AlgorithmKind::kBalancedTree,
          AlgorithmKind::kTwoScan, AlgorithmKind::kReference}) {
      for (bool presort : {false, true}) {
        SCOPED_TRACE(std::string(AggregateKindToString(spec.kind)) + " " +
                     std::string(AlgorithmKindToString(algorithm)) +
                     (presort ? " presort" : ""));
        MultiAggregateOptions multi;
        multi.specs = {spec};
        multi.algorithm = algorithm;
        multi.presort = presort;
        AggregateOptions single;
        single.aggregate = spec.kind;
        single.attribute = spec.attribute;
        single.algorithm = algorithm;
        single.presort = presort;
        auto got = ComputeMultiAggregate(relation, multi);
        auto want = ComputeTemporalAggregate(relation, single);
        if (!want.ok()) {
          // The unsorted k = 1 tree rejects the generated order.
          ASSERT_FALSE(got.ok());
          EXPECT_EQ(got.status().ToString(), want.status().ToString());
          continue;
        }
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->arity, 1u);
        ASSERT_EQ(got->periods.size(), want->intervals.size());
        for (size_t i = 0; i < want->intervals.size(); ++i) {
          EXPECT_EQ(got->periods[i], want->intervals[i].period);
          EXPECT_EQ(got->value(i, 0), want->intervals[i].value)
              << "interval " << i;
        }
        EXPECT_EQ(got->stats.work_steps, want->stats.work_steps);
        EXPECT_EQ(got->stats.peak_live_nodes, want->stats.peak_live_nodes);
        EXPECT_EQ(got->stats.tuples_processed, want->stats.tuples_processed);
      }
    }
  }
}

TEST(MultiAggregateTest, ASelectionMatchesAFilteredCopy) {
  // Reading rows in place gives the series of the copy holding just them,
  // for one aggregate and for the fused five, in order and presorted.
  const Relation relation = WithSomeNullSalaries(47);
  std::vector<size_t> rows;
  for (size_t i = 0; i < relation.size(); ++i) {
    if (i % 3 != 1) rows.push_back(i);
  }
  Relation copy(relation.schema(), relation.name());
  for (size_t i : rows) copy.AppendUnchecked(relation.tuple(i));
  for (const std::vector<MultiSpec>& specs :
       {std::vector<MultiSpec>{{AggregateKind::kMax, 1}}, AllFiveSpecs()}) {
    for (bool presort : {false, true}) {
      MultiAggregateOptions options;
      options.specs = specs;
      options.presort = presort;
      options.algorithm = presort ? AlgorithmKind::kKOrderedTree
                                  : AlgorithmKind::kAggregationTree;
      auto got = ComputeMultiAggregate(RowSelection(relation, rows), options);
      auto want = ComputeMultiAggregate(copy, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      EXPECT_EQ(got->periods, want->periods);
      EXPECT_EQ(got->values, want->values);
      EXPECT_EQ(got->stats.work_steps, want->stats.work_steps);
    }
  }
}

}  // namespace
}  // namespace tagg
