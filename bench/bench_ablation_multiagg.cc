// Ablation (Section 3 / Epstein): many aggregates per query.
//
// Epstein's recipe — quoted by the paper — computes each scalar aggregate
// separately.  For temporal aggregation every run rebuilds the same
// constant intervals, so fusing all aggregates into one pass (MultiOp)
// should approach a 5x win for a 5-aggregate query.  This bench measures
// SELECT COUNT(*), SUM(s), MIN(s), MAX(s), AVG(s) both ways over the
// aggregation tree.
//
// The one-aggregate pair measures what the executor runs for a lone
// COUNT(*): ComputeMultiAggregate with one spec (its own monoid, an
// int64_t per node) against ComputeTemporalAggregate at the same sizes.
// BM_OneAggregate_MultiOpState feeds the same tree over a one-kind
// MultiOp, whose 128-byte state a lone aggregate used to carry.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"

#include "core/aggregates.h"
#include "core/aggregation_tree.h"
#include "core/multi_agg.h"
#include "core/workload.h"

namespace tagg {
namespace {

Relation MakeWorkload(size_t n) {
  WorkloadSpec spec;
  spec.num_tuples = n;
  spec.lifespan = 1'000'000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 42;
  return GenerateEmployedRelation(spec).value();
}

const std::vector<MultiSpec>& FiveSpecs() {
  static const std::vector<MultiSpec> specs = {
      {AggregateKind::kCount, AggregateOptions::kNoAttribute},
      {AggregateKind::kSum, 1},
      {AggregateKind::kMin, 1},
      {AggregateKind::kMax, 1},
      {AggregateKind::kAvg, 1},
  };
  return specs;
}

void BM_FiveAggregates_SeparatePasses(benchmark::State& state) {
  const Relation relation = MakeWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const MultiSpec& spec : FiveSpecs()) {
      AggregateOptions options;
      options.aggregate = spec.kind;
      options.attribute = spec.attribute;
      options.algorithm = AlgorithmKind::kAggregationTree;
      auto series = ComputeTemporalAggregate(relation, options);
      if (!series.ok()) {
        state.SkipWithError(series.status().ToString().c_str());
        return;
      }
      bench::KeepAlive(series->intervals);
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 5);
}

void BM_FiveAggregates_FusedSinglePass(benchmark::State& state) {
  const Relation relation = MakeWorkload(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    MultiAggregateOptions options;
    options.specs = FiveSpecs();
    options.algorithm = AlgorithmKind::kAggregationTree;
    auto series = ComputeMultiAggregate(relation, options);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->periods);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 5);
}

/// The work counters every one-aggregate entry reports, so the pair can be
/// checked for doing identical work.
void SetWorkCounters(benchmark::State& state, const ExecutionStats& stats,
                     size_t intervals) {
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["intervals"] = static_cast<double>(intervals);
  state.counters["work_steps"] = static_cast<double>(stats.work_steps);
  state.counters["peak_nodes"] = static_cast<double>(stats.peak_live_nodes);
}

void BM_OneAggregate_Single(benchmark::State& state) {
  const Relation relation = MakeWorkload(static_cast<size_t>(state.range(0)));
  AggregateOptions options;
  options.algorithm = AlgorithmKind::kAggregationTree;
  ExecutionStats stats;
  size_t intervals = 0;
  for (auto _ : state) {
    auto series = ComputeTemporalAggregate(relation, options);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->intervals);
    stats = series->stats;
    intervals = series->intervals.size();
  }
  SetWorkCounters(state, stats, intervals);
}

void BM_OneAggregate_Fused(benchmark::State& state) {
  const Relation relation = MakeWorkload(static_cast<size_t>(state.range(0)));
  MultiAggregateOptions options;
  options.specs = {{AggregateKind::kCount, AggregateOptions::kNoAttribute}};
  options.algorithm = AlgorithmKind::kAggregationTree;
  ExecutionStats stats;
  size_t intervals = 0;
  for (auto _ : state) {
    auto series = ComputeMultiAggregate(relation, options);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->periods);
    stats = series->stats;
    intervals = series->periods.size();
  }
  SetWorkCounters(state, stats, intervals);
}

void BM_OneAggregate_MultiOpState(benchmark::State& state) {
  const Relation relation = MakeWorkload(static_cast<size_t>(state.range(0)));
  const MultiOp op = MultiOp::Make({AggregateKind::kCount}).value();
  MultiOp::Input input;
  input.valid_mask = 1;
  ExecutionStats stats;
  size_t intervals = 0;
  for (auto _ : state) {
    AggregationTreeAggregator<MultiOp> tree(op);
    for (const Tuple& t : relation) {
      const Status st = tree.Add(t.valid(), input);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
    }
    auto typed = tree.FinishTyped();
    if (!typed.ok()) {
      state.SkipWithError(typed.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(*typed);
    stats = tree.stats();
    intervals = typed->size();
  }
  SetWorkCounters(state, stats, intervals);
}

BENCHMARK(BM_FiveAggregates_SeparatePasses)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FiveAggregates_FusedSinglePass)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OneAggregate_Single)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OneAggregate_Fused)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_OneAggregate_MultiOpState)
    ->RangeMultiplier(4)
    ->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tagg

TAGG_BENCH_MAIN()
