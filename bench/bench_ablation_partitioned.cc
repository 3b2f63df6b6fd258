// Ablation (Sections 5.1 and 7): limited-memory partitioned evaluation.
//
// Three sweeps over a fixed random relation:
//
//   * InMemory/LongLived80: the PR-1 baselines — partition count vs. the
//     peak_bytes16 working set, and the replication cost of long-lived
//     tuples.
//   * ParallelSpill: parallel_workers in {1, 2, 4, hw_concurrency} X
//     spill_to_disk in {false, true} at 16K and 1M tuples.  Both phases
//     (sharded routing, per-region builds) parallelize; per-region spill
//     files make the spill X parallel combination legal.
//   * Kernel: the phase-2 kernel ablation — the Section 5.1 aggregation
//     tree vs. the columnar SoA sweep kernel in both dispatch modes
//     (forced scalar and the AVX2 body, which silently equals scalar on
//     hardware without AVX2).
//   * SpillBytes: the compressed-spill series — a spilled evaluation
//     reporting raw (pre-codec) vs. encoded spill bytes and the
//     compression ratio from the obs counters.
//
// Results land in bench_results/ as JSON via TAGG_BENCH_MAIN; CI diffs
// them against bench_results/baseline with tools/bench_compare.py.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <thread>
#include <vector>

#include "bench/bench_util.h"

#include "core/partitioned_agg.h"
#include "core/workload.h"
#include "obs/metrics.h"

namespace tagg {
namespace {

Relation MakeWorkload(size_t n, double long_lived) {
  WorkloadSpec spec;
  spec.num_tuples = n;
  spec.lifespan = 1'000'000;
  spec.long_lived_fraction = long_lived;
  spec.seed = 42;
  return GenerateEmployedRelation(spec).value();
}

/// Workload generation at 1M tuples dwarfs a benchmark iteration; cache
/// per (n, long_lived) so every case reuses one relation.  Benchmarks run
/// sequentially, so plain statics are safe.
const Relation& CachedWorkload(size_t n, double long_lived) {
  static std::map<std::pair<size_t, int>, Relation> cache;
  const auto key = std::make_pair(n, static_cast<int>(long_lived * 100));
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, MakeWorkload(n, long_lived)).first;
  }
  return it->second;
}

void RunPartitioned(benchmark::State& state, bool spill) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto partitions = static_cast<size_t>(state.range(1));
  const Relation& relation = CachedWorkload(n, 0.0);
  size_t peak_bytes = 0;
  for (auto _ : state) {
    PartitionedOptions options;
    options.partitions = partitions;
    options.spill_to_disk = spill;
    auto series = ComputePartitionedAggregate(relation, options);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->intervals);
    peak_bytes = series->stats.peak_paper_bytes;
  }
  state.counters["peak_bytes16"] = static_cast<double>(peak_bytes);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void BM_Partitioned_InMemory(benchmark::State& state) {
  RunPartitioned(state, /*spill=*/false);
}

void BM_Partitioned_SpillToDisk(benchmark::State& state) {
  RunPartitioned(state, /*spill=*/true);
}

// The tentpole sweep: workers X spill.  Regions are disjoint time-line
// ranges, so routing shards and region builds parallelize (the paper's
// bibliography includes Bitton et al.'s parallel algorithms); per-region
// spill files keep the combination race-free.
void BM_Partitioned_ParallelSpill(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto workers = static_cast<size_t>(state.range(1));
  const bool spill = state.range(2) != 0;
  const Relation& relation = CachedWorkload(n, 0.0);
  for (auto _ : state) {
    PartitionedOptions options;
    options.partitions = 64;
    options.parallel_workers = workers;
    options.spill_to_disk = spill;
    auto series = ComputePartitionedAggregate(relation, options);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->intervals);
  }
  state.counters["workers"] = static_cast<double>(workers);
  state.counters["spill"] = spill ? 1 : 0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

void ParallelSpillArgs(benchmark::internal::Benchmark* b) {
  std::vector<int64_t> workers{1, 2, 4};
  const auto hw =
      static_cast<int64_t>(std::thread::hardware_concurrency());
  if (hw > 0 &&
      std::find(workers.begin(), workers.end(), hw) == workers.end()) {
    workers.push_back(hw);
  }
  b->ArgsProduct({{1 << 14, 1 << 20}, workers, {0, 1}});
}

// Phase-2 kernel ablation, one family per range(1) value:
//   0 = tree            (Section 5.1 aggregation tree)
//   1 = columnar-scalar (SoA radix sort, scalar body forced)
//   2 = columnar-simd   (SoA radix sort, AVX2 body via runtime dispatch;
//                        identical to columnar-scalar on non-AVX2 hosts)
struct KernelFamily {
  PartitionKernel kernel;
  bool force_scalar;
  const char* name;
};

const KernelFamily kKernelFamilies[] = {
    {PartitionKernel::kTree, false, "tree"},
    {PartitionKernel::kColumnar, true, "columnar-scalar"},
    {PartitionKernel::kColumnar, false, "columnar-simd"},
};

void BM_Partitioned_Kernel(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const KernelFamily& family =
      kKernelFamilies[static_cast<size_t>(state.range(1))];
  const AggregateKind kind = state.range(2) != 0 ? AggregateKind::kSum
                                                 : AggregateKind::kCount;
  const Relation& relation = CachedWorkload(n, 0.0);
  for (auto _ : state) {
    PartitionedOptions options;
    options.partitions = 64;
    options.kernel = family.kernel;
    options.force_scalar_kernel = family.force_scalar;
    options.aggregate = kind;
    options.attribute =
        kind == AggregateKind::kCount ? AggregateOptions::kNoAttribute : 1;
    auto series = ComputePartitionedAggregate(relation, options);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->intervals);
  }
  state.SetLabel(std::string(family.name) + "/" +
                 std::string(AggregateKindToString(kind)));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

// Compressed-spill series: a spilled columnar evaluation.  Byte counts
// come from the obs counters (deltas across the timed loop), so the
// reported ratio is the production metric, not a bench-side estimate.
void BM_Partitioned_SpillBytes(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const Relation& relation = CachedWorkload(n, 0.0);
  obs::Counter& raw_counter = obs::MetricsRegistry::Global().GetCounter(
      "tagg_partitioned_spill_raw_bytes_total",
      "Pre-codec bytes routed through partitioned spill files");
  obs::Counter& encoded_counter = obs::MetricsRegistry::Global().GetCounter(
      "tagg_partitioned_spill_encoded_bytes_total",
      "On-disk bytes written by partitioned spill files");
  const uint64_t raw_before = raw_counter.Value();
  const uint64_t encoded_before = encoded_counter.Value();
  for (auto _ : state) {
    PartitionedOptions options;
    options.partitions = 64;
    options.spill_to_disk = true;
    options.aggregate = AggregateKind::kSum;
    options.attribute = 1;
    auto series = ComputePartitionedAggregate(relation, options);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->intervals);
  }
  const double iters = static_cast<double>(state.iterations());
  const double raw =
      static_cast<double>(raw_counter.Value() - raw_before) / iters;
  const double encoded =
      static_cast<double>(encoded_counter.Value() - encoded_before) / iters;
  state.counters["spill_raw_bytes"] = raw;
  state.counters["spill_encoded_bytes"] = encoded;
  state.counters["compression_ratio"] = encoded > 0 ? raw / encoded : 0.0;
  state.SetLabel("compressed");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

// Long-lived tuples straddle regions and get replicated; this variant
// quantifies the overhead of the clipping approach in its worst case.
void BM_Partitioned_LongLived80(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const auto partitions = static_cast<size_t>(state.range(1));
  const Relation& relation = CachedWorkload(n, 0.8);
  for (auto _ : state) {
    PartitionedOptions options;
    options.partitions = partitions;
    auto series = ComputePartitionedAggregate(relation, options);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->intervals);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

BENCHMARK(BM_Partitioned_InMemory)
    ->ArgsProduct({{1 << 14, 1 << 16}, {1, 4, 16, 64}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partitioned_SpillToDisk)
    ->ArgsProduct({{1 << 14, 1 << 16}, {4, 16}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partitioned_ParallelSpill)
    ->Apply(ParallelSpillArgs)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partitioned_Kernel)
    ->ArgsProduct({{1 << 14, 1 << 20}, {0, 1, 2}, {0, 1}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partitioned_SpillBytes)
    ->Arg(1 << 14)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Partitioned_LongLived80)
    ->ArgsProduct({{1 << 14}, {1, 16}})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tagg

TAGG_BENCH_MAIN()
