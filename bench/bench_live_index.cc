// Live index serving benchmark: resident tree vs rebuild-per-query.
//
// The batch algorithms pay the whole tree build on every query; the live
// index (src/live) pays it once and then serves from the resident tree.
// This bench quantifies the gap and the behaviour under concurrent load:
//
//   * BM_Live_RebuildPerQuery   — the baseline: build an aggregation tree
//     over the full relation and emit the series, once per iteration;
//   * BM_Live_AggregateOverAll  — the same answer from the resident index
//     (the ">= 10x for repeated AggregateOver" acceptance check);
//   * BM_Live_AggregateOverNarrow — a 1%-of-lifespan range query, the
//     typical serving shape: O(depth + answer) instead of O(n);
//   * BM_Live_AggregateAt       — the point query, one root path;
//   * BM_Live_ReaderScaling_*   — ->Threads({1,2,4,8}) pure-reader
//     scaling: the COW read path takes no lock, so per-thread throughput
//     should hold flat as readers are added;
//   * BM_Live_Concurrent_*      — ->Threads(1+R): thread 0 streams
//     inserts while R readers query; the writer thread
//     reports the reclamation counters (nodes_retired / nodes_reclaimed /
//     retired_pending) so regressions in epoch reclamation show up in the
//     bench JSON;
//   * BM_Live_Ingest            — writer-side batching ablation:
//     publish-every-N and InsertBatch sizes against the per-insert
//     publish.
//
// The concurrent fixtures share one index via a function-local static
// (thread-safe magic statics): google-benchmark runs the function on
// every thread, so construction must not race.

#include <algorithm>
#include <atomic>
#include <utility>

#include "bench/bench_util.h"
#include "core/aggregation_tree.h"
#include "live/live_index.h"

namespace tagg {
namespace {

constexpr size_t kTuples = 100'000;  // acceptance point: 100k tuples
constexpr Instant kLifespan = 1'000'000;

const std::vector<Period>& LoadPeriods() {
  static const std::vector<Period> periods =
      bench::MakePeriods(kTuples, /*long_lived_fraction=*/0.4,
                         TupleOrder::kRandom);
  return periods;
}

/// Extra periods the concurrent writer streams in (distinct seed so they
/// do not duplicate the preload).
const std::vector<Period>& ChurnPeriods() {
  static const std::vector<Period> periods = bench::MakePeriods(
      kTuples, /*long_lived_fraction=*/0.4, TupleOrder::kRandom,
      /*k=*/1, /*k_percentage=*/0.02, /*seed=*/777);
  return periods;
}

std::unique_ptr<LiveAggregateIndex> MakeLoadedIndex() {
  auto index = LiveAggregateIndex::Create(LiveIndexOptions());
  if (!index.ok()) std::abort();
  for (const Period& p : LoadPeriods()) {
    if (!(*index)->Insert(p, 0.0).ok()) std::abort();
  }
  return std::move(index).value();
}

// --- single-threaded: resident index vs rebuild ------------------------

void BM_Live_RebuildPerQuery(benchmark::State& state) {
  const auto& periods = LoadPeriods();
  // The honest executor-path baseline: build the tree AND emit the
  // Value-boxed AggregateSeries (what a query answer is made of), once
  // per query — exactly what the batch path pays when the same aggregate
  // is asked again.
  AggregateOptions options;
  options.algorithm = AlgorithmKind::kAggregationTree;
  for (auto _ : state) {
    auto agg = MakeAggregator(options);
    if (!agg.ok()) {
      state.SkipWithError(agg.status().ToString().c_str());
      return;
    }
    for (const Period& p : periods) {
      if (!(*agg)->Add(p, 0.0).ok()) {
        state.SkipWithError("insert failed");
        return;
      }
    }
    auto out = (*agg)->Finish();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(*out);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Live_AggregateOverAll(benchmark::State& state) {
  static const auto index = MakeLoadedIndex();
  for (auto _ : state) {
    auto series = index->AggregateOver(Period::All(), /*coalesce=*/false);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(*series);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Live_AggregateOverNarrow(benchmark::State& state) {
  static const auto index = MakeLoadedIndex();
  constexpr Instant kWidth = kLifespan / 100;  // 1% of the lifespan
  Instant lo = 0;
  for (auto _ : state) {
    auto series = index->AggregateOver(Period(lo, lo + kWidth - 1),
                                       /*coalesce=*/false);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(*series);
    lo = (lo + kWidth) % (kLifespan - kWidth);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Live_AggregateAt(benchmark::State& state) {
  static const auto index = MakeLoadedIndex();
  Instant t = 0;
  for (auto _ : state) {
    auto value = index->AggregateAt(t);
    if (!value.ok()) {
      state.SkipWithError(value.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(*value);
    t = (t + 9973) % kLifespan;  // prime stride: spread over the tree
  }
  state.SetItemsProcessed(state.iterations());
}

// --- concurrent: reader scaling -----------------------------------------

/// Shared fixture, alive for the whole binary run (the index keeps
/// absorbing churn across run families; the tree only grows, which
/// matches a long-lived serving deployment).
struct ConcurrentShared {
  std::unique_ptr<LiveAggregateIndex> index = MakeLoadedIndex();
  std::atomic<size_t> churn_cursor{0};
};

ConcurrentShared& Shared() {
  static ConcurrentShared shared;
  return shared;
}

void ReportReclaimCounters(benchmark::State& state,
                           const LiveAggregateIndex& index) {
  const LiveIndexStats stats = index.Stats();
  state.counters["nodes_retired"] = static_cast<double>(stats.nodes_retired);
  state.counters["nodes_reclaimed"] =
      static_cast<double>(stats.nodes_reclaimed);
  state.counters["retired_pending"] =
      static_cast<double>(stats.retired_pending);
}

void WriterLoop(benchmark::State& state) {
  auto& shared = Shared();
  const auto& churn = ChurnPeriods();
  for (auto _ : state) {
    const size_t i =
        shared.churn_cursor.fetch_add(1, std::memory_order_relaxed) %
        churn.size();
    if (!shared.index->Insert(churn[i], 0.0).ok()) {
      state.SkipWithError("insert failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["writer"] = 1.0;
  ReportReclaimCounters(state, *shared.index);
}

/// Pure reader scaling, no writer: every thread probes points.  A reader's
/// pin is two atomics on a thread-local-ish slot; the descent itself
/// touches no shared mutable state.
void BM_Live_ReaderScaling_PointReads(benchmark::State& state) {
  auto& shared = Shared();
  Instant t = 9973 * static_cast<Instant>(state.thread_index() + 1);
  for (auto _ : state) {
    auto value = shared.index->AggregateAt(t % kLifespan);
    if (!value.ok()) {
      state.SkipWithError(value.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(*value);
    t += 9973;
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    ReportReclaimCounters(state, *shared.index);
  }
}

void BM_Live_Concurrent_PointReads(benchmark::State& state) {
  if (state.thread_index() == 0) {
    WriterLoop(state);
    return;
  }
  auto& shared = Shared();
  Instant t = 9973 * state.thread_index();
  for (auto _ : state) {
    auto value = shared.index->AggregateAt(t % kLifespan);
    if (!value.ok()) {
      state.SkipWithError(value.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(*value);
    t += 9973;
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Live_Concurrent_RangeReads(benchmark::State& state) {
  if (state.thread_index() == 0) {
    WriterLoop(state);
    return;
  }
  auto& shared = Shared();
  constexpr Instant kWidth = kLifespan / 100;
  Instant lo = kWidth * static_cast<Instant>(state.thread_index());
  for (auto _ : state) {
    auto series = shared.index->AggregateOver(
        Period(lo % (kLifespan - kWidth), lo % (kLifespan - kWidth) + kWidth),
        /*coalesce=*/false);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(*series);
    lo += kWidth;
  }
  state.SetItemsProcessed(state.iterations());
}

// --- writer-side batching ablation -------------------------------------

/// Fresh-index ingest of a fixed tuple prefix per iteration.  batch/0
/// publishes per Insert; batch/B uses InsertBatch in chunks of B, one
/// publish per chunk, amortizing the COW path copy across the chunk.
void BM_Live_Ingest(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  constexpr size_t kIngest = 20'000;
  const auto& periods = LoadPeriods();
  for (auto _ : state) {
    auto index = LiveAggregateIndex::Create(LiveIndexOptions{});
    if (!index.ok()) {
      state.SkipWithError(index.status().ToString().c_str());
      return;
    }
    if (batch_size == 0) {
      for (size_t i = 0; i < kIngest; ++i) {
        if (!(*index)->Insert(periods[i], 0.0).ok()) {
          state.SkipWithError("insert failed");
          return;
        }
      }
    } else {
      std::vector<std::pair<Period, double>> batch;
      batch.reserve(batch_size);
      for (size_t i = 0; i < kIngest; i += batch_size) {
        batch.clear();
        for (size_t j = i; j < std::min(i + batch_size, kIngest); ++j) {
          batch.emplace_back(periods[j], 0.0);
        }
        if (!(*index)->InsertBatch(batch).ok()) {
          state.SkipWithError("batch insert failed");
          return;
        }
      }
    }
    (*index)->Flush();
    ReportReclaimCounters(state, **index);
    bench::KeepAlive(*index);
  }
  state.SetItemsProcessed(state.iterations() * kIngest);
}

BENCHMARK(BM_Live_RebuildPerQuery)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Live_AggregateOverAll)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Live_AggregateOverNarrow)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Live_AggregateAt)->Unit(benchmark::kMicrosecond);
// {1,2,4,8} pure readers.
BENCHMARK(BM_Live_ReaderScaling_PointReads)
    ->Threads(1)
    ->Threads(2)
    ->Threads(4)
    ->Threads(8)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
// 1 writer + {1,2,4,8} readers.
BENCHMARK(BM_Live_Concurrent_PointReads)
    ->Threads(2)
    ->Threads(3)
    ->Threads(5)
    ->Threads(9)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
BENCHMARK(BM_Live_Concurrent_RangeReads)
    ->Threads(2)
    ->Threads(3)
    ->Threads(5)
    ->Threads(9)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();
// Batching ablation: per-insert publish vs InsertBatch.
BENCHMARK(BM_Live_Ingest)
    ->ArgName("batch")
    ->Arg(0)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tagg

TAGG_BENCH_MAIN()
