#include "core/partitioned_agg.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/aggregation_tree.h"
#include "core/node_arena.h"
#include "core/sweep_columnar.h"
#include "obs/metrics.h"
#include "storage/external_sort.h"
#include "storage/spill_file.h"
#include "storage/temporal_column.h"
#include "util/cpu_features.h"

namespace tagg {

namespace {

/// One clipped tuple routed to a region.
struct Entry {
  Instant start;
  Instant end;
  double input = 0.0;
};
static_assert(std::is_trivially_copyable_v<Entry>);

/// One endpoint event of the columnar kernel's spilled sort: at a tuple's
/// start, +input and +1 active; at end+1, the inverse.
struct Event {
  Instant at;
  double dv;
  int64_t dn;
};
static_assert(std::is_trivially_copyable_v<Event>);

bool EventLess(const void* a, const void* b) {
  return static_cast<const Event*>(a)->at < static_cast<const Event*>(b)->at;
}

/// Column layouts for the spill codec (storage/temporal_column): fields in
/// declaration order of the POD structs above, 8 bytes each.
using Field = TemporalColumnLayout::Field;
constexpr Field kEntryFields[] = {Field::kTime, Field::kTime, Field::kDouble};
constexpr Field kEventFields[] = {Field::kTime, Field::kDouble, Field::kInt};
static_assert(sizeof(Entry) == std::size(kEntryFields) * 8);
static_assert(sizeof(Event) == std::size(kEventFields) * 8);

TemporalColumnLayout EntryLayout() {
  return {{std::begin(kEntryFields), std::end(kEntryFields)}};
}

TemporalColumnLayout EventLayout() {
  return {{std::begin(kEventFields), std::end(kEventFields)}};
}

int64_t ElapsedNs(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - since)
      .count();
}

/// Phase-1 state of one routing worker: per-region buffers (or spill
/// staging batches), real-boundary marks, and bookkeeping.  Workers touch
/// only their own shard, so the routing hot path shares nothing mutable;
/// shards are merged on the coordinating thread after the join.
struct RouteShard {
  std::vector<std::vector<Entry>> mem;    // per region (in-memory mode)
  std::vector<std::vector<Entry>> stage;  // per region (spill staging)
  std::vector<char> real;                 // per region: boundary is real
  size_t tuples = 0;
  int64_t elapsed_ns = 0;
  Status status;
};

/// Phase-2 bookkeeping of one build worker, annotated after the join.
struct BuildSlot {
  size_t regions_built = 0;
  int64_t elapsed_ns = 0;
};

template <typename Op>
Result<AggregateSeries> RunPartitioned(const RowSelection& rows,
                                       const PartitionedOptions& options) {
  using State = typename Op::State;
  // Invertible aggregates run the columnar sweep, MIN/MAX the tree.
  constexpr bool kInvertible = SweepTraits<Op>::kInvertible;
  const bool spill = options.spill_to_disk;
  const size_t workers = std::max<size_t>(options.parallel_workers, 1);

  obs::Span part_span(options.profile, "partitioned");
  part_span.Annotate("workers", workers);
  part_span.Annotate("kernel", kInvertible ? "columnar" : "tree");
  if (kInvertible) {
    part_span.Annotate("simd", SimdLevelToString(ActiveSimdLevel()));
  }
  part_span.Annotate("spill", spill ? "true" : "false");

  // Region boundaries: uniform over the bounded lifespan, then the
  // open-ended tail.  boundaries[i] begins region i.
  std::vector<Instant> boundaries{kOrigin};
  if (!rows.empty() && options.partitions > 1) {
    const Period lifespan = rows.Lifespan().value();
    const Instant hi =
        lifespan.end() >= kForever ? lifespan.start() : lifespan.end();
    const Instant width = hi - kOrigin + 1;
    const auto p = static_cast<Instant>(options.partitions);
    for (Instant i = 1; i < p; ++i) {
      // width * i / p as q * i + r * i / p (width = q * p + r): when the
      // rows start at forever, width * i itself overflows.
      const Instant b = kOrigin + (width / p) * i + (width % p) * i / p;
      if (b > boundaries.back()) boundaries.push_back(b);
    }
  }
  const size_t regions = boundaries.size();
  part_span.Annotate("regions", regions);

  auto region_end = [&](size_t r) {
    return r + 1 < regions ? boundaries[r + 1] - 1 : kForever;
  };
  auto region_of = [&](Instant t) {
    return static_cast<size_t>(
        std::upper_bound(boundaries.begin(), boundaries.end(), t) -
        boundaries.begin() - 1);
  };

  auto run_on_workers = [&](const std::function<void(size_t)>& fn) {
    if (workers <= 1) {
      fn(0);
      return;
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back([&fn, w] { fn(w); });
    }
    for (std::thread& th : pool) th.join();
  };

  // Per-region spill files, created up front so workers never race on
  // lazy construction.  Every staged batch becomes one temporal-column
  // block.
  std::vector<std::unique_ptr<SpillFile>> files;
  if (spill) {
    files.reserve(regions);
    for (size_t r = 0; r < regions; ++r) {
      TAGG_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> f,
                            SpillFile::Create(EntryLayout()));
      files.push_back(std::move(f));
    }
  }

  // ---------------------------------------------------------------------
  // Phase 1: sharded routing of clipped tuples.
  // ---------------------------------------------------------------------
  const size_t n = rows.size();
  std::vector<RouteShard> shards(workers);

  obs::Histogram& route_seconds = obs::MetricsRegistry::Global().GetHistogram(
      "tagg_partitioned_route_seconds",
      "Phase-1 routing time per worker shard");

  obs::Span route_span(options.profile, "route");
  auto route_chunk = [&](size_t w) {
    obs::ScopedLatencyTimer timer(route_seconds);
    const auto t0 = std::chrono::steady_clock::now();
    RouteShard& shard = shards[w];
    if (spill) {
      shard.stage.resize(regions);
    } else {
      shard.mem.resize(regions);
    }
    shard.real.assign(regions, 0);
    auto mark_real = [&](Instant b) {
      const size_t rb = region_of(b);
      if (boundaries[rb] == b) shard.real[rb] = 1;
    };
    const size_t begin = n * w / workers;
    const size_t end = n * (w + 1) / workers;
    for (size_t i = begin; i < end; ++i) {
      const Tuple& t = rows.tuple(i);
      double input = 0.0;
      const Result<bool> fed = ReadAggregateInput(
          options.aggregate, options.attribute, t, input);
      if (!fed.ok()) {
        shard.status = fed.status();
        return;
      }
      if (!*fed) continue;
      ++shard.tuples;
      const Instant s = t.start();
      const Instant e = t.end();
      mark_real(s);
      if (e < kForever) mark_real(e + 1);
      const size_t first = region_of(s);
      const size_t last = region_of(e);
      for (size_t r = first; r <= last; ++r) {
        const Entry entry{std::max(s, boundaries[r]),
                          std::min(e, region_end(r)), input};
        if (!spill) {
          shard.mem[r].push_back(entry);
          continue;
        }
        std::vector<Entry>& batch = shard.stage[r];
        batch.push_back(entry);
        if (batch.size() >= SpillFile::kDefaultChunkRecords) {
          if (Status st = files[r]->Append(batch.data(), batch.size());
              !st.ok()) {
            shard.status = st;
            return;
          }
          batch.clear();
        }
      }
    }
    if (spill) {
      for (size_t r = 0; r < regions; ++r) {
        std::vector<Entry>& batch = shard.stage[r];
        if (batch.empty()) continue;
        if (Status st = files[r]->Append(batch.data(), batch.size());
            !st.ok()) {
          shard.status = st;
          return;
        }
        batch.clear();
        batch.shrink_to_fit();
      }
    }
    shard.elapsed_ns = ElapsedNs(t0);
  };
  run_on_workers(route_chunk);

  size_t tuples_processed = 0;
  std::vector<char> real(regions, 0);
  for (size_t w = 0; w < workers; ++w) {
    TAGG_RETURN_IF_ERROR(shards[w].status);
    tuples_processed += shards[w].tuples;
    for (size_t r = 0; r < regions; ++r) {
      real[r] = static_cast<char>(real[r] | shards[w].real[r]);
    }
    route_span.Annotate("w" + std::to_string(w) + "_ns",
                        shards[w].elapsed_ns);
  }
  route_span.Annotate("tuples", tuples_processed);

  // Before/after-codec byte accounting for everything the evaluation
  // spills: phase-1 region files here, phase-2 sort runs after the build
  // join.
  obs::Counter& spill_raw_total = obs::MetricsRegistry::Global().GetCounter(
      "tagg_partitioned_spill_raw_bytes_total",
      "Spilled record bytes before the temporal column codec");
  obs::Counter& spill_encoded_total =
      obs::MetricsRegistry::Global().GetCounter(
          "tagg_partitioned_spill_encoded_bytes_total",
          "Spilled bytes actually written after the codec");
  uint64_t eval_spill_raw = 0;
  uint64_t eval_spill_encoded = 0;
  if (spill) {
    uint64_t spilled = 0;
    uint64_t file_raw = 0;
    uint64_t file_encoded = 0;
    for (const std::unique_ptr<SpillFile>& f : files) {
      spilled += f->record_count();
      file_raw += f->raw_bytes();
      file_encoded += f->encoded_bytes();
    }
    obs::MetricsRegistry::Global()
        .GetCounter("tagg_partitioned_spill_entries_total",
                    "Clipped tuples written to spill files")
        .Increment(spilled);
    obs::MetricsRegistry::Global()
        .GetCounter("tagg_partitioned_spill_bytes_total",
                    "Bytes written to spill files")
        .Increment(file_encoded);
    spill_raw_total.Increment(file_raw);
    spill_encoded_total.Increment(file_encoded);
    eval_spill_raw += file_raw;
    eval_spill_encoded += file_encoded;
    route_span.Annotate("spill_entries", spilled);
    route_span.Annotate("spill_encoded_bytes", file_encoded);
  }
  route_span.End();

  // ---------------------------------------------------------------------
  // Phase 2: per-region builds (columnar sweep or tree), work-stealing over
  // an atomic region counter.
  // ---------------------------------------------------------------------
  std::vector<std::vector<TypedInterval<State>>> per_region(regions);
  std::vector<ExecutionStats> per_region_stats(regions);
  std::vector<Status> per_region_status(regions);
  std::vector<BuildSlot> slots(workers);
  std::atomic<uint64_t> sort_runs{0};
  std::atomic<uint64_t> run_raw_bytes{0};
  std::atomic<uint64_t> run_encoded_bytes{0};

  // Per-region build latency: with parallel_workers > 1 each sample is one
  // worker's unit of work, so the histogram is the per-worker time
  // breakdown of phase 2.
  obs::Histogram& region_seconds =
      obs::MetricsRegistry::Global().GetHistogram(
          "tagg_partitioned_region_build_seconds",
          "Phase-2 build time per region");
  obs::Counter& regions_built = obs::MetricsRegistry::Global().GetCounter(
      "tagg_partitioned_regions_total", "Regions evaluated in phase 2");
  obs::Counter& tree_regions = obs::MetricsRegistry::Global().GetCounter(
      "tagg_partitioned_tree_regions_total",
      "Regions built with the aggregation-tree kernel");
  obs::Counter& columnar_regions = obs::MetricsRegistry::Global().GetCounter(
      "tagg_partitioned_columnar_regions_total",
      "Regions built with the columnar sweep kernel");
  obs::Counter& columnar_simd = obs::MetricsRegistry::Global().GetCounter(
      "tagg_partitioned_columnar_simd_regions_total",
      "Columnar regions dispatched to the AVX2 body");
  obs::Counter& columnar_scalar = obs::MetricsRegistry::Global().GetCounter(
      "tagg_partitioned_columnar_scalar_regions_total",
      "Columnar regions dispatched to the scalar body");

  // Every entry routed to region r — the workers' in-memory buffers in
  // shard order, or the region's spill file — through fn, stopping at the
  // first failure.
  auto for_each_entry = [&](size_t r, auto&& fn) -> Status {
    if (!spill) {
      for (size_t w = 0; w < workers; ++w) {
        for (const Entry& e : shards[w].mem[r]) TAGG_RETURN_IF_ERROR(fn(e));
      }
      return Status::OK();
    }
    SpillFile::Reader reader(*files[r]);
    while (true) {
      TAGG_ASSIGN_OR_RETURN(const void* rec, reader.Next());
      if (rec == nullptr) return Status::OK();
      Entry e;
      std::memcpy(&e, rec, sizeof(Entry));
      TAGG_RETURN_IF_ERROR(fn(e));
    }
  };

  auto build_region = [&](size_t r) -> Status {
    if constexpr (kInvertible) {
      const Instant rhi = region_end(r);
      InvertibleSweep<Op> sweep(boundaries[r], rhi);
      std::vector<TypedInterval<State>> out;
      auto emit = [&out](Instant lo, Instant hi, const State& state) {
        out.push_back({lo, hi, state});
      };
      size_t events_total = 0;
      size_t peak_events = 0;
      if (!spill) {
        size_t entries = 0;
        for (size_t w = 0; w < workers; ++w) entries += shards[w].mem[r].size();
        EventColumns cols;
        cols.reserve(2 * entries, !InvertibleSweep<Op>::kCountOnly);
        TAGG_RETURN_IF_ERROR(for_each_entry(r, [&](const Entry& e) {
          InvertibleSweep<Op>::AddRow(cols, rhi, e.start, e.end, e.input);
          return Status::OK();
        }));
        sweep.Sweep(cols);
        out.reserve(sweep.pending());
        sweep.Drain(emit);
        events_total = cols.size();
        peak_events = cols.size();
      } else {
        PodRunSorter sorter(EventLayout(), EventLess,
                            options.spill_sort_budget_records);
        TAGG_RETURN_IF_ERROR(for_each_entry(r, [&](const Entry& e) {
          Status added;
          events_total += InvertibleSweep<Op>::ForEachEvent(
              rhi, e.start, e.end, e.input,
              [&](Instant at, double dv, int64_t dn) {
                const Event ev{at, dv, dn};
                if (added.ok()) added = sorter.Add(&ev);
              });
          return added;
        }));
        // The merge streams sorted events into bounded column chunks,
        // drained between chunks so segment memory stays bounded too; the
        // sweeper's carry state makes chunk edges (even mid-run of equal
        // timestamps) semantically invisible.
        EventColumns chunk;
        chunk.reserve(SpillFile::kDefaultChunkRecords,
                      !InvertibleSweep<Op>::kCountOnly);
        TAGG_RETURN_IF_ERROR(sorter.Merge([&](const void* rec) {
          Event ev;
          std::memcpy(&ev, rec, sizeof(Event));
          InvertibleSweep<Op>::Append(chunk, ev.at, ev.dv, ev.dn);
          if (chunk.size() >= SpillFile::kDefaultChunkRecords) {
            sweep.Consume(chunk);
            sweep.Drain(emit);
            chunk.clear();
          }
          return Status::OK();
        }));
        sweep.Consume(chunk);
        sweep.Finish();
        sweep.Drain(emit);
        peak_events = sorter.peak_buffered_records();
        sort_runs.fetch_add(sorter.runs_generated(),
                            std::memory_order_relaxed);
        run_raw_bytes.fetch_add(sorter.run_raw_bytes(),
                                std::memory_order_relaxed);
        run_encoded_bytes.fetch_add(sorter.run_encoded_bytes(),
                                    std::memory_order_relaxed);
      }
      ExecutionStats& st = per_region_stats[r];
      st.relation_scans = 1;
      st.peak_live_nodes = peak_events;
      st.peak_live_bytes = peak_events * sizeof(Event);
      st.peak_paper_bytes = peak_events * kPaperNodeBytes;
      st.nodes_allocated = events_total;
      st.work_steps = events_total;
      st.intervals_emitted = out.size();
      per_region[r] = std::move(out);
      columnar_regions.Increment();
      (sweep.level() == SimdLevel::kAvx2 ? columnar_simd : columnar_scalar)
          .Increment();
    } else {
      AggregationTreeAggregator<Op> tree;
      TAGG_RETURN_IF_ERROR(for_each_entry(r, [&](const Entry& e) {
        return tree.Add(Period(e.start, e.end), e.input);
      }));
      TAGG_ASSIGN_OR_RETURN(per_region[r], tree.FinishTyped());
      per_region_stats[r] = tree.stats();
      tree_regions.Increment();
    }
    return Status::OK();
  };

  obs::Span build_span(options.profile, "build");
  std::atomic<size_t> next{0};
  auto build_worker = [&](size_t w) {
    const auto t0 = std::chrono::steady_clock::now();
    while (true) {
      const size_t r = next.fetch_add(1);
      if (r >= regions) break;
      obs::ScopedLatencyTimer timer(region_seconds);
      regions_built.Increment();
      per_region_status[r] = build_region(r);
      ++slots[w].regions_built;
    }
    slots[w].elapsed_ns = ElapsedNs(t0);
  };
  run_on_workers(build_worker);

  for (const Status& st : per_region_status) {
    TAGG_RETURN_IF_ERROR(st);
  }
  for (size_t w = 0; w < workers; ++w) {
    build_span.Annotate("w" + std::to_string(w) + "_regions",
                        slots[w].regions_built);
    build_span.Annotate("w" + std::to_string(w) + "_ns",
                        slots[w].elapsed_ns);
  }
  if (kInvertible && spill) {
    const uint64_t runs = sort_runs.load(std::memory_order_relaxed);
    obs::MetricsRegistry::Global()
        .GetCounter("tagg_partitioned_sort_runs_total",
                    "Event-sort run files written by the spilled columnar "
                    "kernel")
        .Increment(runs);
    const uint64_t raw = run_raw_bytes.load(std::memory_order_relaxed);
    const uint64_t encoded =
        run_encoded_bytes.load(std::memory_order_relaxed);
    spill_raw_total.Increment(raw);
    spill_encoded_total.Increment(encoded);
    eval_spill_raw += raw;
    eval_spill_encoded += encoded;
    build_span.Annotate("sort_runs", runs);
  }
  if (eval_spill_encoded > 0) {
    obs::MetricsRegistry::Global()
        .GetHistogram("tagg_partitioned_spill_compression_ratio",
                      "Raw/encoded byte ratio of one evaluation's spill "
                      "traffic (1.0 = incompressible)",
                      {1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0})
        .Observe(static_cast<double>(eval_spill_raw) /
                 static_cast<double>(eval_spill_encoded));
  }
  build_span.End();

  // ---------------------------------------------------------------------
  // Stitch: concatenate per-region intervals in region order, merging the
  // two sides of every artificial boundary.
  // ---------------------------------------------------------------------
  obs::Span stitch_span(options.profile, "stitch");
  AggregateSeries series;
  size_t typed_total = 0;
  for (const auto& typed : per_region) typed_total += typed.size();
  series.intervals.reserve(typed_total);
  ExecutionStats& stats = series.stats;
  stats.tuples_processed = tuples_processed;
  stats.relation_scans = 1;
  size_t artificial_joins = 0;
  for (size_t r = 0; r < regions; ++r) {
    const auto& typed = per_region[r];

    const bool artificial_join = r > 0 && !real[r];
    if (artificial_join) ++artificial_joins;
    bool first_in_region = true;
    for (const TypedInterval<State>& ti : typed) {
      // A tree kernel's output covers [kOrigin, kForever]; only the
      // region's range is meaningful.  (The columnar kernel emits exactly
      // the region's range, so the clamp is a no-op there.)
      const Instant lo = std::max(ti.start, boundaries[r]);
      const Instant hi = std::min(ti.end, region_end(r));
      if (lo > hi) continue;
      const Value value = Op::Finalize(ti.state);
      if (artificial_join && first_in_region &&
          !series.intervals.empty()) {
        // Same constant interval continues across the boundary.
        series.intervals.back().period =
            Period(series.intervals.back().period.start(), hi);
        first_in_region = false;
        continue;
      }
      first_in_region = false;
      series.intervals.push_back({Period(lo, hi), value});
    }
    stats.peak_live_nodes =
        std::max(stats.peak_live_nodes, per_region_stats[r].peak_live_nodes);
    stats.peak_live_bytes =
        std::max(stats.peak_live_bytes, per_region_stats[r].peak_live_bytes);
    stats.peak_paper_bytes = std::max(stats.peak_paper_bytes,
                                      per_region_stats[r].peak_paper_bytes);
    stats.nodes_allocated += per_region_stats[r].nodes_allocated;
    stats.work_steps += per_region_stats[r].work_steps;
  }
  stats.intervals_emitted = series.intervals.size();
  stitch_span.Annotate("intervals", series.intervals.size());
  stitch_span.Annotate("artificial_joins", artificial_joins);
  stitch_span.End();
  return series;
}

}  // namespace

Result<AggregateSeries> ComputePartitionedAggregate(
    const RowSelection& rows, const PartitionedOptions& options) {
  if (options.partitions == 0) {
    return Status::InvalidArgument("partitions must be >= 1");
  }
  TAGG_RETURN_IF_ERROR(CheckAggregateInput(
      options.aggregate, options.attribute, &rows.relation().schema()));
  return DispatchAggregate(options.aggregate, [&](auto op) {
    return RunPartitioned<decltype(op)>(rows, options);
  });
}

Result<AggregateSeries> ComputePartitionedAggregate(
    const Relation& relation, const PartitionedOptions& options) {
  return ComputePartitionedAggregate(RowSelection(relation), options);
}

}  // namespace tagg
