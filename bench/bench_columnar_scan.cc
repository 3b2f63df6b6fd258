// Columnar stored-relation scan: zone-map pruning across window widths.
//
// ColumnarScan runs the pruned scan over a TCR1 column file
// (core/column_scan) of a random short-lived relation, swept across
// window widths (point / narrow / wide / full span of the 1M-instant
// lifespan): zone-map block skipping, footer-summary composition for
// covering blocks, decode-and-sweep for the rest.  The
// block-classification counters (total/skipped/summarized/decoded, bytes
// pruned and decoded) come from the scan's own stats and land in the
// JSON so CI can assert the narrow windows actually skip >= 90% of the
// blocks.
//
// FilteredScan is the scan with a pushed-down WHERE: COUNT(*) over the
// whole timeline, with a value set that passes no row (the value zone map
// skips every block), about half the rows (every block decoded and its
// rows tested) or every row (every block decoded, no per-row test).  The
// JSON carries blocks_skipped/blocks_decoded/rows_decoded/rows_kept so
// CI can assert the pass-nothing case decodes no block.
//
// BlockRead is the decode layer alone: a fresh reader reads, CRC-verifies
// and decodes every block of the file.  BlockRead/columns decodes only
// the start, end and salary columns, as the pruned scan does, so its
// bytes/s is the rate at which a straddling block costs a window query;
// plain BlockRead decodes whole rows, as loading a relation does.  Both
// report bytes_verified (every encoded byte), bytes_decoded (the bytes
// parsed) and rows_decoded.
//
// Results land in bench_results/ as JSON via TAGG_BENCH_MAIN; CI diffs
// them against bench_results/baseline with tools/bench_compare.py.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

#include "core/aggregates.h"
#include "core/column_scan.h"
#include "core/workload.h"
#include "obs/metrics.h"
#include "storage/column_relation.h"
#include "storage/relation_io.h"

namespace tagg {
namespace {

constexpr Instant kLifespan = 1'000'000;

/// The window-width sweep, as fractions of the lifespan.
struct WindowFamily {
  const char* name;
  Instant lo;
  Instant hi;
};

const WindowFamily kWindows[] = {
    {"point", 500'000, 500'000},
    {"narrow", 500'000, 500'999},
    {"wide", 100'000, 899'999},
    {"full", 0, kForever},
};

/// One column file, cached per size: generation and the file write
/// dwarf a bench iteration.  Benchmarks run sequentially, so plain
/// statics are safe; the temp file is removed when the cache unwinds at
/// exit.
struct StoredWorkload {
  std::shared_ptr<const ColumnRelation> column;
  std::string column_path;

  StoredWorkload(std::shared_ptr<const ColumnRelation> c, std::string cp)
      : column(std::move(c)), column_path(std::move(cp)) {}

  ~StoredWorkload() { std::remove(column_path.c_str()); }
};

const StoredWorkload& CachedWorkload(size_t n) {
  static std::map<size_t, std::unique_ptr<StoredWorkload>> cache;
  auto it = cache.find(n);
  if (it != cache.end()) return *it->second;

  WorkloadSpec spec;
  spec.num_tuples = n;
  spec.lifespan = kLifespan;
  spec.seed = 42;
  Relation relation = GenerateEmployedRelation(spec).value();

  const std::string stem = "/tmp/tagg_bench_columnar_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(n);
  const std::string column_path = stem + ".tcr";
  auto column = WriteRelationToColumnFile(relation, column_path).value();

  it = cache.emplace(n, std::make_unique<StoredWorkload>(std::move(column),
                                                         column_path))
           .first;
  return *it->second;
}

AggregateKind KindFor(int64_t arg) {
  return arg != 0 ? AggregateKind::kSum : AggregateKind::kCount;
}

size_t AttributeFor(AggregateKind kind) {
  return kind == AggregateKind::kCount ? AggregateOptions::kNoAttribute
                                       : kColumnValueAttribute;
}

void BM_ColumnarScan(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const WindowFamily& window =
      kWindows[static_cast<size_t>(state.range(1))];
  const AggregateKind kind = KindFor(state.range(2));
  const StoredWorkload& workload = CachedWorkload(n);
  ColumnScanStats stats;
  for (auto _ : state) {
    ColumnScanOptions options;
    options.aggregate = kind;
    options.attribute = AttributeFor(kind);
    options.window = Period(window.lo, window.hi);
    auto series =
        ComputeColumnScanAggregate(*workload.column, options, &stats);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->intervals);
  }
  state.counters["blocks_total"] = static_cast<double>(stats.blocks_total);
  state.counters["blocks_skipped"] =
      static_cast<double>(stats.blocks_skipped);
  state.counters["blocks_summarized"] =
      static_cast<double>(stats.blocks_summarized);
  state.counters["blocks_decoded"] =
      static_cast<double>(stats.blocks_decoded);
  state.counters["bytes_pruned"] = static_cast<double>(stats.bytes_pruned);
  state.counters["bytes_decoded"] =
      static_cast<double>(stats.bytes_decoded);
  state.counters["rows_decoded"] = static_cast<double>(stats.rows_decoded);
  state.SetLabel(std::string(window.name) + "/" +
                 std::string(AggregateKindToString(kind)));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

BENCHMARK(BM_ColumnarScan)
    ->ArgsProduct({{1 << 16, 1 << 20}, {0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/// FilteredScan's value sets over the generated salaries, which are
/// uniform in [30000, 100000].
struct ValueSetCase {
  const char* name;
  ValueSet values;
};

const ValueSetCase kValueSets[] = {
    {"none", {{0, 29999}}},
    {"half", {{65000, std::numeric_limits<int64_t>::max()}}},
    {"all", {{0, 200000}}},
};

void BM_FilteredScan(benchmark::State& state) {
  const auto n = static_cast<size_t>(state.range(0));
  const ValueSetCase& values = kValueSets[static_cast<size_t>(state.range(1))];
  const StoredWorkload& workload = CachedWorkload(n);
  ColumnScanStats stats;
  for (auto _ : state) {
    ColumnScanOptions options;
    options.values = values.values;
    auto series =
        ComputeColumnScanAggregate(*workload.column, options, &stats);
    if (!series.ok()) {
      state.SkipWithError(series.status().ToString().c_str());
      return;
    }
    bench::KeepAlive(series->intervals);
  }
  state.counters["blocks_skipped"] =
      static_cast<double>(stats.blocks_skipped);
  state.counters["blocks_decoded"] =
      static_cast<double>(stats.blocks_decoded);
  state.counters["rows_decoded"] = static_cast<double>(stats.rows_decoded);
  state.counters["rows_kept"] = static_cast<double>(stats.rows_kept);
  state.SetLabel(values.name);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}

// The "/65536/" in the name keeps every case inside the CI smoke filter.
BENCHMARK(BM_FilteredScan)
    ->ArgsProduct({{1 << 16}, {0, 1, 2}})
    ->Unit(benchmark::kMillisecond);

/// Bytes a read of the first three columns parses in `column`: each
/// block's header plus the start, end and salary columns of its payload.
/// Columns are encoded independently, so re-encoding those three alone
/// gives their exact size.
uint64_t ColumnPrefixBytes(const ColumnRelation& column) {
  using Field = TemporalColumnLayout::Field;
  const TemporalColumnLayout prefix{{Field::kTime, Field::kTime, Field::kInt}};
  auto reader = column.NewReader();
  if (!reader.ok()) return 0;
  uint64_t bytes = 0;
  std::vector<ColumnRecord> rows;
  for (size_t b = 0; b < column.blocks().size(); ++b) {
    rows.clear();
    if (!(*reader)->ReadBlock(b, &rows).ok()) return 0;
    std::vector<int64_t> fields;
    for (const ColumnRecord& r : rows) {
      fields.insert(fields.end(), {r.start, r.end, r.salary});
    }
    std::string block;
    if (!EncodeTemporalBlock(prefix, fields.data(), rows.size(), &block)
             .ok()) {
      return 0;
    }
    bytes += block.size();
  }
  return bytes;
}

/// Every block of the file through a fresh reader: ReadBlock decodes all
/// five columns into rows, ReadColumns (`columns_only`) the first three
/// into the column arrays a scan reads.  Both read and CRC-verify every
/// encoded byte.
void BlockRead(benchmark::State& state, bool columns_only) {
  const auto n = static_cast<size_t>(state.range(0));
  const ColumnRelation& column = *CachedWorkload(n).column;
  std::vector<ColumnRecord> rows;
  rows.reserve(column.rows_per_block());
  ColumnBlockColumns columns;
  for (auto _ : state) {
    auto reader = column.NewReader();
    if (!reader.ok()) {
      state.SkipWithError(reader.status().ToString().c_str());
      return;
    }
    for (size_t b = 0; b < column.blocks().size(); ++b) {
      rows.clear();
      const Status st = columns_only ? (*reader)->ReadColumns(b, &columns)
                                     : (*reader)->ReadBlock(b, &rows);
      if (!st.ok()) {
        state.SkipWithError(st.ToString().c_str());
        return;
      }
      bench::KeepAlive(rows);
      bench::KeepAlive(columns);
    }
  }
  state.counters["bytes_verified"] =
      static_cast<double>(column.encoded_bytes());
  state.counters["bytes_decoded"] = static_cast<double>(
      columns_only ? ColumnPrefixBytes(column) : column.encoded_bytes());
  state.counters["rows_decoded"] = static_cast<double>(column.row_count());
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(column.encoded_bytes()));
}

void BM_BlockRead(benchmark::State& state) { BlockRead(state, false); }

// Real time: the reads go through the file cache.  The "/real_time"
// suffix also keeps the entry inside the CI smoke's "/65536/" filter.
BENCHMARK(BM_BlockRead)
    ->Arg(1 << 16)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same read decoding only start, end and salary:
// "BM_BlockRead/columns/65536/real_time".
benchmark::internal::Benchmark* const kBlockReadColumns =
    benchmark::RegisterBenchmark(
        "BM_BlockRead/columns",
        [](benchmark::State& state) { BlockRead(state, true); })
        ->Arg(1 << 16)
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace tagg

TAGG_BENCH_MAIN()
