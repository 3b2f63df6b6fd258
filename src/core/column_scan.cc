#include "core/column_scan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/aggregation_tree.h"
#include "core/k_ordered_tree.h"
#include "core/sweep_columnar.h"
#include "obs/metrics.h"

namespace tagg {
namespace {

/// The footer summary of one block as an Op state (MIN/MAX only: the
/// non-invertible monoids compose by Combine, not by baseline addition).
template <typename Op>
typename Op::State BlockSummary(const ColumnBlockInfo& block);

template <>
MinOp::State BlockSummary<MinOp>(const ColumnBlockInfo& block) {
  return {block.min_value, block.rows > 0};
}

template <>
MaxOp::State BlockSummary<MaxOp>(const ColumnBlockInfo& block) {
  return {block.max_value, block.rows > 0};
}

/// An int64 bound, on the side of `toward` (-HUGE_VAL or HUGE_VAL), of
/// every stored entry whose double image is `v`: the footer keeps the
/// value column's MIN/MAX as doubles.  Below 2^53 the image is exact;
/// above it an entry may have rounded to `v` from anywhere within half a
/// step, so the bound is the next double that way.
int64_t WidenToInt64(double v, double toward) {
  if (std::fabs(v) < 0x1p53) return static_cast<int64_t>(v);
  const double w = std::nextafter(v, toward);
  if (w >= 0x1p63) return std::numeric_limits<int64_t>::max();
  if (w < -0x1p63) return std::numeric_limits<int64_t>::min();
  return static_cast<int64_t>(w);
}

bool ValueSetContains(const ValueSet& set, int64_t v) {
  const auto it = std::upper_bound(
      set.begin(), set.end(), v,
      [](int64_t x, const ValueRange& r) { return x < r.lo; });
  return it != set.begin() && v <= std::prev(it)->hi;
}

/// How a block's values meet the scan's value set, from the footer's
/// value MIN/MAX: `any` is false when no row can pass (skip the block),
/// `all` is true when every row passes (no per-row test).
struct ValueClass {
  bool any;
  bool all;
};

ValueClass ClassifyValues(const ColumnBlockInfo& block,
                          const std::optional<ValueSet>& set) {
  if (!set.has_value()) return {true, true};
  const int64_t lo = WidenToInt64(block.min_value, -HUGE_VAL);
  const int64_t hi = WidenToInt64(block.max_value, HUGE_VAL);
  // The first range that does not end below the block's values.
  const auto it = std::lower_bound(
      set->begin(), set->end(), lo,
      [](const ValueRange& r, int64_t x) { return r.hi < x; });
  if (it == set->end() || it->lo > hi) return {false, false};
  return {true, it->lo <= lo && hi <= it->hi};
}

Status ValidateValueSet(const ValueSet& set) {
  for (size_t i = 0; i < set.size(); ++i) {
    const bool ordered = set[i].lo <= set[i].hi &&
                         (i == 0 || set[i - 1].hi < set[i].lo);
    if (!ordered) {
      return Status::InvalidArgument(
          "a scan's value set must be sorted, disjoint, non-empty ranges");
    }
  }
  return Status::OK();
}

void PublishScanStats(const ColumnScanStats& stats) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  static obs::Counter& scans = reg.GetCounter(
      "tagg_column_scan_scans_total",
      "Pruned scans evaluated over columnar stored relations");
  static obs::Counter& skipped = reg.GetCounter(
      "tagg_column_scan_blocks_skipped_total",
      "Blocks zone-map-proved disjoint from the window or, by their "
      "value MIN/MAX, from the scan's value set (never read)");
  static obs::Counter& summarized = reg.GetCounter(
      "tagg_column_scan_blocks_summarized_total",
      "Fully-covering blocks answered from footer summaries (never read)");
  static obs::Counter& decoded = reg.GetCounter(
      "tagg_column_scan_blocks_decoded_total",
      "Boundary-straddling blocks decoded and swept");
  static obs::Counter& bytes_decoded = reg.GetCounter(
      "tagg_column_scan_bytes_decoded_total",
      "Encoded block bytes read and verified by pruned scans");
  static obs::Counter& bytes_pruned = reg.GetCounter(
      "tagg_column_scan_bytes_pruned_total",
      "Encoded block bytes pruning avoided reading");
  scans.Increment();
  skipped.Increment(stats.blocks_skipped);
  summarized.Increment(stats.blocks_summarized);
  decoded.Increment(stats.blocks_decoded);
  bytes_decoded.Increment(stats.bytes_decoded);
  bytes_pruned.Increment(stats.bytes_pruned);
}

/// The decoded columns of the block a scan is reading, one set per
/// thread and kept across scans: consecutive scans on a thread decode
/// into memory that is already mapped and cached.  It holds as much as
/// the largest block the thread has scanned (ColumnBlockColumns).
ColumnBlockColumns& ThreadScanColumns() {
  thread_local ColumnBlockColumns columns;
  return columns;
}

template <typename Op>
Result<AggregateSeries> RunColumnScan(const ColumnRelation& relation,
                                      const ColumnScanOptions& options,
                                      ColumnScanStats* stats_out) {
  using State = typename Op::State;
  constexpr bool kInvertible = SweepTraits<Op>::kInvertible;
  const Instant qlo = options.window.start();
  const Instant qhi = options.window.end();
  const std::vector<ColumnBlockInfo>& blocks = relation.blocks();

  ColumnScanStats stats;
  stats.blocks_total = blocks.size();

  // -------------------------------------------------------------------
  // Classify every block off the resident footer: skip, summarize, or
  // decode.  min_start is nondecreasing across blocks (the file is
  // time-sorted), so every block after the first one starting past the
  // window is skipped without further tests.  The value set skips the
  // blocks none of whose rows can pass it, and marks for a per-row test
  // the blocks only some of whose rows may.
  // -------------------------------------------------------------------
  double base_sum = 0.0;  // summary baseline (invertible monoids)
  int64_t base_n = 0;
  State base_state = Op::Identity();  // summary baseline (MIN/MAX)
  struct Decode {
    size_t block;
    bool test_values;
  };
  std::vector<Decode> decode_list;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const ColumnBlockInfo& b = blocks[i];
    if (b.min_start > qhi) {
      // The tail of the block list all starts past the window.
      for (size_t j = i; j < blocks.size(); ++j) {
        ++stats.blocks_skipped;
        stats.bytes_pruned += blocks[j].encoded_bytes;
      }
      break;
    }
    const ValueClass values = ClassifyValues(b, options.values);
    if (b.max_end < qlo || !values.any) {
      ++stats.blocks_skipped;
      stats.bytes_pruned += b.encoded_bytes;
      continue;
    }
    if (values.all && b.max_start <= qlo && b.min_end >= qhi) {
      ++stats.blocks_summarized;
      stats.bytes_pruned += b.encoded_bytes;
      if constexpr (kInvertible) {
        base_sum += b.sum;
        base_n += static_cast<int64_t>(b.rows);
      } else {
        base_state = Op::Combine(base_state, BlockSummary<Op>(b));
      }
      continue;
    }
    decode_list.push_back({i, !values.all});
  }

  // -------------------------------------------------------------------
  // Decode phase: the straddling blocks in file order, through one
  // reader, start, end and salary only, each kept row clipped to the
  // window and handed to add(start, end, value).  The file is sorted by
  // start and max(start, qlo) keeps that order, so the rows arrive
  // sorted.
  // -------------------------------------------------------------------
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<ColumnRelationReader> reader,
                        relation.NewReader());
  ColumnBlockColumns& block = ThreadScanColumns();
  auto for_each_kept_row = [&](auto add) -> Status {
    // The one row loop, instantiated with and without the value test so
    // that a block every row of which passes pays no per-row test.
    auto add_rows = [&](auto keep) {
      const std::span<const Instant> starts = block.start();
      const std::span<const Instant> ends = block.end();
      const std::span<const int64_t> values = block.salary();
      for (size_t i = 0; i < starts.size(); ++i) {
        const Instant s = starts[i];
        const Instant e = ends[i];
        // Rows inside a straddling block may still miss the window.
        if (s > qhi || e < qlo || !keep(values[i])) continue;
        ++stats.rows_kept;
        add(std::max(s, qlo), std::min(e, qhi),
            static_cast<double>(values[i]));
      }
    };
    for (const Decode& d : decode_list) {
      TAGG_RETURN_IF_ERROR(reader->ReadColumns(d.block, &block));
      ++stats.blocks_decoded;
      stats.bytes_decoded += blocks[d.block].encoded_bytes;
      stats.rows_decoded += block.rows();
      if (d.test_values) {
        add_rows([&set = *options.values](int64_t v) {
          return ValueSetContains(set, v);
        });
      } else {
        add_rows([](int64_t) { return true; });
      }
    }
    return Status::OK();
  };

  // -------------------------------------------------------------------
  // Sweep (invertible) or tree (MIN/MAX) over the kept rows, with the
  // summary baseline folded into every emitted segment.
  // -------------------------------------------------------------------
  AggregateSeries series;
  if constexpr (kInvertible) {
    EventColumns cols;
    TAGG_RETURN_IF_ERROR(for_each_kept_row([&](Instant s, Instant e,
                                               double v) {
      InvertibleSweep<Op>::AddRow(cols, qhi, s, e, v);
    }));
    const size_t events = cols.size();
    InvertibleSweep<Op> sweep(qlo, qhi, base_sum, base_n);
    sweep.Sweep(cols);
    series.intervals.reserve(sweep.pending());
    sweep.Drain([&](Instant lo, Instant hi, const State& state) {
      series.intervals.push_back({Period(lo, hi), Op::Finalize(state)});
    });
    series.stats.work_steps = events;
    series.stats.nodes_allocated = events;
    series.stats.peak_live_nodes = events;
  } else {
    // Sorted input is the paper's §6.3 case for the k = 1 tree: it emits
    // and collects as it goes instead of degenerating into a list.  An
    // out-of-order row (a forged file) poisons the tree, and FinishTyped
    // reports it.
    KOrderedTreeAggregator<Op> tree(1);
    TAGG_RETURN_IF_ERROR(for_each_kept_row([&](Instant s, Instant e,
                                               double v) {
      (void)tree.Add(Period(s, e), v);
    }));
    TAGG_ASSIGN_OR_RETURN(std::vector<TypedInterval<State>> typed,
                          tree.FinishTyped());
    series.intervals.reserve(typed.size());
    for (const TypedInterval<State>& ti : typed) {
      // The tree's output covers [kOrigin, kForever]; clamp to the window.
      const Instant lo = std::max(ti.start, qlo);
      const Instant hi = std::min(ti.end, qhi);
      if (lo > hi) continue;
      const State state = Op::Combine(ti.state, base_state);
      series.intervals.push_back({Period(lo, hi), Op::Finalize(state)});
    }
    series.stats = tree.stats();
  }

  series.stats.tuples_processed = stats.rows_decoded;
  series.stats.relation_scans = 1;
  series.stats.intervals_emitted = series.intervals.size();
  PublishScanStats(stats);
  if (stats_out != nullptr) *stats_out = stats;
  return series;
}

}  // namespace

Result<AggregateSeries> ComputeColumnScanAggregate(
    const ColumnRelation& relation, const ColumnScanOptions& options,
    ColumnScanStats* stats) {
  if (ReadsAttribute(options.aggregate, options.attribute) &&
      options.attribute != kColumnValueAttribute) {
    return Status::NotSupported(
        "column relations store a single value column (the salary "
        "attribute, index " +
        std::to_string(kColumnValueAttribute) +
        "); the pruned scan serves COUNT(*) and aggregates of that "
        "column only");
  }
  if (options.values.has_value()) {
    TAGG_RETURN_IF_ERROR(ValidateValueSet(*options.values));
  }
  return DispatchAggregate(options.aggregate, [&](auto op) {
    return RunColumnScan<decltype(op)>(relation, options, stats);
  });
}

Result<Value> ComputeColumnScanAt(const ColumnRelation& relation, Instant t,
                                  const ColumnScanOptions& options,
                                  ColumnScanStats* stats) {
  ColumnScanOptions point = options;
  point.window = Period::At(t);
  TAGG_ASSIGN_OR_RETURN(AggregateSeries series,
                        ComputeColumnScanAggregate(relation, point, stats));
  if (series.intervals.size() != 1) {
    return Status::Internal("point scan did not produce exactly one "
                            "interval");
  }
  return series.intervals[0].value;
}

}  // namespace tagg
