#include "core/column_scan.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/aggregation_tree.h"
#include "core/k_ordered_tree.h"
#include "core/sweep_columnar.h"
#include "obs/metrics.h"

namespace tagg {
namespace {

/// One window-clipped row on the non-invertible (tree) path.
struct ClippedEntry {
  Instant start;
  Instant end;
  double input;
};

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
      "Encoded block bytes read and decoded by pruned scans");
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

/// Per-worker decode state: blocks are work-stolen off one atomic cursor
/// and decoded straight into these buffers — no Tuple materialization, no
/// shared mutable state until the post-join merge.
template <typename State>
struct DecodeSlot {
  EventColumns cols;                  // invertible path
  std::vector<ClippedEntry> entries;  // MIN/MAX path
  ColumnScanStats stats;
  Status status;
};

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
  // Decode phase: straddling blocks routed to workers, columns produced
  // per worker, merged after the join.
  // -------------------------------------------------------------------
  const size_t workers =
      std::max<size_t>(1, std::min(std::max<size_t>(
                                       options.parallel_workers, 1),
                                   std::max<size_t>(decode_list.size(), 1)));
  std::vector<DecodeSlot<State>> slots(workers);
  std::atomic<size_t> next{0};
  auto decode_worker = [&](size_t w) {
    DecodeSlot<State>& slot = slots[w];
    auto reader = relation.NewReader();
    if (!reader.ok()) {
      slot.status = reader.status();
      return;
    }
    // The one row loop, instantiated with and without the value test so
    // that a block every row of which passes pays no per-row test.
    auto add_rows = [&](const std::vector<ColumnRecord>& rows, auto keep) {
      size_t kept = 0;
      for (const ColumnRecord& r : rows) {
        // Rows inside a straddling block may still miss the window.
        if (r.start > qhi || r.end < qlo || !keep(r.salary)) continue;
        ++kept;
        const Instant s = std::max(r.start, qlo);
        const Instant e = std::min(r.end, qhi);
        const double v = static_cast<double>(r.salary);
        if constexpr (kInvertible) {
          InvertibleSweep<Op>::AddRow(slot.cols, qhi, s, e, v);
        } else {
          slot.entries.push_back({s, e, v});
        }
      }
      slot.stats.rows_kept += kept;
    };
    std::vector<ColumnRecord> rows;
    while (true) {
      const size_t j = next.fetch_add(1);
      if (j >= decode_list.size()) break;
      const size_t bi = decode_list[j].block;
      rows.clear();
      if (Status st = (*reader)->ReadBlock(bi, &rows); !st.ok()) {
        slot.status = st;
        return;
      }
      ++slot.stats.blocks_decoded;
      slot.stats.bytes_decoded += blocks[bi].encoded_bytes;
      slot.stats.rows_decoded += rows.size();
      if (decode_list[j].test_values) {
        add_rows(rows, [&set = *options.values](int64_t v) {
          return ValueSetContains(set, v);
        });
      } else {
        add_rows(rows, [](int64_t) { return true; });
      }
    }
  };
  if (workers <= 1 || decode_list.empty()) {
    decode_worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
      pool.emplace_back(decode_worker, w);
    }
    for (std::thread& th : pool) th.join();
  }
  size_t events_total = 0;
  for (DecodeSlot<State>& slot : slots) {
    TAGG_RETURN_IF_ERROR(slot.status);
    stats.blocks_decoded += slot.stats.blocks_decoded;
    stats.bytes_decoded += slot.stats.bytes_decoded;
    stats.rows_decoded += slot.stats.rows_decoded;
    stats.rows_kept += slot.stats.rows_kept;
    events_total += kInvertible ? slot.cols.size() : slot.entries.size();
  }

  // -------------------------------------------------------------------
  // Sweep (invertible) or tree (MIN/MAX) over the merged decode output,
  // with the summary baseline folded into every emitted segment.
  // -------------------------------------------------------------------
  AggregateSeries series;
  if constexpr (kInvertible) {
    EventColumns all;
    all.reserve(events_total, !InvertibleSweep<Op>::kCountOnly);
    for (DecodeSlot<State>& slot : slots) {
      all.at.insert(all.at.end(), slot.cols.at.begin(), slot.cols.at.end());
      all.dv.insert(all.dv.end(), slot.cols.dv.begin(), slot.cols.dv.end());
      all.dn.insert(all.dn.end(), slot.cols.dn.begin(), slot.cols.dn.end());
      slot.cols.clear();
    }
    InvertibleSweep<Op> sweep(qlo, qhi, base_sum, base_n);
    sweep.Sweep(all);
    series.intervals.reserve(sweep.pending());
    sweep.Drain([&](Instant lo, Instant hi, const State& state) {
      series.intervals.push_back({Period(lo, hi), Op::Finalize(state)});
    });
  } else {
    // Worker slots interleave blocks, so the merged rows are only sorted
    // within each block; one sort by start makes them totally ordered, and
    // the k = 1 tree (the paper's §6.3 choice for sorted input) then emits
    // and collects as it goes instead of degenerating into a list.
    std::vector<ClippedEntry> all;
    all.reserve(events_total);
    for (DecodeSlot<State>& slot : slots) {
      all.insert(all.end(), slot.entries.begin(), slot.entries.end());
      slot.entries = {};
    }
    std::sort(all.begin(), all.end(),
              [](const ClippedEntry& a, const ClippedEntry& b) {
                return a.start < b.start;
              });
    KOrderedTreeAggregator<Op> tree(1);
    for (const ClippedEntry& e : all) {
      TAGG_RETURN_IF_ERROR(tree.Add(Period(e.start, e.end), e.input));
    }
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
  if constexpr (kInvertible) {
    series.stats.work_steps = events_total;
    series.stats.nodes_allocated = events_total;
    series.stats.peak_live_nodes = events_total;
  }
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
