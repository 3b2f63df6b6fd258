// Pruned scans over columnar stored relations.
//
// A column relation file (storage/column_relation) keeps the relation
// time-sorted in compressed blocks whose footer carries a zone map and
// per-block monoid summaries.  This module is the batch evaluation that
// exploits them: for a window query it classifies every block as
//
//   * skipped      — the zone map proves the block is disjoint from the
//                    window (min_start past the window, or max_end before
//                    it); the block's bytes are never read,
//   * summarized   — every row of the block covers the window entirely
//                    (max_start <= window.start and min_end >= window.end),
//                    so the block contributes a *constant* to each instant
//                    of the window and its footer summary is composed
//                    without decoding,
//   * decoded      — the block straddles a window boundary; it is decoded
//                    and its window-clipped rows swept.
//
// Summary composition is the partial-aggregate composition of the
// factorised-aggregation literature, and its correctness argument splits
// by monoid (docs/COLUMNAR.md):
//
//   * Invertible monoids (COUNT, SUM, AVG — group states): the block adds
//     (sum, rows) to the sweep's running accumulator uniformly over the
//     whole window, so the baseline is added to every emitted segment's
//     (sum, n) before SweepTraits::Make.
//   * Non-invertible monoids (MIN, MAX): no inverse exists, but none is
//     needed — a fully-covering block's contribution never *retires*
//     inside the window, so Combine(segment_state, block_summary) is
//     exact on every segment.  Only blocks that straddle the boundary
//     (where a row's contribution starts or stops mid-window) must be
//     decoded.
//
// Decoded blocks are routed to workers phase-1 style (work stealing over
// the block list, no Tuple materialization): each worker decodes straight
// into per-worker event columns (invertible) or clipped entry buffers
// (MIN/MAX), and the merged columns run through the invertible region
// sweep with the summary baseline (core/sweep_columnar's InvertibleSweep,
// shared with the partitioned evaluator) or, sorted by start, the k = 1
// k-ordered tree (core/k_ordered_tree) respectively.  Skipping and
// summarizing always run; they change which blocks are read, never the
// result.
//
// The returned series partitions exactly the query window — AggregateOver
// semantics match the live index's: clipping to the window preserves each
// instant's covering multiset, so values agree with the full-relation
// series restricted to the window.

#pragma once

#include "core/aggregates.h"
#include "storage/column_relation.h"
#include "temporal/period.h"
#include "util/result.h"

namespace tagg {

/// One pruned scan's configuration.
struct ColumnScanOptions {
  AggregateKind aggregate = AggregateKind::kCount;

  /// Attribute index in the Employed record schema.  Column files store a
  /// single value column (salary, kColumnValueAttribute); COUNT may also
  /// use kNoAttribute.  Anything else is NotSupported.
  size_t attribute = AggregateOptions::kNoAttribute;

  /// The query window; the result partitions exactly this period.
  Period window = Period::All();

  /// Worker threads for the decode phase (work stealing over blocks).
  size_t parallel_workers = 1;
};

/// What one scan did, for the obs counters and the bench JSON.
struct ColumnScanStats {
  size_t blocks_total = 0;
  size_t blocks_skipped = 0;
  size_t blocks_summarized = 0;
  size_t blocks_decoded = 0;
  /// Encoded bytes actually read and decoded.
  uint64_t bytes_decoded = 0;
  /// Encoded bytes pruning avoided reading (skipped + summarized blocks).
  uint64_t bytes_pruned = 0;
  /// Rows materialized from decoded blocks.
  size_t rows_decoded = 0;
};

/// Evaluates the aggregate over `options.window`; the result's intervals
/// partition the window in time order.  `stats`, when non-null, receives
/// the scan's pruning counters (they are also published to the metrics
/// registry as tagg_column_scan_*).
Result<AggregateSeries> ComputeColumnScanAggregate(
    const ColumnRelation& relation, const ColumnScanOptions& options,
    ColumnScanStats* stats = nullptr);

/// Point query: the aggregate's value at instant `t` (a [t, t] window).
Result<Value> ComputeColumnScanAt(const ColumnRelation& relation, Instant t,
                                  const ColumnScanOptions& options,
                                  ColumnScanStats* stats = nullptr);

}  // namespace tagg
