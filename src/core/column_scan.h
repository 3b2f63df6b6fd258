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
// A scan may also carry a value set: the rows it aggregates are only those
// whose value-column entry lies in the set (a WHERE over the stored column,
// pushed down by the query executor).  The footer's per-block MIN/MAX of
// the value column then acts as a second zone map: a block whose values
// are disjoint from the set is skipped, a block whose values all lie in
// one of the set's ranges passes every row (and is summarized as above
// when it covers the window), and any other block is decoded and each of
// its rows tested before it becomes an event.
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
// Decoded blocks are read in file order on the calling thread through one
// reader, with no Tuple materialization.  A block read verifies the CRC
// over the whole payload but decodes only the three columns the scan
// uses (start, end and salary, a prefix of the block's column order),
// into arrays owned by the calling thread and reused by its next scans
// (ColumnRelationReader::ReadColumns); the name columns are never
// parsed.  Per thread those arrays hold as much as the largest block the
// thread has scanned: about 96 KB of columns plus 53 KB of encoded bytes
// for a default 4,096-row block.  The file is sorted by start, so
// the window-clipped rows arrive sorted (0-ordered in the paper's §5.2
// sense) and go straight to their kernel: two endpoint events each into
// the invertible region sweep with the summary baseline
// (core/sweep_columnar's InvertibleSweep, shared with the partitioned
// evaluator), or one Add each into the k = 1 k-ordered tree
// (core/k_ordered_tree), which on sorted input needs no sort and emits
// and collects as it goes.  Skipping and summarizing always run; they
// change which blocks are read, never the result.
//
// The returned series partitions exactly the query window — AggregateOver
// semantics match the live index's: clipping to the window preserves each
// instant's covering multiset, so values agree with the full-relation
// series restricted to the window.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/aggregates.h"
#include "storage/column_relation.h"
#include "temporal/period.h"
#include "util/result.h"

namespace tagg {

/// A closed range [lo, hi] of value-column entries.
struct ValueRange {
  int64_t lo;
  int64_t hi;
};

/// A set of value-column entries: sorted, disjoint, closed ranges.
using ValueSet = std::vector<ValueRange>;

/// One pruned scan's configuration.
struct ColumnScanOptions {
  AggregateKind aggregate = AggregateKind::kCount;

  /// Attribute index in the Employed record schema.  Column files store a
  /// single value column (salary, kColumnValueAttribute); COUNT may also
  /// use kNoAttribute.  Anything else is NotSupported.
  size_t attribute = AggregateOptions::kNoAttribute;

  /// The query window; the result partitions exactly this period.
  Period window = Period::All();

  /// Only rows whose value-column entry lies in this set are aggregated;
  /// unset aggregates every row.  The ranges must be sorted, disjoint and
  /// each non-empty (InvalidArgument otherwise); an empty set keeps no row.
  std::optional<ValueSet> values;
};

/// What one scan did, for the obs counters and the bench JSON.
struct ColumnScanStats {
  size_t blocks_total = 0;
  size_t blocks_skipped = 0;
  size_t blocks_summarized = 0;
  size_t blocks_decoded = 0;
  /// Encoded bytes of decoded blocks, all read and CRC-verified; only
  /// their start, end and salary columns are parsed.
  uint64_t bytes_decoded = 0;
  /// Encoded bytes pruning avoided reading (skipped + summarized blocks).
  uint64_t bytes_pruned = 0;
  /// Rows materialized from decoded blocks.
  size_t rows_decoded = 0;
  /// Rows of decoded blocks that met the window and the value set, i.e.
  /// that reached the sweep or the tree.
  size_t rows_kept = 0;
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
