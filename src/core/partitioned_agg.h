// Limited-memory (partitioned) temporal aggregation — parallel end to end.
//
// Section 5.1's closing future-work remark: with an unbalanced tree "it is
// simple to page portions of the tree to disk ... Simply accumulate the
// tuples which would overlap this region of the tree and process them
// later."  Section 7 echoes it: "we want to explore limited main memory
// implementations of these algorithms."
//
// This module implements that proposal by partitioning the time-line into
// consecutive regions, routing each tuple (clipped) into the regions it
// overlaps, and then building each region's constant intervals
// independently.  Peak memory drops from O(whole relation) to O(largest
// region) — and because regions are disjoint ranges of the time-line, both
// phases parallelize (cf. Bitton et al. 1983, in the paper's bibliography):
//
//   * Phase 1 (route): the input scan is sharded across workers; each
//     worker routes clipped tuples into its own per-region buffers, so the
//     hot path shares no mutable state.  Within a region, entries end up
//     concatenated in worker-shard order; the region result depends only on
//     the multiset of entries, so the output is unaffected.
//   * Spill: with spill_to_disk, every region gets its own temp file
//     (storage/spill_file).  Workers append staged batches under the
//     file's lock; in phase 2 each file is replayed by exactly one worker.
//     There is no shared replay cursor, so spill_to_disk combines freely
//     with parallel_workers.
//   * Phase 2 (build): one worker per region (work-stealing over an atomic
//     region counter) builds the region's constant intervals.  The kernel
//     follows from the aggregate: the group-invertible ones (COUNT, SUM,
//     AVG — a closing endpoint can subtract what the opening endpoint
//     added) run the columnar endpoint sweep (core/sweep_columnar's
//     InvertibleSweep: radix-sorted events, one linear pass, AVX2 body
//     behind runtime dispatch); MIN/MAX (an expiring maximum cannot be
//     "subtracted" without the remaining set) run the Section 5.1
//     aggregation tree.
//
// A region boundary that no tuple starts or ends at is *artificial*: both
// sides belong to the same constant interval, so the per-region results
// are stitched back together across such boundaries, making the output
// identical to the single-tree evaluation.

#pragma once

#include "core/aggregates.h"
#include "obs/trace.h"
#include "temporal/relation.h"
#include "util/result.h"

namespace tagg {

/// Options for partitioned evaluation.
struct PartitionedOptions {
  AggregateKind aggregate = AggregateKind::kCount;
  size_t attribute = AggregateOptions::kNoAttribute;

  /// Number of time-line regions (>= 1).  The bounded part of the
  /// relation's lifespan is split uniformly; a final region covers the
  /// open-ended tail.
  size_t partitions = 8;

  /// Spill region buffers to temporary files instead of holding the
  /// clipped tuples in memory — the honest limited-memory mode.  Spill
  /// files and external-sort runs are written as compressed temporal
  /// column blocks (storage/temporal_column); raw/encoded byte counters
  /// record the savings.  Each region spills to its own file, so this
  /// combines with parallel_workers > 1 (phase-1 workers append batches
  /// under the file's lock; phase 2 replays each file from exactly one
  /// worker).
  bool spill_to_disk = false;

  /// Worker threads for both phases: the routing scan is sharded across
  /// workers, and regions are built concurrently.  Results are stitched
  /// in region order; each region is built by exactly one worker, so the
  /// worker count never changes the answer.  Floating-point SUM/AVG may
  /// still differ from ComputeTemporalAggregate's tree by rounding
  /// (summation order is kernel-specific); the columnar kernel uses
  /// Neumaier-compensated accumulation so the difference stays within the
  /// conditioning-aware tolerance documented in src/testing/differential.h
  /// and docs/TESTING.md.  1 = sequential.
  size_t parallel_workers = 1;

  /// Endpoint events held in memory while sorting one spilled region
  /// (columnar kernel only); larger regions sort through temp-file runs
  /// via storage/external_sort's PodRunSorter.
  size_t spill_sort_budget_records = 1 << 18;

  /// When set, the evaluation records route/build/stitch child spans with
  /// per-worker timings and per-phase totals.  All spans are written from
  /// the coordinating thread (per obs/trace.h's single-writer contract);
  /// workers only fill plain per-worker slots that are annotated after
  /// the join.
  obs::QueryProfile* profile = nullptr;
};

/// Evaluates a temporal aggregate region by region.  The result equals
/// ComputeTemporalAggregate with the aggregation tree; stats report the
/// peak of the per-region working sets (the point of the exercise).
Result<AggregateSeries> ComputePartitionedAggregate(
    const Relation& relation, const PartitionedOptions& options);

}  // namespace tagg
