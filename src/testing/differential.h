// Differential-testing harness: every algorithm against the oracle.
//
// The library carries eight ways to evaluate the same temporal aggregate
// (five batch algorithms, the brute-force reference, the partitioned
// parallel evaluation with two kernels, and the live serving index), and
// the query executor reaches them through four tiers.  They must all
// describe the same step function over the time-line.  This
// harness generates seeded randomized workloads — biased toward the
// adversarial shapes that have historically broken implementations: empty
// relations, single tuples, periods touching kOrigin/kForever, 1-chronon
// point periods, duplicate start times, near-k-order-violating streams,
// and mixed-magnitude values (1e17 next to 1.0) — runs each through every
// algorithm/configuration, and diffs the coalesced constant-interval
// series.
//
// Float-comparison policy (also documented in docs/TESTING.md):
//
//   * Series are compared as *step functions*: both results are walked
//     over the merged set of interval boundaries, so two series that
//     coalesce the same function differently still compare equal.
//   * COUNT is compared exactly (integer states end to end).
//   * MIN/MAX are compared exactly: every implementation selects one of
//     the input doubles, never computes a new one.
//   * SUM/AVG are compared with a relative tolerance scaled by the
//     interval's *conditioning*,
//         |a - b| <= tol * max(1, |a|, |b|, C(I)),   tol = 1e-9,
//     where C(I) is the sum of |input| over the tuples overlapping
//     interval I (computed by an auxiliary reference pass over the
//     |value|-transformed relation).  Summation order differs between
//     algorithms and IEEE addition is not associative, so on an interval
//     where +1e17 and -1e17 cancel, any two correct implementations may
//     legitimately differ by ~ulp(1e17); scaling by C(I) admits exactly
//     that.  What the policy still rejects — by design — is error leaking
//     in from tuples that do NOT overlap the interval: a running sweep
//     accumulator that lost a small addend under a large magnitude keeps
//     the damage after the large tuple retires, where C(I) is small
//     again.  The columnar sweep kernel uses Neumaier-compensated
//     accumulation (core/sweep_columnar.cc) precisely to stay inside this
//     policy.
//   * NULL (empty interval) must match exactly: an algorithm reporting
//     0.0 where another reports NULL is a bug, not a rounding artifact.
//
// On divergence every entry point returns a Status whose message names the
// reproducing seed, the workload shape, the aggregate, and the offending
// configuration — paste the seed into RunDifferentialSeed() to replay.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggregates.h"
#include "live/live_index.h"
#include "temporal/relation.h"
#include "util/result.h"

namespace tagg {
namespace testing {

/// Tuning knobs for one differential run.
struct DifferentialOptions {
  /// Relative tolerance for SUM/AVG (see the file comment).
  double relative_tolerance = 1e-9;

  /// Include the partitioned evaluation (partitions × workers × spill
  /// grid, one config pinned to the scalar SIMD body).
  bool include_partitioned = true;

  /// Include the pruned columnar stored-relation scan (core/column_scan):
  /// each seed's relation is written to a temporary TCR1 column file and
  /// scanned through a window, and whole through the executor's
  /// column-scan tier.  Every series is coalesced
  /// and diffed against the reference; COUNT/MIN/MAX must additionally be
  /// *tuple-identical* to the (coalesced) reference, because block
  /// summaries and decoded events contribute exact values for those
  /// aggregates.  SUM/AVG keep the tolerance policy — the summary fast
  /// path adds block sums in a different order than the reference tree.
  bool include_column_scan = true;

  /// Include the live index (sequential insert + AggregateOver), diffed
  /// against the reference.  Its series must additionally be
  /// *tuple-identical* (no tolerance, all five aggregates) to the batch
  /// aggregation tree's, since both build the same split tree from the
  /// same Add sequence in the same order; a batched load (InsertTuples)
  /// must be tuple-identical too.
  bool include_live_index = true;

  /// Additionally probe one LiveAggregateIndex from concurrent reader
  /// threads while a writer inserts, asserting epoch monotonicity and
  /// partition validity of every snapshot, then diff the final series.
  bool concurrent_live_check = true;

  /// Include the sharded live service (src/shard): the relation is loaded
  /// through a ShardedLiveService under a grid of shard-count × worker ×
  /// ingest-path × rebalance/grow configurations, and every
  /// scatter-gathered series is diffed against the reference.  Clipping
  /// at the shard boundaries preserves each instant's covering multiset,
  /// so COUNT/MIN/MAX must additionally be *tuple-identical* to the
  /// unsharded COW live series; SUM/AVG keep the tolerance policy because
  /// the per-shard summation tree differs from the unsharded one.
  bool include_sharded = true;

  /// Additionally drive one ShardedLiveService from concurrent reader
  /// threads while a writer ingests and rebalances mid-stream, asserting
  /// partition validity of every snapshot, then diff the final series.
  /// Snapshot epochs are deliberately NOT asserted monotone here: a
  /// rebalance publishes fresh shard instances whose epochs restart.
  bool concurrent_sharded_check = true;
};

/// What one seed generated, for diagnostics.
struct WorkloadInfo {
  std::string shape;   ///< human-readable shape name ("point-periods", ...)
  size_t tuples = 0;
};

/// Aggregate outcome of a multi-seed sweep.
struct DifferentialSummary {
  size_t seeds_run = 0;
  size_t comparisons = 0;  ///< series pairs diffed (all matched)
};

/// Deterministically generates the seed's workload relation (Employed
/// schema, integer salary attribute drawn from an exactly-representable
/// palette including ±1e17).  Same seed, same relation — the reproducing
/// seed printed on divergence replays the exact workload.
Result<Relation> GenerateDifferentialRelation(uint64_t seed,
                                              WorkloadInfo* info = nullptr);

/// Compares two series as step functions under the documented policy.
/// `expected` is treated as the oracle side in messages.  Both series must
/// partition [kOrigin, kForever].  `conditioning`, when non-null, is the
/// per-interval C(I) series (SUM of |input| via the reference algorithm —
/// see the file comment); without it the SUM/AVG scale falls back to
/// max(1, |a|, |b|), which is only sound for workloads without
/// catastrophic cancellation.
Status CompareSeries(const std::vector<ResultInterval>& expected,
                     const std::vector<ResultInterval>& actual,
                     AggregateKind kind, double relative_tolerance = 1e-9,
                     const std::vector<ResultInterval>* conditioning =
                         nullptr);

/// Computes the conditioning series C(I) for `relation`'s attribute: the
/// reference SUM over the relation with every input replaced by its
/// absolute value.
Result<std::vector<ResultInterval>> ComputeConditioningSeries(
    const Relation& relation, size_t attribute);

/// Generates the seed's workload and diffs every algorithm/configuration
/// against the reference, for all five aggregates.  Every 4th seed also
/// diffs the in-memory configurations and the planner, partitioned and
/// live executor tiers over a copy with a seeded ~15% of salaries NULL;
/// its salary aggregates are checked against the reference over the copy
/// with those tuples removed.  `comparisons`, when non-null, accumulates
/// the number of series pairs diffed.
Status RunDifferentialSeed(uint64_t seed,
                           const DifferentialOptions& options = {},
                           size_t* comparisons = nullptr);

/// Runs seeds [first_seed, first_seed + count); stops at the first
/// divergence, returning its reproducing Status.
Result<DifferentialSummary> RunDifferentialRange(
    uint64_t first_seed, size_t count,
    const DifferentialOptions& options = {});

/// Drives one live index with a writer thread inserting `relation`'s
/// tuples while reader threads probe point/range queries on snapshots,
/// then diffs the final series against the reference.  Used by
/// RunDifferentialSeed and directly by the live-index tests.
Status CheckLiveIndexConcurrent(const Relation& relation,
                                AggregateKind aggregate, size_t attribute,
                                uint64_t seed,
                                double relative_tolerance = 1e-9);

/// Drives one ShardedLiveService with a writer thread ingesting
/// `relation`'s tuples — triggering two data-quantile Reshards
/// mid-stream — while reader threads scatter-gather full
/// series and point probes across the topology cutover, asserting every
/// snapshot partitions the time-line, then diffs the final series against
/// the reference.  Used by RunDifferentialSeed and directly by the shard
/// tests (the TSan job runs both).
Status CheckShardedServiceConcurrent(const Relation& relation,
                                     AggregateKind aggregate,
                                     size_t attribute, uint64_t seed,
                                     size_t shards,
                                     double relative_tolerance = 1e-9);

}  // namespace testing
}  // namespace tagg
