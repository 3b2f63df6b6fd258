// Live temporal aggregate index: a resident, concurrently-queryable,
// incrementally-updatable serving structure.
//
// Every batch algorithm in src/core builds its structure from a whole
// relation, emits the result once, and throws the structure away.  The
// aggregation tree of Section 5.1, however, already stores *partial*
// aggregate states per node — exactly the shape needed to answer point
// and range queries and to absorb new tuples without a rebuild.  This
// module keeps one Section 5.1 split tree resident and versioned:
//
//   * Insert(period, input)    — O(depth) amortized, same as one batch
//                                insertion; the tree only ever grows
//                                (no §5.3 garbage collection: a serving
//                                index must answer about the whole past);
//   * AggregateAt(t)           — descend ONE root path combining the
//                                partial states, O(depth), allocation-free;
//   * AggregateOver(period)    — walk the canonical cover of the query
//                                range (subtrees disjoint from the range
//                                are pruned at their topmost node),
//                                emitting the coalesced constant-interval
//                                series, O(depth + answer).
//
// Concurrency: one writer and any number of readers may run against the
// index simultaneously; every reader observes a consistent epoch-stamped
// snapshot.  The engine is a copy-on-write split tree with epoch-based
// reclamation (live/cow_index.h): readers are lock-free and never block
// the writer.  All five monoids of core/aggregates.h are supported,
// including AVG's (sum, count) pair.

#pragma once

#include <memory>
#include <span>
#include <string>
#include <utility>

#include "core/aggregation_tree.h"
#include "obs/metrics.h"
#include "temporal/tuple.h"

namespace tagg {

namespace internal {

// Registry instruments shared by every live index, defined once in
// live_index.cc so the template methods below can publish without each
// instantiation re-resolving the name.
obs::Histogram& LiveProbeSeconds();
obs::Counter& LiveInsertsTotal();
obs::Counter& LiveProbesTotal();

}  // namespace internal

/// What a live index aggregates and how it serves.
struct LiveIndexOptions {
  AggregateKind aggregate = AggregateKind::kCount;
  /// Index of the aggregated attribute in the tuples passed to
  /// InsertTuples(); AggregateOptions::kNoAttribute for COUNT(*).
  size_t attribute = AggregateOptions::kNoAttribute;
};

/// A point-in-time view of a live index's counters.
struct LiveIndexStats {
  /// Published version: the number of tuples the index has seen (absorbed
  /// or skipped as NULL).  Comparing this against the backing relation's
  /// size tells whether the index is fresh.
  uint64_t epoch = 0;
  /// Tuples actually folded into the tree (NULL inputs are seen but
  /// skipped, matching the batch path's SQL NULL semantics).
  uint64_t inserts_absorbed = 0;
  /// Point, range, and fold queries answered since construction.
  uint64_t queries_served = 0;
  /// Seconds since the current version was published (data staleness as
  /// observed by a reader arriving now).
  double snapshot_age_seconds = 0.0;
  size_t tree_depth = 0;
  size_t live_nodes = 0;
  /// Actual resident bytes of the tree's nodes, plus the paper's
  /// 16-bytes-per-node accounting of the same count (Section 6.2) for
  /// comparison with the batch algorithms' memory study.
  size_t live_bytes = 0;
  size_t paper_bytes = 0;
  /// Immutable tree versions published so far: one for the empty tree
  /// plus one per non-empty writer call, however many tuples it carried.
  uint64_t versions_published = 0;
  /// Path-copied nodes retired but not yet recycled (they
  /// drain to 0 after readers quiesce and the next publish reclaims).
  size_t retired_pending = 0;
  uint64_t nodes_retired = 0;
  uint64_t nodes_reclaimed = 0;

  std::string ToString() const;
};

/// Type-erased handle to a live temporal aggregate index.  Obtain one
/// from Create(); the concrete monoid is chosen by options.aggregate.
class LiveAggregateIndex {
 public:
  virtual ~LiveAggregateIndex() = default;

  /// Builds an empty index.  Fails when a value aggregate (SUM/MIN/MAX/
  /// AVG) is requested without an attribute.
  static Result<std::unique_ptr<LiveAggregateIndex>> Create(
      const LiveIndexOptions& options);

  const LiveIndexOptions& options() const { return options_; }

  // --- writer API (exclusive section per call) -------------------------
  //
  // Every writer funnels into Write(): one writer section, one published
  // version per call, however many tuples it carries.

  /// Folds one (validity, input) pair into the index.
  Status Insert(const Period& valid, double input) {
    const std::pair<Period, double> one{valid, input};
    return Write({&one, 1}, 0);
  }

  /// Folds a batch of (validity, input) pairs: bulk ingest amortizes the
  /// per-insert path copies to near the in-place cost.  An empty batch
  /// publishes nothing.
  Status InsertBatch(std::span<const std::pair<Period, double>> batch) {
    return Write(batch, 0);
  }

  /// Reads every tuple with core's ReadAggregateInput and folds the
  /// batch.  NULL attribute values advance the epoch without contributing
  /// (SQL aggregate semantics; COUNT(attr) counts only non-null values).
  /// A tuple too short for the attribute (InvalidArgument) or carrying a
  /// non-numeric value for a value aggregate (NotSupported) rejects the
  /// whole batch before anything is folded.  The services' ingest lands
  /// here.
  Status InsertTuples(std::span<const Tuple> tuples);

  /// InsertTuples over one tuple.
  Status InsertTuple(const Tuple& tuple) { return InsertTuples({&tuple, 1}); }

  /// Recycles retired nodes no reader can observe any more.  Every write
  /// is already published; this only returns memory on an idle index.
  virtual void Flush() = 0;

  // --- reader API (shared sections; any number of threads) -------------

  /// The aggregate's value at instant `t`: one root-path descent, O(depth).
  /// When `snapshot_epoch` is non-null it receives the epoch the answer
  /// was computed at.
  virtual Result<Value> AggregateAt(
      Instant t, uint64_t* snapshot_epoch = nullptr) const = 0;

  /// The constant-interval series restricted to `query`, in time order,
  /// exactly covering the query period.  `coalesce` merges adjacent
  /// value-equal intervals (TSQL2 coalescing) before returning.
  virtual Result<AggregateSeries> AggregateOver(
      const Period& query, bool coalesce = true,
      uint64_t* snapshot_epoch = nullptr) const = 0;

  /// Lock-free peek at the published epoch (= tuples seen).  Freshness
  /// checks compare this against the backing relation's size.
  virtual uint64_t epoch() const = 0;

  virtual LiveIndexStats Stats() const = 0;

 protected:
  explicit LiveAggregateIndex(const LiveIndexOptions& options)
      : options_(options) {}

  /// The one writer: folds `batch`, advances the epoch by `batch.size()`
  /// plus `nulls_skipped` (tuples seen but not folded) and publishes
  /// exactly one version.  Does nothing when both are zero.
  virtual Status Write(std::span<const std::pair<Period, double>> batch,
                       size_t nulls_skipped) = 0;

 private:
  LiveIndexOptions options_;
};

namespace internal {

/// Upper bound worth reserving for a range query's interval vector: the
/// tree's leaf-count bound clamped by the number of instants in the query
/// (an emitted interval covers at least one instant), so point-ish probes
/// stop pre-allocating megabytes for answers of a handful of rows.
inline size_t SeriesReserveBound(size_t live_nodes, const Period& query) {
  const size_t leaf_bound = live_nodes / 2 + 1;
  // Closed interval: end >= start and both lie in [kOrigin, kForever], so
  // the width fits in uint64 without overflow.
  const uint64_t width = static_cast<uint64_t>(query.end()) -
                         static_cast<uint64_t>(query.start()) + 1;
  return width < static_cast<uint64_t>(leaf_bound)
             ? static_cast<size_t>(width)
             : leaf_bound;
}

}  // namespace internal

}  // namespace tagg
