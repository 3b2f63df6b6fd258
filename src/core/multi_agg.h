// Multiple aggregates in one pass.
//
// Epstein's classical recipe, which the paper recounts in Section 3, is
// "to handle many scalar aggregates in a query, compute each of them
// separately".  For temporal aggregation that means one tree build per
// aggregate, even though the constant intervals — the expensive part —
// depend only on the tuples' timestamps and are identical for every
// aggregate in the query.
//
// MultiOp fuses up to kMaxMultiAggregates aggregate operators into one
// composed monoid: one state vector per node, one combine per path step,
// one algorithm pass per query.  It plugs into every algorithm in the
// library (they are generic over the operator), and the query executor
// uses it so that `SELECT COUNT(*), MIN(x), AVG(y) FROM r` builds a single
// aggregation tree.  A lone aggregate does not pay for the composition:
// ComputeMultiAggregate runs it on its own monoid, whose state is the
// paper's per-node accounting rather than MultiOp's 128 bytes.
// bench_ablation_multiagg.cc measures both against per-aggregate runs.

#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/aggregates.h"
#include "temporal/relation.h"
#include "util/result.h"

namespace tagg {

/// Maximum number of aggregates MultiOp fuses.
inline constexpr size_t kMaxMultiAggregates = 8;

/// One fused sub-aggregate: what to compute over which attribute.
struct MultiSpec {
  AggregateKind kind = AggregateKind::kCount;
  /// Attribute index; AggregateOptions::kNoAttribute for COUNT(*).
  size_t attribute = AggregateOptions::kNoAttribute;
};

/// The composed aggregate operator.  Unlike the standard monoids it
/// carries configuration (the list of kinds), which is why the algorithm
/// templates invoke operators through an instance.
class MultiOp {
 public:
  /// Universal sub-state: (a, b) is (value/sum, has/count) depending on
  /// the kind — the same encoding trick as the paper's 16-byte nodes.
  struct SubState {
    double a = 0.0;
    int64_t b = 0;
    bool operator==(const SubState&) const = default;
  };

  struct State {
    std::array<SubState, kMaxMultiAggregates> sub{};
    bool operator==(const State&) const = default;
  };

  /// Per-tuple inputs, one slot per spec; a cleared valid bit marks a
  /// NULL input that the corresponding sub-aggregate must skip.
  struct Input {
    std::array<double, kMaxMultiAggregates> values{};
    uint8_t valid_mask = 0;
  };

  MultiOp() = default;

  /// Fails when more than kMaxMultiAggregates kinds are given.
  static Result<MultiOp> Make(std::vector<AggregateKind> kinds);

  size_t arity() const { return arity_; }
  AggregateKind kind(size_t i) const { return kinds_[i]; }

  State Identity() const { return State{}; }
  State Combine(State x, const State& y) const;
  void Add(State& s, const Input& input) const;

  /// Finalizes sub-aggregate i of a combined state.
  Value FinalizeAt(const State& s, size_t i) const;

 private:
  explicit MultiOp(std::vector<AggregateKind> kinds);

  std::array<AggregateKind, kMaxMultiAggregates> kinds_{};
  size_t arity_ = 0;
};

/// A zipped multi-aggregate result: value(i, j) is aggregate j over
/// constant interval i.  The values are stored flat, interval by interval,
/// so a series costs no allocation per interval.
struct MultiSeries {
  std::vector<Period> periods;
  size_t arity = 0;
  std::vector<Value> values;  // periods.size() * arity
  ExecutionStats stats;

  const Value& value(size_t i, size_t j) const {
    return values[i * arity + j];
  }
};

/// Options for the fused evaluation (mirrors AggregateOptions minus the
/// single aggregate/attribute pair).
struct MultiAggregateOptions {
  std::vector<MultiSpec> specs;
  AlgorithmKind algorithm = AlgorithmKind::kAggregationTree;
  int64_t k = 1;
  bool presort = false;
};

/// Evaluates every spec over the selected rows in ONE algorithm pass.  One
/// spec runs that aggregate's own monoid (core/aggregates.h), so its nodes
/// carry 8 or 16 bytes of state; two or more run MultiOp.
///
/// NULL handling: a tuple whose inputs are all NULL is skipped entirely;
/// otherwise it contributes constant-interval boundaries and feeds exactly
/// the sub-aggregates whose input is non-NULL.  (Per-aggregate evaluation
/// via ComputeTemporalAggregate drops null-input tuples per aggregate, so
/// its partitions can be coarser for the nulled aggregate; the fused
/// result is the common refinement with identical values.)
Result<MultiSeries> ComputeMultiAggregate(
    const RowSelection& rows, const MultiAggregateOptions& options);

/// Every row of `relation`.
Result<MultiSeries> ComputeMultiAggregate(
    const Relation& relation, const MultiAggregateOptions& options);

}  // namespace tagg
