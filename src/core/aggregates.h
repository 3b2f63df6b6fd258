// Aggregate operators and the public temporal-aggregation entry points.
//
// Every algorithm in this library (linked list, aggregation tree, k-ordered
// aggregation tree, two-scan, reference) is generic over an *aggregate
// operator*: a commutative monoid over a small state type.
//
//   State Identity()                 -- the value of an empty group
//   State Combine(State, State)      -- associative + commutative merge
//   void  Add(State&, double input)  -- fold one tuple into a state
//   Value Finalize(const State&)     -- the SQL-visible result
//
// The aggregation tree of Section 5.1 stores *partial* states on internal
// nodes (a tuple that completely overlaps a node contributes once, at that
// node); a leaf's final value is the Combine of all states on its root
// path.  That evaluation is only correct for commutative monoids, which is
// exactly what COUNT, SUM, MIN, MAX and AVG (as a sum/count pair, Section
// 6) are.  One tree implementation therefore serves all five aggregates.

#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/constant_interval.h"
#include "temporal/relation.h"
#include "util/result.h"

namespace tagg {

// ---------------------------------------------------------------------------
// Aggregate operators (monoids)
// ---------------------------------------------------------------------------

/// COUNT: how many tuples overlap each instant.  The paper's experiments use
/// this aggregate throughout (Section 6: "we provide results only for the
/// count aggregate").
struct CountOp {
  using State = int64_t;
  using Input = double;
  static State Identity() { return 0; }
  static State Combine(State a, State b) { return a + b; }
  static void Add(State& s, double /*input*/) { s += 1; }
  static bool IsEmpty(State s) { return s == 0; }
  static Value Finalize(State s) { return Value::Int(s); }
  static constexpr std::string_view kName = "COUNT";
};

/// State shared by SUM / MIN / MAX: a double plus an emptiness mark (the
/// paper: "Sum, maximum, and minimum all use 4 bytes, plus an additional
/// bit to mark an empty value").
struct MarkedDouble {
  double v = 0.0;
  bool has = false;
  bool operator==(const MarkedDouble&) const = default;
};

/// SUM of a numeric attribute.
struct SumOp {
  using State = MarkedDouble;
  using Input = double;
  static State Identity() { return {}; }
  static State Combine(State a, State b) {
    if (!a.has) return b;
    if (!b.has) return a;
    return {a.v + b.v, true};
  }
  static void Add(State& s, double input) {
    s.v += input;
    s.has = true;
  }
  static bool IsEmpty(State s) { return !s.has; }
  static Value Finalize(State s) {
    return s.has ? Value::Double(s.v) : Value::Null();
  }
  static constexpr std::string_view kName = "SUM";
};

/// MIN of a numeric attribute.
struct MinOp {
  using State = MarkedDouble;
  using Input = double;
  static State Identity() { return {}; }
  static State Combine(State a, State b) {
    if (!a.has) return b;
    if (!b.has) return a;
    return {a.v < b.v ? a.v : b.v, true};
  }
  static void Add(State& s, double input) {
    if (!s.has || input < s.v) s.v = input;
    s.has = true;
  }
  static bool IsEmpty(State s) { return !s.has; }
  static Value Finalize(State s) {
    return s.has ? Value::Double(s.v) : Value::Null();
  }
  static constexpr std::string_view kName = "MIN";
};

/// MAX of a numeric attribute.
struct MaxOp {
  using State = MarkedDouble;
  using Input = double;
  static State Identity() { return {}; }
  static State Combine(State a, State b) {
    if (!a.has) return b;
    if (!b.has) return a;
    return {a.v > b.v ? a.v : b.v, true};
  }
  static void Add(State& s, double input) {
    if (!s.has || input > s.v) s.v = input;
    s.has = true;
  }
  static bool IsEmpty(State s) { return !s.has; }
  static Value Finalize(State s) {
    return s.has ? Value::Double(s.v) : Value::Null();
  }
  static constexpr std::string_view kName = "MAX";
};

/// AVG of a numeric attribute as a (sum, count) product monoid (the paper:
/// "Average uses 8 bytes, 4 for the sum and 4 for the count").
struct AvgOp {
  struct State {
    double sum = 0.0;
    int64_t count = 0;
    bool operator==(const State&) const = default;
  };
  using Input = double;
  static State Identity() { return {}; }
  static State Combine(State a, State b) {
    return {a.sum + b.sum, a.count + b.count};
  }
  static void Add(State& s, double input) {
    s.sum += input;
    s.count += 1;
  }
  static bool IsEmpty(State s) { return s.count == 0; }
  static Value Finalize(State s) {
    return s.count > 0 ? Value::Double(s.sum / static_cast<double>(s.count))
                       : Value::Null();
  }
  static constexpr std::string_view kName = "AVG";
};

// ---------------------------------------------------------------------------
// Runtime-selectable aggregate / algorithm identifiers
// ---------------------------------------------------------------------------

enum class AggregateKind : uint8_t { kCount, kSum, kMin, kMax, kAvg };

enum class AlgorithmKind : uint8_t {
  /// Section 4.2: ordered list of constant intervals, split per tuple.
  kLinkedList,
  /// Section 5.1: unbalanced binary split tree with partial aggregates.
  kAggregationTree,
  /// Section 5.3: aggregation tree with 2k+1 window and garbage collection.
  kKOrderedTree,
  /// Section 7 (future work): height-balanced aggregation tree.
  kBalancedTree,
  /// Section 4.1: Tuma's prior-art algorithm; scans the relation twice.
  kTwoScan,
  /// Testing oracle: brute-force per-constant-interval evaluation.
  kReference,
  /// Serving layer (src/live): a resident tree answering queries without
  /// a rebuild.  Not constructible through MakeAggregator — the executor
  /// reports this kind when a query was routed to a live index.
  kLiveIndex,
  /// Partitioned parallel evaluation (core/partitioned_agg.h): the
  /// time-line is split into regions built concurrently.  Not
  /// constructible through MakeAggregator — it is a whole-relation
  /// evaluation, not an incremental one; the executor reports this kind
  /// when it routed the query through ComputePartitionedAggregate.
  kPartitioned,
  /// Pruned scan over a columnar stored relation (core/column_scan):
  /// zone-map block skipping plus footer-summary composition.  Like
  /// kPartitioned it is a whole-relation evaluation and not constructible
  /// through MakeAggregator; the executor reports this kind when it
  /// served the query from the relation's columnar backing.
  kColumnScan,
};

std::string_view AggregateKindToString(AggregateKind kind);
std::string_view AlgorithmKindToString(AlgorithmKind kind);

/// Parses "count"/"sum"/"min"/"max"/"avg" (case-insensitive).
Result<AggregateKind> ParseAggregateKind(std::string_view name);

// ---------------------------------------------------------------------------
// Execution statistics and the type-erased aggregator
// ---------------------------------------------------------------------------

/// Counters gathered while evaluating a temporal aggregate; these feed the
/// paper's Figure 9 (memory) and the Section 4.1 scan-count claim.
struct ExecutionStats {
  size_t tuples_processed = 0;
  /// Complete passes over the input relation (1 for all the paper's new
  /// algorithms, 2 for the two-scan baseline).
  size_t relation_scans = 1;
  size_t peak_live_nodes = 0;
  size_t peak_live_bytes = 0;
  /// Peak memory charged at the paper's 16-bytes-per-node accounting.
  size_t peak_paper_bytes = 0;
  size_t nodes_allocated = 0;
  size_t intervals_emitted = 0;
  /// Final depth of the structure, for the tree-based algorithms (0 for
  /// the list/scan algorithms, which have no depth to report).  Surfaces
  /// the sorted-input degeneration in EXPLAIN ANALYZE output.
  size_t tree_depth = 0;
  /// Elementary algorithm steps (node/cell visits during insertion):
  /// a machine-independent view of the O(n^2) / O(n log n) behaviour the
  /// paper's figures show in wall-clock time.
  size_t work_steps = 0;
};

/// A complete temporal-aggregate result: one value per constant interval,
/// in time order, covering [kOrigin, kForever].
struct AggregateSeries {
  std::vector<ResultInterval> intervals;
  ExecutionStats stats;

  std::string ToString(size_t max_rows = 32) const;
};

/// How to evaluate a temporal aggregate.
struct AggregateOptions {
  AggregateKind aggregate = AggregateKind::kCount;
  AlgorithmKind algorithm = AlgorithmKind::kAggregationTree;

  /// Index of the aggregated attribute in the relation's schema.  COUNT
  /// ignores it (kNoAttribute counts tuples).
  static constexpr size_t kNoAttribute = static_cast<size_t>(-1);
  size_t attribute = kNoAttribute;

  /// Window parameter for kKOrderedTree: tuples are promised to be at most
  /// k positions from their totally-ordered position (Section 5.2).
  int64_t k = 1;

  /// Sort the input by time before aggregating (the paper's recommended
  /// "sort then k-ordered tree with k = 1" strategy).
  bool presort = false;

  /// Remove constant intervals no tuple overlaps (empty groups) from the
  /// result.
  bool drop_empty = false;

  /// Merge adjacent result intervals carrying equal values (TSQL2
  /// valid-time coalescing).
  bool coalesce_equal_values = false;
};

// ---------------------------------------------------------------------------
// The aggregate-input rule
// ---------------------------------------------------------------------------
//
// Which (aggregate, attribute) pairs are legal and how a tuple becomes an
// aggregate input.  Every evaluator calls these definitions instead of
// keeping its own copy, so an instant's aggregate (and the error for an
// illegal pair) does not depend on which evaluator computed it.

/// True when the aggregate reads an attribute value: every value aggregate,
/// and COUNT(attr).  COUNT(*) reads none.
constexpr bool ReadsAttribute(AggregateKind kind, size_t attribute) {
  return kind != AggregateKind::kCount ||
         attribute != AggregateOptions::kNoAttribute;
}

/// The schema check for an (aggregate, attribute) pair, run before any
/// tuple is read.  InvalidArgument: an unknown kind, a value aggregate
/// without an attribute, or an attribute outside `schema`.  NotSupported:
/// a value aggregate over a non-numeric attribute.  With a null `schema`
/// (the live index, whose tuples come off the wire) only the pair itself
/// is checked; the index then checks each tuple's arity, and the reader
/// each value's type.
Status CheckAggregateInput(AggregateKind kind, size_t attribute,
                           const Schema* schema);

/// The reader's error for a value aggregate over a non-numeric value.
Status NonNumericInput(AggregateKind kind, const Value& value);

/// The tuple reader.  Returns false when `tuple` does not feed the
/// aggregate: SQL aggregates skip a NULL input, so COUNT(attr) counts only
/// non-NULL values.  Otherwise returns true, having stored a value
/// aggregate's numeric input in `input` (COUNT never reads it and leaves
/// it alone).  The pair must have passed CheckAggregateInput and
/// `attribute` must lie within the tuple.
inline Result<bool> ReadAggregateInput(AggregateKind kind, size_t attribute,
                                       const Tuple& tuple, double& input) {
  if (attribute == AggregateOptions::kNoAttribute) return true;
  const Value& v = tuple.value(attribute);
  if (v.is_null()) return false;
  if (kind == AggregateKind::kCount) return true;
  if (v.type() == ValueType::kInt) {
    input = static_cast<double>(v.AsInt());
    return true;
  }
  if (v.type() == ValueType::kDouble) {
    input = v.AsDouble();
    return true;
  }
  return NonNumericInput(kind, v);
}

/// The AggregateKind -> monoid dispatch: returns fn(Op{}) for the monoid
/// that computes `kind`, which must be one of the five enumerators
/// (CheckAggregateInput rejects any other value; an unchecked one
/// dispatches as AVG).
template <typename Fn>
auto DispatchAggregate(AggregateKind kind, Fn&& fn) {
  switch (kind) {
    case AggregateKind::kCount:
      return fn(CountOp{});
    case AggregateKind::kSum:
      return fn(SumOp{});
    case AggregateKind::kMin:
      return fn(MinOp{});
    case AggregateKind::kMax:
      return fn(MaxOp{});
    case AggregateKind::kAvg:
      break;
  }
  return fn(AvgOp{});
}

/// Streaming evaluator: feed (period, input) pairs in relation order, then
/// Finish() once.  Obtain one from MakeAggregator().
class TemporalAggregator {
 public:
  virtual ~TemporalAggregator() = default;

  /// Folds one tuple into the aggregate.
  virtual Status Add(const Period& valid, double input) = 0;

  /// Completes evaluation and returns the series.  The aggregator must not
  /// be used afterwards.
  virtual Result<AggregateSeries> Finish() = 0;
};

/// Finalizes an aggregator's typed constant intervals into a series.
template <typename Op, typename Agg>
Result<AggregateSeries> FinishSeries(Agg& agg) {
  TAGG_ASSIGN_OR_RETURN(auto typed, agg.FinishTyped());
  AggregateSeries series;
  series.intervals.reserve(typed.size());
  for (const auto& ti : typed) {
    series.intervals.push_back(
        {Period(ti.start, ti.end), Op::Finalize(ti.state)});
  }
  series.stats = agg.stats();
  return series;
}

/// Creates a streaming aggregator for the given aggregate/algorithm pair.
/// kTwoScan and kReference are not streaming (they buffer or rescan) but
/// still satisfy the interface by buffering internally; their stats report
/// the honest scan count.
Result<std::unique_ptr<TemporalAggregator>> MakeAggregator(
    const AggregateOptions& options);

/// Evaluates a temporal aggregate over a relation: extracts the aggregated
/// attribute, streams every tuple through the selected algorithm, and
/// applies the options' post-processing (drop_empty, coalescing).
Result<AggregateSeries> ComputeTemporalAggregate(
    const Relation& relation, const AggregateOptions& options);

/// Merges adjacent intervals whose values compare equal (TSQL2 coalescing).
std::vector<ResultInterval> CoalesceEqualValues(
    std::vector<ResultInterval> intervals);

/// The aggregate's result over no tuples: COUNT is 0, the others NULL.
Value EmptyAggregateValue(AggregateKind kind);

/// Removes intervals whose value is EmptyAggregateValue(kind).
std::vector<ResultInterval> DropEmptyIntervals(
    std::vector<ResultInterval> intervals, AggregateKind kind);

// ---------------------------------------------------------------------------
// Scalar reductions over a series (TSQL2's weighted aggregates)
// ---------------------------------------------------------------------------

/// The time-weighted average of a numeric series: each constant interval''s
/// value weighted by its duration — TSQL2''s "weighted" aggregate shape
/// (Kline, Snodgrass & Leung, "Aggregates for TSQL2", the commentary the
/// paper builds on).  Unbounded intervals (ending at forever) and NULL
/// values are excluded.  Errors when nothing remains to weigh.
Result<double> TimeWeightedAverage(const AggregateSeries& series);

/// The instant(s) at which the series attains its maximum numeric value:
/// the first such interval.  NULLs are skipped; errors on an all-NULL
/// series.  (The "peak concurrency" question every example asks.)
Result<ResultInterval> SeriesMax(const AggregateSeries& series);

/// Counterpart for the minimum.
Result<ResultInterval> SeriesMin(const AggregateSeries& series);

}  // namespace tagg
