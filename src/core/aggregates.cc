#include "core/aggregates.h"

#include <algorithm>

#include "core/aggregation_tree.h"
#include "core/balanced_tree.h"
#include "core/k_ordered_tree.h"
#include "core/linked_list_agg.h"
#include "core/multi_agg.h"
#include "core/reference_agg.h"
#include "core/two_scan_agg.h"
#include "util/str.h"

namespace tagg {

std::string_view AggregateKindToString(AggregateKind kind) {
  switch (kind) {
    case AggregateKind::kCount:
      return "COUNT";
    case AggregateKind::kSum:
      return "SUM";
    case AggregateKind::kMin:
      return "MIN";
    case AggregateKind::kMax:
      return "MAX";
    case AggregateKind::kAvg:
      return "AVG";
  }
  return "?";
}

std::string_view AlgorithmKindToString(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kLinkedList:
      return "linked-list";
    case AlgorithmKind::kAggregationTree:
      return "aggregation-tree";
    case AlgorithmKind::kKOrderedTree:
      return "k-ordered-tree";
    case AlgorithmKind::kBalancedTree:
      return "balanced-tree";
    case AlgorithmKind::kTwoScan:
      return "two-scan";
    case AlgorithmKind::kReference:
      return "reference";
    case AlgorithmKind::kLiveIndex:
      return "live-index";
    case AlgorithmKind::kPartitioned:
      return "partitioned";
    case AlgorithmKind::kColumnScan:
      return "column-scan";
  }
  return "?";
}

Result<AggregateKind> ParseAggregateKind(std::string_view name) {
  if (EqualsIgnoreCase(name, "count")) return AggregateKind::kCount;
  if (EqualsIgnoreCase(name, "sum")) return AggregateKind::kSum;
  if (EqualsIgnoreCase(name, "min")) return AggregateKind::kMin;
  if (EqualsIgnoreCase(name, "max")) return AggregateKind::kMax;
  if (EqualsIgnoreCase(name, "avg")) return AggregateKind::kAvg;
  return Status::InvalidArgument("unknown aggregate '" + std::string(name) +
                                 "'");
}

std::string AggregateSeries::ToString(size_t max_rows) const {
  std::string out;
  const size_t shown = std::min(max_rows, intervals.size());
  for (size_t i = 0; i < shown; ++i) {
    out += intervals[i].ToString() + "\n";
  }
  if (shown < intervals.size()) {
    out += "... (" + std::to_string(intervals.size() - shown) + " more)\n";
  }
  return out;
}

Status CheckAggregateInput(AggregateKind kind, size_t attribute,
                           const Schema* schema) {
  if (kind > AggregateKind::kAvg) {
    return Status::InvalidArgument("unknown aggregate kind");
  }
  if (!ReadsAttribute(kind, attribute)) return Status::OK();
  const std::string name(AggregateKindToString(kind));
  if (attribute == AggregateOptions::kNoAttribute) {
    return Status::InvalidArgument(name +
                                   " requires an attribute to aggregate");
  }
  if (schema == nullptr) return Status::OK();
  if (attribute >= schema->size()) {
    return Status::InvalidArgument(StringPrintf(
        "attribute index %zu out of range for schema of %zu attributes",
        attribute, schema->size()));
  }
  const ValueType type = schema->attribute(attribute).type;
  if (kind != AggregateKind::kCount && type != ValueType::kInt &&
      type != ValueType::kDouble) {
    return Status::NotSupported(name + " over non-numeric attribute '" +
                                schema->attribute(attribute).name + "'");
  }
  return Status::OK();
}

Status NonNumericInput(AggregateKind kind, const Value& value) {
  return Status::NotSupported(
      std::string(AggregateKindToString(kind)) + " over non-numeric value " +
      "of type " + std::string(ValueTypeToString(value.type())));
}

namespace {

/// The AlgorithmKind -> aggregator dispatch: returns fn(make), where
/// make() returns the chosen algorithm's aggregator over `op` as a
/// prvalue (the aggregators own node arenas and cannot move).
template <typename Op, typename Fn>
auto WithAlgorithm(AlgorithmKind algorithm, int64_t k, const Op& op,
                   Fn&& fn) {
  using R = decltype(fn([&] { return ReferenceAggregator<Op>(op); }));
  switch (algorithm) {
    case AlgorithmKind::kLinkedList:
      return fn([&] { return LinkedListAggregator<Op>(op); });
    case AlgorithmKind::kAggregationTree:
      return fn([&] { return AggregationTreeAggregator<Op>(op); });
    case AlgorithmKind::kKOrderedTree:
      if (k < 0) {
        return R(Status::InvalidArgument(
            "k-ordered aggregation tree requires k >= 0, got " +
            std::to_string(k)));
      }
      return fn([&] { return KOrderedTreeAggregator<Op>(k, op); });
    case AlgorithmKind::kBalancedTree:
      return fn([&] { return BalancedTreeAggregator<Op>(op); });
    case AlgorithmKind::kTwoScan:
      return fn([&] { return TwoScanAggregator<Op>(op); });
    case AlgorithmKind::kReference:
      return fn([&] { return ReferenceAggregator<Op>(op); });
    case AlgorithmKind::kLiveIndex:
      return R(Status::InvalidArgument(
          "live-index is a resident serving structure, not a batch "
          "algorithm; build a LiveAggregateIndex (live/live_index.h) or "
          "register one with a LiveService"));
    case AlgorithmKind::kPartitioned:
      return R(Status::InvalidArgument(
          "partitioned evaluation is whole-relation, not incremental; "
          "call ComputePartitionedAggregate (core/partitioned_agg.h) or "
          "set parallel workers on the executor"));
    case AlgorithmKind::kColumnScan:
      return R(Status::InvalidArgument(
          "the pruned column scan is whole-relation, not incremental; "
          "call ComputeColumnScanAggregate (core/column_scan.h) or attach "
          "a columnar backing to the relation in the catalog"));
  }
  return R(Status::InvalidArgument("unknown algorithm kind"));
}

/// The feed loop: calls feed(tuple) for every selected tuple in selection
/// order, or in time order when `presort` is set (the paper's recommended
/// strategy sorts the relation by time first and then streams it through
/// the k-ordered tree with k = 1, Section 7).
template <typename Feed>
Status FeedRows(const RowSelection& rows, bool presort, Feed&& feed) {
  if (!presort) return rows.ForEach(feed);
  std::vector<const Tuple*> sorted;
  sorted.reserve(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) sorted.push_back(&rows.tuple(i));
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const Tuple* a, const Tuple* b) {
                     return a->valid() < b->valid();
                   });
  for (const Tuple* t : sorted) TAGG_RETURN_IF_ERROR(feed(*t));
  return Status::OK();
}

/// The fused evaluation's one body, for one aggregate's own monoid and for
/// MultiOp alike: feeds every selected tuple that read(tuple, input) turns
/// into an input through the chosen algorithm over `op`, then
/// finalize(state, values) appends each constant interval's value per spec.
template <typename Op, typename Read, typename Finalize>
Result<MultiSeries> EvaluateFused(const RowSelection& rows,
                                  const MultiAggregateOptions& options,
                                  const Op& op, Read&& read,
                                  Finalize&& finalize) {
  return WithAlgorithm(
      options.algorithm, options.k, op,
      [&](auto make) -> Result<MultiSeries> {
        auto agg = make();
        TAGG_RETURN_IF_ERROR(FeedRows(
            rows, options.presort, [&](const Tuple& t) -> Status {
              typename Op::Input input{};
              TAGG_ASSIGN_OR_RETURN(const bool fed, read(t, input));
              return fed ? agg.Add(t.valid(), input) : Status::OK();
            }));
        TAGG_ASSIGN_OR_RETURN(auto typed, agg.FinishTyped());

        MultiSeries series;
        series.arity = options.specs.size();
        series.periods.reserve(typed.size());
        series.values.reserve(typed.size() * series.arity);
        for (const auto& ti : typed) {
          series.periods.emplace_back(ti.start, ti.end);
          finalize(ti.state, series.values);
        }
        series.stats = agg.stats();
        return series;
      });
}

/// Adapts a concrete algorithm template to the type-erased
/// TemporalAggregator interface, finalizing raw states into Values.
template <typename Op, typename Impl>
class ErasedAggregator final : public TemporalAggregator {
 public:
  template <typename Make>
  explicit ErasedAggregator(Make make) : impl_(make()) {}

  Status Add(const Period& valid, double input) override {
    return impl_.Add(valid, input);
  }

  Result<AggregateSeries> Finish() override {
    return FinishSeries<Op>(impl_);
  }

 private:
  Impl impl_;
};

}  // namespace

Result<std::unique_ptr<TemporalAggregator>> MakeAggregator(
    const AggregateOptions& options) {
  return DispatchAggregate(options.aggregate, [&](auto op) {
    using Op = decltype(op);
    return WithAlgorithm(
        options.algorithm, options.k, op,
        [](auto make) -> Result<std::unique_ptr<TemporalAggregator>> {
          return std::unique_ptr<TemporalAggregator>(
              new ErasedAggregator<Op, decltype(make())>(make));
        });
  });
}

Result<AggregateSeries> ComputeTemporalAggregate(
    const Relation& relation, const AggregateOptions& options) {
  TAGG_RETURN_IF_ERROR(CheckAggregateInput(
      options.aggregate, options.attribute, &relation.schema()));
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<TemporalAggregator> aggregator,
                        MakeAggregator(options));
  TAGG_RETURN_IF_ERROR(FeedRows(
      RowSelection(relation), options.presort, [&](const Tuple& t) -> Status {
        double input = 0.0;
        TAGG_ASSIGN_OR_RETURN(
            const bool fed, ReadAggregateInput(options.aggregate,
                                               options.attribute, t, input));
        return fed ? aggregator->Add(t.valid(), input) : Status::OK();
      }));

  TAGG_ASSIGN_OR_RETURN(AggregateSeries series, aggregator->Finish());
  if (options.drop_empty) {
    series.intervals =
        DropEmptyIntervals(std::move(series.intervals), options.aggregate);
  }
  if (options.coalesce_equal_values) {
    series.intervals = CoalesceEqualValues(std::move(series.intervals));
  }
  return series;
}

// Defined here rather than in multi_agg.cc: it shares the algorithm
// dispatch and the feed loop with ComputeTemporalAggregate.
Result<MultiSeries> ComputeMultiAggregate(
    const RowSelection& rows, const MultiAggregateOptions& options) {
  for (const MultiSpec& spec : options.specs) {
    TAGG_RETURN_IF_ERROR(CheckAggregateInput(spec.kind, spec.attribute,
                                             &rows.relation().schema()));
  }
  // One aggregate carries only its own monoid's state (8 or 16 bytes), not
  // MultiOp's kMaxMultiAggregates sub-states.
  if (options.specs.size() == 1) {
    const MultiSpec spec = options.specs[0];
    return DispatchAggregate(spec.kind, [&](auto op) {
      using Op = decltype(op);
      return EvaluateFused(
          rows, options, op,
          [&](const Tuple& t, double& input) {
            return ReadAggregateInput(spec.kind, spec.attribute, t, input);
          },
          [](const typename Op::State& state, std::vector<Value>& values) {
            values.push_back(Op::Finalize(state));
          });
    });
  }

  std::vector<AggregateKind> kinds;
  kinds.reserve(options.specs.size());
  for (const MultiSpec& spec : options.specs) kinds.push_back(spec.kind);
  TAGG_ASSIGN_OR_RETURN(MultiOp op, MultiOp::Make(std::move(kinds)));
  return EvaluateFused(
      rows, options, op,
      [&](const Tuple& t, MultiOp::Input& input) -> Result<bool> {
        for (size_t i = 0; i < op.arity(); ++i) {
          const MultiSpec& spec = options.specs[i];
          TAGG_ASSIGN_OR_RETURN(const bool fed,
                                ReadAggregateInput(spec.kind, spec.attribute,
                                                   t, input.values[i]));
          if (fed) input.valid_mask |= static_cast<uint8_t>(1u << i);
        }
        // A tuple NULL for every aggregate adds no boundaries.
        return input.valid_mask != 0;
      },
      [&](const MultiOp::State& state, std::vector<Value>& values) {
        for (size_t a = 0; a < op.arity(); ++a) {
          values.push_back(op.FinalizeAt(state, a));
        }
      });
}

Result<MultiSeries> ComputeMultiAggregate(
    const Relation& relation, const MultiAggregateOptions& options) {
  return ComputeMultiAggregate(RowSelection(relation), options);
}

std::vector<ResultInterval> CoalesceEqualValues(
    std::vector<ResultInterval> intervals) {
  std::vector<ResultInterval> out;
  out.reserve(intervals.size());
  for (ResultInterval& ri : intervals) {
    if (!out.empty() && out.back().value == ri.value &&
        out.back().period.MeetsBefore(ri.period)) {
      out.back().period =
          Period(out.back().period.start(), ri.period.end());
    } else {
      out.push_back(std::move(ri));
    }
  }
  return out;
}

Result<double> TimeWeightedAverage(const AggregateSeries& series) {
  double weighted = 0.0;
  double total_duration = 0.0;
  for (const ResultInterval& ri : series.intervals) {
    if (ri.value.is_null()) continue;
    if (ri.period.end() >= kForever) continue;  // unbounded tail
    TAGG_ASSIGN_OR_RETURN(const double v, ri.value.ToNumeric());
    const auto d = static_cast<double>(ri.period.duration());
    weighted += v * d;
    total_duration += d;
  }
  if (total_duration == 0.0) {
    return Status::InvalidArgument(
        "series has no bounded, non-null intervals to weigh");
  }
  return weighted / total_duration;
}

namespace {

Result<ResultInterval> SeriesExtremum(const AggregateSeries& series,
                                      bool want_max) {
  const ResultInterval* best = nullptr;
  double best_value = 0.0;
  for (const ResultInterval& ri : series.intervals) {
    if (ri.value.is_null()) continue;
    TAGG_ASSIGN_OR_RETURN(const double v, ri.value.ToNumeric());
    if (best == nullptr || (want_max ? v > best_value : v < best_value)) {
      best = &ri;
      best_value = v;
    }
  }
  if (best == nullptr) {
    return Status::InvalidArgument("series has no non-null values");
  }
  return *best;
}

}  // namespace

Value EmptyAggregateValue(AggregateKind kind) {
  return DispatchAggregate(kind, [](auto op) {
    using Op = decltype(op);
    return Op::Finalize(Op::Identity());
  });
}

Result<ResultInterval> SeriesMax(const AggregateSeries& series) {
  return SeriesExtremum(series, /*want_max=*/true);
}

Result<ResultInterval> SeriesMin(const AggregateSeries& series) {
  return SeriesExtremum(series, /*want_max=*/false);
}

std::vector<ResultInterval> DropEmptyIntervals(
    std::vector<ResultInterval> intervals, AggregateKind kind) {
  const Value empty = EmptyAggregateValue(kind);
  std::vector<ResultInterval> out;
  out.reserve(intervals.size());
  for (ResultInterval& ri : intervals) {
    if (ri.value != empty) out.push_back(std::move(ri));
  }
  return out;
}

}  // namespace tagg
