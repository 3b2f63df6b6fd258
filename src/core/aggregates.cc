#include "core/aggregates.h"

#include <algorithm>

#include "core/aggregation_tree.h"
#include "core/balanced_tree.h"
#include "core/k_ordered_tree.h"
#include "core/linked_list_agg.h"
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

namespace {

/// Adapts a concrete algorithm template to the type-erased
/// TemporalAggregator interface, finalizing raw states into Values.
template <typename Op, typename Impl>
class ErasedAggregator final : public TemporalAggregator {
 public:
  template <typename... Args>
  explicit ErasedAggregator(Args&&... args)
      : impl_(std::forward<Args>(args)...) {}

  Status Add(const Period& valid, double input) override {
    return impl_.Add(valid, input);
  }

  Result<AggregateSeries> Finish() override {
    auto typed = impl_.FinishTyped();
    if (!typed.ok()) return typed.status();
    AggregateSeries series;
    series.intervals.reserve(typed->size());
    for (const auto& ti : *typed) {
      series.intervals.push_back(
          {Period(ti.start, ti.end), Op::Finalize(ti.state)});
    }
    series.stats = impl_.stats();
    return series;
  }

 private:
  Impl impl_;
};

template <typename Op>
Result<std::unique_ptr<TemporalAggregator>> MakeForOp(
    const AggregateOptions& options) {
  switch (options.algorithm) {
    case AlgorithmKind::kLinkedList:
      return std::unique_ptr<TemporalAggregator>(
          new ErasedAggregator<Op, LinkedListAggregator<Op>>());
    case AlgorithmKind::kAggregationTree:
      return std::unique_ptr<TemporalAggregator>(
          new ErasedAggregator<Op, AggregationTreeAggregator<Op>>());
    case AlgorithmKind::kKOrderedTree:
      if (options.k < 0) {
        return Status::InvalidArgument(
            "k-ordered aggregation tree requires k >= 0, got " +
            std::to_string(options.k));
      }
      return std::unique_ptr<TemporalAggregator>(
          new ErasedAggregator<Op, KOrderedTreeAggregator<Op>>(options.k));
    case AlgorithmKind::kBalancedTree:
      return std::unique_ptr<TemporalAggregator>(
          new ErasedAggregator<Op, BalancedTreeAggregator<Op>>());
    case AlgorithmKind::kTwoScan:
      return std::unique_ptr<TemporalAggregator>(
          new ErasedAggregator<Op, TwoScanAggregator<Op>>());
    case AlgorithmKind::kReference:
      return std::unique_ptr<TemporalAggregator>(
          new ErasedAggregator<Op, ReferenceAggregator<Op>>());
    case AlgorithmKind::kLiveIndex:
      return Status::InvalidArgument(
          "live-index is a resident serving structure, not a batch "
          "algorithm; build a LiveAggregateIndex (live/live_index.h) or "
          "register one with a LiveService");
    case AlgorithmKind::kPartitioned:
      return Status::InvalidArgument(
          "partitioned evaluation is whole-relation, not incremental; "
          "call ComputePartitionedAggregate (core/partitioned_agg.h) or "
          "set parallel workers on the executor");
    case AlgorithmKind::kColumnScan:
      return Status::InvalidArgument(
          "the pruned column scan is whole-relation, not incremental; "
          "call ComputeColumnScanAggregate (core/column_scan.h) or attach "
          "a columnar backing to the relation in the catalog");
  }
  return Status::InvalidArgument("unknown algorithm kind");
}

}  // namespace

Result<std::unique_ptr<TemporalAggregator>> MakeAggregator(
    const AggregateOptions& options) {
  switch (options.aggregate) {
    case AggregateKind::kCount:
      return MakeForOp<CountOp>(options);
    case AggregateKind::kSum:
      return MakeForOp<SumOp>(options);
    case AggregateKind::kMin:
      return MakeForOp<MinOp>(options);
    case AggregateKind::kMax:
      return MakeForOp<MaxOp>(options);
    case AggregateKind::kAvg:
      return MakeForOp<AvgOp>(options);
  }
  return Status::InvalidArgument("unknown aggregate kind");
}

Result<AggregateSeries> ComputeTemporalAggregate(
    const Relation& relation, const AggregateOptions& options) {
  const bool needs_attribute =
      options.aggregate != AggregateKind::kCount ||
      options.attribute != AggregateOptions::kNoAttribute;
  if (needs_attribute) {
    if (options.attribute == AggregateOptions::kNoAttribute) {
      return Status::InvalidArgument(
          std::string(AggregateKindToString(options.aggregate)) +
          " requires an attribute to aggregate");
    }
    if (options.attribute >= relation.schema().size()) {
      return Status::InvalidArgument(StringPrintf(
          "attribute index %zu out of range for schema of %zu attributes",
          options.attribute, relation.schema().size()));
    }
    const ValueType type =
        relation.schema().attribute(options.attribute).type;
    if (options.aggregate != AggregateKind::kCount &&
        type != ValueType::kInt && type != ValueType::kDouble) {
      return Status::NotSupported(
          std::string(AggregateKindToString(options.aggregate)) +
          " over non-numeric attribute '" +
          relation.schema().attribute(options.attribute).name + "'");
    }
  }

  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<TemporalAggregator> aggregator,
                        MakeAggregator(options));

  // The paper's recommended strategy sorts the relation by time first and
  // then streams it through the k-ordered tree with k = 1 (Section 7).
  const Tuple* const* order = nullptr;
  std::vector<const Tuple*> sorted;
  if (options.presort) {
    sorted.reserve(relation.size());
    for (const Tuple& t : relation) sorted.push_back(&t);
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Tuple* a, const Tuple* b) {
                       return a->valid() < b->valid();
                     });
    order = sorted.data();
  }

  for (size_t i = 0; i < relation.size(); ++i) {
    const Tuple& t = options.presort ? *order[i] : relation.tuple(i);
    double input = 0.0;
    if (needs_attribute) {
      const Value& v = t.value(options.attribute);
      // SQL semantics: aggregates skip NULL inputs (and COUNT(attr)
      // counts only non-null values).  COUNT never reads the value, so a
      // string attribute is fine there.
      if (v.is_null()) continue;
      if (options.aggregate != AggregateKind::kCount) {
        TAGG_ASSIGN_OR_RETURN(input, v.ToNumeric());
      }
    }
    TAGG_RETURN_IF_ERROR(aggregator->Add(t.valid(), input));
  }

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
  switch (kind) {
    case AggregateKind::kCount:
      return CountOp::Finalize(CountOp::Identity());
    case AggregateKind::kSum:
      return SumOp::Finalize(SumOp::Identity());
    case AggregateKind::kMin:
      return MinOp::Finalize(MinOp::Identity());
    case AggregateKind::kMax:
      return MaxOp::Finalize(MaxOp::Identity());
    case AggregateKind::kAvg:
      return AvgOp::Finalize(AvgOp::Identity());
  }
  return Value::Null();
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
