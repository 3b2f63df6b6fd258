// Temporal grouping by span (Sections 2 and 7).
//
// TSQL2's second temporal-grouping mode partitions the time-line by a
// calendar-defined length of time — a span — rather than by instant: the
// aggregate is computed once per span over every tuple overlapping it.
// The paper leaves this to future work, observing that "if the number of
// spans is much smaller than the number of constant intervals, then fewer
// buckets need to be maintained".  This module implements it with a dense
// bucket array: one state per span, O(spans overlapped) per tuple.

#pragma once

#include <vector>

#include "core/aggregates.h"
#include "core/node_arena.h"
#include "temporal/period.h"
#include "util/result.h"

namespace tagg {

/// Span-grouped temporal aggregation over a fixed window of the time-line.
template <typename Op>
class SpanAggregator {
 public:
  using State = typename Op::State;

  /// Groups [window.start(), window.end()] into consecutive spans of
  /// `span_width` instants (the final span may be shorter).  Requires a
  /// bounded window: span grouping over [0, forever] would need unbounded
  /// buckets.
  static Result<SpanAggregator> Make(Period window, Instant span_width,
                                     Op op = Op()) {
    if (span_width <= 0) {
      return Status::InvalidArgument("span width must be positive");
    }
    if (window.end() >= kForever) {
      return Status::InvalidArgument(
          "span grouping requires a bounded window");
    }
    const Instant width = window.end() - window.start() + 1;
    const auto buckets =
        static_cast<size_t>((width + span_width - 1) / span_width);
    return SpanAggregator(window, span_width, buckets, std::move(op));
  }

  /// Folds one tuple into every span it overlaps; the parts of the tuple's
  /// validity outside the window are ignored.
  Status Add(const Period& valid, typename Op::Input input) {
    if (!valid.Overlaps(window_)) return Status::OK();
    const Instant s =
        valid.start() > window_.start() ? valid.start() : window_.start();
    const Instant e = valid.end() < window_.end() ? valid.end()
                                                  : window_.end();
    const auto first =
        static_cast<size_t>((s - window_.start()) / span_width_);
    const auto last =
        static_cast<size_t>((e - window_.start()) / span_width_);
    for (size_t b = first; b <= last; ++b) {
      op_.Add(states_[b], input);
    }
    ++tuples_;
    return Status::OK();
  }

  /// One interval per span, in time order.
  Result<std::vector<TypedInterval<State>>> FinishTyped() {
    std::vector<TypedInterval<State>> out;
    out.reserve(states_.size());
    for (size_t b = 0; b < states_.size(); ++b) {
      const Instant lo = window_.start() +
                         static_cast<Instant>(b) * span_width_;
      Instant hi = lo + span_width_ - 1;
      if (hi > window_.end()) hi = window_.end();
      out.push_back({lo, hi, states_[b]});
    }
    stats_.tuples_processed = tuples_;
    stats_.relation_scans = 1;
    stats_.peak_live_nodes = states_.size();
    stats_.peak_live_bytes = states_.size() * sizeof(State);
    stats_.peak_paper_bytes = states_.size() * kPaperNodeBytes;
    stats_.nodes_allocated = states_.size();
    stats_.intervals_emitted = out.size();
    return out;
  }

  const ExecutionStats& stats() const { return stats_; }
  size_t bucket_count() const { return states_.size(); }

 private:
  SpanAggregator(Period window, Instant span_width, size_t buckets, Op op)
      : op_(std::move(op)),
        window_(window),
        span_width_(span_width),
        states_(buckets, op_.Identity()) {}

  Op op_;
  Period window_;
  Instant span_width_;
  std::vector<State> states_;
  size_t tuples_ = 0;
  ExecutionStats stats_;
};

/// Options for the runtime-dispatched span aggregation entry point.
struct SpanAggregateOptions {
  AggregateKind aggregate = AggregateKind::kCount;
  size_t attribute = AggregateOptions::kNoAttribute;
  Period window;
  Instant span_width = 1;
};

/// Evaluates a span-grouped temporal aggregate over the selected rows.
Result<AggregateSeries> ComputeSpanAggregate(
    const RowSelection& rows, const SpanAggregateOptions& options);

/// Every row of `relation`.
Result<AggregateSeries> ComputeSpanAggregate(
    const Relation& relation, const SpanAggregateOptions& options);

}  // namespace tagg
