#include "core/span_agg.h"

namespace tagg {

Result<AggregateSeries> ComputeSpanAggregate(
    const RowSelection& rows, const SpanAggregateOptions& options) {
  TAGG_RETURN_IF_ERROR(CheckAggregateInput(
      options.aggregate, options.attribute, &rows.relation().schema()));
  return DispatchAggregate(
      options.aggregate, [&](auto op) -> Result<AggregateSeries> {
        using Op = decltype(op);
        TAGG_ASSIGN_OR_RETURN(
            SpanAggregator<Op> agg,
            SpanAggregator<Op>::Make(options.window, options.span_width));
        TAGG_RETURN_IF_ERROR(rows.ForEach([&](const Tuple& t) -> Status {
          double input = 0.0;
          TAGG_ASSIGN_OR_RETURN(const bool fed,
                                ReadAggregateInput(options.aggregate,
                                                   options.attribute, t,
                                                   input));
          return fed ? agg.Add(t.valid(), input) : Status::OK();
        }));
        return FinishSeries<Op>(agg);
      });
}

Result<AggregateSeries> ComputeSpanAggregate(
    const Relation& relation, const SpanAggregateOptions& options) {
  return ComputeSpanAggregate(RowSelection(relation), options);
}

}  // namespace tagg
