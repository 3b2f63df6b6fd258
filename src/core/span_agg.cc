#include "core/span_agg.h"

namespace tagg {

Result<AggregateSeries> ComputeSpanAggregate(
    const Relation& relation, const SpanAggregateOptions& options) {
  TAGG_RETURN_IF_ERROR(CheckAggregateInput(
      options.aggregate, options.attribute, &relation.schema()));
  return DispatchAggregate(
      options.aggregate, [&](auto op) -> Result<AggregateSeries> {
        using Op = decltype(op);
        TAGG_ASSIGN_OR_RETURN(
            SpanAggregator<Op> agg,
            SpanAggregator<Op>::Make(options.window, options.span_width));
        for (const Tuple& t : relation) {
          double input = 0.0;
          TAGG_ASSIGN_OR_RETURN(const bool fed,
                                ReadAggregateInput(options.aggregate,
                                                   options.attribute, t,
                                                   input));
          if (fed) TAGG_RETURN_IF_ERROR(agg.Add(t.valid(), input));
        }
        return FinishSeries<Op>(agg);
      });
}

}  // namespace tagg
