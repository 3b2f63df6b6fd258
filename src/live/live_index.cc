#include "live/live_index.h"

#include <vector>

#include "live/cow_index.h"
#include "util/str.h"

namespace tagg {

namespace internal {

obs::Histogram& LiveProbeSeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tagg_live_probe_seconds",
      "Latency of live-index point, range, and fold queries");
  return h;
}

obs::Counter& LiveInsertsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_live_inserts_total",
      "Tuples folded into live indexes (ingest rate source)");
  return c;
}

obs::Counter& LiveProbesTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_live_probes_total",
      "Live-index queries served (point + range + fold)");
  return c;
}

}  // namespace internal

std::string LiveIndexStats::ToString() const {
  return StringPrintf(
      "epoch=%llu absorbed=%llu queries=%llu age=%.3fs depth=%zu "
      "nodes=%zu bytes=%zu (paper %zu) versions=%llu retired=%llu "
      "reclaimed=%llu pending=%zu",
      static_cast<unsigned long long>(epoch),
      static_cast<unsigned long long>(inserts_absorbed),
      static_cast<unsigned long long>(queries_served),
      snapshot_age_seconds, tree_depth, live_nodes, live_bytes,
      paper_bytes, static_cast<unsigned long long>(versions_published),
      static_cast<unsigned long long>(nodes_retired),
      static_cast<unsigned long long>(nodes_reclaimed), retired_pending);
}

Status LiveAggregateIndex::InsertTuples(std::span<const Tuple> tuples) {
  const LiveIndexOptions& opts = options();
  const bool needs_attribute =
      opts.aggregate != AggregateKind::kCount ||
      opts.attribute != AggregateOptions::kNoAttribute;
  std::vector<std::pair<Period, double>> batch;
  batch.reserve(tuples.size());
  size_t skipped = 0;
  for (const Tuple& tuple : tuples) {
    double input = 0.0;
    if (needs_attribute) {
      if (opts.attribute >= tuple.arity()) {
        return Status::InvalidArgument(StringPrintf(
            "live index aggregates attribute %zu but tuple has arity %zu",
            opts.attribute, tuple.arity()));
      }
      const Value& v = tuple.value(opts.attribute);
      // SQL semantics, matching ComputeTemporalAggregate: aggregates skip
      // NULL inputs, and COUNT(attr) counts only non-null values.  The
      // epoch still advances so freshness checks see the tuple.
      if (v.is_null()) {
        ++skipped;
        continue;
      }
      if (opts.aggregate != AggregateKind::kCount) {
        TAGG_ASSIGN_OR_RETURN(input, v.ToNumeric());
      }
    }
    batch.emplace_back(tuple.valid(), input);
  }
  return Write(batch, skipped);
}

Result<std::unique_ptr<LiveAggregateIndex>> LiveAggregateIndex::Create(
    const LiveIndexOptions& options) {
  if (options.aggregate != AggregateKind::kCount &&
      options.attribute == AggregateOptions::kNoAttribute) {
    return Status::InvalidArgument(
        std::string(AggregateKindToString(options.aggregate)) +
        " live index requires an attribute to aggregate");
  }
  using internal::CowLiveIndexImpl;
  switch (options.aggregate) {
    case AggregateKind::kCount:
      return std::unique_ptr<LiveAggregateIndex>(
          new CowLiveIndexImpl<CountOp>(options));
    case AggregateKind::kSum:
      return std::unique_ptr<LiveAggregateIndex>(
          new CowLiveIndexImpl<SumOp>(options));
    case AggregateKind::kMin:
      return std::unique_ptr<LiveAggregateIndex>(
          new CowLiveIndexImpl<MinOp>(options));
    case AggregateKind::kMax:
      return std::unique_ptr<LiveAggregateIndex>(
          new CowLiveIndexImpl<MaxOp>(options));
    case AggregateKind::kAvg:
      return std::unique_ptr<LiveAggregateIndex>(
          new CowLiveIndexImpl<AvgOp>(options));
  }
  return Status::InvalidArgument("unknown aggregate kind");
}

}  // namespace tagg
