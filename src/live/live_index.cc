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
  std::vector<std::pair<Period, double>> batch;
  batch.reserve(tuples.size());
  size_t skipped = 0;
  for (const Tuple& tuple : tuples) {
    // Tuples come off the wire, so the index checks their arity itself.
    if (opts.attribute != AggregateOptions::kNoAttribute &&
        opts.attribute >= tuple.arity()) {
      return Status::InvalidArgument(StringPrintf(
          "live index aggregates attribute %zu but tuple has arity %zu",
          opts.attribute, tuple.arity()));
    }
    double input = 0.0;
    TAGG_ASSIGN_OR_RETURN(
        const bool fed,
        ReadAggregateInput(opts.aggregate, opts.attribute, tuple, input));
    // A skipped NULL input still advances the epoch, so freshness checks
    // see the tuple.
    if (!fed) {
      ++skipped;
      continue;
    }
    batch.emplace_back(tuple.valid(), input);
  }
  return Write(batch, skipped);
}

Result<std::unique_ptr<LiveAggregateIndex>> LiveAggregateIndex::Create(
    const LiveIndexOptions& options) {
  TAGG_RETURN_IF_ERROR(
      CheckAggregateInput(options.aggregate, options.attribute, nullptr));
  return DispatchAggregate(options.aggregate, [&](auto op) {
    return std::unique_ptr<LiveAggregateIndex>(
        new internal::CowLiveIndexImpl<decltype(op)>(options));
  });
}

}  // namespace tagg
