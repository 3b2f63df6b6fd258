#include "shard/sharded_service.h"

#include <algorithm>
#include <latch>
#include <optional>

#include "obs/metrics.h"
#include "util/str.h"

namespace tagg {
namespace shard {

namespace {

/// Hard ceiling on the shard count: beyond this the per-shard fixed
/// costs (index maps, tree roots, scatter segments) dwarf any win.
constexpr size_t kMaxShards = 1024;

obs::Counter& IngestRoutedTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_shard_ingest_routed_total",
      "Clipped tuple fragments routed into shards");
  return c;
}

obs::Counter& StraddleSplitsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_shard_straddle_splits_total",
      "Ingested tuples clipped across a shard boundary");
  return c;
}

obs::Counter& ScatterTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_shard_scatter_total",
      "Range queries answered by multi-shard scatter-gather");
  return c;
}

obs::Counter& ScatterSubqueriesTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_shard_scatter_subqueries_total",
      "Per-shard sub-queries issued by scatter-gather");
  return c;
}

obs::Counter& ScatterInlineTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_shard_scatter_inline_total",
      "Scatter segments run inline after executor saturation");
  return c;
}

obs::Counter& RebalanceTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_shard_rebalance_total",
      "Topology rebalances (reshard + split) published");
  return c;
}

obs::Counter& RebalanceTuplesTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_shard_rebalance_tuples_total",
      "Tuple fragments replayed into rebuilt shards");
  return c;
}

obs::Gauge& ShardCountGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tagg_shard_count", "Shards in the published topology");
  return g;
}

obs::Gauge& TopologyVersionGauge() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tagg_shard_topology_version", "Published topology version");
  return g;
}

/// Fragments resident in one shard: per relation, the highest epoch
/// (fragments seen) among the indexes over it.  The map is sorted by
/// relation first, so each relation's indexes are adjacent.
uint64_t ShardFragmentCount(const ShardState& shard) {
  uint64_t total = 0;
  std::string_view current;
  uint64_t relation_max = 0;
  for (const auto& [key, index] : shard.indexes) {
    if (key.relation != current) {
      total += relation_max;
      current = key.relation;
      relation_max = 0;
    }
    relation_max = std::max(relation_max, index->epoch());
  }
  return total + relation_max;
}

/// The index `shard` holds under `key`, or nullptr.
const LiveAggregateIndex* FindIndex(const ShardState& shard,
                                    const LiveIndexKey& key) {
  const auto it = shard.indexes.find(key);
  return it == shard.indexes.end() ? nullptr : it->second.get();
}

/// A fresh, empty index for `key`.
Result<std::shared_ptr<LiveAggregateIndex>> NewIndex(const LiveIndexKey& key) {
  LiveIndexOptions options;
  options.aggregate = key.aggregate;
  options.attribute = key.attribute;
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<LiveAggregateIndex> index,
                        LiveAggregateIndex::Create(options));
  return std::shared_ptr<LiveAggregateIndex>(std::move(index));
}

/// The first `count` tuples of `relation` overlapping `range`, clipped to
/// it.
std::vector<Tuple> ClipToRange(const Relation& relation, size_t count,
                               const Period& range) {
  std::vector<Tuple> clipped;
  for (size_t i = 0; i < count; ++i) {
    const Tuple& tuple = relation.tuple(i);
    if (!range.Overlaps(tuple.valid())) continue;
    auto overlap = range.Intersect(tuple.valid());
    if (!overlap.ok()) continue;  // unreachable after the Overlaps check
    clipped.emplace_back(tuple.values(), overlap.value());
  }
  return clipped;
}

/// Applies `insert` to every index `shard` holds over `relation`
/// (lowercased), stopping at the first failure.
template <typename Insert>
Status InsertIntoShard(const ShardState& shard, std::string_view relation,
                       Insert&& insert) {
  for (const auto& [key, index] : shard.indexes) {
    if (key.relation == relation) TAGG_RETURN_IF_ERROR(insert(*index));
  }
  return Status::OK();
}

std::shared_ptr<const Topology> InitialTopology(
    const ShardedServiceOptions& options) {
  auto topo = std::make_shared<Topology>();
  topo->version = 1;
  auto map = ShardMap::MakeUniform(
      std::clamp<size_t>(options.shards, 1, kMaxShards), options.hot_window);
  if (map.ok()) topo->map = std::move(map).value();
  topo->shards.reserve(topo->map.num_shards());
  for (size_t i = 0; i < topo->map.num_shards(); ++i) {
    topo->shards.push_back(std::make_shared<ShardState>());
  }
  return topo;
}

}  // namespace

std::string ShardedStats::ToString() const {
  std::string out =
      "sharded live service: topology v" + std::to_string(topology_version) +
      ", " + std::to_string(num_shards) + " shard(s), " +
      std::to_string(logical_tuples) + " logical tuple(s), " +
      std::to_string(scatter_queries) + " scatter quer" +
      (scatter_queries == 1 ? "y" : "ies") + ", " +
      std::to_string(rebalances) + " rebalance(s)\n";
  for (const ShardInfo& s : shards) {
    out += "  shard " + std::to_string(s.id) + " " + s.range.ToString() +
           ": " + std::to_string(s.tuples) + " fragment(s), " +
           std::to_string(s.service.indexes.size()) + " index(es)\n";
  }
  return out;
}

ShardedLiveService::ShardedLiveService(ShardedServiceOptions options)
    : options_(options), router_(InitialTopology(options)) {
  const size_t shards = router_.Snapshot()->map.num_shards();
  const size_t workers = options_.scatter_workers != 0
                             ? options_.scatter_workers
                             : std::min<size_t>(shards, 4);
  scatter_ = std::make_unique<net::BoundedExecutor>(workers, 4 * workers + 16);
  UpdateShardGauges(*router_.Snapshot());
}

ShardedLiveService::~ShardedLiveService() {
  if (scatter_ != nullptr) scatter_->Drain();
}

Status ShardedLiveService::RegisterIndex(const Catalog& catalog,
                                         std::string_view relation_name,
                                         AggregateKind aggregate,
                                         std::string_view attribute_name) {
  TAGG_ASSIGN_OR_RETURN(
      auto resolved,
      ResolveLiveIndex(catalog, relation_name, aggregate, attribute_name));
  auto& [relation, key] = resolved;

  std::lock_guard<std::mutex> write(write_mutex_);
  if (!registrations_.insert(key).second) {
    return Status::AlreadyExists("live index " + key.ToString() +
                                 " already registered");
  }
  bool added_relation = false;
  std::shared_ptr<RelationState> rel_state;
  {
    std::lock_guard<std::mutex> rel_guard(relations_mutex_);
    auto& slot = relations_[key.relation];
    if (slot == nullptr) {
      slot = std::make_shared<RelationState>();
      slot->relation = std::move(relation);
      added_relation = true;
    }
    rel_state = slot;
  }

  // Every shard gains only the new index, loaded with what its siblings
  // over the relation have absorbed (everything, for a new relation);
  // the existing indexes carry over by pointer, state and stats intact.
  const size_t absorbed =
      added_relation ? rel_state->relation->size()
                     : rel_state->absorbed.load(std::memory_order_relaxed);
  const auto topo = router_.Snapshot();
  auto next = std::make_shared<Topology>(*topo);
  next->version = topo->version + 1;
  const Status built = [&]() -> Status {
    for (size_t i = 0; i < next->shards.size(); ++i) {
      TAGG_ASSIGN_OR_RETURN(std::shared_ptr<LiveAggregateIndex> index,
                            NewIndex(key));
      TAGG_RETURN_IF_ERROR(index->InsertTuples(ClipToRange(
          *rel_state->relation, absorbed, next->map.RangeOf(i))));
      index->Flush();
      auto state = std::make_shared<ShardState>(*next->shards[i]);
      state->indexes[key] = std::move(index);
      next->shards[i] = std::move(state);
    }
    return Status::OK();
  }();
  if (!built.ok()) {
    registrations_.erase(key);
    if (added_relation) {
      std::lock_guard<std::mutex> rel_guard(relations_mutex_);
      relations_.erase(key.relation);
    }
    return built;
  }
  rel_state->absorbed.store(absorbed, std::memory_order_relaxed);
  router_.Publish(next);
  UpdateShardGauges(*next);
  return Status::OK();
}

bool ShardedLiveService::Serves(std::string_view relation_name,
                                AggregateKind aggregate,
                                size_t attribute) const {
  const auto topo = router_.Snapshot();
  if (topo->shards.empty()) return false;
  // Registration is all-shards-or-none, so shard 0 answers for all.
  return topo->shards[0]->indexes.contains(
      LiveIndexKey{ToLower(relation_name), aggregate, attribute});
}

bool ShardedLiveService::ServesFresh(const Relation& relation,
                                     AggregateKind aggregate,
                                     size_t attribute) const {
  if (!Serves(relation.name(), aggregate, attribute)) return false;
  std::lock_guard<std::mutex> rel_guard(relations_mutex_);
  const auto it = relations_.find(ToLower(relation.name()));
  if (it == relations_.end()) return false;
  // Same object, and the shards have absorbed exactly its contents.
  return it->second->relation.get() == &relation &&
         it->second->absorbed.load(std::memory_order_relaxed) ==
             relation.size();
}

Status ShardedLiveService::Ingest(std::string_view relation_name,
                                  Tuple tuple) {
  const std::string lowered = ToLower(relation_name);
  std::lock_guard<std::mutex> write(write_mutex_);
  std::shared_ptr<RelationState> rel_state;
  {
    std::lock_guard<std::mutex> rel_guard(relations_mutex_);
    const auto it = relations_.find(lowered);
    if (it != relations_.end()) rel_state = it->second;
  }
  if (rel_state == nullptr) {
    return Status::NotFound("no live index registered for relation '" +
                            std::string(relation_name) + "'");
  }

  // Validate + append the original once; the shards then absorb clipped
  // fragments whose union covers exactly the tuple's validity.
  TAGG_RETURN_IF_ERROR(rel_state->relation->Append(tuple));
  const auto topo = router_.Snapshot();
  const auto slices = topo->map.SplitOver(tuple.valid());
  if (slices.size() > 1) StraddleSplitsTotal().Increment();
  for (const ShardSlice& slice : slices) {
    const Tuple fragment(tuple.values(), slice.range);
    Status routed = InsertIntoShard(
        *topo->shards[slice.shard], lowered,
        [&](LiveAggregateIndex& index) { return index.InsertTuple(fragment); });
    if (!routed.ok()) {
      return Status::Internal("shard " + std::to_string(slice.shard) +
                              " rejected a routed fragment: " +
                              std::string(routed.message()));
    }
  }
  IngestRoutedTotal().Increment(slices.size());
  rel_state->absorbed.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status ShardedLiveService::IngestBatch(std::string_view relation_name,
                                       std::vector<Tuple> tuples,
                                       size_t* ingested) {
  if (ingested != nullptr) *ingested = 0;
  if (tuples.empty()) return Status::OK();
  const std::string lowered = ToLower(relation_name);
  std::lock_guard<std::mutex> write(write_mutex_);
  std::shared_ptr<RelationState> rel_state;
  {
    std::lock_guard<std::mutex> rel_guard(relations_mutex_);
    const auto it = relations_.find(lowered);
    if (it != relations_.end()) rel_state = it->second;
  }
  if (rel_state == nullptr) {
    return Status::NotFound("no live index registered for relation '" +
                            std::string(relation_name) + "'");
  }

  // Same truncate-at-first-bad-tuple contract as LiveService::IngestBatch.
  size_t accepted = 0;
  Status append_status = Status::OK();
  for (Tuple& tuple : tuples) {
    append_status = rel_state->relation->Append(tuple);
    if (!append_status.ok()) break;
    ++accepted;
  }
  tuples.resize(accepted);

  const auto topo = router_.Snapshot();
  std::vector<std::vector<Tuple>> per_shard(topo->map.num_shards());
  for (const Tuple& tuple : tuples) {
    const auto slices = topo->map.SplitOver(tuple.valid());
    if (slices.size() > 1) StraddleSplitsTotal().Increment();
    for (const ShardSlice& slice : slices) {
      per_shard[slice.shard].emplace_back(tuple.values(), slice.range);
    }
  }
  uint64_t fragments = 0;
  for (size_t i = 0; i < per_shard.size(); ++i) {
    if (per_shard[i].empty()) continue;
    fragments += per_shard[i].size();
    Status routed = InsertIntoShard(
        *topo->shards[i], lowered, [&](LiveAggregateIndex& index) {
          return index.InsertTuples(per_shard[i]);
        });
    if (!routed.ok()) {
      return Status::Internal("shard " + std::to_string(i) +
                              " rejected a routed batch: " +
                              std::string(routed.message()));
    }
  }
  IngestRoutedTotal().Increment(fragments);
  rel_state->absorbed.fetch_add(accepted, std::memory_order_relaxed);
  if (ingested != nullptr) *ingested = accepted;
  return append_status;
}

Status ShardedLiveService::Flush(std::string_view relation_name) {
  const std::string lowered = ToLower(relation_name);
  std::lock_guard<std::mutex> write(write_mutex_);
  if (!lowered.empty()) {
    std::lock_guard<std::mutex> rel_guard(relations_mutex_);
    if (!relations_.contains(lowered)) {
      return Status::NotFound("no live index registered for relation '" +
                              std::string(relation_name) + "'");
    }
  }
  const auto topo = router_.Snapshot();
  for (const auto& shard : topo->shards) {
    for (const auto& [key, index] : shard->indexes) {
      if (lowered.empty() || key.relation == lowered) index->Flush();
    }
  }
  return Status::OK();
}

Result<Value> ShardedLiveService::AggregateAt(std::string_view relation_name,
                                              AggregateKind aggregate,
                                              size_t attribute, Instant t,
                                              uint64_t* snapshot_epoch) const {
  if (t < kOrigin || t > kForever) {
    return Status::InvalidArgument("instant " + std::to_string(t) +
                                   " outside the time-line");
  }
  const auto topo = router_.Snapshot();
  const LiveIndexKey key{ToLower(relation_name), aggregate, attribute};
  const LiveAggregateIndex* index =
      FindIndex(*topo->shards[topo->map.OwnerOf(t)], key);
  if (index == nullptr) {
    return Status::NotFound("no live index registered for " +
                            key.ToString());
  }
  return index->AggregateAt(t, snapshot_epoch);
}

Result<AggregateSeries> ShardedLiveService::AggregateOver(
    std::string_view relation_name, AggregateKind aggregate, size_t attribute,
    const Period& query, bool coalesce, uint64_t* snapshot_epoch) const {
  const auto topo = router_.Snapshot();
  const auto slices = topo->map.SplitOver(query);

  // Resolve every segment's index up front so a missing registration
  // fails before any work is scattered.
  const LiveIndexKey key{ToLower(relation_name), aggregate, attribute};
  std::vector<const LiveAggregateIndex*> indexes(slices.size(), nullptr);
  for (size_t i = 0; i < slices.size(); ++i) {
    indexes[i] = FindIndex(*topo->shards[slices[i].shard], key);
    if (indexes[i] == nullptr) {
      return Status::NotFound("no live index registered for " +
                              key.ToString());
    }
  }
  if (slices.size() == 1) {
    return indexes[0]->AggregateOver(slices[0].range, coalesce,
                                     snapshot_epoch);
  }

  ScatterTotal().Increment();
  ScatterSubqueriesTotal().Increment(slices.size());
  scatter_queries_.fetch_add(1, std::memory_order_relaxed);

  // Scatter: segments 1..n-1 go to the pool (inline on rejection so a
  // saturated pool degrades instead of deadlocking); segment 0 runs on
  // the calling thread, which therefore always contributes a worker.
  // Per-segment series are requested un-coalesced — one coalesce pass
  // over the stitched result handles the shard-seam merges and any
  // interior merges in one go.
  std::vector<std::optional<Result<AggregateSeries>>> slots(slices.size());
  std::vector<uint64_t> epochs(slices.size(), 0);
  std::latch done(static_cast<std::ptrdiff_t>(slices.size() - 1));
  auto run_segment = [&](size_t i) {
    slots[i].emplace(
        indexes[i]->AggregateOver(slices[i].range, false, &epochs[i]));
  };
  for (size_t i = 1; i < slices.size(); ++i) {
    Status submitted = scatter_->TrySubmit([&run_segment, &done, i] {
      run_segment(i);
      done.count_down();
    });
    if (!submitted.ok()) {
      ScatterInlineTotal().Increment();
      run_segment(i);
      done.count_down();
    }
  }
  run_segment(0);
  done.wait();

  // Gather: the per-shard series are time-disjoint and ascending, so the
  // stitched series is their concatenation; the seam check is defensive
  // (a violation would mean the map and the clipping disagree).
  AggregateSeries merged;
  size_t total_intervals = 0;
  for (const auto& slot : slots) {
    if (!slot.has_value()) {
      return Status::Internal("scatter segment produced no result");
    }
    if (!slot->ok()) return slot->status();
    total_intervals += slot->value().intervals.size();
  }
  merged.intervals.reserve(total_intervals);
  uint64_t epoch_sum = 0;
  merged.stats.relation_scans = 0;
  for (size_t i = 0; i < slices.size(); ++i) {
    AggregateSeries& part = slots[i]->value();
    if (!merged.intervals.empty() && !part.intervals.empty() &&
        !merged.intervals.back().period.MeetsBefore(
            part.intervals.front().period)) {
      return Status::Internal(
          "sharded series do not meet exactly at a shard boundary");
    }
    std::move(part.intervals.begin(), part.intervals.end(),
              std::back_inserter(merged.intervals));
    epoch_sum += epochs[i];
    // Stats aggregate across shards: work and footprints add (the query
    // really did touch that many resident nodes), depth reports the
    // deepest per-shard tree.
    merged.stats.tuples_processed += part.stats.tuples_processed;
    merged.stats.peak_live_nodes += part.stats.peak_live_nodes;
    merged.stats.peak_live_bytes += part.stats.peak_live_bytes;
    merged.stats.peak_paper_bytes += part.stats.peak_paper_bytes;
    merged.stats.nodes_allocated += part.stats.nodes_allocated;
    merged.stats.work_steps += part.stats.work_steps;
    merged.stats.tree_depth =
        std::max(merged.stats.tree_depth, part.stats.tree_depth);
  }
  if (coalesce) {
    merged.intervals = CoalesceEqualValues(std::move(merged.intervals));
  }
  merged.stats.intervals_emitted = merged.intervals.size();
  if (snapshot_epoch != nullptr) *snapshot_epoch = epoch_sum;
  return merged;
}

Status ShardedLiveService::Reshard(size_t new_shards) {
  if (new_shards == 0 || new_shards > kMaxShards) {
    return Status::InvalidArgument("shard count must be in [1, " +
                                   std::to_string(kMaxShards) + "]");
  }
  std::lock_guard<std::mutex> write(write_mutex_);
  TAGG_RETURN_IF_ERROR(RebuildAll(DataQuantileMap(new_shards)));
  rebalances_.fetch_add(1, std::memory_order_relaxed);
  RebalanceTotal().Increment();
  return Status::OK();
}

Status ShardedLiveService::SplitShard(size_t shard_id) {
  std::lock_guard<std::mutex> write(write_mutex_);
  const auto topo = router_.Snapshot();
  if (shard_id >= topo->map.num_shards()) {
    return Status::InvalidArgument("no shard " + std::to_string(shard_id) +
                                   " in " + topo->map.ToString());
  }
  if (topo->map.num_shards() >= kMaxShards) {
    return Status::InvalidArgument("shard count already at the maximum " +
                                   std::to_string(kMaxShards));
  }
  const Period range = topo->map.RangeOf(shard_id);
  if (range.start() == range.end()) {
    return Status::InvalidArgument("shard " + std::to_string(shard_id) +
                                   " owns a single instant; cannot split");
  }

  // Split point: the median resident start strictly inside the range, so
  // the two halves carry comparable populations; midpoint when empty.
  std::vector<Instant> sample;
  {
    std::lock_guard<std::mutex> rel_guard(relations_mutex_);
    for (const auto& [name, rel_state] : relations_) {
      for (const Tuple& t : *rel_state->relation) {
        if (t.start() > range.start() && t.start() <= range.end()) {
          sample.push_back(t.start());
        }
      }
    }
  }
  Instant split;
  if (!sample.empty()) {
    const size_t mid = sample.size() / 2;
    std::nth_element(sample.begin(), sample.begin() + mid, sample.end());
    split = sample[mid];
  } else {
    split = range.start() + (range.end() - range.start() + 1) / 2;
  }

  std::vector<Instant> starts = topo->map.starts();
  starts.insert(starts.begin() + static_cast<ptrdiff_t>(shard_id) + 1, split);
  TAGG_ASSIGN_OR_RETURN(ShardMap map, ShardMap::FromStarts(std::move(starts)));

  // Only the split shard is rebuilt (as two); every sibling state is
  // carried over by pointer — the surgical half of "live rebalance".
  auto next = std::make_shared<Topology>();
  next->version = topo->version + 1;
  next->map = std::move(map);
  next->shards = topo->shards;
  TAGG_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> low,
                        BuildShard(next->map.RangeOf(shard_id)));
  TAGG_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> high,
                        BuildShard(next->map.RangeOf(shard_id + 1)));
  next->shards[shard_id] = std::move(low);
  next->shards.insert(
      next->shards.begin() + static_cast<ptrdiff_t>(shard_id) + 1,
      std::move(high));

  router_.Publish(next);
  UpdateShardGauges(*next);
  rebalances_.fetch_add(1, std::memory_order_relaxed);
  RebalanceTotal().Increment();
  return Status::OK();
}

std::vector<LiveIndexKey> ShardedLiveService::Keys() const {
  std::lock_guard<std::mutex> write(write_mutex_);
  return {registrations_.begin(), registrations_.end()};
}

ShardedStats ShardedLiveService::Stats() const {
  const auto topo = router_.Snapshot();
  ShardedStats stats;
  stats.topology_version = topo->version;
  stats.num_shards = topo->map.num_shards();
  {
    std::lock_guard<std::mutex> rel_guard(relations_mutex_);
    for (const auto& [name, rel_state] : relations_) {
      stats.logical_tuples +=
          rel_state->absorbed.load(std::memory_order_relaxed);
    }
  }
  stats.scatter_queries = scatter_queries_.load(std::memory_order_relaxed);
  stats.rebalances = rebalances_.load(std::memory_order_relaxed);
  stats.shards.reserve(topo->map.num_shards());
  for (size_t i = 0; i < topo->map.num_shards(); ++i) {
    ShardInfo info;
    info.id = i;
    info.range = topo->map.RangeOf(i);
    info.tuples = ShardFragmentCount(*topo->shards[i]);
    info.service.tuples_ingested = info.tuples;
    for (const auto& [key, index] : topo->shards[i]->indexes) {
      info.service.indexes.emplace_back(key, index->Stats());
    }
    stats.shards.push_back(std::move(info));
  }
  UpdateShardGauges(*topo);
  return stats;
}

Result<std::shared_ptr<ShardState>> ShardedLiveService::BuildShard(
    const Period& range) const {
  auto state = std::make_shared<ShardState>();
  for (const LiveIndexKey& key : registrations_) {
    TAGG_ASSIGN_OR_RETURN(state->indexes[key], NewIndex(key));
  }
  // The caller holds write_mutex_, under which alone relations_ changes.
  for (const auto& [name, rel_state] : relations_) {
    const std::vector<Tuple> clipped = ClipToRange(
        *rel_state->relation, rel_state->relation->size(), range);
    if (clipped.empty()) continue;
    TAGG_RETURN_IF_ERROR(
        InsertIntoShard(*state, name, [&](LiveAggregateIndex& index) {
          return index.InsertTuples(clipped);
        }));
    RebalanceTuplesTotal().Increment(clipped.size());
  }
  // One publish so the rebuilt shard appears fully loaded the instant the
  // topology referencing it is stored.
  for (const auto& [key, index] : state->indexes) index->Flush();
  return state;
}

Status ShardedLiveService::RebuildAll(ShardMap map) {
  auto next = std::make_shared<Topology>();
  next->version = router_.Snapshot()->version + 1;
  next->map = std::move(map);
  next->shards.reserve(next->map.num_shards());
  for (size_t i = 0; i < next->map.num_shards(); ++i) {
    TAGG_ASSIGN_OR_RETURN(std::shared_ptr<ShardState> state,
                          BuildShard(next->map.RangeOf(i)));
    next->shards.push_back(std::move(state));
  }
  {
    std::lock_guard<std::mutex> rel_guard(relations_mutex_);
    for (const auto& [name, rel_state] : relations_) {
      rel_state->absorbed.store(rel_state->relation->size(),
                                std::memory_order_relaxed);
    }
  }
  router_.Publish(next);
  UpdateShardGauges(*next);
  return Status::OK();
}

ShardMap ShardedLiveService::DataQuantileMap(size_t shards) const {
  std::vector<Instant> sample;
  {
    std::lock_guard<std::mutex> rel_guard(relations_mutex_);
    for (const auto& [name, rel_state] : relations_) {
      for (const Tuple& tuple : *rel_state->relation) {
        sample.push_back(std::max(tuple.start(), kOrigin));
      }
    }
  }
  // Too little data to cut meaningfully: fall back to uniform boundaries.
  if (sample.size() < shards * 2) {
    auto uniform = ShardMap::MakeUniform(shards, options_.hot_window);
    return uniform.ok() ? std::move(uniform).value() : ShardMap();
  }
  std::sort(sample.begin(), sample.end());
  std::vector<Instant> starts{kOrigin};
  for (size_t i = 1; i < shards; ++i) {
    const Instant candidate = sample[i * sample.size() / shards];
    if (candidate > starts.back() && candidate <= kForever) {
      starts.push_back(candidate);
    }
  }
  auto map = ShardMap::FromStarts(std::move(starts));
  return map.ok() ? std::move(map).value() : ShardMap();
}

void ShardedLiveService::UpdateShardGauges(const Topology& topo) const {
  ShardCountGauge().Set(static_cast<double>(topo.map.num_shards()));
  TopologyVersionGauge().Set(static_cast<double>(topo.version));
  // Per-shard resident-fragment gauges; the registry is name-keyed (no
  // label support), so the shard id is embedded in the metric name.
  for (size_t i = 0; i < topo.map.num_shards(); ++i) {
    obs::MetricsRegistry::Global()
        .GetGauge("tagg_shard_" + std::to_string(i) + "_tuples",
                  "Tuple fragments resident in this shard")
        .Set(static_cast<double>(ShardFragmentCount(*topo.shards[i])));
  }
  // A shrink leaves higher-numbered gauges behind; zero them so the
  // exposition does not report ghost shards.
  size_t previous = max_shards_published_.load(std::memory_order_relaxed);
  while (previous < topo.map.num_shards() &&
         !max_shards_published_.compare_exchange_weak(
             previous, topo.map.num_shards(), std::memory_order_relaxed)) {
  }
  for (size_t i = topo.map.num_shards();
       i < max_shards_published_.load(std::memory_order_relaxed); ++i) {
    obs::MetricsRegistry::Global()
        .GetGauge("tagg_shard_" + std::to_string(i) + "_tuples",
                  "Tuple fragments resident in this shard")
        .Set(0.0);
  }
}

}  // namespace shard
}  // namespace tagg
