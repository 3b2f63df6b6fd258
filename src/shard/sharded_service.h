// ShardedLiveService: N in-process shards of live aggregate indexes
// behind a router — the horizontal scale-out of the live serving layer
// (ROADMAP item 2).
//
// The time-line is range-partitioned by a ShardMap (shard/shard_map.h);
// each shard holds one LiveAggregateIndex per registration over the
// fragments of its range, and nothing else: the source relation is held
// once, by the service.  Writes validate each tuple once by appending it
// to that relation, then route through the map: a tuple straddling a
// boundary is clipped into one fragment per overlapped shard, which
// preserves every instant's covering multiset and therefore keeps all
// five monoid aggregates exact shard-locally.  Reads scatter-gather:
// AggregateAt probes the one owning shard; AggregateOver fans the clipped
// sub-ranges out on a net::BoundedExecutor, then stitches the
// time-disjoint per-shard series back together — concatenation in shard
// order plus TSQL2 coalescing at the seams reproduces the unsharded step
// function exactly (differential-harness-verified; docs/SHARDING.md gives
// the argument).
//
// Topology management: the ShardMap and the shard states live in one
// immutable Topology behind the ShardRouter.  Readers snapshot the
// current shared_ptr (a refcount bump under a briefly-held mutex — see
// ShardRouter for why not std::atomic<shared_ptr>) and keep serving the
// version they loaded even across a concurrent rebalance (the
// shared_ptr keeps the old shards alive until the last reader drops
// them).  Writers serialize on one mutex.
//
// Live rebalance: Reshard(n) re-cuts the boundaries from the observed
// data distribution and replays every relation's tuples into fresh shard
// indexes through InsertTuples + Flush — the COW engine's one-atomic
// batch publish is what makes the replayed shards appear fully built —
// then cuts over with one topology-pointer swap.  SplitShard(i) is the
// surgical variant: only shard i is rebuilt (as two shards split at its
// data median); every other shard state is reused by pointer.  Reads
// never block during either; writes stall for the replay.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "live/service.h"
#include "net/executor.h"
#include "shard/shard_map.h"
#include "temporal/catalog.h"

namespace tagg {
namespace shard {

/// Construction knobs.
struct ShardedServiceOptions {
  /// Initial shard count; boundaries split `hot_window` uniformly until
  /// a data-driven Reshard() replaces them.
  size_t shards = 1;
  /// The range the initial uniform boundaries subdivide.  Tuples outside
  /// it still land correctly (the first/last shard own the tails).
  Period hot_window{0, (static_cast<Instant>(1) << 20) - 1};
  /// Scatter-gather worker threads; 0 resolves to min(shards, 4).  The
  /// executor queues 4 * workers + 16 segments; overflow degrades
  /// gracefully: rejected segments run inline on the calling thread, so a
  /// saturated pool can never deadlock a query.
  size_t scatter_workers = 0;
};

/// One shard: the live indexes over the fragments in its range, one per
/// registration.  The map is immutable once published — registration and
/// topology changes build new states and publish a new Topology — so
/// readers look indexes up without a lock.  Indexes are shared: a
/// registration's new state carries the existing ones by pointer.
struct ShardState {
  std::map<LiveIndexKey, std::shared_ptr<LiveAggregateIndex>> indexes;
};

/// The immutable routing table: which ranges exist and who serves them.
struct Topology {
  uint64_t version = 1;
  ShardMap map;
  std::vector<std::shared_ptr<ShardState>> shards;
};

/// The publish point between topology writers and readers.  One pointer
/// swap cuts a rebalance over; a Snapshot pins the topology it saw for
/// as long as the caller holds it.  The critical section on either side
/// is a refcount bump / pointer swap — rebuilds happen entirely outside
/// it — so readers never wait on a rebalance, only on each other's
/// nanosecond-scale copies.  (Not std::atomic<shared_ptr>: libstdc++'s
/// _Sp_atomic unlocks its reader spinlock with a relaxed fetch_sub,
/// which is a formal data race TSan rightly flags.)
class ShardRouter {
 public:
  explicit ShardRouter(std::shared_ptr<const Topology> initial)
      : topology_(std::move(initial)) {}

  std::shared_ptr<const Topology> Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return topology_;
  }

  void Publish(std::shared_ptr<const Topology> next) {
    std::shared_ptr<const Topology> retired;  // destroy outside the lock
    std::lock_guard<std::mutex> lock(mu_);
    retired = std::exchange(topology_, std::move(next));
  }

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Topology> topology_;
};

/// Health/stats snapshot of one shard, for /statz and the text protocol.
struct ShardInfo {
  size_t id = 0;
  Period range;
  /// Clipped tuple fragments resident in this shard's indexes.
  uint64_t tuples = 0;
  /// Per-index stats; tuples_ingested repeats `tuples`.
  LiveServiceStats service;
};

/// Service-wide snapshot.
struct ShardedStats {
  uint64_t topology_version = 0;
  size_t num_shards = 0;
  /// Logical (unclipped) tuples across the source relations.
  uint64_t logical_tuples = 0;
  uint64_t scatter_queries = 0;
  uint64_t rebalances = 0;
  std::vector<ShardInfo> shards;

  std::string ToString() const;
};

/// The sharded drop-in for LiveService: same registration/ingest/probe
/// surface, horizontally partitioned behind the router.
class ShardedLiveService {
 public:
  explicit ShardedLiveService(ShardedServiceOptions options = {});
  ~ShardedLiveService();

  ShardedLiveService(const ShardedLiveService&) = delete;
  ShardedLiveService& operator=(const ShardedLiveService&) = delete;

  /// Registers a live index for `aggregate` over `attribute_name` of
  /// `relation_name` on EVERY shard, resolving and type-checking against
  /// `catalog` through ResolveLiveIndex, like LiveService::RegisterIndex.
  /// Only the new index is built: each shard loads it from the source
  /// tuples its existing indexes over the relation have absorbed (all of
  /// them for a new relation), clipped to its range, and keeps every
  /// existing index by pointer.  Later Ingest() calls keep the source
  /// relation and every shard in step.
  Status RegisterIndex(const Catalog& catalog,
                       std::string_view relation_name,
                       AggregateKind aggregate,
                       std::string_view attribute_name = {});

  /// True when every shard holds an index for (relation, aggregate,
  /// attribute) — registration is all-shards-or-none.
  bool Serves(std::string_view relation_name, AggregateKind aggregate,
              size_t attribute) const;

  /// Serves() and the shards have absorbed exactly the source relation's
  /// current contents (nothing appended behind the router's back).  The
  /// executor's routing check.
  bool ServesFresh(const Relation& relation, AggregateKind aggregate,
                   size_t attribute) const;

  /// Appends `tuple` to the source relation, clips it at the shard
  /// boundaries, and ingests each fragment into its owning shard.
  Status Ingest(std::string_view relation_name, Tuple tuple);

  /// Batch ingest: tuples are validated/appended in order (a failure
  /// truncates at the offending tuple, like LiveService::IngestBatch),
  /// then each shard index absorbs its fragments through one
  /// InsertTuples — one published version per shard index.
  Status IngestBatch(std::string_view relation_name,
                     std::vector<Tuple> tuples, size_t* ingested = nullptr);

  /// Publishes write-batched inserts on every shard (empty = all
  /// relations).
  Status Flush(std::string_view relation_name = {});

  /// The aggregate's value at `t`: routed to the one owning shard.
  Result<Value> AggregateAt(std::string_view relation_name,
                            AggregateKind aggregate, size_t attribute,
                            Instant t,
                            uint64_t* snapshot_epoch = nullptr) const;

  /// The constant-interval series over `query`: clipped per overlapping
  /// shard, evaluated scatter-gather, stitched exactly.  `snapshot_epoch`
  /// receives the sum of the probed shards' epochs (monotone within one
  /// topology version).
  Result<AggregateSeries> AggregateOver(
      std::string_view relation_name, AggregateKind aggregate,
      size_t attribute, const Period& query, bool coalesce = true,
      uint64_t* snapshot_epoch = nullptr) const;

  /// Live rebalance to `new_shards` ranges cut at the observed data's
  /// start-instant quantiles (uniform over the hot window when empty).
  /// Replays every relation into fresh shard instances and publishes the
  /// new topology with one pointer swap; readers keep serving the old one
  /// throughout.
  Status Reshard(size_t new_shards);

  /// Splits one shard at its data median (range midpoint when empty)
  /// into two, rebuilding only that shard; all others are reused.
  Status SplitShard(size_t shard_id);

  size_t num_shards() const { return router_.Snapshot()->map.num_shards(); }
  uint64_t topology_version() const { return router_.Snapshot()->version; }
  ShardMap map() const { return router_.Snapshot()->map; }

  /// All registrations, sorted (same shape as LiveService::Keys()).
  std::vector<LiveIndexKey> Keys() const;

  ShardedStats Stats() const;

 private:
  struct RelationState {
    std::shared_ptr<Relation> relation;  // the caller's source relation
    /// Logical tuples the shards have absorbed; freshness compares this
    /// against relation->size().
    std::atomic<uint64_t> absorbed{0};
  };

  /// Builds one shard state for `range`: a fresh index per registration,
  /// loaded with the source tuples overlapping `range` (clipped to it)
  /// through InsertTuples and published with one Flush.  Caller holds
  /// write_mutex_.
  Result<std::shared_ptr<ShardState>> BuildShard(const Period& range) const;

  /// Builds a full topology for `map`, replaying every relation, and
  /// publishes it.  Caller holds write_mutex_.
  Status RebuildAll(ShardMap map);

  /// Range starts cutting the observed data into `shards` near-equal
  /// populations; uniform over the hot window when there is no data.
  ShardMap DataQuantileMap(size_t shards) const;

  void UpdateShardGauges(const Topology& topo) const;

  const ShardedServiceOptions options_;
  std::unique_ptr<net::BoundedExecutor> scatter_;

  /// Serializes registration, ingest, flush, and rebalance.
  mutable std::mutex write_mutex_;
  std::set<LiveIndexKey> registrations_;  // guarded by write_mutex_
  std::map<std::string, std::shared_ptr<RelationState>>
      relations_;  // guarded by relations_mutex_ for lookup, write_mutex_
                   // for mutation
  mutable std::mutex relations_mutex_;

  ShardRouter router_;
  mutable std::atomic<uint64_t> scatter_queries_{0};
  std::atomic<uint64_t> rebalances_{0};
  /// Highest shard count ever published, so a shrink can zero the
  /// higher-numbered per-shard gauges instead of leaving ghosts.
  mutable std::atomic<size_t> max_shards_published_{0};
};

}  // namespace shard
}  // namespace tagg
