// LiveService: the serving façade over live aggregate indexes.
//
// A service owns one LiveAggregateIndex per (relation, aggregate,
// attribute) registration.  Registration resolves the attribute against
// the relation's schema in the temporal/catalog, type-checks it exactly
// like the batch path, bulk-loads the relation's current contents, and
// from then on Ingest() keeps the relation and every index over it in
// step.  shard::ShardedLiveService registers through the same
// ResolveLiveIndex but holds its shards' indexes directly; the query
// executor routes repeated aggregate queries to the sharded service
// (ExecutorOptions::sharded_service) instead of rebuilding a tree per
// query.
//
// Threading model: the registry itself is mutex-protected; each index is
// a copy-on-write tree (live/cow_index.h) with one writer and lock-free
// readers.  Ingest() appends to the *relation* as well, and Relation is
// not a concurrent structure — run one ingest thread, and route
// concurrent reads through the live indexes (the executor's fallback path
// scans the relation and is only safe when no ingest is running).

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "live/live_index.h"
#include "temporal/catalog.h"

namespace tagg {

/// Identity of one registered index.
struct LiveIndexKey {
  std::string relation;  // lowercased
  AggregateKind aggregate = AggregateKind::kCount;
  size_t attribute = AggregateOptions::kNoAttribute;

  bool operator<(const LiveIndexKey& other) const {
    if (relation != other.relation) return relation < other.relation;
    if (aggregate != other.aggregate) return aggregate < other.aggregate;
    return attribute < other.attribute;
  }

  /// "employed/COUNT(#1)"-style rendering.
  std::string ToString() const;
};

/// Service-wide counters plus the per-index stats snapshot.
struct LiveServiceStats {
  uint64_t tuples_ingested = 0;
  std::vector<std::pair<LiveIndexKey, LiveIndexStats>> indexes;

  std::string ToString() const;
};

/// Resolves a registration request against `catalog`: the relation and
/// the key its index serves under.  Fails on unknown names and on value
/// aggregates without a numeric attribute.  Both LiveService and
/// shard::ShardedLiveService register through this, so they fail alike.
Result<std::pair<std::shared_ptr<Relation>, LiveIndexKey>> ResolveLiveIndex(
    const Catalog& catalog, std::string_view relation_name,
    AggregateKind aggregate, std::string_view attribute_name);

/// Registry and ingest point for live aggregate indexes.
class LiveService {
 public:
  /// Registers a live index for `aggregate` over `attribute_name` of
  /// `relation_name` (empty attribute name = COUNT(*)).  Resolves and
  /// type-checks against the catalog, then bulk-loads every tuple the
  /// relation currently holds.  Fails on duplicates, unknown names, and
  /// non-numeric value aggregates.
  Status RegisterIndex(const Catalog& catalog, std::string_view relation_name,
                       AggregateKind aggregate,
                       std::string_view attribute_name = {});

  /// The index registered for (relation, aggregate, attribute), or
  /// nullptr.  The pointer stays valid for the service's lifetime —
  /// indexes are never dropped, only the whole service.
  const LiveAggregateIndex* Find(std::string_view relation_name,
                                 AggregateKind aggregate,
                                 size_t attribute) const;

  /// IngestBatch over one tuple.  Fails when no index was registered for
  /// the relation or the tuple does not match its schema.
  Status Ingest(std::string_view relation_name, Tuple tuple);

  /// Appends every tuple to the registered relation under one registry
  /// section, then folds the batch into every index over that relation
  /// through InsertTuples (one published version per index), so index
  /// epochs stay equal to the relation's size.  On a validation failure
  /// midway, the tuples already appended stay — the caller learns how
  /// many through `ingested`.  This is the network InsertBatch op's
  /// landing point.
  Status IngestBatch(std::string_view relation_name,
                     std::vector<Tuple> tuples, size_t* ingested = nullptr);

  /// Recycles retired nodes in the indexes of `relation_name` (empty =
  /// every registered relation).  Every ingest is already published; the
  /// wire Flush op lands here.
  Status Flush(std::string_view relation_name = {});

  /// All registrations, sorted.
  std::vector<LiveIndexKey> Keys() const;

  LiveServiceStats Stats() const;

 private:
  struct Entry {
    std::shared_ptr<Relation> relation;
    std::unique_ptr<LiveAggregateIndex> index;
  };

  mutable std::mutex mutex_;
  std::map<LiveIndexKey, Entry> entries_;
  uint64_t tuples_ingested_ = 0;
};

}  // namespace tagg
