#include "live/service.h"

#include "util/str.h"

namespace tagg {

std::string LiveIndexKey::ToString() const {
  std::string arg = attribute == AggregateOptions::kNoAttribute
                        ? "*"
                        : "#" + std::to_string(attribute);
  return relation + "/" + std::string(AggregateKindToString(aggregate)) +
         "(" + arg + ")";
}

std::string LiveServiceStats::ToString() const {
  std::string out = "live service: " + std::to_string(indexes.size()) +
                    " index(es), " + std::to_string(tuples_ingested) +
                    " tuple(s) ingested\n";
  for (const auto& [key, stats] : indexes) {
    out += "  " + key.ToString() + ": " + stats.ToString() + "\n";
  }
  return out;
}

Result<std::pair<std::shared_ptr<Relation>, LiveIndexKey>> ResolveLiveIndex(
    const Catalog& catalog, std::string_view relation_name,
    AggregateKind aggregate, std::string_view attribute_name) {
  TAGG_ASSIGN_OR_RETURN(std::shared_ptr<Relation> relation,
                        catalog.Get(relation_name));

  size_t attribute = AggregateOptions::kNoAttribute;
  if (!attribute_name.empty()) {
    const auto index = relation->schema().IndexOf(attribute_name);
    if (!index.has_value()) {
      return Status::NotFound("relation '" + relation->name() +
                              "' has no attribute '" +
                              std::string(attribute_name) + "'");
    }
    attribute = *index;
  }
  TAGG_RETURN_IF_ERROR(
      CheckAggregateInput(aggregate, attribute, &relation->schema()));
  LiveIndexKey key{ToLower(relation_name), aggregate, attribute};
  return std::make_pair(std::move(relation), std::move(key));
}

Status LiveService::RegisterIndex(const Catalog& catalog,
                                  std::string_view relation_name,
                                  AggregateKind aggregate,
                                  std::string_view attribute_name) {
  TAGG_ASSIGN_OR_RETURN(
      auto resolved,
      ResolveLiveIndex(catalog, relation_name, aggregate, attribute_name));
  auto& [relation, key] = resolved;

  LiveIndexOptions options;
  options.aggregate = key.aggregate;
  options.attribute = key.attribute;
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<LiveAggregateIndex> index,
                        LiveAggregateIndex::Create(options));

  // Bulk-load outside the registry lock: the index is not yet published.
  TAGG_RETURN_IF_ERROR(index->InsertTuples(relation->tuples()));

  std::lock_guard<std::mutex> guard(mutex_);
  if (entries_.contains(key)) {
    return Status::AlreadyExists("live index " + key.ToString() +
                                 " already registered");
  }
  entries_.emplace(key, Entry{std::move(relation), std::move(index)});
  return Status::OK();
}

const LiveAggregateIndex* LiveService::Find(std::string_view relation_name,
                                            AggregateKind aggregate,
                                            size_t attribute) const {
  const LiveIndexKey key{ToLower(relation_name), aggregate, attribute};
  std::lock_guard<std::mutex> guard(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : it->second.index.get();
}

Status LiveService::Ingest(std::string_view relation_name, Tuple tuple) {
  std::vector<Tuple> one;
  one.push_back(std::move(tuple));
  return IngestBatch(relation_name, std::move(one));
}

Status LiveService::IngestBatch(std::string_view relation_name,
                                std::vector<Tuple> tuples,
                                size_t* ingested) {
  if (ingested != nullptr) *ingested = 0;
  if (tuples.empty()) return Status::OK();
  const std::string lowered = ToLower(relation_name);
  std::lock_guard<std::mutex> guard(mutex_);

  std::shared_ptr<Relation> relation;
  std::vector<LiveAggregateIndex*> indexes;
  for (auto& [key, entry] : entries_) {
    if (key.relation != lowered) continue;
    relation = entry.relation;
    indexes.push_back(entry.index.get());
  }
  if (relation == nullptr) {
    return Status::NotFound("no live index registered for relation '" +
                            std::string(relation_name) + "'");
  }

  // Validate + append against the schema first so the indexes only ever
  // see tuples the relation accepted; a failure truncates the batch at
  // the offending tuple.
  size_t accepted = 0;
  Status append_status = Status::OK();
  for (Tuple& tuple : tuples) {
    append_status = relation->Append(tuple);
    if (!append_status.ok()) break;
    ++accepted;
  }
  tuples.resize(accepted);
  for (LiveAggregateIndex* index : indexes) {
    TAGG_RETURN_IF_ERROR(index->InsertTuples(tuples));
  }
  tuples_ingested_ += accepted;
  if (ingested != nullptr) *ingested = accepted;
  static obs::Counter& ingested_total =
      obs::MetricsRegistry::Global().GetCounter(
          "tagg_live_ingest_total",
          "Tuples ingested through LiveService (ingest rate source)");
  ingested_total.Increment(accepted);
  return append_status;
}

Status LiveService::Flush(std::string_view relation_name) {
  const std::string lowered = ToLower(relation_name);
  std::lock_guard<std::mutex> guard(mutex_);
  bool found = lowered.empty();
  for (auto& [key, entry] : entries_) {
    if (!lowered.empty() && key.relation != lowered) continue;
    entry.index->Flush();
    found = true;
  }
  if (!found) {
    return Status::NotFound("no live index registered for relation '" +
                            std::string(relation_name) + "'");
  }
  return Status::OK();
}

std::vector<LiveIndexKey> LiveService::Keys() const {
  std::lock_guard<std::mutex> guard(mutex_);
  std::vector<LiveIndexKey> keys;
  keys.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) keys.push_back(key);
  return keys;
}

LiveServiceStats LiveService::Stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  LiveServiceStats stats;
  stats.tuples_ingested = tuples_ingested_;
  stats.indexes.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    stats.indexes.emplace_back(key, entry.index->Stats());
  }
  return stats;
}

}  // namespace tagg
