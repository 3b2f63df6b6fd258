#include "server/protocol.h"

#include <cstdlib>

#include "obs/metrics.h"
#include "util/str.h"

namespace tagg {
namespace server {

namespace {

using net::AggregateAtRequest;
using net::AggregateAtResponse;
using net::AggregateOverRequest;
using net::AggregateOverResponse;
using net::FlushRequest;
using net::InsertBatchRequest;
using net::InsertRequest;
using net::Opcode;
using net::WireInterval;
using net::WireTuple;

Result<Period> MakePeriod(Instant start, Instant end) {
  return Period::Make(start, end);
}

Result<Tuple> ToTuple(const WireTuple& wire) {
  TAGG_ASSIGN_OR_RETURN(Period valid, MakePeriod(wire.start, wire.end));
  return Tuple(wire.values, valid);
}

Result<AggregateKind> ToAggregateKind(uint8_t raw) {
  if (raw > static_cast<uint8_t>(AggregateKind::kAvg)) {
    return Status::InvalidArgument("unknown aggregate kind " +
                                   std::to_string(raw));
  }
  return static_cast<AggregateKind>(raw);
}

size_t ToAttribute(uint32_t wire_attribute) {
  return wire_attribute == net::kWireNoAttribute
             ? AggregateOptions::kNoAttribute
             : static_cast<size_t>(wire_attribute);
}

// --- backend dispatch: sharded service when present, LiveService
// otherwise.  Both modes (binary and text) funnel through these so the
// routing decision lives in exactly one place.

Status DoIngest(const ServingState& state, std::string_view relation,
                Tuple tuple) {
  if (state.shards != nullptr) {
    return state.shards->Ingest(relation, std::move(tuple));
  }
  return state.live->Ingest(relation, std::move(tuple));
}

Status DoIngestBatch(const ServingState& state, std::string_view relation,
                     std::vector<Tuple> tuples, size_t* ingested) {
  if (state.shards != nullptr) {
    return state.shards->IngestBatch(relation, std::move(tuples), ingested);
  }
  return state.live->IngestBatch(relation, std::move(tuples), ingested);
}

Status DoFlush(const ServingState& state, std::string_view relation) {
  if (state.shards != nullptr) return state.shards->Flush(relation);
  return state.live->Flush(relation);
}

Result<Value> DoAggregateAt(const ServingState& state,
                            std::string_view relation, AggregateKind kind,
                            size_t attribute, Instant t, uint64_t* epoch) {
  if (state.shards != nullptr) {
    return state.shards->AggregateAt(relation, kind, attribute, t, epoch);
  }
  const LiveAggregateIndex* index = state.live->Find(relation, kind,
                                                     attribute);
  if (index == nullptr) {
    return Status::NotFound(
        "no live index registered for " + std::string(relation) + "/" +
        std::string(AggregateKindToString(kind)));
  }
  return index->AggregateAt(t, epoch);
}

Result<AggregateSeries> DoAggregateOver(const ServingState& state,
                                        std::string_view relation,
                                        AggregateKind kind, size_t attribute,
                                        const Period& query, bool coalesce,
                                        uint64_t* epoch) {
  if (state.shards != nullptr) {
    return state.shards->AggregateOver(relation, kind, attribute, query,
                                       coalesce, epoch);
  }
  const LiveAggregateIndex* index = state.live->Find(relation, kind,
                                                     attribute);
  if (index == nullptr) {
    return Status::NotFound(
        "no live index registered for " + std::string(relation) + "/" +
        std::string(AggregateKindToString(kind)));
  }
  return index->AggregateOver(query, coalesce, epoch);
}

// ---------------------------------------------------------------------------
// Binary operations
// ---------------------------------------------------------------------------

Result<std::string> RunBinary(const ServingState& state, Opcode opcode,
                              std::string_view payload,
                              obs::QueryProfile* profile) {
  switch (opcode) {
    case Opcode::kPing: {
      net::Cursor c(payload);
      TAGG_RETURN_IF_ERROR(c.ExpectEnd());
      return std::string();
    }
    case Opcode::kInsert: {
      obs::Span decode(profile, "decode_payload");
      TAGG_ASSIGN_OR_RETURN(InsertRequest req, net::DecodeInsert(payload));
      TAGG_ASSIGN_OR_RETURN(Tuple tuple, ToTuple(req.tuple));
      decode.End();
      obs::Span ingest(profile, "ingest");
      ingest.Annotate("relation", req.relation);
      TAGG_RETURN_IF_ERROR(DoIngest(state, req.relation, std::move(tuple)));
      return std::string();
    }
    case Opcode::kInsertBatch: {
      obs::Span decode(profile, "decode_payload");
      TAGG_ASSIGN_OR_RETURN(InsertBatchRequest req,
                            net::DecodeInsertBatch(payload));
      std::vector<Tuple> tuples;
      tuples.reserve(req.tuples.size());
      for (const WireTuple& wire : req.tuples) {
        TAGG_ASSIGN_OR_RETURN(Tuple tuple, ToTuple(wire));
        tuples.push_back(std::move(tuple));
      }
      decode.End();
      obs::Span ingest(profile, "ingest_batch");
      ingest.Annotate("relation", req.relation);
      ingest.Annotate("tuples", tuples.size());
      size_t ingested = 0;
      TAGG_RETURN_IF_ERROR(
          DoIngestBatch(state, req.relation, std::move(tuples), &ingested));
      ingest.End();
      net::Writer w;
      w.U32(static_cast<uint32_t>(ingested));
      return w.Take();
    }
    case Opcode::kFlush: {
      TAGG_ASSIGN_OR_RETURN(FlushRequest req, net::DecodeFlush(payload));
      obs::Span flush(profile, "flush");
      TAGG_RETURN_IF_ERROR(DoFlush(state, req.relation));
      return std::string();
    }
    case Opcode::kAggregateAt: {
      obs::Span decode(profile, "decode_payload");
      TAGG_ASSIGN_OR_RETURN(AggregateAtRequest req,
                            net::DecodeAggregateAt(payload));
      decode.End();
      TAGG_ASSIGN_OR_RETURN(AggregateKind kind,
                            ToAggregateKind(req.aggregate));
      obs::Span probe(profile, "aggregate_at");
      probe.Annotate("relation", req.relation);
      AggregateAtResponse resp;
      TAGG_ASSIGN_OR_RETURN(
          resp.value,
          DoAggregateAt(state, req.relation, kind, ToAttribute(req.attribute),
                        req.t, &resp.epoch));
      probe.Annotate("epoch", resp.epoch);
      probe.End();
      obs::Span encode(profile, "encode_payload");
      return net::EncodeAggregateAtResponse(resp);
    }
    case Opcode::kAggregateOver: {
      obs::Span decode(profile, "decode_payload");
      TAGG_ASSIGN_OR_RETURN(AggregateOverRequest req,
                            net::DecodeAggregateOver(payload));
      decode.End();
      TAGG_ASSIGN_OR_RETURN(AggregateKind kind,
                            ToAggregateKind(req.aggregate));
      TAGG_ASSIGN_OR_RETURN(Period query,
                            MakePeriod(req.start, req.end));
      obs::Span probe(profile, "aggregate_over");
      probe.Annotate("relation", req.relation);
      AggregateOverResponse resp;
      TAGG_ASSIGN_OR_RETURN(
          AggregateSeries series,
          DoAggregateOver(state, req.relation, kind,
                          ToAttribute(req.attribute), query, req.coalesce,
                          &resp.epoch));
      probe.Annotate("epoch", resp.epoch);
      probe.Annotate("intervals", series.intervals.size());
      probe.End();
      obs::Span encode(profile, "encode_payload");
      resp.intervals.reserve(series.intervals.size());
      for (const ResultInterval& iv : series.intervals) {
        resp.intervals.push_back(WireInterval{
            iv.period.start(), iv.period.end(), iv.value});
      }
      return net::EncodeAggregateOverResponse(resp);
    }
    case Opcode::kMetrics: {
      net::Cursor c(payload);
      TAGG_RETURN_IF_ERROR(c.ExpectEnd());
      return MetricsExpositionText();
    }
  }
  return Status::InvalidArgument("unknown opcode " +
                                 std::to_string(static_cast<int>(opcode)));
}

// ---------------------------------------------------------------------------
// Text operations
// ---------------------------------------------------------------------------

/// Text-mode value literal: "null", an integer, a double, or a string.
Value ParseValueWord(const std::string& word) {
  if (EqualsIgnoreCase(word, "null")) return Value::Null();
  if (Result<int64_t> i = ParseInt(word); i.ok()) return Value::Int(*i);
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(word.c_str(), &end);
  if (end != word.c_str() && *end == '\0' && errno != ERANGE) {
    return Value::Double(d);
  }
  return Value::String(word);
}

/// Aggregate + attribute from "<agg> <attr|*>"; attribute may be an
/// index, an attribute name (resolved against the catalog), or "*".
Result<std::pair<AggregateKind, size_t>> ParseAggAttr(
    const ServingState& state, const std::string& relation,
    const std::string& agg_word, const std::string& attr_word) {
  TAGG_ASSIGN_OR_RETURN(AggregateKind kind, ParseAggregateKind(agg_word));
  if (attr_word == "*") {
    return std::make_pair(kind, AggregateOptions::kNoAttribute);
  }
  // A fully numeric attribute word must be a usable index: overflow and
  // negatives are errors, not names to resolve.
  Result<int64_t> idx = ParseInt(attr_word, 0);
  if (idx.ok()) return std::make_pair(kind, static_cast<size_t>(*idx));
  if (idx.status().code() == StatusCode::kOutOfRange) {
    return Status::InvalidArgument("attribute index '" + attr_word +
                                   "' is out of range");
  }
  TAGG_ASSIGN_OR_RETURN(std::shared_ptr<Relation> relation_ptr,
                        state.catalog->Get(relation));
  const auto resolved = relation_ptr->schema().IndexOf(attr_word);
  if (!resolved.has_value()) {
    return Status::NotFound("relation '" + relation +
                            "' has no attribute '" + attr_word + "'");
  }
  return std::make_pair(kind, *resolved);
}

Result<std::string> RunText(const ServingState& state,
                            std::string_view line, bool* quit) {
  const std::string_view trimmed = Trim(line);
  if (trimmed.empty()) return std::string("+OK\n");
  const std::vector<std::string> words = Split(std::string(trimmed), ' ');
  const std::string& cmd = words[0];

  if (EqualsIgnoreCase(cmd, "quit") || EqualsIgnoreCase(cmd, "exit")) {
    *quit = true;
    return std::string("+BYE\n");
  }
  if (EqualsIgnoreCase(cmd, "ping")) return std::string("+PONG\n");
  if (EqualsIgnoreCase(cmd, "metrics")) {
    // Same bytes as the binary kMetrics opcode and HTTP /metrics, plus
    // the text-mode "." terminator.
    return MetricsExpositionText() + ".\n";
  }
  if (EqualsIgnoreCase(cmd, "stats")) {
    std::string out = state.shards != nullptr
                          ? state.shards->Stats().ToString()
                          : state.live->Stats().ToString();
    if (out.empty() || out.back() != '\n') out.push_back('\n');
    out += ".\n";
    return out;
  }
  if (EqualsIgnoreCase(cmd, "shards")) {
    // shards — the published topology plus per-shard health.
    if (words.size() != 1) return Status::InvalidArgument("usage: shards");
    if (state.shards == nullptr) {
      return Status::NotSupported(
          "this server does not run the sharded live service");
    }
    std::string out = state.shards->map().ToString() + "\n" +
                      state.shards->Stats().ToString();
    if (out.back() != '\n') out.push_back('\n');
    out += ".\n";
    return out;
  }
  if (EqualsIgnoreCase(cmd, "set")) {
    // set shards <n> — live rebalance to n data-quantile shards.
    if (words.size() != 3 || !EqualsIgnoreCase(words[1], "shards")) {
      return Status::InvalidArgument("usage: set shards <n>");
    }
    if (state.shards == nullptr) {
      return Status::NotSupported(
          "this server does not run the sharded live service");
    }
    TAGG_ASSIGN_OR_RETURN(int64_t n, ParseInt(words[2]));
    if (n <= 0) {
      return Status::InvalidArgument("shard count must be positive");
    }
    TAGG_RETURN_IF_ERROR(state.shards->Reshard(static_cast<size_t>(n)));
    return "+OK " + std::to_string(state.shards->num_shards()) +
           " shard(s), topology v" +
           std::to_string(state.shards->topology_version()) + "\n";
  }
  if (EqualsIgnoreCase(cmd, "flush")) {
    if (words.size() > 2) {
      return Status::InvalidArgument("usage: flush [relation]");
    }
    TAGG_RETURN_IF_ERROR(DoFlush(state, words.size() == 2 ? words[1] : ""));
    return std::string("+OK\n");
  }
  if (EqualsIgnoreCase(cmd, "insert")) {
    // insert <relation> <start> <end> [v1 v2 ...]
    if (words.size() < 4) {
      return Status::InvalidArgument(
          "usage: insert <relation> <start> <end> [values...]");
    }
    TAGG_ASSIGN_OR_RETURN(int64_t start, ParseInt(words[2]));
    TAGG_ASSIGN_OR_RETURN(int64_t end, ParseInt(words[3]));
    TAGG_ASSIGN_OR_RETURN(Period valid, Period::Make(start, end));
    std::vector<Value> values;
    values.reserve(words.size() - 4);
    for (size_t i = 4; i < words.size(); ++i) {
      values.push_back(ParseValueWord(words[i]));
    }
    TAGG_RETURN_IF_ERROR(
        DoIngest(state, words[1], Tuple(std::move(values), valid)));
    return std::string("+OK\n");
  }
  if (EqualsIgnoreCase(cmd, "at")) {
    // at <relation> <aggregate> <attr|*> <t>
    if (words.size() != 5) {
      return Status::InvalidArgument(
          "usage: at <relation> <aggregate> <attribute|*> <instant>");
    }
    TAGG_ASSIGN_OR_RETURN(auto agg_attr,
                          ParseAggAttr(state, words[1], words[2], words[3]));
    TAGG_ASSIGN_OR_RETURN(int64_t t, ParseInt(words[4]));
    uint64_t epoch = 0;
    TAGG_ASSIGN_OR_RETURN(
        Value value, DoAggregateAt(state, words[1], agg_attr.first,
                                   agg_attr.second, t, &epoch));
    return "+OK " + value.ToString() + " epoch=" + std::to_string(epoch) +
           "\n";
  }
  if (EqualsIgnoreCase(cmd, "over")) {
    // over <relation> <aggregate> <attr|*> <start> <end> [nocoalesce]
    if (words.size() != 6 && words.size() != 7) {
      return Status::InvalidArgument(
          "usage: over <relation> <aggregate> <attribute|*> <start> <end> "
          "[nocoalesce]");
    }
    bool coalesce = true;
    if (words.size() == 7) {
      if (!EqualsIgnoreCase(words[6], "nocoalesce")) {
        return Status::InvalidArgument("unknown option '" + words[6] + "'");
      }
      coalesce = false;
    }
    TAGG_ASSIGN_OR_RETURN(auto agg_attr,
                          ParseAggAttr(state, words[1], words[2], words[3]));
    TAGG_ASSIGN_OR_RETURN(int64_t start, ParseInt(words[4]));
    TAGG_ASSIGN_OR_RETURN(int64_t end, ParseInt(words[5]));
    TAGG_ASSIGN_OR_RETURN(Period query, Period::Make(start, end));
    uint64_t epoch = 0;
    TAGG_ASSIGN_OR_RETURN(
        AggregateSeries series,
        DoAggregateOver(state, words[1], agg_attr.first, agg_attr.second,
                        query, coalesce, &epoch));
    std::string out = "+OK " + std::to_string(series.intervals.size()) +
                      " epoch=" + std::to_string(epoch) + "\n";
    for (const ResultInterval& iv : series.intervals) {
      out += InstantToString(iv.period.start()) + " " +
             InstantToString(iv.period.end()) + " " + iv.value.ToString() +
             "\n";
    }
    out += ".\n";
    return out;
  }
  return Status::InvalidArgument("unknown command '" + cmd +
                                 "' (ping, insert, flush, at, over, "
                                 "metrics, stats, shards, set shards <n>, "
                                 "quit)");
}

}  // namespace

std::string TextErrorLine(const Status& status) {
  if (status.IsResourceExhausted()) {
    return "-BUSY " + std::string(status.message()) + "\n";
  }
  return "-ERR " + std::string(StatusCodeToString(status.code())) + ": " +
         std::string(status.message()) + "\n";
}

std::string MetricsExpositionText() {
  std::string out = obs::MetricsRegistry::Global().PrometheusText();
  if (out.empty() || out.back() != '\n') out.push_back('\n');
  return out;
}

Result<std::string> ExecuteBinaryRequest(const ServingState& state,
                                         uint8_t opcode,
                                         std::string_view payload,
                                         obs::QueryProfile* profile) {
  return RunBinary(state, static_cast<Opcode>(opcode), payload, profile);
}

Result<std::string> ExecuteTextRequest(const ServingState& state,
                                       std::string_view line, bool* quit) {
  return RunText(state, line, quit);
}

}  // namespace server
}  // namespace tagg
