// Protocol handlers: decode a wire request, run it against the live
// serving state, encode the reply.
//
// Both modes funnel into the same operations:
//   * binary — the typed frames of net/wire.h; ExecuteBinaryRequest
//     returns the success payload;
//   * text (taggsql line mode) — one command per line; ExecuteTextRequest
//     returns the reply text ("+OK ...", multi-line replies terminated by
//     a lone ".").
// Both return the operation's error as a Status; the server frames it
// (an error frame, or TextErrorLine's "-ERR code: message").
//
// Handlers run on executor worker threads: everything they touch is
// thread-safe (each service serializes writers under one mutex and every
// ingest is published before it is acknowledged; reads go through the
// lock-free live indexes; the Catalog is read-only after server start).

#pragma once

#include <string>
#include <string_view>

#include "live/service.h"
#include "net/wire.h"
#include "obs/trace.h"
#include "shard/sharded_service.h"
#include "temporal/catalog.h"

namespace tagg {
namespace server {

/// What the handlers serve: the registered relations and their live
/// indexes.  The catalog must not be mutated while the server runs.
/// Exactly one of `live` / `shards` backs the operations: when `shards`
/// is set every ingest/flush/probe routes through the sharded service
/// (scatter-gather reads, boundary-clipped writes) and `live` may be
/// null; otherwise the unsharded LiveService serves as before.
struct ServingState {
  const Catalog* catalog = nullptr;
  LiveService* live = nullptr;
  shard::ShardedLiveService* shards = nullptr;
};

/// The one metrics exposition every surface serves: the binary kMetrics
/// opcode, the text-mode `metrics` command, and HTTP GET /metrics all
/// return exactly these bytes (newline-terminated Prometheus text), so a
/// scrape is byte-identical no matter which door it came through.
std::string MetricsExpositionText();

/// Executes one binary request and returns the *payload* of the success
/// response (the caller frames it), or the operation's error.  When
/// `profile` is non-null the handler opens EXPLAIN-level spans
/// (decode_payload, index_lookup, the probe, ...) under it — the nested
/// stages a sampled request trace shows under `execute`.
Result<std::string> ExecuteBinaryRequest(const ServingState& state,
                                         uint8_t opcode,
                                         std::string_view payload,
                                         obs::QueryProfile* profile);

/// Executes one text command and returns the reply text (always
/// newline-terminated), or the command's error.  Sets `*quit` when the
/// client asked to close ("quit").
Result<std::string> ExecuteTextRequest(const ServingState& state,
                                       std::string_view line, bool* quit);

/// Renders `status` as a text-mode error line ("-BUSY ..." for
/// kResourceExhausted, "-ERR code: message" otherwise).
std::string TextErrorLine(const Status& status);

}  // namespace server
}  // namespace tagg
