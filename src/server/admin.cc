#include "server/admin.h"

#include <algorithm>
#include <cstdio>

#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "util/logging.h"

namespace tagg {
namespace server {

namespace {

/// /tracez shows at most this many records (newest last) in text mode.
constexpr size_t kTracezMaxRecords = 64;

obs::Counter& AdminRequestsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_admin_requests_total", "HTTP requests served by the admin plane");
  return c;
}

/// Per-connection HTTP parse state, stashed in Connection::user_state.
struct HttpConnState {
  bool have_request_line = false;
  HttpRequest request;
};

std::string RenderStatzTable(
    const std::vector<net::ConnectionStatsRow>& rows) {
  std::string out =
      "conn  mode  pipeline  reorder_bytes  outbox_bytes  paused  "
      "rate_tokens  idle_ms\n";
  char line[160];
  for (const net::ConnectionStatsRow& row : rows) {
    char tokens[24];
    if (row.rate_tokens < 0) {
      std::snprintf(tokens, sizeof(tokens), "-");
    } else {
      std::snprintf(tokens, sizeof(tokens), "%.1f", row.rate_tokens);
    }
    std::snprintf(line, sizeof(line),
                  "%-5llu %-5c %8zu  %13zu  %12zu  %-6s  %11s  %7lld\n",
                  static_cast<unsigned long long>(row.id), row.mode,
                  row.pipeline_depth, row.queued_bytes, row.outbox_bytes,
                  row.paused ? "yes" : "no", tokens,
                  static_cast<long long>(row.idle_ms));
    out += line;
  }
  out += std::to_string(rows.size()) + " connection(s)\n";
  return out;
}

std::string RenderTracezText(
    const std::vector<obs::RequestTraceRecord>& records) {
  std::string out;
  const size_t start =
      records.size() > kTracezMaxRecords ? records.size() - kTracezMaxRecords
                                         : 0;
  if (start > 0) {
    out += "(" + std::to_string(start) + " older record(s) elided)\n";
  }
  for (size_t i = start; i < records.size(); ++i) {
    out += obs::RenderRequestTrace(records[i]);
  }
  if (records.empty()) {
    out =
        "no request traces recorded yet\n"
        "(enable sampling with --trace-sample-every N, send a traced "
        "frame, or set a slow-request threshold)\n";
  }
  return out;
}

}  // namespace

AdminPlane::AdminPlane(AdminOptions options, AdminHooks hooks)
    : options_(options), hooks_(std::move(hooks)) {}

AdminPlane::~AdminPlane() { Shutdown(); }

Status AdminPlane::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("admin plane already started");
  }
  TAGG_ASSIGN_OR_RETURN(net::Acceptor acceptor,
                        net::Acceptor::Listen(options_.port));
  port_ = acceptor.port();

  net::EventLoopOptions loop_options;
  loop_options.idle_timeout = options_.idle_timeout;
  // Admin requests are a handful of short lines; keep buffers small and
  // leave tracing to the data plane.
  loop_options.max_line_bytes = 8 * 1024;
  loop_options.max_pipeline = 32;
  loop_options.trace_ring_capacity = 8;
  loop_ = std::make_unique<net::EventLoop>(
      loop_options,
      [this](const std::shared_ptr<net::Connection>& conn,
             net::Request&& req) { OnRequest(conn, std::move(req)); });
  Status started = loop_->Start(std::move(acceptor));
  if (!started.ok()) {
    loop_.reset();
    return started;
  }

  running_.store(true, std::memory_order_release);
  TAGG_LOG(Info) << "admin plane on http://127.0.0.1:" << port_
                 << " (/metrics /healthz /statz /tracez"
                 << (options_.enable_quitz && hooks_.quit ? " /quitz" : "")
                 << ")";
  return Status::OK();
}

void AdminPlane::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Close the listener, then let in-flight responses (often the 503 a
  // balancer is waiting on) reach their sockets before tearing the loop
  // down.
  loop_->CloseListener();
  loop_->SetDraining();
  loop_->WaitFlushed(std::chrono::milliseconds(500));
  loop_->Stop();
  loop_.reset();
}

std::string AdminPlane::Dispatch(const HttpRequest& req) {
  AdminRequestsTotal().Increment();
  if (req.method != "GET") {
    return BuildHttpResponse(405, "text/plain; charset=utf-8",
                             "admin plane serves GET only\n");
  }
  if (req.path == "/metrics") {
    const std::string body =
        hooks_.metrics_text ? hooks_.metrics_text() : std::string();
    // The content type Prometheus' text exposition format specifies.
    return BuildHttpResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                             body);
  }
  if (req.path == "/healthz") {
    const bool draining = hooks_.draining && hooks_.draining();
    return draining ? BuildHttpResponse(503, "text/plain; charset=utf-8",
                                        "draining\n")
                    : BuildHttpResponse(200, "text/plain; charset=utf-8",
                                        "ok\n");
  }
  if (req.path == "/statz") {
    std::vector<net::ConnectionStatsRow> rows;
    if (hooks_.statz) rows = hooks_.statz();
    std::string body = RenderStatzTable(rows);
    if (hooks_.extra_statz) {
      std::string extra = hooks_.extra_statz();
      if (!extra.empty()) {
        if (body.empty() || body.back() != '\n') body.push_back('\n');
        body += "\n" + extra;
      }
    }
    return BuildHttpResponse(200, "text/plain; charset=utf-8", body);
  }
  if (req.path == "/tracez") {
    std::vector<obs::RequestTraceRecord> records =
        obs::RequestTraceRegistry::Global().SnapshotAll();
    if (QueryParam(req.query, "fmt") == "chrome") {
      return BuildHttpResponse(200, "application/json; charset=utf-8",
                               obs::RequestTracesToChromeJson(records));
    }
    return BuildHttpResponse(200, "text/plain; charset=utf-8",
                             RenderTracezText(records));
  }
  if (req.path == "/quitz") {
    if (!options_.enable_quitz || !hooks_.quit) {
      return BuildHttpResponse(403, "text/plain; charset=utf-8",
                               "quitz disabled (start with --enable-quitz)\n");
    }
    hooks_.quit();
    return BuildHttpResponse(200, "text/plain; charset=utf-8",
                             "shutting down\n");
  }
  return BuildHttpResponse(404, "text/plain; charset=utf-8",
                           "unknown path (try /metrics /healthz /statz "
                           "/tracez)\n");
}

void AdminPlane::OnRequest(const std::shared_ptr<net::Connection>& conn,
                           net::Request&& req) {
  // Binary frames have no business on the admin port.
  if (!req.text) {
    conn->CloseAfterFlush();
    conn->Respond(req.seq,
                  net::EncodeErrorFrame(Status::InvalidArgument(
                      "admin port speaks HTTP, not the binary protocol")));
    return;
  }
  if (conn->user_state() == nullptr) {
    conn->user_state() = std::make_shared<HttpConnState>();
  }
  auto* state = static_cast<HttpConnState*>(conn->user_state().get());

  const bool blank = req.payload.empty();
  if (!blank) {
    if (!state->have_request_line) {
      std::optional<HttpRequest> parsed = ParseRequestLine(req.payload);
      if (!parsed.has_value()) {
        conn->CloseAfterFlush();
        conn->Respond(req.seq,
                      BuildHttpResponse(400, "text/plain; charset=utf-8",
                                        "malformed request line\n"));
        return;
      }
      state->request = std::move(*parsed);
      state->have_request_line = true;
    }
    // Header lines (and anything after the request line) are ignored;
    // the slot still needs its (empty) response to keep frame order.
    conn->Respond(req.seq, std::string());
    return;
  }
  if (!state->have_request_line) {
    // Stray blank line before any request: ignore.
    conn->Respond(req.seq, std::string());
    return;
  }
  // Blank line = end of headers: answer and close once it is written
  // (waiting for the blank line means the client's request is fully
  // read, so closing cannot RST unread bytes).
  std::string response = Dispatch(state->request);
  state->have_request_line = false;
  conn->CloseAfterFlush();
  conn->Respond(req.seq, std::move(response));
}

}  // namespace server
}  // namespace tagg
