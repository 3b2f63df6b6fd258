// AdminPlane: the HTTP/1.0 introspection listener on a second port.
//
// A scraper-friendly window into a running taggd, served by one more
// epoll EventLoop (the same machinery as the data plane, in text-line
// mode) that accepts on the admin listener itself:
//
//   GET /metrics   Prometheus text — byte-identical to the binary
//                  kMetrics opcode and the text-mode `metrics` command
//                  (all three call MetricsExpositionText()).
//   GET /healthz   200 "ok" while serving, 503 "draining" the moment a
//                  graceful shutdown begins.  The flip happens BEFORE
//                  the data listener closes: load balancers see the 503
//                  while in-flight requests are still completing.
//   GET /statz     per-connection table: mode, pipeline depth, reorder
//                  bytes, outbox bytes, paused flag, rate-limit tokens,
//                  idle ms.
//   GET /tracez    recent sampled + slow request traces (text), or the
//                  Chrome-trace JSON export with ?fmt=chrome.
//   GET /quitz     asks the daemon to shut down gracefully; disabled
//                  (403) unless AdminOptions::enable_quitz — an admin
//                  port is not an authenticated surface.
//
// Everything is answered inline on the admin loop thread from hook
// callbacks, so the admin plane works even when the data-plane executor
// is saturated — that is precisely when /statz matters.

#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/event_loop.h"
#include "server/http.h"

namespace tagg {
namespace server {

struct AdminOptions {
  bool enabled = true;
  /// 0 picks an ephemeral port; read it back with port() after Start.
  uint16_t port = 0;
  /// /quitz answers 403 unless explicitly enabled.
  bool enable_quitz = false;
  /// Admin connections are short-lived; sweep stragglers briskly.
  std::chrono::milliseconds idle_timeout{5000};
};

/// Callbacks decoupling the admin plane from the Server internals.  All
/// must be thread-safe: they run on the admin loop thread.
struct AdminHooks {
  std::function<std::string()> metrics_text;
  std::function<bool()> draining;
  std::function<std::vector<net::ConnectionStatsRow>()> statz;
  /// Extra text appended below the /statz connection table — the shard
  /// topology and per-shard health when the sharded service runs.
  std::function<std::string()> extra_statz;
  /// Request a graceful shutdown (must NOT block — /quitz sets a flag
  /// the daemon's main thread polls).  Null disables /quitz outright.
  std::function<void()> quit;
};

class AdminPlane {
 public:
  AdminPlane(AdminOptions options, AdminHooks hooks);
  ~AdminPlane();

  AdminPlane(const AdminPlane&) = delete;
  AdminPlane& operator=(const AdminPlane&) = delete;

  Status Start();

  uint16_t port() const { return port_; }

  /// Closes the listener and stops the loop.  Call LAST in a graceful
  /// shutdown so /healthz serves 503 while the data plane drains.
  void Shutdown();

 private:
  void OnRequest(const std::shared_ptr<net::Connection>& conn,
                 net::Request&& req);
  /// Routes one parsed request to its endpoint response.
  std::string Dispatch(const HttpRequest& req);

  const AdminOptions options_;
  const AdminHooks hooks_;

  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::unique_ptr<net::EventLoop> loop_;
};

}  // namespace server
}  // namespace tagg
