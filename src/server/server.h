// Server: the network serving layer tying the pieces together.
//
//   acceptor thread ──▶ N event loops ──▶ bounded executor ──▶ LiveService
//        (accept4)       (epoll, parse)     (backpressure)      (indexes)
//
// One acceptor thread polls the listening socket and deals accepted
// connections to the loops round-robin.  Each loop parses frames/lines
// and calls OnRequest on its own thread; cheap control operations (Ping,
// quit) and admission failures (rate limit, full executor queue) are
// answered inline, everything else is dispatched to the bounded executor
// whose workers run the protocol handlers against the live service and
// complete the request through Connection::Respond.
//
// Graceful drain (Shutdown, also wired to SIGTERM by taggd):
//   1. stop accepting — the listening socket closes, new connects fail;
//   2. loops stop parsing new requests (SetDraining);
//   3. the executor runs its queue dry and joins its workers (every
//      acknowledged write was published by the call that made it);
//   4. loops wait until every reserved response slot has been written,
//      then stop and close the remaining connections.

#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "net/executor.h"
#include "net/socket.h"
#include "server/admin.h"
#include "server/protocol.h"

namespace tagg {
namespace server {

struct ServerOptions {
  /// 0 picks an ephemeral port; read it back with port() after Start.
  uint16_t port = 0;
  /// Event-loop threads (min 1).
  size_t num_loops = 2;
  /// Executor worker threads (min 1).
  size_t num_workers = 4;
  /// Bounded executor queue; full queue => SERVER_BUSY.
  size_t executor_queue = 256;
  /// Per-connection parse/backpressure knobs (pipeline cap, idle
  /// timeout, token-bucket rate limit, trace sampling).
  net::EventLoopOptions loop;
  /// How long Shutdown waits for reserved responses to reach sockets.
  std::chrono::milliseconds drain_timeout{5000};
  /// The HTTP introspection listener (second port).
  AdminOptions admin;
  /// >= 0 sets the process-wide slow-request threshold (microseconds;
  /// 0 disables); -1 leaves the TAGG_SLOW_REQUEST_US default alone.
  int64_t slow_request_micros = -1;
};

class Server {
 public:
  /// `state` must outlive the server; the catalog must not be mutated
  /// while the server runs.
  Server(ServerOptions options, ServingState state);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds the loopback listener, starts the loops, executor workers and
  /// the acceptor thread.
  Status Start();

  /// The bound port (useful with options.port == 0).
  uint16_t port() const { return port_; }

  /// The admin plane's bound port; 0 when the admin plane is disabled.
  uint16_t admin_port() const { return admin_ ? admin_->port() : 0; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// True once /quitz (or any other caller of the quit hook) asked for a
  /// graceful shutdown.  Polled by taggd's main loop.
  bool quit_requested() const {
    return quit_requested_.load(std::memory_order_acquire);
  }

  /// Graceful drain as documented above.  Idempotent; also runs from the
  /// destructor if the caller never did.
  void Shutdown();

  /// Open connections across all loops (tests, metrics).
  size_t num_connections() const;

 private:
  void AcceptLoop();
  void OnRequest(const std::shared_ptr<net::Connection>& conn,
                 net::Request&& req);
  void RespondBusy(const std::shared_ptr<net::Connection>& conn,
                   const net::Request& req, const Status& status);

  const ServerOptions options_;
  const ServingState state_;

  std::optional<net::Acceptor> acceptor_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_accepting_{false};

  std::unique_ptr<net::BoundedExecutor> executor_;
  std::vector<std::unique_ptr<net::EventLoop>> loops_;
  size_t next_loop_ = 0;

  std::unique_ptr<AdminPlane> admin_;
  /// Set FIRST in Shutdown so /healthz flips to 503 before the data
  /// listener closes.
  std::atomic<bool> draining_{false};
  std::atomic<bool> quit_requested_{false};
};

}  // namespace server
}  // namespace tagg
