// Server: the network serving layer tying the pieces together.
//
//   N event loops ──▶ bounded executor ──▶ live service
//   (accept, epoll,     (backpressure)       (indexes)
//    parse)
//
// The first loop owns the listening socket and deals accepted
// connections to all loops round-robin.  Each loop parses frames/lines
// and calls OnRequest on its own thread.  Every request then completes
// through Complete: cheap control operations (Ping, text quit) and
// admission failures (rate limit, full executor queue) on the loop
// thread, everything else on an executor worker.
//
// Graceful drain (Shutdown, also wired to SIGTERM by taggd):
//   0. /healthz flips to 503;
//   1. stop accepting — the first loop closes the listening socket, new
//      connects fail;
//   2. loops stop parsing new requests (SetDraining);
//   3. the executor runs its queue dry and joins its workers (every
//      acknowledged write was published by the call that made it);
//   4. loops wait until every reserved response slot has been written,
//      then stop and close the remaining connections;
//   5. the admin plane goes last.

#pragma once

#include <atomic>
#include <memory>
#include <vector>

#include "net/event_loop.h"
#include "net/executor.h"
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
  /// The HTTP introspection listener (second port).
  AdminOptions admin;
  /// >= 0 sets the process-wide slow-request threshold (microseconds;
  /// 0 disables); -1 leaves the process-wide value alone.
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

  /// Binds the loopback listener, starts the executor workers, the loops
  /// (the first one accepting) and the admin plane.
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
  void OnRequest(const std::shared_ptr<net::Connection>& conn,
                 net::Request&& req);
  /// The one way a data-plane request is answered: runs it (or takes
  /// `rejection` as its outcome), stamps the remaining stages when
  /// timed, frames the reply and responds.
  void Complete(const std::shared_ptr<net::Connection>& conn,
                net::Request req, Status rejection = Status::OK());

  const ServerOptions options_;
  const ServingState state_;

  uint16_t port_ = 0;
  std::atomic<bool> running_{false};

  std::unique_ptr<net::BoundedExecutor> executor_;
  std::vector<std::unique_ptr<net::EventLoop>> loops_;

  std::unique_ptr<AdminPlane> admin_;
  /// Set FIRST in Shutdown so /healthz flips to 503 before the data
  /// listener closes.
  std::atomic<bool> draining_{false};
  std::atomic<bool> quit_requested_{false};
};

}  // namespace server
}  // namespace tagg
