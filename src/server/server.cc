#include "server/server.h"

#include <poll.h>

#include <algorithm>
#include <utility>

#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "util/logging.h"
#include "util/str.h"

namespace tagg {
namespace server {

namespace {

constexpr int kAcceptPollMillis = 100;

obs::Counter& RequestsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_server_requests_total", "Requests parsed off client sockets");
  return c;
}

obs::Counter& BusyTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_server_busy_total",
      "Requests rejected with SERVER_BUSY (executor queue full)");
  return c;
}

obs::Counter& RateLimitedTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_server_rate_limited_total",
      "Requests rejected by the per-connection token bucket");
  return c;
}

obs::Counter& AcceptErrorsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_server_accept_errors_total",
      "accept() failures (including injected faults)");
  return c;
}

obs::Histogram& RequestSeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tagg_server_request_seconds",
      "Handler latency from executor pickup to response encode");
  return h;
}

/// Per-op counters, indexed by the wire opcode (text commands map onto
/// the same families; unknown text commands land on "text").
obs::Counter& OpCounter(uint8_t opcode) {
  static obs::Counter* ops[] = {
      &obs::MetricsRegistry::Global().GetCounter(
          "tagg_server_op_text_total", "Text-mode commands handled"),
      &obs::MetricsRegistry::Global().GetCounter(
          "tagg_server_op_ping_total", "Ping ops handled"),
      &obs::MetricsRegistry::Global().GetCounter(
          "tagg_server_op_insert_total", "Insert ops handled"),
      &obs::MetricsRegistry::Global().GetCounter(
          "tagg_server_op_insert_batch_total", "InsertBatch ops handled"),
      &obs::MetricsRegistry::Global().GetCounter(
          "tagg_server_op_flush_total", "Flush ops handled"),
      &obs::MetricsRegistry::Global().GetCounter(
          "tagg_server_op_aggregate_at_total", "AggregateAt ops handled"),
      &obs::MetricsRegistry::Global().GetCounter(
          "tagg_server_op_aggregate_over_total",
          "AggregateOver ops handled"),
      &obs::MetricsRegistry::Global().GetCounter(
          "tagg_server_op_metrics_total", "Metrics ops handled"),
  };
  constexpr size_t kOps = sizeof(ops) / sizeof(ops[0]);
  return *ops[opcode < kOps ? opcode : 0];
}

/// First word of a text line, lowercased comparison target for the
/// commands the loop thread answers inline.
std::string_view FirstWord(std::string_view line) {
  const std::string_view trimmed = Trim(line);
  const size_t space = trimmed.find(' ');
  return space == std::string_view::npos ? trimmed
                                         : trimmed.substr(0, space);
}

}  // namespace

Server::Server(ServerOptions options, ServingState state)
    : options_(std::move(options)), state_(state) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("server already started");
  }
  if (options_.slow_request_micros >= 0) {
    obs::SetSlowRequestThresholdNs(options_.slow_request_micros * 1000);
  }
  TAGG_ASSIGN_OR_RETURN(net::Acceptor acceptor,
                        net::Acceptor::Listen(options_.port));
  acceptor_.emplace(std::move(acceptor));
  port_ = acceptor_->port();

  executor_ = std::make_unique<net::BoundedExecutor>(
      std::max<size_t>(1, options_.num_workers), options_.executor_queue);

  const size_t num_loops = std::max<size_t>(1, options_.num_loops);
  loops_.reserve(num_loops);
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<net::EventLoop>(
        options_.loop,
        [this](const std::shared_ptr<net::Connection>& conn,
               net::Request&& req) { OnRequest(conn, std::move(req)); });
    Status started = loop->Start();
    if (!started.ok()) {
      for (auto& running : loops_) running->Stop();
      loops_.clear();
      executor_.reset();
      acceptor_.reset();
      return started;
    }
    loops_.push_back(std::move(loop));
  }

  if (options_.admin.enabled) {
    AdminHooks hooks;
    hooks.metrics_text = [] { return MetricsExpositionText(); };
    hooks.draining = [this] {
      return draining_.load(std::memory_order_acquire);
    };
    hooks.statz = [this] {
      std::vector<net::ConnectionStatsRow> rows;
      for (const auto& loop : loops_) {
        std::vector<net::ConnectionStatsRow> loop_rows =
            loop->SnapshotConnections();
        rows.insert(rows.end(), loop_rows.begin(), loop_rows.end());
      }
      return rows;
    };
    if (state_.shards != nullptr) {
      hooks.extra_statz = [this] {
        return state_.shards->map().ToString() + "\n" +
               state_.shards->Stats().ToString();
      };
    }
    hooks.quit = [this] {
      quit_requested_.store(true, std::memory_order_release);
    };
    admin_ = std::make_unique<AdminPlane>(options_.admin, std::move(hooks));
    Status admin_started = admin_->Start();
    if (!admin_started.ok()) {
      admin_.reset();
      for (auto& running : loops_) running->Stop();
      loops_.clear();
      executor_.reset();
      acceptor_.reset();
      return admin_started;
    }
  }

  stop_accepting_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  TAGG_LOG(Info) << "taggd serving on 127.0.0.1:" << port_ << " ("
                 << loops_.size() << " loop(s), "
                 << std::max<size_t>(1, options_.num_workers)
                 << " worker(s), queue "
                 << executor_->queue_capacity() << ")";
  return Status::OK();
}

void Server::AcceptLoop() {
  while (!stop_accepting_.load(std::memory_order_acquire)) {
    struct pollfd pfd = {acceptor_->fd(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kAcceptPollMillis);
    if (ready <= 0) continue;
    // Edge drain: accept until the backlog is empty.
    while (true) {
      Result<net::UniqueFd> accepted = acceptor_->Accept();
      if (!accepted.ok()) {
        if (!accepted.status().IsNotFound()) {
          AcceptErrorsTotal().Increment();
          TAGG_LOG(Warn) << "accept failed: "
                         << accepted.status().ToString();
        }
        break;
      }
      loops_[next_loop_]->AddConnection(std::move(*accepted));
      next_loop_ = (next_loop_ + 1) % loops_.size();
    }
  }
}

void Server::RespondBusy(const std::shared_ptr<net::Connection>& conn,
                         const net::Request& req, const Status& status) {
  conn->Respond(req.seq, req.text ? TextErrorLine(status)
                                  : net::EncodeErrorFrame(status));
}

void Server::OnRequest(const std::shared_ptr<net::Connection>& conn,
                       net::Request&& req) {
  RequestsTotal().Increment();
  OpCounter(req.text ? 0 : req.opcode).Increment();

  // Admission: the token bucket is loop-thread-only, so it is checked
  // here, before the request can reach the executor.
  if (!conn->rate_limiter().TryAcquire()) {
    RateLimitedTotal().Increment();
    RespondBusy(conn, req,
                Status::ResourceExhausted("RATE_LIMITED: slow down"));
    return;
  }

  // Control operations answered inline on the loop thread: Ping costs
  // nothing, and text `quit` must set close-after-flush loop-side.
  if (!req.text && req.opcode == static_cast<uint8_t>(net::Opcode::kPing)) {
    std::string reply = net::EncodeResponseFrame(StatusCode::kOk, "");
    if (req.timing.timed()) {
      obs::RequestTiming timing = req.timing;
      const int64_t now = obs::TraceNowNs() - timing.start_ns;
      // Inline on the loop thread: no queue wait, instant execute/encode.
      timing.stage_ns[obs::kStageQueueWait] = 0;
      timing.stage_start_ns[obs::kStageExecute] = now;
      timing.stage_ns[obs::kStageExecute] = 0;
      timing.stage_start_ns[obs::kStageEncode] = now;
      timing.stage_ns[obs::kStageEncode] = 0;
      timing.status = static_cast<uint8_t>(StatusCode::kOk);
      conn->Respond(req.seq, std::move(reply), timing, nullptr);
    } else {
      conn->Respond(req.seq, std::move(reply));
    }
    return;
  }
  if (req.text) {
    const std::string_view word = FirstWord(req.payload);
    if (EqualsIgnoreCase(word, "quit") || EqualsIgnoreCase(word, "exit")) {
      bool quit = false;
      std::string reply = HandleTextRequest(state_, req.payload, &quit);
      if (quit) conn->CloseAfterFlush();
      conn->Respond(req.seq, std::move(reply));
      return;
    }
  }

  // Everything else runs on the executor; a full queue is the signal to
  // shed load NOW, with a fast SERVER_BUSY the client can back off on.
  // Each connection's requests are chained through its serial queue so
  // pipelined effects land in program order (an insert is visible to the
  // query sent right behind it); one runner drains the chain inline.
  const uint64_t seq = req.seq;
  const bool serial_head =
      conn->SerialEnqueue([this, conn, req = std::move(req)]() mutable {
        obs::ScopedLatencyTimer timer(RequestSeconds());
        obs::RequestTiming timing = req.timing;
        const bool timed = timing.timed();
        // Heap-allocated only on the sampled path, inside the lambda
        // body (the callable itself must stay copyable).
        std::unique_ptr<obs::SubSpanBuffer> subs;
        if (timed) {
          const int64_t now = obs::TraceNowNs() - timing.start_ns;
          timing.stage_ns[obs::kStageQueueWait] =
              now - timing.stage_start_ns[obs::kStageQueueWait];
          timing.stage_start_ns[obs::kStageExecute] = now;
        }
        std::string reply;
        if (req.text) {
          bool quit = false;  // quit was intercepted on the loop thread
          reply = HandleTextRequest(state_, req.payload, &quit);
          if (timed) {
            // Text replies render inside the handler; encode is folded
            // into execute and measures zero on its own.
            const int64_t now = obs::TraceNowNs() - timing.start_ns;
            timing.stage_ns[obs::kStageExecute] =
                now - timing.stage_start_ns[obs::kStageExecute];
            timing.stage_start_ns[obs::kStageEncode] = now;
            timing.stage_ns[obs::kStageEncode] = 0;
            timing.status = static_cast<uint8_t>(StatusCode::kOk);
          }
        } else if (!timed) {
          reply = HandleBinaryRequest(state_, req.opcode, req.payload);
        } else {
          // Timed binary path: run the handler unframed so the encode
          // stage is measured separately, and — when sampled — under a
          // QueryProfile whose EXPLAIN-level spans nest into the trace.
          obs::QueryProfile profile;
          const int64_t profile_base =
              obs::TraceNowNs() - timing.start_ns;
          Result<std::string> result = ExecuteBinaryRequest(
              state_, req.opcode, req.payload,
              timing.sampled() ? &profile : nullptr);
          profile.Finish();
          const int64_t exec_end = obs::TraceNowNs() - timing.start_ns;
          timing.stage_ns[obs::kStageExecute] =
              exec_end - timing.stage_start_ns[obs::kStageExecute];
          if (timing.sampled()) {
            subs = std::make_unique<obs::SubSpanBuffer>();
            obs::CollectSubSpans(profile.root(), profile_base, subs.get());
          }
          timing.stage_start_ns[obs::kStageEncode] = exec_end;
          if (result.ok()) {
            timing.status = static_cast<uint8_t>(StatusCode::kOk);
            reply = net::EncodeResponseFrame(StatusCode::kOk, *result);
          } else {
            timing.status = static_cast<uint8_t>(result.status().code());
            reply = net::EncodeErrorFrame(result.status());
          }
          timing.stage_ns[obs::kStageEncode] =
              obs::TraceNowNs() - timing.start_ns -
              timing.stage_start_ns[obs::kStageEncode];
        }
        if (timed) {
          conn->Respond(req.seq, std::move(reply), timing,
                        std::move(subs));
        } else {
          conn->Respond(req.seq, std::move(reply));
        }
      });
  if (!serial_head) return;  // the in-flight runner will pick it up
  Status submitted = executor_->TrySubmit([conn] {
    for (std::function<void()> task = conn->SerialNext(); task;
         task = conn->SerialNext()) {
      task();
    }
  });
  if (!submitted.ok()) {
    conn->SerialAbort();
    BusyTotal().Increment();
    net::Request busy_req;
    busy_req.seq = seq;
    busy_req.text = conn->mode() == net::Connection::Mode::kText;
    RespondBusy(conn, busy_req, submitted);
  }
}

void Server::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 0. Flip /healthz to 503 while everything below still serves: load
  //    balancers route away before in-flight requests are cut off.
  draining_.store(true, std::memory_order_release);

  // 1. No new connections.
  stop_accepting_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  acceptor_.reset();

  // 2. No new requests; bytes already buffered stay unparsed.
  for (auto& loop : loops_) loop->SetDraining();

  // 3. Run the in-flight work dry.
  if (executor_ != nullptr) executor_->Drain();

  // 4. Let every answered request reach its socket, then tear down.
  const auto deadline =
      std::chrono::steady_clock::now() + options_.drain_timeout;
  for (auto& loop : loops_) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (!loop->WaitFlushed(std::max(left, std::chrono::milliseconds(0)))) {
      TAGG_LOG(Warn) << "drain timeout: closing with unwritten responses";
    }
  }
  for (auto& loop : loops_) loop->Stop();
  loops_.clear();
  executor_.reset();

  // 5. The admin plane goes LAST: /healthz kept answering 503 (and
  //    /metrics kept scraping) through the whole drain above.
  if (admin_ != nullptr) {
    admin_->Shutdown();
    admin_.reset();
  }
  TAGG_LOG(Info) << "taggd stopped";
}

size_t Server::num_connections() const {
  size_t n = 0;
  for (const auto& loop : loops_) n += loop->num_connections();
  return n;
}

}  // namespace server
}  // namespace tagg
