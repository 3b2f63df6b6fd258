#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "util/logging.h"
#include "util/str.h"

namespace tagg {
namespace server {

namespace {

/// How long Shutdown waits for reserved responses to reach sockets.
constexpr std::chrono::milliseconds kDrainTimeout{5000};

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

/// The requests the loop thread answers itself instead of queueing them
/// on the executor: Ping costs nothing, and text `quit`/`exit` must set
/// close-after-flush on the loop thread.
bool RunsInline(const net::Request& req) {
  if (!req.text) return req.opcode == static_cast<uint8_t>(net::Opcode::kPing);
  const std::string_view trimmed = Trim(req.payload);
  const std::string_view word = trimmed.substr(0, trimmed.find(' '));
  return EqualsIgnoreCase(word, "quit") || EqualsIgnoreCase(word, "exit");
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
  port_ = acceptor.port();

  executor_ = std::make_unique<net::BoundedExecutor>(
      std::max<size_t>(1, options_.num_workers), options_.executor_queue);

  const size_t num_loops = std::max<size_t>(1, options_.num_loops);
  std::vector<net::EventLoop*> targets;
  for (size_t i = 0; i < num_loops; ++i) {
    loops_.push_back(std::make_unique<net::EventLoop>(
        options_.loop,
        [this](const std::shared_ptr<net::Connection>& conn,
               net::Request&& req) { OnRequest(conn, std::move(req)); }));
    targets.push_back(loops_.back().get());
  }
  // The first loop accepts for all of them, so it starts last: the loops
  // it places sockets on are already running.
  for (size_t i = num_loops; i-- > 0;) {
    Status started = i == 0 ? loops_[0]->Start(std::move(acceptor), targets)
                            : loops_[i]->Start();
    if (!started.ok()) {
      loops_.clear();
      executor_.reset();
      return started;
    }
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
      for (auto& loop : loops_) loop->Stop();  // the accepting loop first
      loops_.clear();
      executor_.reset();
      return admin_started;
    }
  }

  running_.store(true, std::memory_order_release);
  TAGG_LOG(Info) << "taggd serving on 127.0.0.1:" << port_ << " ("
                 << loops_.size() << " loop(s), "
                 << std::max<size_t>(1, options_.num_workers)
                 << " worker(s), queue "
                 << executor_->queue_capacity() << ")";
  return Status::OK();
}

void Server::OnRequest(const std::shared_ptr<net::Connection>& conn,
                       net::Request&& req) {
  RequestsTotal().Increment();
  OpCounter(req.text ? 0 : req.opcode).Increment();

  // Admission: the token bucket is loop-thread-only, so it is checked
  // here, before the request can reach the executor.
  if (!conn->rate_limiter().TryAcquire()) {
    RateLimitedTotal().Increment();
    Complete(conn, std::move(req),
             Status::ResourceExhausted("RATE_LIMITED: slow down"));
    return;
  }
  if (RunsInline(req)) {
    Complete(conn, std::move(req));
    return;
  }

  // Everything else runs on the executor; a full queue is the signal to
  // shed load NOW, with a fast SERVER_BUSY the client can back off on.
  // Each connection's requests are chained through its serial queue so
  // pipelined effects land in program order (an insert is visible to the
  // query sent right behind it); one runner drains the chain inline.
  if (!conn->SerialEnqueue(std::move(req))) return;  // runner in flight
  Status submitted = executor_->TrySubmit([this, conn] {
    while (std::optional<net::Request> next = conn->SerialNext()) {
      obs::ScopedLatencyTimer timer(RequestSeconds());
      Complete(conn, std::move(*next));
    }
  });
  if (!submitted.ok()) {
    BusyTotal().Increment();
    Complete(conn, conn->SerialAbort(), std::move(submitted));
  }
}

void Server::Complete(const std::shared_ptr<net::Connection>& conn,
                      net::Request req, Status rejection) {
  obs::RequestTiming& timing = req.timing;
  const bool timed = timing.timed();
  if (timed) {
    const int64_t now = obs::TraceNowNs() - timing.start_ns;
    timing.stage_ns[obs::kStageQueueWait] =
        now - timing.stage_start_ns[obs::kStageQueueWait];
    timing.stage_start_ns[obs::kStageExecute] = now;
  }
  // A sampled binary request runs under a QueryProfile whose
  // EXPLAIN-level spans nest into the trace.
  std::optional<obs::QueryProfile> profile;
  int64_t profile_base = 0;
  if (timing.sampled() && !req.text) {
    profile.emplace();
    profile_base = obs::TraceNowNs() - timing.start_ns;
  }
  bool quit = false;  // only text quit/exit, which run on the loop thread
  Result<std::string> result =
      !rejection.ok() ? Result<std::string>(std::move(rejection))
      : req.text      ? ExecuteTextRequest(state_, req.payload, &quit)
                      : ExecuteBinaryRequest(state_, req.opcode, req.payload,
                                             profile ? &*profile : nullptr);
  if (profile) profile->Finish();
  std::unique_ptr<obs::SubSpanBuffer> subs;
  if (timed) {
    const int64_t exec_end = obs::TraceNowNs() - timing.start_ns;
    timing.stage_ns[obs::kStageExecute] =
        exec_end - timing.stage_start_ns[obs::kStageExecute];
    timing.stage_start_ns[obs::kStageEncode] = exec_end;
    timing.status = static_cast<uint8_t>(
        result.ok() ? StatusCode::kOk : result.status().code());
    if (profile) {
      subs = std::make_unique<obs::SubSpanBuffer>();
      obs::CollectSubSpans(profile->root(), profile_base, subs.get());
    }
  }
  std::string reply;
  if (req.text) {
    reply = result.ok() ? std::move(result).value()
                        : TextErrorLine(result.status());
  } else {
    reply = result.ok() ? net::EncodeResponseFrame(StatusCode::kOk, *result)
                        : net::EncodeErrorFrame(result.status());
  }
  if (timed) {
    timing.stage_ns[obs::kStageEncode] =
        obs::TraceNowNs() - timing.start_ns -
        timing.stage_start_ns[obs::kStageEncode];
  }
  if (quit) conn->CloseAfterFlush();
  conn->Respond(req.seq, std::move(reply), timing, std::move(subs));
}

void Server::Shutdown() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 0. Flip /healthz to 503 while everything below still serves: load
  //    balancers route away before in-flight requests are cut off.
  draining_.store(true, std::memory_order_release);

  // 1. No new connections: the first loop closes the listener.
  loops_.front()->CloseListener();

  // 2. No new requests; bytes already buffered stay unparsed.
  for (auto& loop : loops_) loop->SetDraining();

  // 3. Run the in-flight work dry.
  if (executor_ != nullptr) executor_->Drain();

  // 4. Let every answered request reach its socket, then tear down.
  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  for (auto& loop : loops_) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (!loop->WaitFlushed(std::max(left, std::chrono::milliseconds(0)))) {
      TAGG_LOG(Warn) << "drain timeout: closing with unwritten responses";
    }
  }
  for (auto& loop : loops_) loop->Stop();
  executor_.reset();

  // 5. The admin plane goes LAST: /healthz kept answering 503 (and
  //    /metrics kept scraping) through the whole drain above.  The
  //    stopped loops stay allocated until then, for /statz.
  if (admin_ != nullptr) {
    admin_->Shutdown();
    admin_.reset();
  }
  loops_.clear();
  TAGG_LOG(Info) << "taggd stopped";
}

size_t Server::num_connections() const {
  size_t n = 0;
  for (const auto& loop : loops_) n += loop->num_connections();
  return n;
}

}  // namespace server
}  // namespace tagg
