#include "net/event_loop.h"

#include <string.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>

#include "obs/metrics.h"
#include "util/logging.h"

namespace tagg {
namespace net {

namespace {

constexpr size_t kReadChunk = 16 * 1024;
constexpr int kEpollWaitMillis = 100;
/// epoll ids: 0 is the wake eventfd, this one the listener; connection
/// ids count up from 1.
constexpr uint64_t kListenerId = ~uint64_t{0};
constexpr auto kIdleSweepInterval = std::chrono::milliseconds(250);

obs::Counter& ConnectionsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_connections_total", "Client connections accepted");
  return c;
}

obs::Counter& AcceptErrorsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_server_accept_errors_total",
      "accept() failures (including injected faults)");
  return c;
}

obs::Gauge& ConnectionsActive() {
  static obs::Gauge& g = obs::MetricsRegistry::Global().GetGauge(
      "tagg_net_connections_active", "Client connections currently open");
  return g;
}

obs::Counter& BytesReadTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_bytes_read_total", "Bytes read from client sockets");
  return c;
}

obs::Counter& BytesWrittenTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_bytes_written_total", "Bytes written to client sockets");
  return c;
}

obs::Counter& ProtocolErrorsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_protocol_errors_total",
      "Connections closed for malformed frames or oversized lines");
  return c;
}

obs::Counter& IdleDisconnectsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_idle_disconnects_total",
      "Connections closed by the idle timeout");
  return c;
}

obs::Counter& IoErrorsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_io_errors_total",
      "Connections closed on a read/write error (injected faults included)");
  return c;
}

obs::Counter& ReadPausesTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_read_pauses_total",
      "Times a connection's reads were paused for pipeline/outbox "
      "backpressure");
  return c;
}

obs::Counter& TracesSampledTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_traces_sampled_total",
      "Requests recorded with a full span breakdown (client-flagged or "
      "1-in-N sampled)");
  return c;
}

obs::Counter& SlowRequestsTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_slow_requests_total",
      "Requests whose total exceeded the slow-request threshold");
  return c;
}

/// Deterministic 64-bit mix for server-generated trace ids; the constant
/// is the golden-ratio multiplier (splitmix64 finalizer family).
uint64_t MixTraceId(uint64_t conn_id, uint64_t seq) {
  uint64_t x = conn_id * 0x9E3779B97F4A7C15ull + seq;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return x | 1;  // never 0, which means "no trace"
}

}  // namespace

std::atomic<uint64_t> EventLoop::next_conn_id_{1};

// ---------------------------------------------------------------------------
// Connection
// ---------------------------------------------------------------------------

void Connection::Respond(uint64_t seq, std::string bytes,
                         const obs::RequestTiming& timing,
                         std::unique_ptr<obs::SubSpanBuffer> subs) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (closed_) return;
    if (seq < base_seq_) return;  // already flushed (cannot happen twice)
    const size_t idx = static_cast<size_t>(seq - base_seq_);
    if (idx >= slots_.size()) return;
    Slot& slot = slots_[idx];
    if (slot.filled) return;
    queued_bytes_ += bytes.size();
    slot.timing = timing;
    slot.timing.response_bytes = static_cast<uint32_t>(bytes.size());
    slot.subs = std::move(subs);
    slot.bytes = std::move(bytes);
    slot.filled = true;
  }
  loop_->NotifyResponseReady(id_);
}

bool Connection::SerialEnqueue(Request req) {
  std::lock_guard<std::mutex> guard(mutex_);
  pending_tasks_.push_back(std::move(req));
  if (task_running_) return false;
  task_running_ = true;
  return true;
}

std::optional<Request> Connection::SerialNext() {
  std::lock_guard<std::mutex> guard(mutex_);
  if (pending_tasks_.empty()) {
    task_running_ = false;
    return std::nullopt;
  }
  std::optional<Request> req(std::move(pending_tasks_.front()));
  pending_tasks_.pop_front();
  return req;
}

Request Connection::SerialAbort() {
  std::lock_guard<std::mutex> guard(mutex_);
  Request req = std::move(pending_tasks_.back());
  pending_tasks_.pop_back();
  task_running_ = false;
  return req;
}

// ---------------------------------------------------------------------------
// EventLoop lifecycle
// ---------------------------------------------------------------------------

EventLoop::EventLoop(EventLoopOptions options, RequestHandler handler)
    : options_(options), handler_(std::move(handler)) {}

EventLoop::~EventLoop() { Stop(); }

Status EventLoop::Start(std::optional<Acceptor> listener,
                        std::vector<EventLoop*> targets) {
  epoll_fd_ = UniqueFd(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll_fd_.valid()) {
    return Status::IOError(std::string("epoll_create1: ") + strerror(errno));
  }
  wake_fd_ = UniqueFd(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake_fd_.valid()) {
    return Status::IOError(std::string("eventfd: ") + strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = 0;  // id 0 = the wake eventfd
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, wake_fd_.get(), &ev) < 0) {
    return Status::IOError(std::string("epoll_ctl(wake): ") +
                           strerror(errno));
  }
  if (listener.has_value()) {
    // Level-triggered: a backlog an accept failure left behind fires
    // again on the next epoll_wait.
    ev.events = EPOLLIN;
    ev.data.u64 = kListenerId;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, listener->fd(), &ev) <
        0) {
      return Status::IOError(std::string("epoll_ctl(listener): ") +
                             strerror(errno));
    }
    listener_ = std::move(listener);
    accept_targets_ = std::move(targets);
    if (accept_targets_.empty()) accept_targets_.push_back(this);
    listening_ = true;
  }
  running_.store(true, std::memory_order_release);
  last_idle_sweep_ = std::chrono::steady_clock::now();
  trace_ring_.reset(new obs::RequestTraceRing(options_.trace_ring_capacity));
  obs::RequestTraceRegistry::Global().Register(trace_ring_.get());
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void EventLoop::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) {
    if (thread_.joinable()) thread_.join();
    return;
  }
  stop_requested_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) thread_.join();
  // The loop thread (the ring's only producer) is gone; take the ring
  // out of the global directory before freeing it.
  if (trace_ring_ != nullptr) {
    obs::RequestTraceRegistry::Global().Unregister(trace_ring_.get());
    trace_ring_.reset();
  }
}

void EventLoop::CloseListener() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!listening_) return;
  close_listener_.store(true, std::memory_order_release);
  Wake();
  listener_closed_.wait(lock, [this] { return !listening_; });
}

void EventLoop::DropListener() {
  if (!listener_.has_value()) return;
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, listener_->fd(), nullptr);
  listener_.reset();
  {
    std::lock_guard<std::mutex> guard(mutex_);
    listening_ = false;
  }
  listener_closed_.notify_all();
}

void EventLoop::AcceptPending() {
  for (;;) {
    Result<UniqueFd> accepted = listener_->Accept();
    if (!accepted.ok()) {
      if (!accepted.status().IsNotFound()) {
        AcceptErrorsTotal().Increment();
        TAGG_LOG(Warn) << "accept failed: " << accepted.status().ToString();
      }
      return;
    }
    accept_targets_[next_target_]->AddConnection(std::move(*accepted));
    next_target_ = (next_target_ + 1) % accept_targets_.size();
  }
}

void EventLoop::AddConnection(UniqueFd fd) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    pending_adds_.push_back(std::move(fd));
  }
  Wake();
}

void EventLoop::NotifyResponseReady(uint64_t conn_id) {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ready_conn_ids_.push_back(conn_id);
  }
  Wake();
}

void EventLoop::Wake() {
  if (!wake_fd_.valid()) return;
  const uint64_t one = 1;
  // A full eventfd counter already guarantees a wakeup; ignore EAGAIN.
  [[maybe_unused]] ssize_t n =
      ::write(wake_fd_.get(), &one, sizeof(one));
}

bool EventLoop::WaitFlushed(std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    if (open_slots_.load(std::memory_order_acquire) == 0 &&
        unwritten_bytes_.load(std::memory_order_acquire) == 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    Wake();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// ---------------------------------------------------------------------------
// Loop body
// ---------------------------------------------------------------------------

void EventLoop::Run() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_requested_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(epoll_fd_.get(), events, kMaxEvents, kEpollWaitMillis);
    if (n < 0 && errno != EINTR) {
      TAGG_LOG(Error) << "epoll_wait failed: " << strerror(errno);
      break;
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t id = events[i].data.u64;
      if (id == 0) {
        uint64_t drained = 0;
        while (::read(wake_fd_.get(), &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (id == kListenerId) {
        AcceptPending();
        continue;
      }
      const auto it = conns_.find(id);
      if (it == conns_.end()) continue;  // closed earlier this iteration
      std::shared_ptr<Connection> conn = it->second;
      if (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) {
        ReadAndParse(conn);
      }
      if (conns_.count(id) != 0 && (events[i].events & EPOLLOUT)) {
        FlushWrites(conn);
      }
    }
    if (close_listener_.load(std::memory_order_acquire)) DropListener();
    ProcessPendingAdds();
    ProcessReadyResponses();
    SweepIdle();
  }
  // Exit: close the listener and every connection (pending responses are
  // dropped; the server drains them through WaitFlushed before stopping
  // the loop).
  DropListener();
  std::vector<std::shared_ptr<Connection>> remaining;
  remaining.reserve(conns_.size());
  for (auto& [id, conn] : conns_) remaining.push_back(conn);
  for (const auto& conn : remaining) CloseConnection(conn);
}

void EventLoop::ProcessPendingAdds() {
  std::vector<UniqueFd> adds;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    adds.swap(pending_adds_);
  }
  for (UniqueFd& fd : adds) {
    const uint64_t id =
        next_conn_id_.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::shared_ptr<Connection>(
        new Connection(std::move(fd), id, this, options_));
    conn->last_activity_ns_.store(obs::TraceNowNs(),
                                  std::memory_order_relaxed);
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP;
    ev.data.u64 = id;
    if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, conn->fd_.get(), &ev) <
        0) {
      TAGG_LOG(Error) << "epoll_ctl(add conn): " << strerror(errno);
      continue;  // conn's UniqueFd closes the socket
    }
    conns_.emplace(id, conn);
    {
      std::lock_guard<std::mutex> guard(mutex_);
      conn_registry_.emplace(id, conn);
    }
    num_connections_.fetch_add(1, std::memory_order_relaxed);
    ConnectionsTotal().Increment();
    ConnectionsActive().Add(1);
    // The socket may already hold bytes (client sent with the SYN data or
    // raced the epoll registration) — the edge was consumed before ADD.
    ReadAndParse(conn);
  }
}

void EventLoop::ProcessReadyResponses() {
  std::vector<uint64_t> ready;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    ready.swap(ready_conn_ids_);
  }
  for (const uint64_t id : ready) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    FlushWrites(it->second);
  }
}

void EventLoop::ReadAndParse(const std::shared_ptr<Connection>& conn) {
  if (conn->paused_.load(std::memory_order_relaxed)) {
    return;  // backpressure: leave bytes in the kernel
  }
  conn->last_activity_ns_.store(obs::TraceNowNs(),
                                std::memory_order_relaxed);
  char chunk[kReadChunk];
  for (;;) {
    const IoResult io = ReadSome(conn->fd_.get(), chunk, sizeof(chunk));
    if (io.outcome == IoOutcome::kOk) {
      conn->inbuf_.append(chunk, io.n);
      BytesReadTotal().Increment(io.n);
      // Parse as we go so a pipelining client cannot force the input
      // buffer to hold more than one frame + one read chunk.
      ParseBuffered(conn);
      if (conn->paused_.load(std::memory_order_relaxed) ||
          conns_.count(conn->id()) == 0) {
        return;
      }
      continue;
    }
    if (io.outcome == IoOutcome::kWouldBlock) break;
    if (io.outcome == IoOutcome::kClosed) {
      conn->read_closed_ = true;
      break;
    }
    IoErrorsTotal().Increment();
    CloseConnection(conn);
    return;
  }
  ParseBuffered(conn);
  if (conns_.count(conn->id()) == 0) return;
  if (conn->read_closed_) {
    // Peer half-closed: finish in-flight work, then close on flush.
    conn->close_after_flush_ = true;
    FlushWrites(conn);
  }
}

void EventLoop::ParseBuffered(const std::shared_ptr<Connection>& conn) {
  if (conn->mode() == Connection::Mode::kUnknown) {
    if (conn->inbuf_.empty()) return;
    const uint8_t first = static_cast<uint8_t>(conn->inbuf_[0]);
    conn->mode_.store(first == kRequestMagic || first == kTracedRequestMagic
                          ? Connection::Mode::kBinary
                          : Connection::Mode::kText,
                      std::memory_order_relaxed);
  }
  while (!conn->paused_.load(std::memory_order_relaxed)) {
    if (draining_.load(std::memory_order_acquire)) return;
    // Backpressure: pause instead of reserving more slots once the
    // pipeline cap is reached or the answered bytes this client has not
    // read pass the outbox watermark.
    size_t in_flight;
    size_t queued_bytes;
    {
      std::lock_guard<std::mutex> guard(conn->mutex_);
      in_flight = conn->slots_.size();
      queued_bytes = conn->queued_bytes_;
    }
    if (in_flight >= options_.max_pipeline ||
        conn->writebuf_.size() + queued_bytes > kOutboxHighWatermark) {
      conn->paused_.store(true, std::memory_order_relaxed);
      ReadPausesTotal().Increment();
      return;
    }

    // Trace gate: one branch on the fast path.  A clock is read only
    // when this request could possibly be timed — the client flagged it
    // (0xC6 frame), server-side sampling is on, or the slow-request log
    // wants totals for every request.
    const bool client_traced =
        conn->mode() == Connection::Mode::kBinary && !conn->inbuf_.empty() &&
        static_cast<uint8_t>(conn->inbuf_[0]) == kTracedRequestMagic;
    const bool maybe_timed = client_traced ||
                             options_.trace_sample_every > 0 ||
                             obs::SlowRequestThresholdNs() > 0;
    int64_t parse_ns = 0;
    obs::RequestTiming timing;
    if (maybe_timed) {
      parse_ns = obs::TraceNowNs();
      // The record starts when the bytes arrived (the read that fed the
      // buffer); for requests queued behind others in one read burst the
      // recv stage includes their wait in the input buffer.
      int64_t arrived =
          conn->last_activity_ns_.load(std::memory_order_relaxed);
      if (arrived <= 0 || arrived > parse_ns) arrived = parse_ns;
      timing.start_ns = arrived;
      timing.stage_start_ns[obs::kStageRecv] = 0;
      timing.stage_ns[obs::kStageRecv] = parse_ns - arrived;
    }

    Request req;
    // Set when the input cannot be parsed: answered with this reply, then
    // the connection closes once it is on the wire.
    std::string protocol_error;
    if (conn->mode() == Connection::Mode::kBinary) {
      FrameHeader header;
      std::string_view payload;
      size_t consumed = 0;
      Status error;
      const FrameDecodeState state = TryDecodeFrame(
          conn->inbuf_, /*expect_request=*/true, kDefaultMaxPayloadBytes,
          &header, &payload, &consumed, &error);
      if (state == FrameDecodeState::kNeedMore) return;
      if (state == FrameDecodeState::kProtocolError) {
        protocol_error = EncodeErrorFrame(error);
      } else {
        req.text = false;
        req.opcode = header.opcode_or_status;
        req.payload.assign(payload);
        conn->inbuf_.erase(0, consumed);
        if (timing.timed()) {
          timing.trace_id = header.traced ? header.trace_id : 0;
          timing.request_bytes = static_cast<uint32_t>(consumed);
          timing.opcode = header.opcode_or_status;
          if (header.sampled()) timing.flags |= obs::kTraceRecordSampled;
        }
      }
    } else {
      const size_t nl = conn->inbuf_.find('\n');
      if (nl == std::string::npos) {
        if (conn->inbuf_.size() <= options_.max_line_bytes) return;
        protocol_error = "-ERR corruption: line exceeds " +
                         std::to_string(options_.max_line_bytes) +
                         " bytes\n";
      } else {
        std::string line = conn->inbuf_.substr(0, nl);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        conn->inbuf_.erase(0, nl + 1);
        req.text = true;
        req.payload = std::move(line);
        if (timing.timed()) {
          timing.request_bytes = static_cast<uint32_t>(nl + 1);
          timing.flags |= obs::kTraceRecordText;
        }
      }
    }

    // The one slot reservation: every parsed request, well-formed or not,
    // is answered exactly once.
    {
      std::lock_guard<std::mutex> guard(conn->mutex_);
      conn->slots_.emplace_back();
    }
    open_slots_.fetch_add(1, std::memory_order_acq_rel);
    req.seq = conn->next_seq_++;
    if (!protocol_error.empty()) {
      ProtocolErrorsTotal().Increment();
      conn->CloseAfterFlush();
      conn->inbuf_.clear();
      conn->Respond(req.seq, std::move(protocol_error));
      return;
    }
    if (timing.timed()) {
      // Server-side sampling: every Nth parsed request on this loop.
      if (!timing.sampled() && options_.trace_sample_every > 0 &&
          (trace_counter_++ % options_.trace_sample_every) == 0) {
        timing.flags |= obs::kTraceRecordSampled;
      }
      if (timing.trace_id == 0) {
        timing.trace_id = MixTraceId(conn->id(), req.seq);
      }
      const int64_t decode_end = obs::TraceNowNs();
      timing.stage_start_ns[obs::kStageDecode] = parse_ns - timing.start_ns;
      timing.stage_ns[obs::kStageDecode] = decode_end - parse_ns;
      // The queue-wait stage opens now; the handler closes it when the
      // request starts executing.
      timing.stage_start_ns[obs::kStageQueueWait] =
          decode_end - timing.start_ns;
      req.timing = timing;
    }
    handler_(conn, std::move(req));
    if (conns_.count(conn->id()) == 0) return;  // handler closed us
  }
}

void EventLoop::FlushWrites(std::shared_ptr<Connection> conn) {
  conn->last_activity_ns_.store(obs::TraceNowNs(),
                                std::memory_order_relaxed);
  // Move the contiguous completed prefix of the reorder buffer into the
  // loop-thread-only write buffer.
  size_t queued_after = 0;
  {
    std::lock_guard<std::mutex> guard(conn->mutex_);
    size_t released = 0;
    while (!conn->slots_.empty() && conn->slots_.front().filled) {
      Connection::Slot& slot = conn->slots_.front();
      conn->queued_bytes_ -= slot.bytes.size();
      unwritten_bytes_.fetch_add(slot.bytes.size(),
                                 std::memory_order_acq_rel);
      conn->writebuf_.append(slot.bytes);
      conn->wb_enqueued_ += slot.bytes.size();
      if (slot.timing.timed()) {
        // Open the write stage: from entering the write buffer until the
        // last byte of this response has left for the kernel.
        slot.timing.stage_start_ns[obs::kStageWrite] =
            obs::TraceNowNs() - slot.timing.start_ns;
        Connection::PendingCommit commit;
        commit.target_written = conn->wb_enqueued_;
        commit.seq = conn->base_seq_;
        commit.timing = slot.timing;
        commit.subs = std::move(slot.subs);
        conn->pending_commits_.push_back(std::move(commit));
      }
      conn->slots_.pop_front();
      ++conn->base_seq_;
      ++released;
    }
    if (released > 0) {
      open_slots_.fetch_sub(released, std::memory_order_acq_rel);
    }
    queued_after = conn->queued_bytes_ + conn->slots_.size();
  }

  while (!conn->writebuf_.empty()) {
    const IoResult io = WriteSome(conn->fd_.get(), conn->writebuf_.data(),
                                  conn->writebuf_.size());
    if (io.outcome == IoOutcome::kOk) {
      BytesWrittenTotal().Increment(io.n);
      unwritten_bytes_.fetch_sub(io.n, std::memory_order_acq_rel);
      conn->writebuf_.erase(0, io.n);
      conn->wb_written_ += io.n;
      continue;
    }
    if (io.outcome == IoOutcome::kWouldBlock) {
      conn->outbox_bytes_.store(conn->writebuf_.size(),
                                std::memory_order_relaxed);
      CommitWrittenTraces(conn);
      return;  // EPOLLOUT resumes
    }
    IoErrorsTotal().Increment();
    CloseConnection(conn);
    return;
  }
  conn->outbox_bytes_.store(0, std::memory_order_relaxed);
  CommitWrittenTraces(conn);

  if (queued_after == 0) {
    if (conn->close_after_flush_ || conn->read_closed_) {
      CloseConnection(conn);
      return;
    }
    if (conn->paused_.load(std::memory_order_relaxed)) {
      // Backpressure released: resume parsing buffered bytes and any the
      // kernel collected while we were not reading (the edge for those
      // may have fired during the pause).
      conn->paused_.store(false, std::memory_order_relaxed);
      ReadAndParse(conn);
    }
  }
}

void EventLoop::CommitWrittenTraces(const std::shared_ptr<Connection>& conn) {
  if (conn->pending_commits_.empty()) return;
  const int64_t now = obs::TraceNowNs();
  const int64_t slow_ns = obs::SlowRequestThresholdNs();
  while (!conn->pending_commits_.empty() &&
         conn->pending_commits_.front().target_written <=
             conn->wb_written_) {
    Connection::PendingCommit commit =
        std::move(conn->pending_commits_.front());
    conn->pending_commits_.pop_front();
    obs::RequestTiming& t = commit.timing;
    t.stage_ns[obs::kStageWrite] =
        now - t.start_ns - t.stage_start_ns[obs::kStageWrite];
    obs::RequestTraceRecord rec =
        obs::MakeRecord(t, conn->id(), commit.seq, commit.subs.get());
    if (slow_ns > 0 && rec.total_ns >= slow_ns) {
      rec.flags |= obs::kTraceRecordSlow;
      SlowRequestsTotal().Increment();
      TAGG_LOG(Warn) << "slow request ("
                     << rec.total_ns / 1000 << "us >= " << slow_ns / 1000
                     << "us threshold)\n" << obs::RenderRequestTrace(rec);
    }
    if (rec.sampled() || rec.slow()) {
      if (rec.sampled()) TracesSampledTotal().Increment();
      if (trace_ring_ != nullptr) trace_ring_->Record(rec);
    }
  }
}

void EventLoop::SweepIdle() {
  if (options_.idle_timeout.count() <= 0) return;
  const auto now = std::chrono::steady_clock::now();
  if (now - last_idle_sweep_ < kIdleSweepInterval) return;
  last_idle_sweep_ = now;
  const int64_t now_ns = obs::TraceNowNs();
  const int64_t idle_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          options_.idle_timeout)
          .count();
  std::vector<std::shared_ptr<Connection>> idle;
  for (const auto& [id, conn] : conns_) {
    if (now_ns - conn->last_activity_ns_.load(std::memory_order_relaxed) >=
        idle_ns) {
      idle.push_back(conn);
    }
  }
  for (const auto& conn : idle) {
    IdleDisconnectsTotal().Increment();
    CloseConnection(conn);
  }
}

std::vector<ConnectionStatsRow> EventLoop::SnapshotConnections() const {
  std::vector<std::shared_ptr<Connection>> live;
  {
    std::lock_guard<std::mutex> guard(mutex_);
    live.reserve(conn_registry_.size());
    for (const auto& [id, weak] : conn_registry_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) {
        live.push_back(std::move(conn));
      }
    }
  }
  const int64_t now_ns = obs::TraceNowNs();
  std::vector<ConnectionStatsRow> rows;
  rows.reserve(live.size());
  for (const auto& conn : live) {
    ConnectionStatsRow row;
    row.id = conn->id();
    switch (conn->mode()) {
      case Connection::Mode::kBinary:
        row.mode = 'B';
        break;
      case Connection::Mode::kText:
        row.mode = 'T';
        break;
      default:
        row.mode = '?';
    }
    {
      std::lock_guard<std::mutex> guard(conn->mutex_);
      if (conn->closed_) continue;
      row.pipeline_depth = conn->slots_.size();
      row.queued_bytes = conn->queued_bytes_;
    }
    row.outbox_bytes = conn->outbox_bytes_.load(std::memory_order_relaxed);
    row.paused = conn->paused_.load(std::memory_order_relaxed);
    row.rate_tokens =
        conn->rate_limiter_.unlimited() ? -1.0 : conn->rate_limiter_.tokens();
    row.idle_ms =
        (now_ns - conn->last_activity_ns_.load(std::memory_order_relaxed)) /
        1000000;
    if (row.idle_ms < 0) row.idle_ms = 0;
    rows.push_back(row);
  }
  std::sort(rows.begin(), rows.end(),
            [](const ConnectionStatsRow& a, const ConnectionStatsRow& b) {
              return a.id < b.id;
            });
  return rows;
}

void EventLoop::CloseConnection(std::shared_ptr<Connection> conn) {
  if (conns_.erase(conn->id()) == 0) return;  // already closed
  {
    std::lock_guard<std::mutex> guard(mutex_);
    conn_registry_.erase(conn->id());
  }
  size_t dropped_slots = 0;
  size_t dropped_bytes = 0;
  {
    std::lock_guard<std::mutex> guard(conn->mutex_);
    conn->closed_ = true;
    dropped_slots = conn->slots_.size();
    conn->slots_.clear();
    dropped_bytes = conn->writebuf_.size();
    conn->writebuf_.clear();
    conn->queued_bytes_ = 0;
  }
  conn->pending_commits_.clear();
  conn->outbox_bytes_.store(0, std::memory_order_relaxed);
  if (dropped_slots > 0) {
    open_slots_.fetch_sub(dropped_slots, std::memory_order_acq_rel);
  }
  if (dropped_bytes > 0) {
    unwritten_bytes_.fetch_sub(dropped_bytes, std::memory_order_acq_rel);
  }
  ::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, conn->fd_.get(), nullptr);
  conn->fd_.Reset();
  num_connections_.fetch_sub(1, std::memory_order_relaxed);
  ConnectionsActive().Add(-1);
}

}  // namespace net
}  // namespace tagg
