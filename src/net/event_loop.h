// EventLoop: one edge-triggered epoll thread multiplexing N connections.
//
// The serving layer runs a small fixed set of these loops.  A loop given
// a listener at Start accepts on its own epoll set and places each
// accepted socket on one of its target loops round-robin; the socket
// stays there for its lifetime (no cross-loop migration, so all
// per-connection parse state is single-threaded).
//
// Responsibilities of the loop thread:
//   * accept pending connections when it owns a listener (registered
//     level-triggered, so an accept that fails is retried on the next
//     iteration);
//   * read until EAGAIN (edge-triggered contract), append to the
//     connection's input buffer, and split it into requests — binary
//     frames or text lines, auto-detected on the first byte;
//   * hand each request to the server's handler (which answers inline or
//     dispatches to the bounded executor);
//   * write queued responses, honoring EPOLLOUT for slow readers;
//   * enforce the per-connection pipeline cap and outbox watermark,
//     pausing reads (TCP backpressure) instead of buffering without bound;
//   * close idle connections past the configured timeout.
//
// Pipelining and ordering: a client may send many requests back to back;
// responses must come back in request order even though the executor
// completes them in any order.  Each parsed request reserves a slot in
// the connection's reorder buffer; Connection::Respond fills the slot
// from any thread, and the loop flushes the contiguous completed prefix.
// Effects are ordered too: the serial-dispatch queue on each connection
// guarantees its requests execute one at a time in program order (an
// insert is visible to the query pipelined right behind it), while
// different connections still run in parallel across the pool.
//
// Shutdown: CloseListener() closes the listener on the loop thread;
// SetDraining() stops parsing new requests (bytes already in flight stay
// queued); after the executor drains, WaitFlushed() lets the server wait
// for every reserved slot to reach the socket before Stop() closes the
// connections and exits the thread.

#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/socket.h"
#include "net/token_bucket.h"
#include "net/wire.h"
#include "obs/request_trace.h"

namespace tagg {
namespace net {

class EventLoop;

/// One parsed request, binary or text.
struct Request {
  uint64_t seq = 0;       // slot index in the connection's reorder buffer
  bool text = false;
  uint8_t opcode = 0;     // binary mode: a validated Opcode
  std::string payload;    // binary payload bytes, or the text line
  /// Stage timing opened by the parser (recv + decode recorded, the
  /// queue-wait stage start stamped).  timing.timed() is false on the
  /// unsampled fast path; timing.sampled() asks the handler for a full
  /// sub-span capture.  Trivially copyable, so Request stays usable in
  /// std::function closures.
  obs::RequestTiming timing;
};

/// Response bytes per connection — answered ones in the write buffer plus
/// answered-but-out-of-order ones in the reorder buffer — above which the
/// loop pauses that connection's reads.
constexpr size_t kOutboxHighWatermark = 8u << 20;

struct EventLoopOptions {
  size_t max_line_bytes = kDefaultMaxLineBytes;
  /// Requests parsed but not yet fully answered per connection; reads
  /// pause above this (the bytes back up into the kernel socket buffer).
  size_t max_pipeline = 128;
  /// 0 disables idle disconnects.
  std::chrono::milliseconds idle_timeout{0};
  /// Per-connection token bucket; rate <= 0 disables limiting.
  double rate_limit_per_sec = 0.0;
  double rate_limit_burst = 0.0;
  /// Server-side trace sampling: record every Nth request per loop in
  /// full (0 = only requests the client flags via a traced frame).
  size_t trace_sample_every = 0;
  /// Capacity of this loop's request-trace ring (rounded up to a power
  /// of two).
  size_t trace_ring_capacity = 256;
};

/// One /statz row: a point-in-time view of a connection's buffers and
/// limiter, readable from any thread.
struct ConnectionStatsRow {
  uint64_t id = 0;
  char mode = '?';            // 'B' binary, 'T' text, '?' undetected
  size_t pipeline_depth = 0;  // reserved-but-unflushed slots
  size_t queued_bytes = 0;    // filled responses waiting for order
  size_t outbox_bytes = 0;    // bytes sitting in the write buffer
  bool paused = false;        // reads paused for backpressure
  double rate_tokens = -1.0;  // token-bucket level; -1 = unlimited
  int64_t idle_ms = 0;        // since the last read or write
};

/// One client session owned by exactly one EventLoop.
class Connection : public std::enable_shared_from_this<Connection> {
 public:
  enum class Mode : uint8_t { kUnknown, kBinary, kText };

  uint64_t id() const { return id_; }
  Mode mode() const { return mode_.load(std::memory_order_relaxed); }

  /// Completes the request with seq `seq`; `bytes` is the fully encoded
  /// response (a binary frame or text lines).  Thread-safe; called by
  /// executor workers and by the loop thread itself.  Responses to a
  /// connection that has since closed are dropped.  A timed `timing`
  /// carries the request's finished stages and, for sampled requests,
  /// `subs` the captured sub-spans: the loop stamps the write stage when
  /// the bytes reach the socket and commits the record to its trace ring.
  void Respond(uint64_t seq, std::string bytes,
               const obs::RequestTiming& timing = {},
               std::unique_ptr<obs::SubSpanBuffer> subs = nullptr);

  /// Opaque per-connection protocol state for layered protocols (the
  /// admin plane's HTTP parser).  Loop-thread-only.
  std::shared_ptr<void>& user_state() { return user_state_; }

  /// The loop-thread-only rate limiter for this session.
  TokenBucket& rate_limiter() { return rate_limiter_; }

  /// Asks the loop to close this connection once every reserved slot has
  /// been answered and written (used after fatal protocol errors).
  void CloseAfterFlush() { close_after_flush_ = true; }

  // --- per-connection serial dispatch ---------------------------------
  // A pipelining client's requests must take effect in program order even
  // though they run on a thread pool: at most one of a connection's
  // requests is on the executor at a time; the rest wait here, bounded by
  // the pipeline cap (reads pause once max_pipeline slots are open).

  /// Appends `req` to this connection's serial queue.  Returns true if
  /// the caller must now submit a runner that drains SerialNext() (no
  /// request was in flight); false if an in-flight runner will pick it up.
  bool SerialEnqueue(Request req);

  /// Pops the next queued request, or clears the in-flight flag and
  /// returns nothing when the queue is dry.
  std::optional<Request> SerialNext();

  /// Undoes a SerialEnqueue that returned true when the runner could not
  /// be submitted (executor saturated) and hands the request back, so
  /// the caller can answer it.
  Request SerialAbort();

 private:
  friend class EventLoop;

  Connection(UniqueFd fd, uint64_t id, EventLoop* loop,
             const EventLoopOptions& options)
      : fd_(std::move(fd)),
        id_(id),
        loop_(loop),
        rate_limiter_(options.rate_limit_per_sec,
                      options.rate_limit_burst > 0
                          ? options.rate_limit_burst
                          : options.rate_limit_per_sec) {}

  UniqueFd fd_;
  const uint64_t id_;
  EventLoop* const loop_;

  // --- loop-thread-only state -----------------------------------------
  // (mode_, paused_, last_activity_ns_, outbox_bytes_ are written only by
  // the loop thread but read by /statz snapshots, hence relaxed atomics.)
  std::atomic<Mode> mode_{Mode::kUnknown};
  std::string inbuf_;
  std::string writebuf_;
  uint64_t next_seq_ = 0;
  std::atomic<bool> paused_{false};  // pipeline/outbox backpressure
  bool read_closed_ = false;         // peer sent EOF
  bool close_after_flush_ = false;
  std::atomic<int64_t> last_activity_ns_{0};
  std::atomic<size_t> outbox_bytes_{0};
  TokenBucket rate_limiter_;
  std::shared_ptr<void> user_state_;
  /// Cumulative response bytes appended to / drained from writebuf_,
  /// the write-completion ledger trace commits key off.
  uint64_t wb_enqueued_ = 0;
  uint64_t wb_written_ = 0;
  /// Traced responses waiting for their bytes to reach the socket.
  struct PendingCommit {
    uint64_t target_written = 0;  // commit once wb_written_ >= this
    uint64_t seq = 0;
    obs::RequestTiming timing;
    std::unique_ptr<obs::SubSpanBuffer> subs;
  };
  std::deque<PendingCommit> pending_commits_;

  // --- cross-thread reorder buffer ------------------------------------
  struct Slot {
    bool filled = false;
    std::string bytes;
    obs::RequestTiming timing;
    std::unique_ptr<obs::SubSpanBuffer> subs;
  };
  std::mutex mutex_;
  std::deque<Slot> slots_;  // slot i answers request base_seq_ + i
  uint64_t base_seq_ = 0;
  size_t queued_bytes_ = 0;  // filled-but-unflushed response bytes
  bool closed_ = false;      // set by the loop at close; drops late Responds

  // Serial dispatch state (also guarded by mutex_).  Invariant: when
  // task_running_ is false the queue is empty.
  std::deque<Request> pending_tasks_;
  bool task_running_ = false;
};

/// Called on the loop thread for every parsed request.  The handler must
/// eventually cause Connection::Respond(req.seq, ...) exactly once.
using RequestHandler =
    std::function<void(const std::shared_ptr<Connection>&, Request&&)>;

class EventLoop {
 public:
  EventLoop(EventLoopOptions options, RequestHandler handler);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Creates the epoll/eventfd pair and spawns the loop thread.  Given a
  /// `listener`, the loop also accepts on it and places each accepted
  /// socket on `targets` round-robin (this loop alone when empty); every
  /// other target must already be started.
  Status Start(std::optional<Acceptor> listener = std::nullopt,
               std::vector<EventLoop*> targets = {});

  /// Closes the listener on the loop thread and returns once it is
  /// closed, so new connects fail from then on.  No-op without one.
  void CloseListener();

  /// Stops parsing new requests; already-parsed ones keep completing.
  void SetDraining() { draining_.store(true, std::memory_order_release); }

  /// True once every reserved slot has been answered and written (or
  /// the timeout passed).  Call after the executor has drained.
  bool WaitFlushed(std::chrono::milliseconds timeout);

  /// Closes every connection and exits the loop thread.  Idempotent.
  void Stop();

  size_t num_connections() const {
    return num_connections_.load(std::memory_order_relaxed);
  }

  /// Point-in-time rows for every live connection on this loop, readable
  /// from any thread (the /statz backing store).
  std::vector<ConnectionStatsRow> SnapshotConnections() const;

  /// This loop's request-trace ring (valid between Start and Stop;
  /// registered with obs::RequestTraceRegistry::Global() for /tracez).
  const obs::RequestTraceRing* trace_ring() const {
    return trace_ring_.get();
  }

 private:
  friend class Connection;

  void Run();
  /// Accepts until the backlog is empty or an accept fails.
  void AcceptPending();
  /// Unregisters and closes the listener (loop thread).
  void DropListener();
  /// Adopts an accepted socket (thread-safe; called by the accepting loop).
  void AddConnection(UniqueFd fd);
  void ProcessPendingAdds();
  void ProcessReadyResponses();
  void ReadAndParse(const std::shared_ptr<Connection>& conn);
  void ParseBuffered(const std::shared_ptr<Connection>& conn);
  // FlushWrites and CloseConnection take the shared_ptr BY VALUE: callers
  // may pass a reference into conns_, and CloseConnection erases that map
  // node — a reference parameter would dangle mid-call.
  void FlushWrites(std::shared_ptr<Connection> conn);
  /// Stamps the write stage of traced responses whose bytes have fully
  /// reached the socket, applies the slow-request check, and records
  /// them into the trace ring.
  void CommitWrittenTraces(const std::shared_ptr<Connection>& conn);
  void SweepIdle();
  void CloseConnection(std::shared_ptr<Connection> conn);
  /// Queues `conn` for a flush pass and wakes the loop if needed
  /// (called from Connection::Respond on any thread).
  void NotifyResponseReady(uint64_t conn_id);
  void Wake();

  const EventLoopOptions options_;
  const RequestHandler handler_;

  UniqueFd epoll_fd_;
  UniqueFd wake_fd_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> draining_{false};

  std::atomic<size_t> num_connections_{0};
  /// Requests parsed whose response has not yet fully left the process
  /// (reserved slots) — the drain barrier WaitFlushed() polls.
  std::atomic<size_t> open_slots_{0};
  /// Response bytes sitting in write buffers.
  std::atomic<size_t> unwritten_bytes_{0};

  // Loop-thread-only.
  std::optional<Acceptor> listener_;
  std::vector<EventLoop*> accept_targets_;
  size_t next_target_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<Connection>> conns_;
  std::chrono::steady_clock::time_point last_idle_sweep_;
  /// Rolls over per parsed request for 1-in-N server-side sampling.
  uint64_t trace_counter_ = 0;
  /// Single-producer (this loop's thread) ring of completed traces.
  std::unique_ptr<obs::RequestTraceRing> trace_ring_;

  // Cross-thread queues, guarded by mutex_ (mutable: snapshots are
  // logically const reads).
  mutable std::mutex mutex_;
  std::vector<UniqueFd> pending_adds_;
  std::vector<uint64_t> ready_conn_ids_;
  /// CloseListener's handshake with the loop thread.
  std::atomic<bool> close_listener_{false};
  bool listening_ = false;
  std::condition_variable listener_closed_;
  /// Mirror of conns_ for cross-thread /statz snapshots; weak_ptrs so a
  /// snapshot never extends a closing connection's buffers.
  std::unordered_map<uint64_t, std::weak_ptr<Connection>> conn_registry_;

  static std::atomic<uint64_t> next_conn_id_;
};

}  // namespace net
}  // namespace tagg
