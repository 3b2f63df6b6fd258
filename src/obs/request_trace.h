// Request-scoped tracing for the serving path: fixed-layout per-request
// span records collected into lock-free per-loop ring buffers.
//
// Every served request moves through six lifecycle stages —
//
//   recv -> decode -> queue_wait -> execute -> encode -> write
//
// — and a sampled request additionally carries a bounded set of
// sub-spans copied out of the handler's obs::QueryProfile tree (the
// EXPLAIN-level stages: payload decode, index lookup, the probe itself,
// response encode), so the whole tree nests under `execute`.
//
// Design constraints, in order:
//   * zero heap allocation on the unsampled path — timing lives in a
//     trivially-copyable RequestTiming embedded in the connection's
//     response slot; with the slow-log disabled and no sampling, the
//     per-request cost is one branch;
//   * the ring writer is the event-loop thread that owns the request
//     (single producer per ring) and never takes a lock: each slot is a
//     seqlock over relaxed atomic words, so /tracez snapshots from the
//     admin thread while loops keep recording;
//   * overwrite semantics: the ring keeps the most recent `capacity`
//     records; older ones are overwritten, never blocked on.
//
// The slow-request log shares the machinery: any request whose total
// exceeds the (flag/env-settable) threshold is rendered stage-by-stage
// to the process log and recorded in the ring even when unsampled.
//
// RequestTracesToChromeJson() exports snapshots in the Chrome trace
// event format ("traceEvents" with ph:"X" complete events), so a
// capture from /tracez?fmt=chrome opens directly in chrome://tracing or
// Perfetto.

#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

namespace tagg {
namespace obs {

struct SpanNode;

// ---------------------------------------------------------------------------
// Record layout
// ---------------------------------------------------------------------------

/// Lifecycle stages of one served request, in wire order.
enum RequestStage : uint8_t {
  kStageRecv = 0,    // bytes arrived -> frame parse started
  kStageDecode,      // frame split + payload copy
  kStageQueueWait,   // serial-queue + executor queue wait
  kStageExecute,     // handler ran the operation
  kStageEncode,      // response frame assembly
  kStageWrite,       // outbox queue + socket write
  kNumRequestStages,
};

const char* RequestStageName(RequestStage stage);

/// RequestTiming/record flag bits.
inline constexpr uint8_t kTraceRecordSampled = 0x01;
inline constexpr uint8_t kTraceRecordSlow = 0x02;
inline constexpr uint8_t kTraceRecordText = 0x04;

/// Bounded sub-span capture: enough for the EXPLAIN-level stages of one
/// aggregate query; deeper trees are truncated, never allocated for.
inline constexpr size_t kMaxSubSpans = 12;
inline constexpr size_t kSubSpanNameBytes = 24;

struct RequestSubSpan {
  char name[kSubSpanNameBytes];  // NUL-terminated, truncated to fit
  int64_t start_ns = 0;          // relative to the record's start_ns
  int64_t duration_ns = 0;
  uint8_t depth = 1;             // nesting depth under `execute`
};

/// Per-request stage timing, embedded (by value) in the connection's
/// response slot and in the parsed Request.  start_ns == 0 means the
/// request was not timed (tracing off and not sampled).
struct RequestTiming {
  uint64_t trace_id = 0;
  int64_t start_ns = 0;  // steady-clock ns at request arrival; 0 = untimed
  int64_t stage_start_ns[kNumRequestStages] = {};  // relative to start_ns
  int64_t stage_ns[kNumRequestStages] = {-1, -1, -1, -1, -1, -1};
  uint32_t request_bytes = 0;
  uint32_t response_bytes = 0;
  uint8_t opcode = 0;  // wire opcode; 0 for text commands
  uint8_t status = 0;  // StatusCode of the response
  uint8_t flags = 0;   // kTraceRecordSampled | kTraceRecordText

  bool timed() const { return start_ns != 0; }
  bool sampled() const { return (flags & kTraceRecordSampled) != 0; }
};

/// Sub-span sidecar, heap-allocated only for sampled requests.
struct SubSpanBuffer {
  uint8_t n = 0;
  RequestSubSpan spans[kMaxSubSpans];
};

/// One completed request trace: the timing plus identity and sub-spans.
/// Trivially copyable by design — ring slots publish it word-by-word.
struct RequestTraceRecord {
  uint64_t trace_id = 0;
  uint64_t conn_id = 0;
  uint64_t request_seq = 0;
  int64_t start_ns = 0;
  int64_t stage_start_ns[kNumRequestStages] = {};
  int64_t stage_ns[kNumRequestStages] = {-1, -1, -1, -1, -1, -1};
  int64_t total_ns = 0;
  uint32_t request_bytes = 0;
  uint32_t response_bytes = 0;
  uint8_t opcode = 0;
  uint8_t status = 0;
  uint8_t flags = 0;
  uint8_t num_sub_spans = 0;
  RequestSubSpan sub_spans[kMaxSubSpans] = {};

  bool sampled() const { return (flags & kTraceRecordSampled) != 0; }
  bool slow() const { return (flags & kTraceRecordSlow) != 0; }
};

static_assert(std::is_trivially_copyable_v<RequestTraceRecord>,
              "ring slots copy records word-by-word");

/// Steady-clock nanoseconds (the trace time base; comparable across
/// threads within one process).
int64_t TraceNowNs();

// ---------------------------------------------------------------------------
// Slow-request threshold
// ---------------------------------------------------------------------------

/// Threshold above which a request is logged stage-by-stage and force-
/// recorded.  0 (the initial value) disables the slow log; taggd sets it
/// from --slow-request-us or TAGG_SLOW_REQUEST_US.
int64_t SlowRequestThresholdNs();
void SetSlowRequestThresholdNs(int64_t ns);

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// Fixed-capacity overwrite ring of RequestTraceRecords.  One producer
/// (the owning event-loop thread); any number of concurrent snapshot
/// readers.  Each slot is a seqlock: the writer bumps the slot version
/// to odd, stores the record as relaxed atomic words, then publishes the
/// even version; a reader that observes a version change mid-copy
/// discards the slot instead of blocking the writer.
class RequestTraceRing {
 public:
  /// `capacity` is rounded up to a power of two (min 8).
  explicit RequestTraceRing(size_t capacity = 256);

  RequestTraceRing(const RequestTraceRing&) = delete;
  RequestTraceRing& operator=(const RequestTraceRing&) = delete;

  /// Records one trace, overwriting the oldest slot when full.  Single
  /// producer; lock-free and allocation-free.
  void Record(const RequestTraceRecord& record);

  /// Copies out every consistent record, oldest first.  Slots being
  /// written concurrently are skipped (bounded retries), so a snapshot
  /// under churn returns at most capacity() records and never blocks
  /// the producer.
  std::vector<RequestTraceRecord> Snapshot() const;

  size_t capacity() const { return mask_ + 1; }
  /// Total records ever written (monotonic; `recorded() - capacity()`
  /// records have been overwritten).
  uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }

 private:
  static constexpr size_t kRecordWords =
      (sizeof(RequestTraceRecord) + sizeof(uint64_t) - 1) / sizeof(uint64_t);

  struct Slot {
    std::atomic<uint64_t> version{0};  // 0 = never written; odd = writing
    std::atomic<uint64_t> words[kRecordWords];
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_;
  std::atomic<uint64_t> head_{0};
};

/// Process-wide directory of live trace rings (one per event loop), so
/// the admin plane and exporters can snapshot every loop's recent
/// requests without knowing the serving topology.
class RequestTraceRegistry {
 public:
  static RequestTraceRegistry& Global();

  void Register(RequestTraceRing* ring);
  void Unregister(RequestTraceRing* ring);

  /// Snapshot of every registered ring, merged and sorted by start time.
  std::vector<RequestTraceRecord> SnapshotAll() const;

 private:
  mutable std::mutex mutex_;
  std::vector<RequestTraceRing*> rings_;
};

// ---------------------------------------------------------------------------
// Capture + export helpers
// ---------------------------------------------------------------------------

/// Copies the children of `root` (an execute-scope QueryProfile tree)
/// into `out`, depth-first, bounded by kMaxSubSpans.  `base_ns` is the
/// profile origin relative to the record's start_ns.
void CollectSubSpans(const SpanNode& root, int64_t base_ns,
                     SubSpanBuffer* out);

/// Builds the final record from a completed timing + optional sub-spans.
RequestTraceRecord MakeRecord(const RequestTiming& timing, uint64_t conn_id,
                              uint64_t request_seq, const SubSpanBuffer* subs);

/// One-line-per-stage human rendering (the slow log and /tracez format).
std::string RenderRequestTrace(const RequestTraceRecord& record);

/// Chrome trace event format: {"displayTimeUnit":"ms","traceEvents":[...]}
/// with one ph:"X" complete event per request, stage, and sub-span.
/// Opens in chrome://tracing and Perfetto.
std::string RequestTracesToChromeJson(
    const std::vector<RequestTraceRecord>& records);

}  // namespace obs
}  // namespace tagg
