#include "obs/request_trace.h"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <string_view>

#include "obs/trace.h"

namespace tagg {
namespace obs {

namespace {

// Escapes a string for embedding in a JSON string literal.  Sub-span
// names come from Span names (identifiers), but annotations could in
// principle carry anything.
void AppendJsonEscaped(std::string* out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendF(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void AppendF(std::string* out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out->append(buf, std::min<size_t>(n, sizeof(buf) - 1));
}

std::atomic<int64_t>& SlowThresholdCell() {
  static std::atomic<int64_t> cell{0};  // disabled by default
  return cell;
}

void CollectSubSpansImpl(const SpanNode& node, int64_t base_ns, uint8_t depth,
                         SubSpanBuffer* out) {
  for (const auto& child : node.children) {
    if (out->n >= kMaxSubSpans) return;
    RequestSubSpan& span = out->spans[out->n++];
    size_t len = std::min(child->name.size(), kSubSpanNameBytes - 1);
    std::memcpy(span.name, child->name.data(), len);
    span.name[len] = '\0';
    span.start_ns = base_ns + child->start_ns;
    span.duration_ns = child->duration_ns < 0 ? 0 : child->duration_ns;
    span.depth = depth;
    CollectSubSpansImpl(*child, base_ns, depth + 1, out);
  }
}

}  // namespace

const char* RequestStageName(RequestStage stage) {
  switch (stage) {
    case kStageRecv:
      return "recv";
    case kStageDecode:
      return "decode";
    case kStageQueueWait:
      return "queue_wait";
    case kStageExecute:
      return "execute";
    case kStageEncode:
      return "encode";
    case kStageWrite:
      return "write";
    default:
      return "?";
  }
}

int64_t TraceNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SlowRequestThresholdNs() {
  return SlowThresholdCell().load(std::memory_order_relaxed);
}

void SetSlowRequestThresholdNs(int64_t ns) {
  SlowThresholdCell().store(ns < 0 ? 0 : ns, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// RequestTraceRing
// ---------------------------------------------------------------------------

RequestTraceRing::RequestTraceRing(size_t capacity) {
  size_t cap = 8;
  while (cap < capacity && cap < (size_t{1} << 20)) cap <<= 1;
  mask_ = cap - 1;
  slots_.reset(new Slot[cap]);
  for (size_t i = 0; i < cap; ++i) {
    slots_[i].version.store(0, std::memory_order_relaxed);
    for (size_t w = 0; w < kRecordWords; ++w) {
      slots_[i].words[w].store(0, std::memory_order_relaxed);
    }
  }
}

void RequestTraceRing::Record(const RequestTraceRecord& record) {
  uint64_t seq = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[seq & mask_];

  // Stage the record as words.  memcpy into a local word array keeps the
  // per-word stores free of aliasing concerns.
  uint64_t staged[kRecordWords] = {};
  std::memcpy(staged, &record, sizeof(record));

  // Seqlock write protocol: odd version -> data -> even version.  The
  // release fence before the data stores pairs with readers' acquire
  // fence after their data loads, so a reader that sees matching even
  // versions saw a complete record.
  uint64_t v = slot.version.load(std::memory_order_relaxed);
  slot.version.store(v + 1, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t w = 0; w < kRecordWords; ++w) {
    slot.words[w].store(staged[w], std::memory_order_relaxed);
  }
  slot.version.store(v + 2, std::memory_order_release);

  head_.store(seq + 1, std::memory_order_release);
}

std::vector<RequestTraceRecord> RequestTraceRing::Snapshot() const {
  const size_t cap = mask_ + 1;
  std::vector<RequestTraceRecord> out;
  out.reserve(cap);

  uint64_t head = head_.load(std::memory_order_acquire);
  uint64_t first = head > cap ? head - cap : 0;
  for (uint64_t seq = first; seq < head; ++seq) {
    const Slot& slot = slots_[seq & mask_];
    uint64_t staged[kRecordWords];
    bool ok = false;
    // Bounded retries: under heavy churn the writer may lap this slot
    // repeatedly; dropping it preserves non-blocking progress.
    for (int attempt = 0; attempt < 3 && !ok; ++attempt) {
      uint64_t v1 = slot.version.load(std::memory_order_acquire);
      if (v1 == 0 || (v1 & 1) != 0) continue;  // unwritten or mid-write
      for (size_t w = 0; w < kRecordWords; ++w) {
        staged[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      uint64_t v2 = slot.version.load(std::memory_order_relaxed);
      ok = (v1 == v2);
    }
    if (!ok) continue;
    RequestTraceRecord rec;
    std::memcpy(&rec, staged, sizeof(rec));
    out.push_back(rec);
  }
  return out;
}

// ---------------------------------------------------------------------------
// RequestTraceRegistry
// ---------------------------------------------------------------------------

RequestTraceRegistry& RequestTraceRegistry::Global() {
  static RequestTraceRegistry* registry = new RequestTraceRegistry();
  return *registry;
}

void RequestTraceRegistry::Register(RequestTraceRing* ring) {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.push_back(ring);
}

void RequestTraceRegistry::Unregister(RequestTraceRing* ring) {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.erase(std::remove(rings_.begin(), rings_.end(), ring), rings_.end());
}

std::vector<RequestTraceRecord> RequestTraceRegistry::SnapshotAll() const {
  std::vector<RequestTraceRecord> all;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const RequestTraceRing* ring : rings_) {
      std::vector<RequestTraceRecord> part = ring->Snapshot();
      all.insert(all.end(), part.begin(), part.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const RequestTraceRecord& a, const RequestTraceRecord& b) {
              return a.start_ns < b.start_ns;
            });
  return all;
}

// ---------------------------------------------------------------------------
// Capture + export
// ---------------------------------------------------------------------------

void CollectSubSpans(const SpanNode& root, int64_t base_ns,
                     SubSpanBuffer* out) {
  CollectSubSpansImpl(root, base_ns, 1, out);
}

RequestTraceRecord MakeRecord(const RequestTiming& timing, uint64_t conn_id,
                              uint64_t request_seq,
                              const SubSpanBuffer* subs) {
  RequestTraceRecord rec;
  rec.trace_id = timing.trace_id;
  rec.conn_id = conn_id;
  rec.request_seq = request_seq;
  rec.start_ns = timing.start_ns;
  std::memcpy(rec.stage_start_ns, timing.stage_start_ns,
              sizeof(rec.stage_start_ns));
  std::memcpy(rec.stage_ns, timing.stage_ns, sizeof(rec.stage_ns));
  rec.request_bytes = timing.request_bytes;
  rec.response_bytes = timing.response_bytes;
  rec.opcode = timing.opcode;
  rec.status = timing.status;
  rec.flags = timing.flags;
  // Total = end of the last completed stage.  Write is last when timed;
  // otherwise fall back to the furthest stage end seen.
  int64_t total = 0;
  for (size_t i = 0; i < kNumRequestStages; ++i) {
    if (rec.stage_ns[i] >= 0) {
      total = std::max(total, rec.stage_start_ns[i] + rec.stage_ns[i]);
    }
  }
  rec.total_ns = total;
  if (subs != nullptr) {
    rec.num_sub_spans = subs->n;
    std::memcpy(rec.sub_spans, subs->spans, sizeof(rec.sub_spans));
  }
  return rec;
}

std::string RenderRequestTrace(const RequestTraceRecord& record) {
  std::string out;
  AppendF(&out,
          "trace %016" PRIx64 " conn=%" PRIu64 " seq=%" PRIu64
          " opcode=%u status=%u%s%s req=%uB resp=%uB total=%.1fus\n",
          record.trace_id, record.conn_id, record.request_seq,
          unsigned{record.opcode}, unsigned{record.status},
          record.slow() ? " SLOW" : "", record.sampled() ? " sampled" : "",
          record.request_bytes, record.response_bytes,
          record.total_ns / 1e3);
  for (size_t i = 0; i < kNumRequestStages; ++i) {
    if (record.stage_ns[i] < 0) continue;
    double pct = record.total_ns > 0
                     ? 100.0 * record.stage_ns[i] / record.total_ns
                     : 0.0;
    AppendF(&out, "  %-10s %10.1fus  %5.1f%%\n",
            RequestStageName(static_cast<RequestStage>(i)),
            record.stage_ns[i] / 1e3, pct);
    if (i == kStageExecute) {
      for (size_t s = 0; s < record.num_sub_spans && s < kMaxSubSpans; ++s) {
        const RequestSubSpan& sub = record.sub_spans[s];
        AppendF(&out, "  %*s%-*s %10.1fus\n", 2 * sub.depth, "",
                10 - 2 * std::min<int>(sub.depth, 4),
                sub.name, sub.duration_ns / 1e3);
      }
    }
  }
  return out;
}

std::string RequestTracesToChromeJson(
    const std::vector<RequestTraceRecord>& records) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](std::string_view name, uint64_t tid, int64_t start_ns,
                  int64_t dur_ns, const std::string& args) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    AppendJsonEscaped(&out, name);
    AppendF(&out,
            "\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRIu64
            ",\"ts\":%.3f,\"dur\":%.3f",
            tid, start_ns / 1e3, dur_ns / 1e3);
    if (!args.empty()) {
      out += ",\"args\":{" + args + "}";
    }
    out += '}';
  };

  for (const RequestTraceRecord& rec : records) {
    char opname[32];
    std::snprintf(opname, sizeof(opname), "request/op%u",
                  unsigned{rec.opcode});
    std::string args;
    AppendF(&args,
            "\"trace_id\":\"%016" PRIx64 "\",\"seq\":%" PRIu64
            ",\"status\":%u,\"request_bytes\":%u,\"response_bytes\":%u",
            rec.trace_id, rec.request_seq, unsigned{rec.status},
            rec.request_bytes, rec.response_bytes);
    if (rec.slow()) args += ",\"slow\":true";
    emit(opname, rec.conn_id, rec.start_ns, rec.total_ns, args);
    for (size_t i = 0; i < kNumRequestStages; ++i) {
      if (rec.stage_ns[i] < 0) continue;
      emit(RequestStageName(static_cast<RequestStage>(i)), rec.conn_id,
           rec.start_ns + rec.stage_start_ns[i], rec.stage_ns[i], "");
    }
    for (size_t s = 0; s < rec.num_sub_spans && s < kMaxSubSpans; ++s) {
      const RequestSubSpan& sub = rec.sub_spans[s];
      emit(sub.name, rec.conn_id, rec.start_ns + sub.start_ns,
           sub.duration_ns, "");
    }
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace tagg
