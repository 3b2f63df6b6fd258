// serve-point and serve-range: a closed-loop client on one thread drives
// an in-process taggd stack (server::Server over a ShardedLiveService)
// over loopback TCP.
//
// serve-point: 1 shard; two connections, each keeping 8 requests in
// flight (7 AggregateAt at seeded instants, 1 Insert).
// serve-range: the same data re-cut to 4 shards; connection A keeps 4
// coalesced COUNT AggregateOver in flight, connection B loops
// InsertBatch(256) + Flush.
//
// The untraced run reports the end-to-end metrics.  The traced run adds
// sampled 0xC6 frames, client spans, and direct calls into the server,
// shard and live layers that replay the same seeded requests.

#include <poll.h>
#include <sys/socket.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/workload.h"
#include "live/service.h"
#include "net/socket.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "server/protocol.h"
#include "server/server.h"
#include "shard/sharded_service.h"
#include "temporal/catalog.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tagg;

constexpr size_t kTuples = size_t{1} << 19;
constexpr Instant kLifespan = 1'000'000;
constexpr size_t kPointDepth = 8;  // per connection; the 8th is an Insert
constexpr size_t kRangeDepth = 4;
constexpr size_t kIngestBatch = 256;
constexpr size_t kRangeShards = 4;
constexpr uint8_t kCount = static_cast<uint8_t>(AggregateKind::kCount);
constexpr uint8_t kSum = static_cast<uint8_t>(AggregateKind::kSum);
constexpr uint32_t kValueAttr = 0;  // events(value double)
constexpr int kSetupReps = 3;
constexpr double kWarmupSeconds = 2.0;
constexpr int64_t kSliceNs = 1'000'000'000;
// How far the layers' self times may sum from the untraced p50 (the
// tracing overhead plus drift between the interleaved phases).
constexpr double kSelfTolerancePct = 10.0;

struct PointQuery {
  Instant t;
  uint8_t aggregate;  // COUNT or SUM(value)
};

struct Window {
  Instant lo;
  Instant hi;
};

/// Seeded inputs, all generated before any timer starts.
struct ServeInputs {
  std::shared_ptr<Relation> relation;  // events(value double)
  std::vector<OracleTuple> base;       // the same tuples, for the oracle
  std::vector<PointQuery> points;
  std::vector<OracleTuple> inserts;   // short-lived single inserts
  std::vector<OracleTuple> ingest;    // kIngestBatch-sized batches
  // Window draws; concrete windows need the shard map (after setup).
  std::vector<std::pair<int64_t, double>> window_draws;  // width, position
  std::vector<PointQuery> check_points;
  std::vector<std::pair<int64_t, double>> check_window_draws;
};

OracleTuple ShortTuple(SeedRng& rng) {
  const Instant start = rng.Uniform(0, kLifespan - 1001);
  const Instant end = start + rng.Uniform(1, 1000) - 1;
  return {Period(start, end), static_cast<double>(rng.Uniform(30000, 100000)) * 0.01};
}

ServeInputs MakeInputs(uint64_t seed, bool range) {
  ServeInputs in;
  WorkloadSpec spec;
  spec.num_tuples = kTuples;
  spec.lifespan = kLifespan;
  spec.long_lived_fraction = 0.4;
  spec.order = TupleOrder::kRandom;
  spec.seed = seed;
  Relation employed = GenerateEmployedRelation(spec).value();
  Schema schema = Schema::Make({{"value", ValueType::kDouble}}).value();
  in.relation = std::make_shared<Relation>(std::move(schema), "events");
  in.relation->Reserve(employed.size());
  in.base.reserve(employed.size());
  for (const Tuple& t : employed) {
    const double v = static_cast<double>(t.value(1).AsInt()) * 0.01;
    in.relation->AppendUnchecked(Tuple({Value::Double(v)}, t.valid()));
    in.base.push_back({t.valid(), v});
  }
  SeedRng rng(seed ^ 0x5EB7E5EEDull);
  auto point = [&] {
    return PointQuery{rng.Uniform(0, kLifespan - 1),
                      rng.Next() % 2 == 0 ? kCount : kSum};
  };
  auto window_draw = [&](double lo, double hi) {
    return std::make_pair(rng.LogUniform(lo, hi), rng.Unit());
  };
  if (!range) {
    in.points.resize(size_t{1} << 20);
    for (PointQuery& p : in.points) p = point();
    in.inserts.resize(size_t{1} << 17);
    for (OracleTuple& t : in.inserts) t = ShortTuple(rng);
  } else {
    in.window_draws.resize(size_t{1} << 16);
    for (auto& w : in.window_draws) w = window_draw(1e2, 1e4);
    in.ingest.resize(512 * kIngestBatch);
    for (OracleTuple& t : in.ingest) t = ShortTuple(rng);
  }
  in.check_points.resize(16);
  for (PointQuery& p : in.check_points) p = point();
  in.check_window_draws.resize(8);
  for (auto& w : in.check_window_draws) w = window_draw(1e2, 1e3);
  return in;
}

/// A concrete window from a (width, position) draw: even draws straddle a
/// shard boundary, odd draws sit inside one shard's range.
Window PlaceWindow(const shard::ShardMap& map, size_t i,
                   std::pair<int64_t, double> draw) {
  const int64_t w = std::max<int64_t>(draw.first, 2);
  const auto& starts = map.starts();
  const size_t n = starts.size();
  if (n > 1 && i % 2 == 0) {
    const Instant b = starts[1 + (i / 2) % (n - 1)];
    const Instant lo = b - 1 - static_cast<Instant>(draw.second * (w - 2));
    return {lo, lo + w - 1};
  }
  const size_t s = (i / 2) % n;
  const Instant r_lo = starts[s];
  const Instant r_hi = s + 1 < n ? starts[s + 1] - 1 : kLifespan - 1;
  const Instant span = std::max<Instant>(r_hi - r_lo + 1 - w, 1);
  const Instant lo = r_lo + static_cast<Instant>(draw.second * (span - 1));
  return {lo, std::min(lo + w - 1, std::max(r_hi, lo))};
}

net::WireTuple ToWire(const OracleTuple& t) {
  return {t.valid.start(), t.valid.end(), {Value::Double(t.value)}};
}

Tuple ToTuple(const OracleTuple& t) {
  return Tuple({Value::Double(t.value)}, t.valid);
}

std::string PointPayload(const PointQuery& q) {
  return net::EncodeAggregateAt(
      {"events", q.aggregate, q.aggregate == kSum ? kValueAttr : net::kWireNoAttribute, q.t});
}

std::string RangePayload(const Window& w) {
  return net::EncodeAggregateOver(
      {"events", kCount, net::kWireNoAttribute, w.lo, w.hi, true});
}

std::string InsertPayload(const OracleTuple& t) {
  return net::EncodeInsert({"events", ToWire(t)});
}

std::string BatchPayload(const std::vector<OracleTuple>& pool, size_t batch) {
  net::InsertBatchRequest req;
  req.relation = "events";
  const size_t base = (batch * kIngestBatch) % pool.size();
  for (size_t i = 0; i < kIngestBatch; ++i) {
    req.tuples.push_back(ToWire(pool[base + i]));
  }
  return net::EncodeInsertBatch(req);
}

/// The in-process taggd stack.
struct Stack {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<shard::ShardedLiveService> sharded;
  std::unique_ptr<server::Server> server;

  ~Stack() {
    if (server) server->Shutdown();
    server.reset();
    sharded.reset();
    catalog.reset();
  }
};

Status BuildStack(const ServeInputs& in, bool range, bool trace, Stack* s,
                  double* seconds) {
  s->catalog = std::make_unique<Catalog>();
  const int64_t t0 = NowNs();
  TAGG_RETURN_IF_ERROR(s->catalog->Register(in.relation));
  shard::ShardedServiceOptions so;
  so.shards = 1;
  so.scatter_workers = range ? 2 : 1;
  s->sharded = std::make_unique<shard::ShardedLiveService>(so);
  TAGG_RETURN_IF_ERROR(
      s->sharded->RegisterIndex(*s->catalog, "events", AggregateKind::kCount));
  TAGG_RETURN_IF_ERROR(s->sharded->RegisterIndex(
      *s->catalog, "events", AggregateKind::kSum, "value"));
  if (range) TAGG_RETURN_IF_ERROR(s->sharded->Reshard(kRangeShards));
  server::ServerOptions o;
  o.port = 0;
  o.num_loops = 1;
  o.num_workers = 2;
  o.admin.enabled = false;
  if (trace) o.loop.trace_ring_capacity = 8192;
  s->server = std::make_unique<server::Server>(
      o, server::ServingState{s->catalog.get(), nullptr, s->sharded.get()});
  TAGG_RETURN_IF_ERROR(s->server->Start());
  *seconds = static_cast<double>(NowNs() - t0) / 1e9;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Closed-loop client
// ---------------------------------------------------------------------------

enum Class : uint8_t { kMain, kSide, kSideStart };

struct Pending {
  int64_t send_ns;
  int64_t op_start_ns;  // start of the op this request completes
  Class cls;
  uint64_t id;
  uint32_t pool_index;  // insert pool index, for the oracle
};

struct Conn {
  net::UniqueFd fd;
  std::string rbuf;
  std::deque<Pending> inflight;
  uint64_t sent = 0;
  // serve-range connection B: a batch was acknowledged, Flush is next.
  bool need_flush = false;
  int64_t batch_send_ns = 0;
};

/// One fixed-length stretch of a measured phase: the latency samples that
/// completed inside it (index ranges into LoopResult) and its throughput.
struct Slice {
  size_t main_begin = 0, main_end = 0;
  size_t side_begin = 0, side_end = 0;
  double rps = 0;
};

struct LoopResult {
  std::vector<double> main_us;
  std::vector<double> side_us;
  std::vector<Slice> slices;
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t busy = 0;
  uint64_t response_bytes = 0;
};

/// The median over a phase's slices of quantile q of each slice's samples.
/// Taking each statistic per slice and then the median across slices keeps
/// a burst of outside load from moving the run's figure.
double SliceQuantile(const LoopResult& r, bool main, double q) {
  std::vector<double> per_slice;
  for (const Slice& s : r.slices) {
    const std::vector<double>& v = main ? r.main_us : r.side_us;
    const size_t b = main ? s.main_begin : s.side_begin;
    const size_t e = main ? s.main_end : s.side_end;
    if (e > b) per_slice.push_back(Quantile({v.begin() + b, v.begin() + e}, q));
  }
  return Median(per_slice);
}

double SliceThroughput(const LoopResult& r) {
  std::vector<double> per_slice;
  for (const Slice& s : r.slices) per_slice.push_back(s.rps);
  return Median(per_slice);
}

bool SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Drives the connections until `deadline_ns`, then drains.  `send_next`
/// issues one request on a connection; `on_response` sees each completed
/// request.
class Client {
 public:
  Client(std::vector<Conn>* conns, bool traced, SpanRecorder* spans)
      : conns_(conns), traced_(traced), spans_(spans) {}

  /// Sends one request; `op_start_ns` (0 = now) is when the op it
  /// belongs to began.
  void Send(Conn& c, net::Opcode op, const std::string& payload, Class cls,
            uint32_t pool_index, int64_t op_start_ns = 0) {
    const uint64_t id = ++next_id_;
    const bool sampled = traced_ && id % 8 == 0;
    const std::string frame =
        traced_ ? net::EncodeTracedRequestFrame(
                      op, id, sampled ? net::kTraceFlagSampled : 0, payload)
                : net::EncodeRequestFrame(op, payload);
    const int64_t now = NowNs();
    c.inflight.push_back(
        {now, op_start_ns == 0 ? now : op_start_ns, cls, id, pool_index});
    ++c.sent;
    if (!SendAll(c.fd.get(), frame)) lost_ = true;
  }

  /// Fills connection i with `fill[i]` requests, then keeps each refilled
  /// until the deadline.  With `slice_ns` > 0 the samples are also cut
  /// into slices of that length (the drain after the deadline is in
  /// none).  Returns false if a connection was lost.
  bool Run(int64_t deadline_ns, int64_t slice_ns,
           const std::vector<size_t>& fill,
           const std::function<void(size_t)>& send_next,
           const std::function<void(size_t, const Pending&, StatusCode)>&
               on_response,
           LoopResult* r) {
    const int64_t start = NowNs();
    int64_t slice_start = start;
    uint64_t slice_completed = r->completed;
    Slice slice{r->main_us.size(), 0, r->side_us.size(), 0, 0};
    for (size_t i = 0; i < conns_->size(); ++i) {
      for (size_t k = 0; k < fill[i]; ++k) send_next(i);
    }
    char buf[64 * 1024];
    std::vector<pollfd> pfds(conns_->size());
    for (;;) {
      if (lost_) return false;
      size_t inflight = 0;
      for (const Conn& c : *conns_) inflight += c.inflight.size();
      if (inflight == 0) break;
      for (size_t i = 0; i < conns_->size(); ++i) {
        pfds[i] = {(*conns_)[i].fd.get(), POLLIN, 0};
      }
      const int ready = ::poll(pfds.data(), pfds.size(), 5000);
      if (ready <= 0) {
        if (ready < 0 && errno == EINTR) continue;
        return false;  // 5 s without a response: the connection is lost
      }
      for (size_t i = 0; i < conns_->size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Conn& c = (*conns_)[i];
        const ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), 0);
        if (n <= 0) {
          if (n < 0 && errno == EINTR) continue;
          return false;
        }
        c.rbuf.append(buf, static_cast<size_t>(n));
        size_t off = 0;
        for (;;) {
          net::FrameHeader h;
          std::string_view payload;
          size_t consumed = 0;
          Status err;
          const auto st = net::TryDecodeFrame(
              std::string_view(c.rbuf).substr(off), false,
              net::kDefaultMaxPayloadBytes, &h, &payload, &consumed, &err);
          if (st == net::FrameDecodeState::kNeedMore) break;
          if (st == net::FrameDecodeState::kProtocolError ||
              c.inflight.empty()) {
            return false;
          }
          off += consumed;
          const int64_t now = NowNs();
          const Pending p = c.inflight.front();
          c.inflight.pop_front();
          const auto code = static_cast<StatusCode>(h.opcode_or_status);
          r->response_bytes += consumed;
          ++r->attempted;
          if (code == StatusCode::kOk) {
            ++r->completed;
          } else {
            ++r->failed;
            if (code == StatusCode::kResourceExhausted) ++r->busy;
          }
          if (spans_ != nullptr && spans_->enabled()) {
            spans_->Add("wire", p.send_ns, now, -1, p.id);
          }
          const double us = code == StatusCode::kOk
                                ? static_cast<double>(now - p.op_start_ns) / 1e3
                                : kFailedLatency;
          if (p.cls == kMain) r->main_us.push_back(us);
          if (p.cls == kSide) r->side_us.push_back(us);
          if (slice_ns > 0 && now - slice_start >= slice_ns &&
              now <= deadline_ns) {
            slice.main_end = r->main_us.size();
            slice.side_end = r->side_us.size();
            slice.rps = static_cast<double>(r->completed - slice_completed) /
                        (static_cast<double>(now - slice_start) / 1e9);
            r->slices.push_back(slice);
            slice = {r->main_us.size(), 0, r->side_us.size(), 0, 0};
            slice_start = now;
            slice_completed = r->completed;
          }
          on_response(i, p, code);
          if (now < deadline_ns) send_next(i);
        }
        c.rbuf.erase(0, off);
      }
    }
    return true;
  }

 private:
  std::vector<Conn>* conns_;
  bool traced_;
  SpanRecorder* spans_;
  uint64_t next_id_ = 0;
  bool lost_ = false;
};

Result<std::vector<Conn>> Connect(uint16_t port, size_t n) {
  std::vector<Conn> conns(n);
  for (Conn& c : conns) {
    TAGG_ASSIGN_OR_RETURN(c.fd, net::ConnectLoopback(port));
  }
  return conns;
}

/// One strict request-response call on a connection.
Result<std::string> Call(Conn& c, net::Opcode op, const std::string& payload) {
  if (!SendAll(c.fd.get(), net::EncodeRequestFrame(op, payload))) {
    return Status::IOError("send failed");
  }
  char buf[64 * 1024];
  for (;;) {
    net::FrameHeader h;
    std::string_view body;
    size_t consumed = 0;
    Status err;
    const auto st = net::TryDecodeFrame(c.rbuf, false,
                                        net::kDefaultMaxPayloadBytes, &h,
                                        &body, &consumed, &err);
    if (st == net::FrameDecodeState::kProtocolError) return err;
    if (st == net::FrameDecodeState::kFrame) {
      std::string out(body);
      const auto code = static_cast<StatusCode>(h.opcode_or_status);
      c.rbuf.erase(0, consumed);
      if (code != StatusCode::kOk) return Status::Internal("status " + out);
      return out;
    }
    const ssize_t n = ::recv(c.fd.get(), buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("connection lost");
    }
    c.rbuf.append(buf, static_cast<size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------------

/// Process and registry counters a traced run turns into per-layer
/// metrics: read before and after each untraced slice, and the deltas
/// summed.
struct Counters {
  ProcSample proc;
  std::vector<uint64_t> queue_wait_buckets;
  uint64_t scatter = 0, subqueries = 0, inline_runs = 0;
  uint64_t routed = 0, straddles = 0;
  uint64_t nodes_retired = 0;
};

Counters ReadCounters(const shard::ShardedLiveService& sharded) {
  auto& reg = obs::MetricsRegistry::Global();
  Counters c;
  c.proc = SampleProc();
  obs::Histogram& h = reg.GetHistogram("tagg_executor_queue_wait_seconds");
  for (size_t i = 0; i <= h.bounds().size(); ++i) {
    c.queue_wait_buckets.push_back(h.BucketCount(i));
  }
  c.scatter = reg.GetCounter("tagg_shard_scatter_total").Value();
  c.subqueries = reg.GetCounter("tagg_shard_scatter_subqueries_total").Value();
  c.inline_runs = reg.GetCounter("tagg_shard_scatter_inline_total").Value();
  c.routed = reg.GetCounter("tagg_shard_ingest_routed_total").Value();
  c.straddles = reg.GetCounter("tagg_shard_straddle_splits_total").Value();
  for (const auto& s : sharded.Stats().shards) {
    for (const auto& [key, st] : s.service.indexes) {
      c.nodes_retired += st.nodes_retired;
    }
  }
  return c;
}

void AddDelta(const Counters& before, const Counters& after, Counters* acc) {
  acc->proc.cpu_us += after.proc.cpu_us - before.proc.cpu_us;
  acc->proc.minflt += after.proc.minflt - before.proc.minflt;
  acc->queue_wait_buckets.resize(after.queue_wait_buckets.size());
  for (size_t i = 0; i < after.queue_wait_buckets.size(); ++i) {
    acc->queue_wait_buckets[i] +=
        after.queue_wait_buckets[i] - before.queue_wait_buckets[i];
  }
  acc->scatter += after.scatter - before.scatter;
  acc->subqueries += after.subqueries - before.subqueries;
  acc->inline_runs += after.inline_runs - before.inline_runs;
  acc->routed += after.routed - before.routed;
  acc->straddles += after.straddles - before.straddles;
  acc->nodes_retired += after.nodes_retired - before.nodes_retired;
}

/// Quantile of histogram bucket counts, linearly interpolated inside the
/// bucket (seconds).
double HistogramQuantile(const std::vector<double>& bounds,
                         const std::vector<uint64_t>& d, double q) {
  uint64_t total = 0;
  for (uint64_t n : d) total += n;
  if (total == 0) return 0;
  const double target = q * static_cast<double>(total);
  double cum = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    if (cum + static_cast<double>(d[i]) >= target && d[i] > 0) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      return lo + (hi - lo) * (target - cum) / static_cast<double>(d[i]);
    }
    cum += static_cast<double>(d[i]);
  }
  return bounds.back();
}

double SafeDiv(double a, double b) { return b == 0 ? 0.0 : a / b; }

template <typename Fn>
std::vector<double> TimeEach(size_t n, SpanRecorder& spans,
                             std::string_view name, Fn fn) {
  std::vector<double> us;
  us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t t0 = NowNs();
    fn(i);
    const int64_t t1 = NowNs();
    spans.Add(name, t0, t1, -1, i + 1);
    us.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  return us;
}

}  // namespace

int RunServe(const RunOptions& opt, bool range, Report& report) {
  const ServeInputs in = MakeInputs(opt.seed, range);
  SpanRecorder spans(opt.trace);

  // Setup, several times; the last stack serves the run.
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < (opt.trace ? 1 : kSetupReps); ++rep) {
    stack = std::make_unique<Stack>();
    double s = 0;
    Status st = BuildStack(in, range, opt.trace, stack.get(), &s);
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(s);
  }
  shard::ShardedLiveService& sharded = *stack->sharded;
  const shard::ShardMap map = sharded.map();
  std::vector<Window> windows;
  for (size_t i = 0; i < in.window_draws.size(); ++i) {
    windows.push_back(PlaceWindow(map, i, in.window_draws[i]));
  }
  std::vector<Window> check_windows;
  for (size_t i = 0; i < in.check_window_draws.size(); ++i) {
    check_windows.push_back(PlaceWindow(map, i, in.check_window_draws[i]));
  }

  auto conns_or = Connect(stack->server->port(), 2);
  if (!conns_or.ok()) {
    std::fprintf(stderr, "perfbench: connect failed\n");
    return 1;
  }
  std::vector<Conn> conns = std::move(*conns_or);

  // Acknowledged writes, as insert-pool indices, for the oracle.
  std::vector<uint32_t> acked_inserts;
  std::vector<uint32_t> acked_batches;
  size_t point_cursor = 0, insert_cursor = 0, window_cursor = 0,
         batch_cursor = 0;

  auto run_phase = [&](double seconds, bool traced, int64_t slice_ns,
                       LoopResult* r) {
    // A batch acknowledged after the previous phase's deadline still owes
    // its Flush; settle it outside the timed loop.
    if (range && conns[1].need_flush) {
      if (!Call(conns[1], net::Opcode::kFlush, net::EncodeFlush({"events"}))
               .ok()) {
        return false;
      }
      conns[1].need_flush = false;
    }
    Client client(&conns, traced, traced ? &spans : nullptr);
    const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
    std::function<void(size_t)> send_next;
    std::vector<size_t> fill;
    if (!range) {
      // Every kPointDepth-th request on a connection is an Insert, so each
      // keeps 7 AggregateAt and 1 Insert in flight.
      fill = {kPointDepth, kPointDepth};
      send_next = [&](size_t i) {
        Conn& c = conns[i];
        if (c.sent % kPointDepth == kPointDepth - 1) {
          const auto idx =
              static_cast<uint32_t>(insert_cursor++ % in.inserts.size());
          client.Send(c, net::Opcode::kInsert, InsertPayload(in.inserts[idx]),
                      kSide, idx);
        } else {
          const PointQuery& q = in.points[point_cursor++ % in.points.size()];
          client.Send(c, net::Opcode::kAggregateAt, PointPayload(q), kMain, 0);
        }
      };
    } else {
      // Connection A: kRangeDepth AggregateOver in flight.  Connection B:
      // InsertBatch, then Flush once the batch is answered.
      fill = {kRangeDepth, 1};
      send_next = [&](size_t i) {
        Conn& c = conns[i];
        if (i == 0) {
          client.Send(c, net::Opcode::kAggregateOver,
                      RangePayload(windows[window_cursor++ % windows.size()]),
                      kMain, 0);
        } else if (c.need_flush) {
          client.Send(c, net::Opcode::kFlush, net::EncodeFlush({"events"}),
                      kSide, 0, c.batch_send_ns);
        } else {
          const auto b = static_cast<uint32_t>(batch_cursor++ % 512);
          client.Send(c, net::Opcode::kInsertBatch, BatchPayload(in.ingest, b),
                      kSideStart, b);
          c.batch_send_ns = c.inflight.back().send_ns;
        }
      };
    }
    auto on_response = [&](size_t i, const Pending& p, StatusCode code) {
      const bool ok = code == StatusCode::kOk;
      if (!range && p.cls == kSide && ok) acked_inserts.push_back(p.pool_index);
      if (p.cls == kSideStart && ok) acked_batches.push_back(p.pool_index);
      conns[i].need_flush = p.cls == kSideStart && ok;
    };
    return client.Run(deadline, slice_ns, fill, send_next, on_response, r);
  };

  // Warm-up, then the measured phase, cut into 1 s slices.  A traced run
  // instead alternates 1 s untraced and traced phases, so the data growing
  // under the writes reaches both halves alike.
  LoopResult warm, untraced, traced;
  Counters delta;
  bool ok = run_phase(kWarmupSeconds, false, 0, &warm);
  const int phases = opt.trace ? 10 : 1;
  for (int k = 0; k < phases && ok; ++k) {
    const double phase_s = opt.seconds / phases;
    if (k % 2 == 1) {
      ok = run_phase(phase_s, true, 0, &traced);
      continue;
    }
    const Counters before = ReadCounters(sharded);
    ok = run_phase(phase_s, false, opt.trace ? 0 : kSliceNs, &untraced);
    AddDelta(before, ReadCounters(sharded), &delta);
  }
  if (!ok) {
    report.Fail("lost connection");
    return 1;
  }
  for (const LoopResult* r : {&warm, &untraced, &traced}) {
    report.Attempt(r->attempted);
    if (r->failed > 0) report.Fail("non-OK response", r->failed);
  }

  // Correctness: flush, then compare a seeded sample of wire answers with
  // the reference oracle over every tuple the run inserted.
  std::vector<OracleTuple> truth = in.base;
  for (uint32_t idx : acked_inserts) truth.push_back(in.inserts[idx]);
  for (uint32_t b : acked_batches) {
    const size_t base = (static_cast<size_t>(b) * kIngestBatch) % in.ingest.size();
    for (size_t k = 0; k < kIngestBatch; ++k) truth.push_back(in.ingest[base + k]);
  }
  {
    Conn& c = conns[0];
    report.Attempt();
    if (!Call(c, net::Opcode::kFlush, net::EncodeFlush({"events"})).ok()) {
      report.Fail("flush");
    }
    for (const PointQuery& q : in.check_points) {
      report.Attempt();
      auto resp = Call(c, net::Opcode::kAggregateAt, PointPayload(q));
      auto decoded = resp.ok() ? net::DecodeAggregateAtResponse(*resp)
                               : Result<net::AggregateAtResponse>(resp.status());
      const auto kind = static_cast<AggregateKind>(q.aggregate);
      const OracleInterval want = OracleAt(kind, truth, q.t);
      if (!decoded.ok() ||
          !ValuesAgree(kind, want.value, decoded->value, want.conditioning)) {
        report.Wrong("AggregateAt t=" + std::to_string(q.t) + " expected " +
                     want.value.ToString() + " got " +
                     (decoded.ok() ? decoded->value.ToString()
                                   : decoded.status().ToString()));
      }
    }
    for (const Window& w : check_windows) {
      report.Attempt();
      auto resp = Call(c, net::Opcode::kAggregateOver, RangePayload(w));
      auto decoded = resp.ok()
                         ? net::DecodeAggregateOverResponse(*resp)
                         : Result<net::AggregateOverResponse>(resp.status());
      if (!decoded.ok()) {
        report.Wrong("AggregateOver: " + decoded.status().ToString());
        continue;
      }
      const auto oracle =
          OracleSeries(AggregateKind::kCount, truth, Period(w.lo, w.hi));
      const std::string diff =
          CompareWithOracle(AggregateKind::kCount, oracle, [&](Instant t) {
            return ValueInSeries(
                decoded->intervals, t, AggregateKind::kCount,
                [](const net::WireInterval& iv) {
                  return Period(iv.start, iv.end);
                },
                [](const net::WireInterval& iv) { return iv.value; });
          });
      if (!diff.empty()) report.Wrong("AggregateOver " + diff);
    }
  }

  // The untraced run takes each statistic per 1 s slice and reports the
  // median over slices; a traced run's untraced phases are too short to
  // slice, so it takes them over all their samples.
  const bool sliced = !untraced.slices.empty();
  auto quantile = [&](bool main, double q) {
    return sliced ? SliceQuantile(untraced, main, q)
                  : Quantile(main ? untraced.main_us : untraced.side_us, q);
  };
  const double main_p50 = quantile(true, 0.5);
  const double main_p99 = quantile(true, 0.99);
  const double side_p50 = quantile(false, 0.5);
  const std::string main_name = range ? "range" : "point";
  report.Named(main_name + "_p50_us", main_p50, "us", opt.trace);
  report.Named(main_name + "_p99_us", main_p99, "us", opt.trace);
  report.Named(range ? "ingest_p50_us" : "insert_p50_us", side_p50, "us",
               opt.trace);
  if (!opt.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", SampleProc().max_rss_mb, "MB");
    report.Set("throughput_rps", SliceThroughput(untraced), "1/s");
    report.Set("main_p50_us", main_p50, "us");
    report.Set("side_p50_us", side_p50, "us");
    std::fprintf(stderr,
                 "perfbench: %s main n=%zu side n=%zu slices=%zu setup "
                 "reps=%zu\n",
                 opt.workload.c_str(), untraced.main_us.size(),
                 untraced.side_us.size(), untraced.slices.size(),
                 setup_s.size());
    return report.correct() ? 0 : 1;
  }

  // ---- traced run: per-layer metrics ----------------------------------
  const double ops = static_cast<double>(untraced.completed);
  report.Set("proc.cpu_us_per_req",
             SafeDiv(delta.proc.cpu_us, ops), "us");
  report.Set("proc.minflt_per_query",
             SafeDiv(delta.proc.minflt, ops), "count");
  const double traced_p50 = Median(traced.main_us);
  report.Set("obs.trace_overhead_pct",
             SafeDiv(traced_p50 - main_p50, main_p50) * 100, "%");

  // net
  const auto& qw_bounds = obs::MetricsRegistry::Global()
                              .GetHistogram("tagg_executor_queue_wait_seconds")
                              .bounds();
  report.Set("net.queue_wait_p50_us",
             HistogramQuantile(qw_bounds, delta.queue_wait_buckets, 0.5) * 1e6,
             "us");
  report.Set("net.queue_wait_p99_us",
             HistogramQuantile(qw_bounds, delta.queue_wait_buckets, 0.99) * 1e6,
             "us");
  report.Set("net.busy_rejects",
             static_cast<double>(untraced.busy + traced.busy), "count");
  report.Set("net.response_bytes_per_req",
             SafeDiv(static_cast<double>(untraced.response_bytes),
                     static_cast<double>(untraced.attempted)),
             "B");
  {
    std::vector<double> rtt;
    for (int i = 0; i < 2000; ++i) {
      const int64_t t0 = NowNs();
      if (!Call(conns[1], net::Opcode::kPing, "").ok()) {
        report.Fail("ping");
        continue;
      }
      rtt.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    report.Attempt(2000);
    report.Set("net.ping_rtt_p50_us", Median(rtt), "us");
  }

  // server: sampled stage records of the main opcode.
  const uint8_t main_op = static_cast<uint8_t>(
      range ? net::Opcode::kAggregateOver : net::Opcode::kAggregateAt);
  {
    std::map<uint64_t, int64_t> wire_span;  // request id -> span index
    for (size_t i = 0; i < spans.spans().size(); ++i) {
      if (spans.spans()[i].name == "wire") {
        wire_span[spans.spans()[i].request_id] = static_cast<int64_t>(i);
      }
    }
    std::vector<std::vector<double>> stage_us(obs::kNumRequestStages);
    for (const auto& rec : obs::RequestTraceRegistry::Global().SnapshotAll()) {
      if (!rec.sampled()) continue;
      auto it = wire_span.find(rec.trace_id);
      const int64_t parent = it == wire_span.end() ? -1 : it->second;
      int64_t exec_span = -1;
      for (int s = 0; s < obs::kNumRequestStages; ++s) {
        if (rec.stage_ns[s] < 0) continue;
        const int64_t lo = rec.start_ns + rec.stage_start_ns[s];
        const int64_t idx = spans.Add(
            std::string("server.") +
                obs::RequestStageName(static_cast<obs::RequestStage>(s)),
            lo, lo + rec.stage_ns[s], parent, rec.trace_id);
        if (s == obs::kStageExecute) exec_span = idx;
        if (rec.opcode == main_op) {
          stage_us[s].push_back(static_cast<double>(rec.stage_ns[s]) / 1e3);
        }
      }
      for (size_t k = 0; k < rec.num_sub_spans; ++k) {
        const auto& sub = rec.sub_spans[k];
        const int64_t lo = rec.start_ns + sub.start_ns;
        spans.Add(std::string("sub.") + sub.name, lo, lo + sub.duration_ns,
                  exec_span, rec.trace_id);
      }
    }
    for (int s = 0; s < obs::kNumRequestStages; ++s) {
      report.Set(std::string("server.stage_") +
                     obs::RequestStageName(static_cast<obs::RequestStage>(s)) +
                     "_us",
                 Median(stage_us[s]), "us");
    }
  }

  // Direct calls that replay the same seeded requests, layer by layer.  The
  // bare LiveService holds the same tuples as the sharded one: the load
  // plus every write the run acknowledged.
  const server::ServingState state{stack->catalog.get(), nullptr, &sharded};
  Catalog bare_catalog;
  auto bare_relation = std::make_shared<Relation>(
      stack->catalog->Get("events").value()->schema(), "events");
  bare_relation->Reserve(truth.size());
  for (const OracleTuple& t : truth) bare_relation->AppendUnchecked(ToTuple(t));
  LiveService bare;
  if (!bare_catalog.Register(bare_relation).ok() ||
      !bare.RegisterIndex(bare_catalog, "events", AggregateKind::kCount).ok() ||
      !bare.RegisterIndex(bare_catalog, "events", AggregateKind::kSum, "value")
           .ok()) {
    report.Fail("bare live service");
    return 1;
  }
  constexpr size_t kReplays = 4000;
  double exec_main = 0, shard_main = 0, live_main = 0;
  uint64_t replay_failures = 0;
  auto check = [&](bool ok_call) { replay_failures += ok_call ? 0 : 1; };
  if (!range) {
    auto exec = TimeEach(kReplays, spans, "server.exec", [&](size_t i) {
      check(server::ExecuteBinaryRequest(
                state, static_cast<uint8_t>(net::Opcode::kAggregateAt),
                PointPayload(in.points[i]), nullptr)
                .ok());
    });
    auto sh = TimeEach(kReplays, spans, "shard.point", [&](size_t i) {
      const PointQuery& q = in.points[i];
      check(sharded
                .AggregateAt("events", static_cast<AggregateKind>(q.aggregate),
                             q.aggregate == kSum ? 0 : AggregateOptions::kNoAttribute,
                             q.t)
                .ok());
    });
    auto lv = TimeEach(kReplays, spans, "live.point", [&](size_t i) {
      const PointQuery& q = in.points[i];
      const LiveAggregateIndex* idx =
          bare.Find("events", static_cast<AggregateKind>(q.aggregate),
                    q.aggregate == kSum ? 0 : AggregateOptions::kNoAttribute);
      check(idx != nullptr && idx->AggregateAt(q.t).ok());
    });
    exec_main = Median(exec);
    shard_main = Median(sh);
    live_main = Median(lv);
    report.Set("server.exec_point_us", exec_main, "us");
    report.Set("shard.point_us", shard_main, "us");
    report.Set("live.point_us", live_main, "us");
    constexpr size_t kWrites = 2000;
    report.Set("server.exec_insert_us",
               Median(TimeEach(kWrites, spans, "server.exec_insert", [&](size_t i) {
                 check(server::ExecuteBinaryRequest(
                           state, static_cast<uint8_t>(net::Opcode::kInsert),
                           InsertPayload(in.inserts[i]), nullptr)
                           .ok());
               })),
               "us");
    report.Set("shard.ingest_us",
               Median(TimeEach(kWrites, spans, "shard.ingest", [&](size_t i) {
                 check(sharded.Ingest("events", ToTuple(in.inserts[i])).ok());
               })),
               "us");
    report.Set("live.insert_us",
               Median(TimeEach(kWrites, spans, "live.insert", [&](size_t i) {
                 check(bare.Ingest("events", ToTuple(in.inserts[i])).ok());
               })),
               "us");
  } else {
    constexpr size_t kRangeReplays = 2000;
    auto exec = TimeEach(kRangeReplays, spans, "server.exec", [&](size_t i) {
      check(server::ExecuteBinaryRequest(
                state, static_cast<uint8_t>(net::Opcode::kAggregateOver),
                RangePayload(windows[i]), nullptr)
                .ok());
    });
    auto sh = TimeEach(kRangeReplays, spans, "shard.range", [&](size_t i) {
      check(sharded
                .AggregateOver("events", AggregateKind::kCount,
                               AggregateOptions::kNoAttribute,
                               Period(windows[i].lo, windows[i].hi), true)
                .ok());
    });
    const LiveAggregateIndex* count_index =
        bare.Find("events", AggregateKind::kCount, AggregateOptions::kNoAttribute);
    auto lv = TimeEach(kRangeReplays, spans, "live.range", [&](size_t i) {
      check(count_index != nullptr &&
            count_index->AggregateOver(Period(windows[i].lo, windows[i].hi), true)
                .ok());
    });
    exec_main = Median(exec);
    shard_main = Median(sh);
    live_main = Median(lv);
    report.Set("server.exec_range_us", exec_main, "us");
    report.Set("shard.range_us", shard_main, "us");
    report.Set("live.range_us", live_main, "us");
    constexpr size_t kBatches = 64;
    auto batch_tuples = [&](size_t b) {
      std::vector<Tuple> out;
      const size_t base = (b * kIngestBatch) % in.ingest.size();
      for (size_t k = 0; k < kIngestBatch; ++k) out.push_back(ToTuple(in.ingest[base + k]));
      return out;
    };
    report.Set("server.exec_insert_us",
               Median(TimeEach(kBatches, spans, "server.exec_ingest", [&](size_t b) {
                 check(server::ExecuteBinaryRequest(
                           state, static_cast<uint8_t>(net::Opcode::kInsertBatch),
                           BatchPayload(in.ingest, b), nullptr)
                           .ok());
                 check(server::ExecuteBinaryRequest(
                           state, static_cast<uint8_t>(net::Opcode::kFlush),
                           net::EncodeFlush({"events"}), nullptr)
                           .ok());
               })),
               "us");
    report.Set("shard.ingest_us",
               Median(TimeEach(kBatches, spans, "shard.ingest", [&](size_t b) {
                 check(sharded.IngestBatch("events", batch_tuples(b)).ok());
                 check(sharded.Flush("events").ok());
               })),
               "us");
    report.Set("live.insert_us",
               Median(TimeEach(kBatches, spans, "live.insert", [&](size_t b) {
                 check(bare.IngestBatch("events", batch_tuples(b)).ok());
                 check(bare.Flush("events").ok());
               })),
               "us");
  }
  if (replay_failures > 0) report.Fail("direct layer call", replay_failures);

  // shard / live counters over the untraced measured phase.
  const double subq = static_cast<double>(delta.subqueries);
  report.Set("shard.fanout",
             SafeDiv(subq, static_cast<double>(delta.scatter)),
             "count");
  report.Set("shard.inline_ratio",
             SafeDiv(static_cast<double>(delta.inline_runs), subq),
             "ratio");
  report.Set("shard.straddle_per_tuple",
             SafeDiv(static_cast<double>(delta.straddles),
                     static_cast<double>(delta.routed)),
             "ratio");
  {
    const double tuples_in_phase =
        range ? static_cast<double>(untraced.side_us.size() * kIngestBatch)
              : static_cast<double>(untraced.side_us.size());
    report.Set("live.retired_per_tuple",
               SafeDiv(static_cast<double>(delta.nodes_retired),
                       tuples_in_phase),
               "count");
    size_t depth = 0;
    double nodes = 0, pending = 0;
    if (!sharded.Flush().ok()) report.Fail("flush");
    for (const auto& s : sharded.Stats().shards) {
      for (const auto& [key, st] : s.service.indexes) {
        depth = std::max(depth, st.tree_depth);
        nodes += static_cast<double>(st.live_nodes);
        pending += static_cast<double>(st.retired_pending);
      }
    }
    report.Set("live.tree_depth", static_cast<double>(depth), "count");
    report.Set("live.nodes", nodes, "count");
    report.Set("live.retired_pending", pending, "count");
  }

  // Self time per layer (the nesting: each layer's direct-call
  // p50 minus the next layer down), checked against the untraced median.
  const double net_self = traced_p50 - exec_main;
  const double server_self = exec_main - shard_main;
  const double shard_self = shard_main - live_main;
  report.Set("self.net_us", net_self, "us");
  report.Set("self.server_us", server_self, "us");
  report.Set("self.shard_us", shard_self, "us");
  report.Set("self.live_us", live_main, "us");
  const double sum = net_self + server_self + shard_self + live_main;
  const double residual_pct = SafeDiv(sum - main_p50, main_p50) * 100;
  report.Set("self.residual_pct", residual_pct, "%");
  std::fprintf(stderr,
               "perfbench: %s self time (us): net %.2f server %.2f shard %.2f "
               "live %.2f = %.2f vs untraced p50 %.2f (%+.1f%%, %s the "
               "+-%.0f%% tolerance)\n",
               opt.workload.c_str(), net_self, server_self, shard_self,
               live_main, sum, main_p50, residual_pct,
               std::fabs(residual_pct) <= kSelfTolerancePct ? "within"
                                                            : "OUTSIDE",
               kSelfTolerancePct);
  for (const auto& [name, us] : spans.SelfTimeUs()) {
    std::fprintf(stderr, "perfbench:   span self time %-22s %12.1f us\n",
                 name.c_str(), us);
  }
  const std::string path =
      opt.out_dir + "/spans-" + opt.workload + "-" + std::to_string(opt.seed) +
      ".jsonl";
  if (!spans.WriteJsonl(path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  }
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
