// Admin-plane tests: the HTTP endpoints (/metrics /healthz /statz
// /tracez /quitz), the three-way metrics exposition byte compatibility,
// drain-aware health ordering, endpoint behavior under concurrent load,
// and the end-to-end trace acceptance path — a client-sampled
// AggregateOver whose span tree (recv through write, with nested
// EXPLAIN-level sub-spans) lands in the trace ring and exports as
// Chrome-trace JSON.

#include "server/admin.h"

#include <errno.h>
#include <string.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "obs/request_trace.h"
#include "server/http.h"
#include "server/server.h"

namespace tagg {
namespace server {
namespace {

using net::Client;
using net::Opcode;

struct HttpResult {
  int status = 0;
  std::string headers;  // status line + header lines
  std::string body;
};

/// Blocking one-shot HTTP/1.0 GET against 127.0.0.1:port.
Result<HttpResult> HttpGet(uint16_t port, const std::string& target) {
  TAGG_ASSIGN_OR_RETURN(net::UniqueFd fd, net::ConnectLoopback(port));
  const std::string request =
      "GET " + target + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  size_t off = 0;
  while (off < request.size()) {
    const ssize_t n = ::send(fd.get(), request.data() + off,
                             request.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + strerror(errno));
    }
    off += static_cast<size_t>(n);
  }
  std::string raw;
  char chunk[16 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd.get(), chunk, sizeof(chunk), 0);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + strerror(errno));
    }
    raw.append(chunk, static_cast<size_t>(n));
  }
  const size_t split = raw.find("\r\n\r\n");
  if (split == std::string::npos || raw.substr(0, 9) != "HTTP/1.0 ") {
    return Status::Corruption("not an HTTP/1.0 response: " +
                              raw.substr(0, 64));
  }
  HttpResult result;
  result.status = std::atoi(raw.c_str() + 9);
  result.headers = raw.substr(0, split);
  result.body = raw.substr(split + 4);
  return result;
}

class AdminServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    Result<Schema> schema = Schema::Make({{"value", ValueType::kDouble}});
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    ASSERT_TRUE(catalog_
                    .Register(std::make_shared<Relation>(std::move(*schema),
                                                         "events"))
                    .ok());
    ASSERT_TRUE(
        live_.RegisterIndex(catalog_, "events", AggregateKind::kCount).ok());
    ASSERT_TRUE(
        live_.RegisterIndex(catalog_, "events", AggregateKind::kSum, "value")
            .ok());
    server_ =
        std::make_unique<Server>(options, ServingState{&catalog_, &live_});
    Status started = server_->Start();
    ASSERT_TRUE(started.ok()) << started.ToString();
    ASSERT_NE(server_->admin_port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  Client Connect() {
    Result<Client> client = Client::ConnectTo(server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(*client);
  }

  Catalog catalog_;
  LiveService live_;
  std::unique_ptr<Server> server_;
};

TEST_F(AdminServerTest, CoreEndpointsServe) {
  StartServer();

  Result<HttpResult> metrics = HttpGet(server_->admin_port(), "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->headers.find("text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("tagg_admin_requests_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("tagg_executor_queue_depth"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("tagg_executor_queue_wait_seconds_bucket"),
            std::string::npos);

  Result<HttpResult> healthz = HttpGet(server_->admin_port(), "/healthz");
  ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
  EXPECT_EQ(healthz->status, 200);
  EXPECT_EQ(healthz->body, "ok\n");

  Result<HttpResult> statz = HttpGet(server_->admin_port(), "/statz");
  ASSERT_TRUE(statz.ok()) << statz.status().ToString();
  EXPECT_EQ(statz->status, 200);
  EXPECT_NE(statz->body.find("connection(s)"), std::string::npos);

  Result<HttpResult> tracez = HttpGet(server_->admin_port(), "/tracez");
  ASSERT_TRUE(tracez.ok()) << tracez.status().ToString();
  EXPECT_EQ(tracez->status, 200);

  Result<HttpResult> missing = HttpGet(server_->admin_port(), "/nope");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->status, 404);

  Result<HttpResult> quitz = HttpGet(server_->admin_port(), "/quitz");
  ASSERT_TRUE(quitz.ok()) << quitz.status().ToString();
  EXPECT_EQ(quitz->status, 403);  // off by default
  EXPECT_FALSE(server_->quit_requested());
}

TEST_F(AdminServerTest, StatzListsDataPlaneConnections) {
  StartServer();
  Client a = Connect();
  Client b = Connect();
  ASSERT_TRUE(a.Ping().ok());
  ASSERT_TRUE(b.Ping().ok());

  Result<HttpResult> statz = HttpGet(server_->admin_port(), "/statz");
  ASSERT_TRUE(statz.ok()) << statz.status().ToString();
  EXPECT_NE(statz->body.find("2 connection(s)"), std::string::npos)
      << statz->body;
  // Both pinged in binary mode, so the mode column must show 'B'.
  EXPECT_NE(statz->body.find(" B "), std::string::npos) << statz->body;
}

// The three metrics surfaces must be one exposition: binary kMetrics and
// HTTP /metrics byte-identical to MetricsExpositionText(), the text-mode
// `metrics` command the same bytes plus the ".\n" terminator.
TEST_F(AdminServerTest, MetricsExpositionIsByteIdenticalAcrossSurfaces) {
  // Protocol layer first, with no server mutating counters in between.
  ServingState state{&catalog_, &live_};
  Result<std::string> binary =
      ExecuteBinaryRequest(state, static_cast<uint8_t>(Opcode::kMetrics),
                           "", nullptr);
  ASSERT_TRUE(binary.ok()) << binary.status().ToString();
  const std::string direct = MetricsExpositionText();
  bool quit = false;
  Result<std::string> text = ExecuteTextRequest(state, "metrics", &quit);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(*binary, direct);
  EXPECT_EQ(*text, direct + ".\n");
  EXPECT_EQ(direct.back(), '\n');

  // Over the wire the counters move between fetches, so assert shape:
  // every family line present in the binary fetch appears in the HTTP
  // body too (same exposition code path).
  StartServer();
  Client client = Connect();
  Result<std::string> wire_binary = client.Metrics();
  ASSERT_TRUE(wire_binary.ok());
  Result<HttpResult> http = HttpGet(server_->admin_port(), "/metrics");
  ASSERT_TRUE(http.ok()) << http.status().ToString();
  size_t pos = 0;
  while (pos < wire_binary->size()) {
    size_t eol = wire_binary->find('\n', pos);
    if (eol == std::string::npos) eol = wire_binary->size();
    const std::string line = wire_binary->substr(pos, eol - pos);
    if (line.rfind("# ", 0) == 0) {  // HELP/TYPE lines are value-free
      EXPECT_NE(http->body.find(line), std::string::npos) << line;
    }
    pos = eol + 1;
  }
}

// The acceptance path: a client-sampled AggregateOver must surface a
// full recv->decode->queue_wait->execute->encode->write span tree with
// nested query stages, visible in /tracez and exportable as Chrome JSON.
TEST_F(AdminServerTest, SampledAggregateOverYieldsFullSpanTree) {
  StartServer();
  Client client = Connect();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        client.Insert("events", {i, i + 10, {Value::Double(1.0)}}).ok());
  }
  ASSERT_TRUE(client.Flush("events").ok());

  const uint64_t trace_id = 0x5EEDFACE12345678ull;
  net::AggregateOverRequest req;
  req.relation = "events";
  req.aggregate = static_cast<uint8_t>(AggregateKind::kCount);
  req.attribute = net::kWireNoAttribute;
  req.start = 0;
  req.end = 40;
  Result<net::RawResponse> resp = client.CallTraced(
      Opcode::kAggregateOver, trace_id, net::kTraceFlagSampled,
      net::EncodeAggregateOver(req));
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->code, StatusCode::kOk);

  // The write stage commits after the response bytes hit the socket;
  // poll the global ring registry briefly.
  obs::RequestTraceRecord rec;
  bool found = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (!found && std::chrono::steady_clock::now() < deadline) {
    for (const obs::RequestTraceRecord& r :
         obs::RequestTraceRegistry::Global().SnapshotAll()) {
      if (r.trace_id == trace_id) {
        rec = r;
        found = true;
        break;
      }
    }
    if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(found) << "traced request never reached the ring";

  EXPECT_TRUE(rec.sampled());
  EXPECT_EQ(rec.opcode, static_cast<uint8_t>(Opcode::kAggregateOver));
  EXPECT_EQ(rec.status, static_cast<uint8_t>(StatusCode::kOk));
  for (size_t i = 0; i < obs::kNumRequestStages; ++i) {
    EXPECT_GE(rec.stage_ns[i], 0)
        << "stage " << obs::RequestStageName(
               static_cast<obs::RequestStage>(i)) << " missing";
  }
  EXPECT_GT(rec.total_ns, 0);
  EXPECT_GT(rec.request_bytes, 0u);
  EXPECT_GT(rec.response_bytes, 0u);
  // The EXPLAIN-level stages nested under execute.
  ASSERT_GT(rec.num_sub_spans, 0);
  std::vector<std::string> sub_names;
  for (size_t s = 0; s < rec.num_sub_spans; ++s) {
    sub_names.emplace_back(rec.sub_spans[s].name);
  }
  auto has = [&](const char* name) {
    for (const std::string& n : sub_names) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("decode_payload")) << "subs: " << sub_names.size();
  EXPECT_TRUE(has("aggregate_over"));

  // /tracez shows it, and ?fmt=chrome exports it as Chrome-trace JSON.
  Result<HttpResult> tracez = HttpGet(server_->admin_port(), "/tracez");
  ASSERT_TRUE(tracez.ok());
  EXPECT_NE(tracez->body.find("5eedface12345678"), std::string::npos)
      << tracez->body;

  Result<HttpResult> chrome =
      HttpGet(server_->admin_port(), "/tracez?fmt=chrome");
  ASSERT_TRUE(chrome.ok());
  EXPECT_EQ(chrome->status, 200);
  EXPECT_NE(chrome->headers.find("application/json"), std::string::npos);
  EXPECT_NE(chrome->body.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(chrome->body.find("5eedface12345678"), std::string::npos);
  EXPECT_NE(chrome->body.find("\"queue_wait\""), std::string::npos);
  int depth = 0;
  for (char c : chrome->body) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST_F(AdminServerTest, ServerSamplingRecordsUnflaggedRequests) {
  ServerOptions options;
  options.loop.trace_sample_every = 1;  // every request, old clients too
  StartServer(options);
  Client client = Connect();
  ASSERT_TRUE(client.Insert("events", {1, 5, {Value::Double(1.0)}}).ok());

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  bool found = false;
  while (!found && std::chrono::steady_clock::now() < deadline) {
    for (const obs::RequestTraceRecord& r :
         obs::RequestTraceRegistry::Global().SnapshotAll()) {
      if (r.sampled() &&
          r.opcode == static_cast<uint8_t>(Opcode::kInsert) &&
          r.trace_id != 0) {
        found = true;
        break;
      }
    }
    if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(found) << "server-side sampling recorded nothing";
}

TEST_F(AdminServerTest, SlowThresholdForcesRecordingAtEdges) {
  const int64_t saved = obs::SlowRequestThresholdNs();
  ServerOptions options;
  options.slow_request_micros = 0;  // explicit 0 = disabled
  StartServer(options);
  EXPECT_EQ(obs::SlowRequestThresholdNs(), 0);

  // 1ns threshold: every request is "slow" and must be force-recorded
  // even without sampling.
  obs::SetSlowRequestThresholdNs(1);
  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  bool found = false;
  while (!found && std::chrono::steady_clock::now() < deadline) {
    for (const obs::RequestTraceRecord& r :
         obs::RequestTraceRegistry::Global().SnapshotAll()) {
      if (r.slow()) {
        found = true;
        break;
      }
    }
    if (!found) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(found) << "slow-threshold edge did not force a record";
  obs::SetSlowRequestThresholdNs(saved);
}

TEST_F(AdminServerTest, EndpointsSurviveConcurrentLoad) {
  StartServer();
  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  const uint16_t admin_port = server_->admin_port();
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      const char* paths[] = {"/metrics", "/statz", "/tracez", "/healthz"};
      for (int i = 0; i < 25; ++i) {
        Result<HttpResult> got = HttpGet(admin_port, paths[(t + i) % 4]);
        if (!got.ok() || got->status != 200) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Data-plane load at the same time: statz/tracez walk live structures.
  std::thread loader([&] {
    Result<Client> client = Client::ConnectTo(server_->port());
    if (!client.ok()) {
      failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    for (int i = 0; i < 200; ++i) {
      if (!client->Insert("events", {i, i + 3, {Value::Double(1.0)}})
               .ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        return;
      }
    }
  });
  for (std::thread& s : scrapers) s.join();
  loader.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(AdminServerTest, QuitzWhenEnabledRequestsShutdown) {
  ServerOptions options;
  options.admin.enable_quitz = true;
  StartServer(options);
  EXPECT_FALSE(server_->quit_requested());
  Result<HttpResult> quitz = HttpGet(server_->admin_port(), "/quitz");
  ASSERT_TRUE(quitz.ok()) << quitz.status().ToString();
  EXPECT_EQ(quitz->status, 200);
  // The hook only flags; the daemon's main loop performs the Shutdown.
  EXPECT_TRUE(server_->quit_requested());
  EXPECT_TRUE(server_->running());
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
}

/// Polls the global trace rings until a record matching `pred` appears.
template <typename Pred>
std::optional<obs::RequestTraceRecord> WaitForTrace(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < deadline) {
    for (const obs::RequestTraceRecord& r :
         obs::RequestTraceRegistry::Global().SnapshotAll()) {
      if (pred(r)) return r;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return std::nullopt;
}

std::string TraceIdHex(uint64_t trace_id) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(trace_id));
  return hex;
}

// A failed text command keeps its trace, with the command's status.
TEST_F(AdminServerTest, FailedTextCommandIsTracedWithItsStatus) {
  ServerOptions options;
  options.loop.trace_sample_every = 1;
  StartServer(options);
  Result<net::UniqueFd> fd = net::ConnectLoopback(server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string line = "bogus\n";
  ASSERT_EQ(::send(fd->get(), line.data(), line.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(line.size()));
  char buf[256];
  const ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
  ASSERT_GT(n, 0);
  EXPECT_EQ(std::string(buf, static_cast<size_t>(n)).rfind("-ERR", 0), 0u);

  std::optional<obs::RequestTraceRecord> rec =
      WaitForTrace([](const obs::RequestTraceRecord& r) {
        return (r.flags & obs::kTraceRecordText) != 0;
      });
  ASSERT_TRUE(rec.has_value()) << "the text command left no trace";
  EXPECT_EQ(rec->status, static_cast<uint8_t>(StatusCode::kInvalidArgument));
  Result<HttpResult> tracez = HttpGet(server_->admin_port(), "/tracez");
  ASSERT_TRUE(tracez.ok()) << tracez.status().ToString();
  EXPECT_NE(tracez->body.find("trace " + TraceIdHex(rec->trace_id) +
                              " conn=" + std::to_string(rec->conn_id) +
                              " seq=0 opcode=0 status=1"),
            std::string::npos)
      << tracez->body;
}

// A request the token bucket rejects is traced as RESOURCE_EXHAUSTED.
TEST_F(AdminServerTest, RateLimitedRequestIsTraced) {
  ServerOptions options;
  options.loop.trace_sample_every = 1;
  options.loop.rate_limit_per_sec = 0.01;
  options.loop.rate_limit_burst = 1;
  StartServer(options);
  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());  // spends the only token
  Result<net::RawResponse> rejected = client.Call(Opcode::kPing, "");
  ASSERT_TRUE(rejected.ok()) << rejected.status().ToString();
  ASSERT_EQ(rejected->code, StatusCode::kResourceExhausted);

  std::optional<obs::RequestTraceRecord> rec =
      WaitForTrace([](const obs::RequestTraceRecord& r) {
        return r.status ==
               static_cast<uint8_t>(StatusCode::kResourceExhausted);
      });
  ASSERT_TRUE(rec.has_value()) << "the rejected request left no trace";
  EXPECT_EQ(rec->opcode, static_cast<uint8_t>(Opcode::kPing));
  EXPECT_EQ(rec->request_seq, 1u);
  Result<HttpResult> tracez = HttpGet(server_->admin_port(), "/tracez");
  ASSERT_TRUE(tracez.ok()) << tracez.status().ToString();
  EXPECT_NE(tracez->body.find(TraceIdHex(rec->trace_id)), std::string::npos)
      << tracez->body;
}

// Backpressure on answered bytes: a client that pipelines large range
// queries and never reads gets its reads paused once its outbox passes
// the watermark, and still reads every response back in order.
TEST_F(AdminServerTest, OutboxWatermarkPausesANonReadingClient) {
  StartServer();
  std::vector<Tuple> tuples;
  for (int i = 0; i < 2000; ++i) {
    tuples.emplace_back(std::vector<Value>{Value::Double(1.0)},
                        *Period::Make(3 * i, 3 * i + 50));
  }
  size_t ingested = 0;
  ASSERT_TRUE(live_.IngestBatch("events", std::move(tuples), &ingested).ok());
  ASSERT_EQ(ingested, 2000u);
  const LiveAggregateIndex* count =
      live_.Find("events", AggregateKind::kCount,
                 AggregateOptions::kNoAttribute);
  ASSERT_NE(count, nullptr);

  // Request i asks for [i % kVariants, 6100); the expected payloads come
  // from the in-process index.
  constexpr int kVariants = 17;
  std::vector<std::string> requests;
  std::vector<std::string> expected;
  for (int v = 0; v < kVariants; ++v) {
    net::AggregateOverRequest req;
    req.relation = "events";
    req.aggregate = static_cast<uint8_t>(AggregateKind::kCount);
    req.attribute = net::kWireNoAttribute;
    req.start = v;
    req.end = 6100;
    req.coalesce = false;
    requests.push_back(net::EncodeAggregateOver(req));
    uint64_t epoch = 0;
    Result<AggregateSeries> series =
        count->AggregateOver(*Period::Make(v, 6100), false, &epoch);
    ASSERT_TRUE(series.ok()) << series.status().ToString();
    net::AggregateOverResponse resp;
    resp.epoch = epoch;
    for (const ResultInterval& iv : series->intervals) {
      resp.intervals.push_back(
          {iv.period.start(), iv.period.end(), iv.value});
    }
    expected.push_back(net::EncodeAggregateOverResponse(resp));
  }
  ASSERT_GT(expected[0].size(), 50000u);

  auto buffered_bytes = [&]() -> size_t {
    Result<HttpResult> statz = HttpGet(server_->admin_port(), "/statz");
    EXPECT_TRUE(statz.ok());
    if (!statz.ok()) return 0;
    size_t worst = 0;
    size_t pos = statz->body.find('\n') + 1;  // skip the header
    while (pos < statz->body.size()) {
      const size_t eol = statz->body.find('\n', pos);
      unsigned long long id = 0, depth = 0, reorder = 0, outbox = 0;
      char mode = 0;
      if (std::sscanf(statz->body.c_str() + pos, "%llu %c %llu %llu %llu",
                      &id, &mode, &depth, &reorder, &outbox) == 5) {
        worst = std::max<size_t>(worst, reorder + outbox);
      }
      pos = eol == std::string::npos ? statz->body.size() : eol + 1;
    }
    return worst;
  };

  obs::Counter& pauses = obs::MetricsRegistry::Global().GetCounter(
      "tagg_net_read_pauses_total", "");
  const uint64_t pauses_before = pauses.Value();
  Client client = Connect();
  size_t worst = 0;
  int sent = 0;
  int extra_after_pause = -1;
  while (sent < 1500 && extra_after_pause != 0) {
    ASSERT_TRUE(client.Send(Opcode::kAggregateOver,
                            requests[sent % kVariants])
                    .ok());
    ++sent;
    if (extra_after_pause > 0) --extra_after_pause;
    if (extra_after_pause < 0 && pauses.Value() > pauses_before) {
      extra_after_pause = 40;  // keep pushing against the pause
    }
    if (sent % 25 == 0) worst = std::max(worst, buffered_bytes());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  worst = std::max(worst, buffered_bytes());
  EXPECT_GT(pauses.Value(), pauses_before) << "reads never paused";
  EXPECT_LT(worst, size_t{16} << 20);

  for (int i = 0; i < sent; ++i) {
    Result<net::RawResponse> resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << "response " << i << ": "
                           << resp.status().ToString();
    ASSERT_EQ(resp->code, StatusCode::kOk) << "response " << i;
    ASSERT_EQ(resp->payload, expected[i % kVariants]) << "response " << i;
  }
}

// Neither listener polls: an idle server with its admin plane shuts
// down at once.
TEST(ServerShutdownTest, IdleServerShutsDownPromptly) {
  Catalog catalog;
  Result<Schema> schema = Schema::Make({{"value", ValueType::kDouble}});
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  ASSERT_TRUE(catalog
                  .Register(std::make_shared<Relation>(std::move(*schema),
                                                       "events"))
                  .ok());
  LiveService live;
  for (int cycle = 0; cycle < 5; ++cycle) {
    Server server(ServerOptions{}, ServingState{&catalog, &live});
    ASSERT_TRUE(server.Start().ok());
    ASSERT_NE(server.admin_port(), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    const auto start = std::chrono::steady_clock::now();
    server.Shutdown();
    const auto took = std::chrono::steady_clock::now() - start;
    EXPECT_LT(took, std::chrono::milliseconds(30))
        << "cycle " << cycle << " took "
        << std::chrono::duration_cast<std::chrono::microseconds>(took)
               .count()
        << "us";
  }
}

// Drain ordering at the AdminPlane level, where the draining flag is
// directly controllable: /healthz must serve 503 while the listener is
// still up, and only Shutdown() closes it.
TEST(AdminPlaneTest, HealthzFlipsBeforeListenerCloses) {
  std::atomic<bool> draining{false};
  AdminOptions options;
  AdminHooks hooks;
  hooks.metrics_text = [] { return MetricsExpositionText(); };
  hooks.draining = [&] { return draining.load(std::memory_order_acquire); };
  AdminPlane admin(options, std::move(hooks));
  ASSERT_TRUE(admin.Start().ok());

  Result<HttpResult> before = HttpGet(admin.port(), "/healthz");
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->status, 200);

  draining.store(true, std::memory_order_release);
  Result<HttpResult> during = HttpGet(admin.port(), "/healthz");
  ASSERT_TRUE(during.ok());
  EXPECT_EQ(during->status, 503);
  EXPECT_EQ(during->body, "draining\n");

  admin.Shutdown();
  EXPECT_FALSE(HttpGet(admin.port(), "/healthz").ok());
}

// Whole-server ordering: while Shutdown drains, any /healthz answer is
// 503 (draining_ is set before any teardown); after Shutdown the admin
// listener is gone.
TEST_F(AdminServerTest, HealthzDuringSigtermStyleDrain) {
  StartServer();
  const uint16_t admin_port = server_->admin_port();

  std::atomic<bool> done{false};
  std::atomic<int> late_200s{0};
  std::atomic<bool> saw_503{false};
  std::thread prober([&] {
    while (!done.load(std::memory_order_acquire)) {
      Result<HttpResult> got = HttpGet(admin_port, "/healthz");
      if (!got.ok()) continue;  // listener already gone
      if (got->status == 503) saw_503.store(true);
      if (got->status == 200 && saw_503.load()) {
        late_200s.fetch_add(1);  // healthy AFTER draining began: a bug
      }
    }
  });
  server_->Shutdown();
  // The listener must be closed by the time Shutdown returns.
  EXPECT_FALSE(HttpGet(admin_port, "/healthz").ok());
  done.store(true, std::memory_order_release);
  prober.join();
  EXPECT_EQ(late_200s.load(), 0);
}

TEST(HttpParserTest, RequestLineAndQueryParams) {
  std::optional<HttpRequest> req =
      ParseRequestLine("GET /tracez?fmt=chrome&x=1 HTTP/1.0\r");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->path, "/tracez");
  EXPECT_EQ(req->query, "fmt=chrome&x=1");
  EXPECT_EQ(QueryParam(req->query, "fmt"), "chrome");
  EXPECT_EQ(QueryParam(req->query, "x"), "1");
  EXPECT_EQ(QueryParam(req->query, "absent"), "");

  EXPECT_FALSE(ParseRequestLine("garbage").has_value());
  EXPECT_FALSE(ParseRequestLine("GET /path").has_value());
  EXPECT_FALSE(ParseRequestLine("GET /path NOTHTTP").has_value());
}

TEST(HttpParserTest, NonGetIs405AndBinaryFrameIsRejected) {
  AdminOptions options;
  AdminHooks hooks;
  hooks.metrics_text = [] { return std::string("x\n"); };
  AdminPlane admin(options, std::move(hooks));
  ASSERT_TRUE(admin.Start().ok());

  Result<net::UniqueFd> fd = net::ConnectLoopback(admin.port());
  ASSERT_TRUE(fd.ok());
  const std::string post = "POST /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(fd->get(), post.data(), post.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(post.size()));
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd->get(), chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    raw.append(chunk, static_cast<size_t>(n));
  }
  EXPECT_EQ(raw.substr(0, 12), "HTTP/1.0 405");

  admin.Shutdown();
}

}  // namespace
}  // namespace server
}  // namespace tagg
