// Server lifecycle tests: start/stop, the end-to-end oracle (wire
// responses byte-identical to the in-process live service), pipelining,
// text mode, backpressure (SERVER_BUSY, rate limiting), idle timeouts,
// graceful drain, and the socket/executor fault-injection sweeps with
// fd-leak accounting.

#include "server/server.h"

#include <dirent.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "net/client.h"
#include "testing/fault_injector.h"

namespace tagg {
namespace server {
namespace {

using net::Client;
using net::Opcode;
using net::RawResponse;
using net::WireTuple;

/// Open descriptors of this process (the tests and the server share it).
size_t CountOpenFds() {
  size_t n = 0;
  DIR* dir = opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  while (readdir(dir) != nullptr) ++n;
  closedir(dir);
  return n;
}

/// Polls until the open-fd count drops back to `baseline` (server-side
/// closes are asynchronous) or the deadline passes.
bool WaitForFdBaseline(size_t baseline,
                       std::chrono::milliseconds timeout =
                           std::chrono::milliseconds(3000)) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    if (CountOpenFds() <= baseline) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return CountOpenFds() <= baseline;
}

class ServerTest : public ::testing::Test {
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
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    testing::FaultInjector::Global().Disarm();
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

TEST_F(ServerTest, StartPingMetricsShutdown) {
  StartServer();
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
  Result<std::string> metrics = client.Metrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->find("tagg_server_requests_total"), std::string::npos);
  EXPECT_NE(metrics->find("tagg_net_connections_active"), std::string::npos);
  server_->Shutdown();
  EXPECT_FALSE(server_->running());
}

TEST_F(ServerTest, InsertFlushAggregateMatchesInProcessOracle) {
  StartServer();
  Client client = Connect();

  ASSERT_TRUE(client.Insert("events", {10, 20, {Value::Double(5.5)}}).ok());
  ASSERT_TRUE(client.Insert("events", {15, 30, {Value::Double(2.5)}}).ok());
  std::vector<WireTuple> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back({i, i + 5, {Value::Double(0.5 * i)}});
  }
  Result<uint32_t> ingested = client.InsertBatch("events", batch);
  ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_EQ(*ingested, 50u);
  ASSERT_TRUE(client.Flush("events").ok());

  const LiveAggregateIndex* sum =
      live_.Find("events", AggregateKind::kSum, 0);
  ASSERT_NE(sum, nullptr);

  // Byte identity: the response payload over TCP must equal the local
  // encoding of the in-process index's answer.
  for (const Instant t : {0, 5, 17, 29, 54, 100}) {
    uint64_t epoch = 0;
    Result<Value> expected = sum->AggregateAt(t, &epoch);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    net::AggregateAtRequest req;
    req.relation = "events";
    req.aggregate = static_cast<uint8_t>(AggregateKind::kSum);
    req.attribute = 0;
    req.t = t;
    Result<RawResponse> raw =
        client.Call(Opcode::kAggregateAt, net::EncodeAggregateAt(req));
    ASSERT_TRUE(raw.ok()) << raw.status().ToString();
    ASSERT_EQ(raw->code, StatusCode::kOk);
    EXPECT_EQ(raw->payload,
              net::EncodeAggregateAtResponse({epoch, *expected}))
        << "at t=" << t;
  }

  uint64_t epoch = 0;
  Result<Period> window = Period::Make(0, 60);
  ASSERT_TRUE(window.ok());
  Result<AggregateSeries> expected_series =
      sum->AggregateOver(*window, /*coalesce=*/true, &epoch);
  ASSERT_TRUE(expected_series.ok()) << expected_series.status().ToString();
  net::AggregateOverResponse expected_resp;
  expected_resp.epoch = epoch;
  for (const ResultInterval& iv : expected_series->intervals) {
    expected_resp.intervals.push_back(
        {iv.period.start(), iv.period.end(), iv.value});
  }
  net::AggregateOverRequest over;
  over.relation = "events";
  over.aggregate = static_cast<uint8_t>(AggregateKind::kSum);
  over.attribute = 0;
  over.start = 0;
  over.end = 60;
  Result<RawResponse> raw =
      client.Call(Opcode::kAggregateOver, net::EncodeAggregateOver(over));
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  ASSERT_EQ(raw->code, StatusCode::kOk);
  EXPECT_EQ(raw->payload, net::EncodeAggregateOverResponse(expected_resp));
}

TEST_F(ServerTest, ErrorsComeBackAsCleanStatuses) {
  StartServer();
  Client client = Connect();
  // Unknown relation.
  const Status missing =
      client.Insert("nosuch", {1, 2, {Value::Double(1.0)}});
  EXPECT_TRUE(missing.IsNotFound()) << missing.ToString();
  // Invalid period (end < start) rejected by validation, not a crash.
  const Status invalid =
      client.Insert("events", {20, 10, {Value::Double(1.0)}});
  EXPECT_FALSE(invalid.ok());
  // Wrong arity rejected by the schema.
  const Status arity = client.Insert("events", {1, 2, {}});
  EXPECT_FALSE(arity.ok());
  // The connection survives all of it.
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, PipelinedResponsesComeBackInOrder) {
  StartServer();
  Client client = Connect();
  constexpr int kDepth = 64;
  for (int i = 0; i < kDepth; ++i) {
    net::InsertRequest req;
    req.relation = "events";
    req.tuple = {i, i + 1, {Value::Double(1.0)}};
    ASSERT_TRUE(
        client.Send(Opcode::kInsert, net::EncodeInsert(req)).ok());
  }
  // Interleave a ping at the end; every response must be OK and the
  // pipeline depth must be preserved (responses are in request order, so
  // kDepth inserts then one ping).
  ASSERT_TRUE(client.Send(Opcode::kPing, "").ok());
  for (int i = 0; i < kDepth + 1; ++i) {
    Result<RawResponse> resp = client.Receive();
    ASSERT_TRUE(resp.ok()) << "response " << i << ": "
                           << resp.status().ToString();
    EXPECT_EQ(resp->code, StatusCode::kOk) << "response " << i;
  }
  const LiveAggregateIndex* count =
      live_.Find("events", AggregateKind::kCount,
                 AggregateOptions::kNoAttribute);
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->epoch(), static_cast<uint64_t>(kDepth));
}

TEST_F(ServerTest, TextModeSpeaksTaggsql) {
  StartServer();
  Result<net::UniqueFd> fd = net::ConnectLoopback(server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string script =
      "ping\n"
      "insert events 10 20 5.5\n"
      "insert events 15 30 2.5\n"
      "at events sum value 17\n"
      "quit\n";
  ASSERT_EQ(::send(fd->get(), script.data(), script.size(), 0),
            static_cast<ssize_t>(script.size()));
  std::string reply;
  char buf[4096];
  while (true) {
    const ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    if (n <= 0) break;  // server closes after +BYE
    reply.append(buf, static_cast<size_t>(n));
  }
  EXPECT_NE(reply.find("+PONG"), std::string::npos) << reply;
  EXPECT_NE(reply.find("+OK 8.000000"), std::string::npos) << reply;
  EXPECT_NE(reply.find("+BYE"), std::string::npos) << reply;
}

TEST_F(ServerTest, BinaryProtocolErrorGetsErrorFrameThenClose) {
  StartServer();
  Result<net::UniqueFd> fd = net::ConnectLoopback(server_->port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  // Valid magic, bogus opcode: the server must answer with an error frame
  // and close, not hang or crash.
  const char bad[] = {static_cast<char>(0xC4), static_cast<char>(0x7F),
                      0, 0, 0, 0};
  ASSERT_EQ(::send(fd->get(), bad, sizeof(bad), 0),
            static_cast<ssize_t>(sizeof(bad)));
  std::string reply;
  char buf[1024];
  while (true) {
    const ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);
    if (n <= 0) break;
    reply.append(buf, static_cast<size_t>(n));
  }
  net::FrameHeader header;
  std::string_view payload;
  size_t consumed = 0;
  Status error;
  ASSERT_EQ(net::TryDecodeFrame(reply, /*expect_request=*/false,
                                net::kDefaultMaxPayloadBytes, &header,
                                &payload, &consumed, &error),
            net::FrameDecodeState::kFrame);
  EXPECT_NE(static_cast<StatusCode>(header.opcode_or_status),
            StatusCode::kOk);
}

TEST_F(ServerTest, ConcurrentClientsAgreeWithInProcessOracle) {
  StartServer();
  constexpr int kClients = 8;
  constexpr int kTuplesEach = 200;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([this, c, &failures] {
      Result<Client> client = Client::ConnectTo(server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kTuplesEach; ++i) {
        const Instant start = c * 1000 + i;
        WireTuple tuple{start, start + 10, {Value::Double(1.0)}};
        if (!client->Insert("events", tuple).ok()) failures.fetch_add(1);
        // Interleave reads with the writes.
        if (i % 50 == 0 &&
            !client
                 ->AggregateAt("events",
                               static_cast<uint8_t>(AggregateKind::kCount),
                               net::kWireNoAttribute, start)
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Every insert acknowledged: the in-process index and the wire answer
  // must agree exactly.
  const LiveAggregateIndex* count =
      live_.Find("events", AggregateKind::kCount,
                 AggregateOptions::kNoAttribute);
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->epoch(),
            static_cast<uint64_t>(kClients) * kTuplesEach);
  Client client = Connect();
  for (const Instant t : {0, 500, 1005, 3042, 7199}) {
    uint64_t epoch = 0;
    Result<Value> expected = count->AggregateAt(t, &epoch);
    ASSERT_TRUE(expected.ok());
    Result<net::AggregateAtResponse> got = client.AggregateAt(
        "events", static_cast<uint8_t>(AggregateKind::kCount),
        net::kWireNoAttribute, t);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->value, *expected) << "t=" << t;
    EXPECT_EQ(got->epoch, epoch);
  }
}

TEST_F(ServerTest, RateLimiterRejectsBursts) {
  ServerOptions options;
  options.loop.rate_limit_per_sec = 1.0;
  options.loop.rate_limit_burst = 1.0;
  StartServer(options);
  Client client = Connect();
  // The single burst token admits the first request; the immediate second
  // one must bounce with RATE_LIMITED.
  ASSERT_TRUE(client.Ping().ok());
  Result<RawResponse> second = client.Call(Opcode::kPing, "");
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->code, StatusCode::kResourceExhausted);
  EXPECT_EQ(second->payload.rfind("RATE_LIMITED", 0), 0u)
      << second->payload;
}

TEST_F(ServerTest, IdleConnectionsAreDisconnected) {
  ServerOptions options;
  options.loop.idle_timeout = std::chrono::milliseconds(100);
  StartServer(options);
  const size_t baseline = CountOpenFds();
  {
    Result<net::UniqueFd> fd = net::ConnectLoopback(server_->port());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    // Never send a byte; the idle sweep must close us.
    char buf[16];
    const ssize_t n = ::recv(fd->get(), buf, sizeof(buf), 0);  // blocks
    EXPECT_EQ(n, 0) << "expected EOF from idle disconnect";
  }
  EXPECT_TRUE(WaitForFdBaseline(baseline));
}

TEST_F(ServerTest, GracefulDrainAnswersInFlightRequests) {
  StartServer();
  Client client = Connect();
  constexpr int kInFlight = 100;
  for (int i = 0; i < kInFlight; ++i) {
    net::InsertRequest req;
    req.relation = "events";
    req.tuple = {i, i + 1, {Value::Double(1.0)}};
    ASSERT_TRUE(
        client.Send(Opcode::kInsert, net::EncodeInsert(req)).ok());
  }
  // Let the loop parse the burst, then drain while responses are in
  // flight.  Every parsed request must still be answered.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  std::thread shutdown([this] { server_->Shutdown(); });
  int answered = 0;
  while (true) {
    Result<RawResponse> resp = client.Receive();
    if (!resp.ok()) break;  // EOF after the drain completes
    EXPECT_EQ(resp->code, StatusCode::kOk);
    ++answered;
  }
  shutdown.join();
  EXPECT_EQ(answered, kInFlight);
  // Every acknowledged insert published its own version before it was
  // answered, so all of them are visible in the live index.
  const LiveAggregateIndex* count =
      live_.Find("events", AggregateKind::kCount,
                 AggregateOptions::kNoAttribute);
  ASSERT_NE(count, nullptr);
  EXPECT_EQ(count->epoch(), static_cast<uint64_t>(kInFlight));
}

TEST_F(ServerTest, ShutdownRefusesNewConnections) {
  StartServer();
  const uint16_t port = server_->port();
  server_->Shutdown();
  Result<net::UniqueFd> fd = net::ConnectLoopback(port);
  EXPECT_FALSE(fd.ok());
}

// ---------------------------------------------------------------------------
// Fault-injection sweeps: every socket seam failure must surface as a
// clean close (no crash, no hang) with no leaked descriptors.
// ---------------------------------------------------------------------------

TEST_F(ServerTest, InjectedAcceptFaultDropsConnectionNotServer) {
  StartServer();
  const size_t baseline = CountOpenFds();
  testing::FaultInjector::Global().Arm("net.accept", 1);
  {
    // TCP connect succeeds (the kernel completes the handshake); the
    // server-side accept fails and the socket is dropped cleanly.
    Result<net::UniqueFd> fd = net::ConnectLoopback(server_->port());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    char buf[16];
    EXPECT_LE(::recv(fd->get(), buf, sizeof(buf), 0), 0);
  }
  EXPECT_GE(testing::FaultInjector::Global().injected(), 1u);
  testing::FaultInjector::Global().Disarm();
  EXPECT_TRUE(WaitForFdBaseline(baseline));
  // The server survived and accepts again.
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerTest, InjectedReadFaultClosesThatConnectionOnly) {
  StartServer();
  Client healthy = Connect();
  ASSERT_TRUE(healthy.Ping().ok());
  const size_t baseline = CountOpenFds();
  {
    Result<net::UniqueFd> fd = net::ConnectLoopback(server_->port());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    testing::FaultInjector::Global().Arm("net.read", 1);
    const std::string ping = net::EncodeRequestFrame(Opcode::kPing, "");
    ASSERT_EQ(::send(fd->get(), ping.data(), ping.size(), 0),
              static_cast<ssize_t>(ping.size()));
    char buf[16];
    EXPECT_LE(::recv(fd->get(), buf, sizeof(buf), 0), 0);
    testing::FaultInjector::Global().Disarm();
  }
  EXPECT_TRUE(WaitForFdBaseline(baseline));
  EXPECT_TRUE(healthy.Ping().ok());
}

TEST_F(ServerTest, InjectedWriteFaultClosesThatConnectionOnly) {
  StartServer();
  Client healthy = Connect();
  ASSERT_TRUE(healthy.Ping().ok());
  const size_t baseline = CountOpenFds();
  {
    Result<net::UniqueFd> fd = net::ConnectLoopback(server_->port());
    ASSERT_TRUE(fd.ok()) << fd.status().ToString();
    testing::FaultInjector::Global().Arm("net.write", 1);
    const std::string ping = net::EncodeRequestFrame(Opcode::kPing, "");
    ASSERT_EQ(::send(fd->get(), ping.data(), ping.size(), 0),
              static_cast<ssize_t>(ping.size()));
    char buf[16];
    EXPECT_LE(::recv(fd->get(), buf, sizeof(buf), 0), 0);
    testing::FaultInjector::Global().Disarm();
  }
  EXPECT_TRUE(WaitForFdBaseline(baseline));
  EXPECT_TRUE(healthy.Ping().ok());
}

TEST_F(ServerTest, InjectedEnqueueFaultBouncesRequestCleanly) {
  StartServer();
  Client client = Connect();
  ASSERT_TRUE(client.Ping().ok());  // Ping is answered inline, no enqueue
  testing::FaultInjector::Global().Arm("net.executor.enqueue", 1);
  net::InsertRequest req;
  req.relation = "events";
  req.tuple = {1, 2, {Value::Double(1.0)}};
  Result<RawResponse> bounced =
      client.Call(Opcode::kInsert, net::EncodeInsert(req));
  ASSERT_TRUE(bounced.ok()) << bounced.status().ToString();
  EXPECT_NE(bounced->code, StatusCode::kOk);
  testing::FaultInjector::Global().Disarm();
  // Single-shot fault: the connection stays usable and the retry lands.
  EXPECT_TRUE(
      client.Insert("events", {1, 2, {Value::Double(1.0)}}).ok());
}

}  // namespace
}  // namespace server
}  // namespace tagg
