// ShardedLiveService: registration semantics, boundary-clipped routing,
// scatter-gather equivalence with the unsharded live service, live
// rebalance under data, and the serving-layer integration (`set
// shards` over the text protocol).  The concurrent churn test drives the
// topology cutover under readers — the TSan CI job runs this binary.

#include "shard/sharded_service.h"

#include <sys/socket.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "live/service.h"
#include "net/socket.h"
#include "server/server.h"
#include "temporal/catalog.h"
#include "testing/differential.h"

namespace tagg {
namespace shard {
namespace {

/// events(value double) with a handful of tuples spanning the boot
/// boundaries of a [0, 29] hot window.
std::shared_ptr<Relation> EventsRelation() {
  Result<Schema> schema = Schema::Make({{"value", ValueType::kDouble}});
  EXPECT_TRUE(schema.ok());
  return std::make_shared<Relation>(std::move(*schema), "events");
}

Tuple Event(Instant s, Instant e, double value) {
  return Tuple({Value::Double(value)}, Period(s, e));
}

ShardedServiceOptions SmallOptions(size_t shards) {
  ShardedServiceOptions options;
  options.shards = shards;
  options.hot_window = Period(0, 29);
  return options;
}

class ShardedServiceTest : public ::testing::Test {
 protected:
  void Register(size_t shards) {
    relation_ = EventsRelation();
    ASSERT_TRUE(catalog_.Register(relation_).ok());
    service_ = std::make_unique<ShardedLiveService>(SmallOptions(shards));
    Status count = service_->RegisterIndex(catalog_, "events",
                                           AggregateKind::kCount);
    ASSERT_TRUE(count.ok()) << count.ToString();
    Status sum = service_->RegisterIndex(catalog_, "events",
                                         AggregateKind::kSum, "value");
    ASSERT_TRUE(sum.ok()) << sum.ToString();
  }

  Catalog catalog_;
  std::shared_ptr<Relation> relation_;
  std::unique_ptr<ShardedLiveService> service_;
};

TEST_F(ShardedServiceTest, RegisterValidatesLikeLiveService) {
  Register(2);
  // Unknown relation.
  EXPECT_FALSE(
      service_->RegisterIndex(catalog_, "nope", AggregateKind::kCount).ok());
  // Unknown attribute.
  EXPECT_FALSE(service_
                   ->RegisterIndex(catalog_, "events", AggregateKind::kMin,
                                   "bogus")
                   .ok());
  // SUM needs an attribute.
  EXPECT_FALSE(
      service_->RegisterIndex(catalog_, "events", AggregateKind::kSum).ok());
  // Keys are sorted and cover both registrations on every shard.
  const std::vector<LiveIndexKey> keys = service_->Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0].aggregate, AggregateKind::kCount);
  EXPECT_EQ(keys[1].aggregate, AggregateKind::kSum);
  EXPECT_TRUE(service_->Serves("events", AggregateKind::kCount,
                               AggregateOptions::kNoAttribute));
  EXPECT_FALSE(service_->Serves("events", AggregateKind::kMax, 0));
}

TEST_F(ShardedServiceTest, IngestClipsStraddlingTuplesAcrossShards) {
  Register(3);  // boundaries at 0, 10, 20
  ASSERT_EQ(service_->num_shards(), 3u);
  // [5, 25] overlaps all three shards; [12, 14] only the middle one.
  ASSERT_TRUE(service_->Ingest("events", Event(5, 25, 1.0)).ok());
  ASSERT_TRUE(service_->Ingest("events", Event(12, 14, 2.0)).ok());
  ASSERT_TRUE(service_->Flush().ok());

  const ShardedStats stats = service_->Stats();
  EXPECT_EQ(stats.logical_tuples, 2u);
  ASSERT_EQ(stats.shards.size(), 3u);
  uint64_t fragments = 0;
  for (const ShardInfo& s : stats.shards) fragments += s.tuples;
  // One 3-way straddle plus one interior tuple = 4 fragments.
  EXPECT_EQ(fragments, 4u);

  // Every covered instant still sees the full multiset.
  for (const Instant t : {5, 9, 10, 13, 19, 20, 25}) {
    const Result<Value> sum = service_->AggregateAt(
        "events", AggregateKind::kSum, 0, t);
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    const double expected = (t >= 12 && t <= 14) ? 3.0 : 1.0;
    EXPECT_EQ(*sum, Value::Double(expected)) << "t=" << t;
  }
}

TEST_F(ShardedServiceTest, ScatterGatherMatchesUnshardedService) {
  Register(4);
  // Exactly-representable values: SUM must agree bitwise too.
  const std::vector<Tuple> tuples = {
      Event(0, 7, 1.0),   Event(3, 22, 2.0),  Event(9, 10, 4.0),
      Event(20, 29, 8.0), Event(28, 40, 16.0), Event(35, 35, 32.0)};
  for (const Tuple& t : tuples) {
    ASSERT_TRUE(service_->Ingest("events", t).ok());
  }
  // The unsharded oracle indexes its own copy of the same stream.
  Catalog other;
  std::shared_ptr<Relation> clone = EventsRelation();
  ASSERT_TRUE(other.Register(clone).ok());
  LiveService oracle;
  ASSERT_TRUE(
      oracle.RegisterIndex(other, "events", AggregateKind::kCount).ok());
  for (const Tuple& t : tuples) {
    ASSERT_TRUE(oracle.Ingest("events", Tuple(t)).ok());
  }
  ASSERT_TRUE(service_->Flush().ok());
  ASSERT_TRUE(oracle.Flush().ok());

  const Result<AggregateSeries> sharded = service_->AggregateOver(
      "events", AggregateKind::kCount, AggregateOptions::kNoAttribute,
      Period::All());
  const LiveAggregateIndex* index = oracle.Find(
      "events", AggregateKind::kCount, AggregateOptions::kNoAttribute);
  ASSERT_NE(index, nullptr);
  const Result<AggregateSeries> expected =
      index->AggregateOver(Period::All(), /*coalesce=*/true);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(sharded->intervals, expected->intervals);

  // Sub-range queries clip before scattering.
  const Result<AggregateSeries> range = service_->AggregateOver(
      "events", AggregateKind::kCount, AggregateOptions::kNoAttribute,
      Period(5, 30));
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  ASSERT_FALSE(range->intervals.empty());
  EXPECT_EQ(range->intervals.front().period.start(), 5);
  EXPECT_EQ(range->intervals.back().period.end(), 30);
}

TEST_F(ShardedServiceTest, ProbesOutsideTheTimelineAreRejected) {
  Register(2);
  EXPECT_FALSE(
      service_->AggregateAt("events", AggregateKind::kCount,
                            AggregateOptions::kNoAttribute, kOrigin - 1)
          .ok());
  EXPECT_FALSE(service_
                   ->AggregateAt("unknown", AggregateKind::kCount,
                                 AggregateOptions::kNoAttribute, 5)
                   .ok());
}

TEST_F(ShardedServiceTest, IngestBatchTruncatesAtFirstBadTuple) {
  Register(2);
  std::vector<Tuple> batch = {
      Event(1, 5, 1.0),
      // Wrong arity: rejected by the schema check.
      Tuple({Value::Double(1.0), Value::Double(2.0)}, Period(2, 3)),
      Event(7, 9, 4.0)};
  size_t ingested = 0;
  const Status status = service_->IngestBatch("events", batch, &ingested);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ingested, 1u);
  ASSERT_TRUE(service_->Flush().ok());
  const Result<Value> sum =
      service_->AggregateAt("events", AggregateKind::kSum, 0, 3);
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(*sum, Value::Double(1.0));
}

TEST_F(ShardedServiceTest, ServesFreshTracksTheSourceRelation) {
  Register(2);
  EXPECT_TRUE(service_->ServesFresh(*relation_, AggregateKind::kCount,
                                    AggregateOptions::kNoAttribute));
  ASSERT_TRUE(service_->Ingest("events", Event(1, 5, 1.0)).ok());
  EXPECT_TRUE(service_->ServesFresh(*relation_, AggregateKind::kCount,
                                    AggregateOptions::kNoAttribute));
  // An append behind the router's back makes the shards stale.
  relation_->AppendUnchecked(Event(2, 3, 9.0));
  EXPECT_FALSE(service_->ServesFresh(*relation_, AggregateKind::kCount,
                                     AggregateOptions::kNoAttribute));
  // A different relation object never matches, same contents or not.
  const std::shared_ptr<Relation> stranger = EventsRelation();
  EXPECT_FALSE(service_->ServesFresh(*stranger, AggregateKind::kCount,
                                     AggregateOptions::kNoAttribute));
}

TEST_F(ShardedServiceTest, ReshardPreservesTheSeriesAndBumpsTheVersion) {
  Register(2);
  for (Instant t = 0; t < 60; t += 3) {
    ASSERT_TRUE(service_->Ingest("events", Event(t, t + 7, 1.0)).ok());
  }
  const uint64_t version = service_->topology_version();
  const Result<AggregateSeries> before = service_->AggregateOver(
      "events", AggregateKind::kSum, 0, Period::All());
  ASSERT_TRUE(before.ok());

  ASSERT_TRUE(service_->Reshard(5).ok());
  EXPECT_EQ(service_->num_shards(), 5u);
  EXPECT_GT(service_->topology_version(), version);
  EXPECT_EQ(service_->Stats().rebalances, 1u);

  const Result<AggregateSeries> after = service_->AggregateOver(
      "events", AggregateKind::kSum, 0, Period::All());
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->intervals, after->intervals);

  // New writes land on the new topology.
  ASSERT_TRUE(service_->Ingest("events", Event(100, 200, 2.0)).ok());
  ASSERT_TRUE(service_->Flush().ok());
  const Result<Value> at =
      service_->AggregateAt("events", AggregateKind::kSum, 0, 150);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(*at, Value::Double(2.0));

  EXPECT_FALSE(service_->Reshard(0).ok());
  EXPECT_FALSE(service_->Reshard(100000).ok());
}

TEST(ShardedServiceRegistrationTest, RegisterIndexBuildsOnlyTheNewIndex) {
  Catalog catalog;
  const std::shared_ptr<Relation> relation = EventsRelation();
  ASSERT_TRUE(catalog.Register(relation).ok());
  ShardedLiveService service(SmallOptions(3));
  ASSERT_TRUE(
      service.RegisterIndex(catalog, "events", AggregateKind::kCount).ok());
  for (const Tuple& t : {Event(1, 25, 1.0), Event(12, 14, 2.0)}) {
    ASSERT_TRUE(service.Ingest("events", t).ok());
  }
  ASSERT_TRUE(service.Flush().ok());
  for (const Instant t : {5, 13, 13, 25}) {
    ASSERT_TRUE(service
                    .AggregateAt("events", AggregateKind::kCount,
                                 AggregateOptions::kNoAttribute, t)
                    .ok());
  }
  auto served = [&] {
    std::vector<uint64_t> per_shard;
    for (const ShardInfo& shard : service.Stats().shards) {
      uint64_t queries = 0;
      for (const auto& [key, stats] : shard.service.indexes) {
        if (key.aggregate == AggregateKind::kCount) {
          queries = stats.queries_served;
        }
      }
      per_shard.push_back(queries);
    }
    return per_shard;
  };
  const std::vector<uint64_t> before = served();
  EXPECT_EQ(before, (std::vector<uint64_t>{1, 2, 1}));

  // Registering SUM must leave the COUNT indexes (and their counters)
  // alone, and load SUM with everything COUNT has absorbed.
  ASSERT_TRUE(service
                  .RegisterIndex(catalog, "events", AggregateKind::kSum,
                                 "value")
                  .ok());
  EXPECT_EQ(served(), before);
  EXPECT_TRUE(service.ServesFresh(*relation, AggregateKind::kSum, 0));
  const Result<Value> sum =
      service.AggregateAt("events", AggregateKind::kSum, 0, 13);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(*sum, Value::Double(3.0));
  const Result<Value> at_count =
      service.AggregateAt("events", AggregateKind::kCount,
                          AggregateOptions::kNoAttribute, 20);
  ASSERT_TRUE(at_count.ok());
  EXPECT_EQ(*at_count, Value::Int(1));
}

TEST_F(ShardedServiceTest, StatsReportTopologyAndScatters) {
  Register(3);
  ASSERT_TRUE(service_->Ingest("events", Event(5, 25, 1.0)).ok());
  ASSERT_TRUE(service_->Flush().ok());
  ASSERT_TRUE(service_
                  ->AggregateOver("events", AggregateKind::kCount,
                                  AggregateOptions::kNoAttribute,
                                  Period::All())
                  .ok());
  const ShardedStats stats = service_->Stats();
  EXPECT_EQ(stats.num_shards, 3u);
  EXPECT_GE(stats.scatter_queries, 1u);
  const std::string text = stats.ToString();
  EXPECT_NE(text.find("topology"), std::string::npos) << text;
  EXPECT_NE(text.find("shard"), std::string::npos) << text;
}

// The churn test the TSan job leans on: a writer ingesting plus a
// two mid-stream rebalances, against readers scatter-gathering across
// the cutover; final series diffed against the batch reference.
TEST(ShardedServiceConcurrentTest, ChurnUnderReadersStaysExact) {
  Result<Schema> schema = Schema::Make({{"value", ValueType::kDouble}});
  ASSERT_TRUE(schema.ok());
  Relation relation(std::move(*schema), "events");
  for (Instant t = 0; t < 240; ++t) {
    const Instant start = (t * 7) % 200;
    relation.AppendUnchecked(
        Event(start, start + (t % 13), static_cast<double>(t % 5)));
  }
  for (const AggregateKind aggregate :
       {AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMax}) {
    const size_t attribute = aggregate == AggregateKind::kCount
                                 ? AggregateOptions::kNoAttribute
                                 : 0;
    const Status status = testing::CheckShardedServiceConcurrent(
        relation, aggregate, attribute, /*seed=*/0xC0FFEEu, /*shards=*/3);
    EXPECT_TRUE(status.ok()) << status.ToString();
  }
}

// Readers probe without a registry lock; every topology change publishes
// fresh shard maps.  A registration, ingest and two reshards under two
// probing readers must never fail COUNT, and SUM may be NotFound only
// before its registration returns.
TEST(ShardedServiceConcurrentTest, ProbesDuringRegistrationAndReshard) {
  Catalog catalog;
  std::shared_ptr<Relation> relation = EventsRelation();
  ASSERT_TRUE(catalog.Register(relation).ok());
  for (Instant t = 0; t < 60; t += 2) {
    relation->AppendUnchecked(Event(t, t + 5, 1.0));
  }
  ShardedLiveService service(SmallOptions(2));
  ASSERT_TRUE(
      service.RegisterIndex(catalog, "events", AggregateKind::kCount).ok());

  std::atomic<bool> sum_registered{false};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> probes{0};
  std::atomic<uint64_t> failures{0};
  auto reader = [&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!service
               .AggregateAt("events", AggregateKind::kCount,
                            AggregateOptions::kNoAttribute, 17)
               .ok() ||
          !service
               .AggregateOver("events", AggregateKind::kCount,
                              AggregateOptions::kNoAttribute, Period(0, 99))
               .ok()) {
        failures.fetch_add(1);
      }
      // Read the flag before probing: once it is set, SUM must resolve.
      const bool registered = sum_registered.load(std::memory_order_acquire);
      const Result<Value> at =
          service.AggregateAt("events", AggregateKind::kSum, 0, 17);
      const Result<AggregateSeries> over = service.AggregateOver(
          "events", AggregateKind::kSum, 0, Period(0, 99));
      for (const Status& status : {at.status(), over.status()}) {
        if (!status.ok() && (registered || !status.IsNotFound())) {
          failures.fetch_add(1);
        }
      }
      probes.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread first(reader);
  std::thread second(reader);
  auto wait_for_probes = [&](uint64_t n) {
    const uint64_t target = probes.load() + n;
    while (probes.load() < target) std::this_thread::yield();
  };

  wait_for_probes(8);
  const Status sum =
      service.RegisterIndex(catalog, "events", AggregateKind::kSum, "value");
  sum_registered.store(true, std::memory_order_release);
  for (Instant t = 60; t < 120; t += 3) {
    EXPECT_TRUE(service.Ingest("events", Event(t, t + 4, 1.0)).ok());
  }
  EXPECT_TRUE(service.Flush().ok());
  wait_for_probes(8);
  const Status reshard = service.Reshard(3);
  wait_for_probes(8);
  const Status grow = service.Reshard(4);
  wait_for_probes(8);
  stop.store(true, std::memory_order_release);
  first.join();
  second.join();

  ASSERT_TRUE(sum.ok()) << sum.ToString();
  ASSERT_TRUE(reshard.ok()) << reshard.ToString();
  ASSERT_TRUE(grow.ok()) << grow.ToString();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service.num_shards(), 4u);
  // Every value is 1.0, so SUM and COUNT agree at every instant.
  for (const Instant t : {0, 17, 59, 61, 100, 122}) {
    const Result<Value> count = service.AggregateAt(
        "events", AggregateKind::kCount, AggregateOptions::kNoAttribute, t);
    const Result<Value> total =
        service.AggregateAt("events", AggregateKind::kSum, 0, t);
    ASSERT_TRUE(count.ok() && total.ok()) << "t=" << t;
    if (count->AsInt() == 0) continue;  // SUM over nothing is NULL
    EXPECT_EQ(*total, Value::Double(static_cast<double>(count->AsInt())))
        << "t=" << t;
  }
}

// End-to-end: `set shards` over the taggsql text protocol rebalances the
// serving topology without dropping data.
TEST(ShardedServerTest, SetShardsRebalancesLive) {
  Catalog catalog;
  std::shared_ptr<Relation> relation = EventsRelation();
  ASSERT_TRUE(catalog.Register(relation).ok());
  ShardedLiveService sharded(SmallOptions(1));
  ASSERT_TRUE(
      sharded.RegisterIndex(catalog, "events", AggregateKind::kSum, "value")
          .ok());
  server::ServerOptions options;
  server::Server srv(options,
                     server::ServingState{&catalog, nullptr, &sharded});
  Status started = srv.Start();
  ASSERT_TRUE(started.ok()) << started.ToString();

  Result<net::UniqueFd> fd = net::ConnectLoopback(srv.port());
  ASSERT_TRUE(fd.ok()) << fd.status().ToString();
  const std::string script =
      "insert events 10 20 5.5\n"
      "insert events 15 30 2.5\n"
      "set shards 3\n"
      "shards\n"
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
  srv.Shutdown();

  EXPECT_NE(reply.find("shard(s), topology v"), std::string::npos) << reply;
  EXPECT_NE(reply.find("+OK 8.000000"), std::string::npos) << reply;
  EXPECT_GT(sharded.num_shards(), 1u);
  EXPECT_GE(sharded.topology_version(), 2u);
}

}  // namespace
}  // namespace shard
}  // namespace tagg
