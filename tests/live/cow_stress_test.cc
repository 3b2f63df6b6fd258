// COW-engine-specific stress and reclamation tests.
//
// live_stress_test.cc proves the generic snapshot-isolation contract;
// this file targets the hazards specific to copy-on-write publication:
//
//   * readers walking a version WHILE the writer path-copies and
//     publishes the next ones (the descent must never observe a
//     half-built private node, and recycled memory must never be handed
//     back while a pinned reader could still dereference it — under
//     -fsanitize=thread the epoch handshake in live/epoch.h is what keeps
//     this section race-free);
//   * epoch-based reclamation bookkeeping: retired node counts must drain
//     back to zero once readers quiesce, and never drop a node a pinned
//     reader can reach;
//   * write batching: publish_every_n and InsertBatch defer publication
//     without ever exposing a partial batch.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "live/live_index.h"

namespace tagg {
namespace {

LiveIndexOptions CowCountOptions(size_t publish_every_n = 1) {
  LiveIndexOptions options;
  options.publish_every_n = publish_every_n;
  return options;
}

std::vector<Tuple> RandomTuples(size_t n, uint64_t seed, Instant lifespan) {
  WorkloadSpec spec;
  spec.num_tuples = n;
  spec.lifespan = lifespan;
  spec.long_lived_fraction = 0.3;
  spec.seed = seed;
  auto relation = GenerateEmployedRelation(spec);
  EXPECT_TRUE(relation.ok());
  return std::vector<Tuple>(relation->begin(), relation->end());
}

int64_t CountVisibleAt(const std::vector<Tuple>& tuples, size_t n,
                       Instant t) {
  int64_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (tuples[i].start() <= t && t <= tuples[i].end()) ++count;
  }
  return count;
}

TEST(CowStressTest, ReadersSurvivePathCopyPublishesAndReclamation) {
  // The writer publishes per insert — maximum version churn, so retired
  // paths are constantly being reclaimed underneath the reader pool.
  // Every probe must still match the scan oracle for its snapshot epoch,
  // and epochs must be monotone per reader.
  const std::vector<Tuple> tuples = RandomTuples(2500, 515, 60'000);
  auto created = LiveAggregateIndex::Create(CowCountOptions());
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;

  constexpr size_t kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<size_t> readers_started{0};

  std::thread writer([&] {
    while (readers_started.load(std::memory_order_acquire) < kReaders) {
      std::this_thread::yield();
    }
    for (size_t i = 0; i < tuples.size(); ++i) {
      ASSERT_TRUE(index.InsertTuple(tuples[i]).ok());
      if (i % 64 == 0) std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  struct Probe {
    uint64_t epoch;
    Instant at;
    int64_t value;
  };
  std::vector<std::vector<Probe>> per_reader(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      std::mt19937_64 rng(77 + r);
      std::uniform_int_distribution<Instant> pick(0, 60'000 - 1);
      uint64_t last_epoch = 0;
      bool announced = false;
      while (!done.load(std::memory_order_acquire)) {
        const Instant t = pick(rng);
        uint64_t epoch = 0;
        auto got = index.AggregateAt(t, &epoch);
        ASSERT_TRUE(got.ok());
        ASSERT_GE(epoch, last_epoch);  // versions are monotone per reader
        last_epoch = epoch;
        if (per_reader[r].size() < 800 ||
            epoch != per_reader[r].back().epoch) {
          per_reader[r].push_back({epoch, t, got->AsInt()});
        }
        if (!announced) {
          announced = true;
          readers_started.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  writer.join();
  for (std::thread& th : readers) th.join();

  size_t mid_stream = 0;
  for (const std::vector<Probe>& probes : per_reader) {
    for (const Probe& p : probes) {
      ASSERT_LE(p.epoch, tuples.size());
      EXPECT_EQ(p.value,
                CountVisibleAt(tuples, static_cast<size_t>(p.epoch), p.at))
          << "epoch=" << p.epoch << " at=" << p.at;
      if (p.epoch > 0 && p.epoch < tuples.size()) ++mid_stream;
    }
  }
  EXPECT_GT(mid_stream, 0u);

  // Reclamation accounting after everyone drained: one idle Flush frees
  // every retire list (no pin can be older than the current version).
  index.Flush();
  const LiveIndexStats stats = index.Stats();
  EXPECT_GT(stats.nodes_retired, 0u);
  EXPECT_EQ(stats.retired_pending, 0u);
  EXPECT_EQ(stats.nodes_reclaimed, stats.nodes_retired);
}

TEST(CowStressTest, RetiredNodesDrainToZeroAfterReaderChurn) {
  const std::vector<Tuple> tuples = RandomTuples(4000, 616, 40'000);
  auto created = LiveAggregateIndex::Create(CowCountOptions());
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;

  std::atomic<bool> done{false};
  std::thread reader([&] {
    std::mt19937_64 rng(5);
    std::uniform_int_distribution<Instant> pick(0, 40'000 - 1);
    while (!done.load(std::memory_order_acquire)) {
      ASSERT_TRUE(index.AggregateAt(pick(rng)).ok());
    }
  });
  for (const Tuple& t : tuples) ASSERT_TRUE(index.InsertTuple(t).ok());
  done.store(true, std::memory_order_release);
  reader.join();

  // Path-copying a grown tree must have retired plenty of nodes...
  LiveIndexStats stats = index.Stats();
  EXPECT_GT(stats.nodes_retired, tuples.size());
  // ...and with readers drained, everything retired is reclaimable: the
  // pending count returns to its baseline of zero and live_nodes counts
  // only the published tree.
  index.Flush();
  stats = index.Stats();
  EXPECT_EQ(stats.retired_pending, 0u);
  EXPECT_EQ(stats.nodes_reclaimed, stats.nodes_retired);

  // The published answer is still exactly the full-relation answer.
  uint64_t epoch = 0;
  auto at = index.AggregateAt(12'345, &epoch);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(epoch, tuples.size());
  EXPECT_EQ(at->AsInt(),
            CountVisibleAt(tuples, tuples.size(), 12'345));
}

TEST(CowStressTest, PublishEveryNDefersVisibilityUntilFlush) {
  auto created = LiveAggregateIndex::Create(CowCountOptions(16));
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;

  // 10 unpublished inserts: readers still see the empty tree at epoch 0.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(index.Insert(Period(0, 99), 0.0).ok());
  }
  EXPECT_EQ(index.epoch(), 0u);
  uint64_t epoch = 99;
  auto at = index.AggregateAt(50, &epoch);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(epoch, 0u);
  EXPECT_EQ(*at, Value::Int(0));

  // Flush publishes the held-back batch in one version.
  index.Flush();
  EXPECT_EQ(index.epoch(), 10u);
  at = index.AggregateAt(50, &epoch);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(epoch, 10u);
  EXPECT_EQ(*at, Value::Int(10));

  // The 16th pending insert triggers an automatic publish: 15 stay
  // invisible, one more makes all 16 land at once.
  for (int i = 0; i < 15; ++i) {
    ASSERT_TRUE(index.Insert(Period(0, 99), 0.0).ok());
  }
  EXPECT_EQ(index.epoch(), 10u);
  ASSERT_TRUE(index.Insert(Period(0, 99), 0.0).ok());
  EXPECT_EQ(index.epoch(), 26u);
  at = index.AggregateAt(50, &epoch);
  ASSERT_TRUE(at.ok());
  EXPECT_EQ(*at, Value::Int(26));

  // Versions advanced once per publish (construction + flush + auto),
  // not once per insert.
  EXPECT_EQ(index.Stats().versions_published, 3u);
}

TEST(CowStressTest, BatchedWriterNeverExposesPartialBatches) {
  // Concurrent readers against an InsertBatch writer: every observed
  // epoch must be a batch boundary, and the answer must match the oracle
  // over exactly that many tuples.
  const std::vector<Tuple> tuples = RandomTuples(2048, 717, 30'000);
  constexpr size_t kBatch = 128;
  auto created = LiveAggregateIndex::Create(CowCountOptions());
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t off = 0; off < tuples.size(); off += kBatch) {
      std::vector<std::pair<Period, double>> batch;
      for (size_t i = off; i < off + kBatch; ++i) {
        batch.emplace_back(tuples[i].valid(), 0.0);
      }
      ASSERT_TRUE(index.InsertBatch(batch).ok());
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::mt19937_64 rng(11);
  std::uniform_int_distribution<Instant> pick(0, 30'000 - 1);
  size_t observed = 0;
  while (!done.load(std::memory_order_acquire)) {
    const Instant t = pick(rng);
    uint64_t epoch = 0;
    auto got = index.AggregateAt(t, &epoch);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(epoch % kBatch, 0u) << "partial batch visible at " << epoch;
    ASSERT_EQ(got->AsInt(),
              CountVisibleAt(tuples, static_cast<size_t>(epoch), t));
    ++observed;
  }
  writer.join();
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(index.epoch(), tuples.size());
}

TEST(CowStressTest, StatsAreConsistentSnapshotsUnderWriteLoad) {
  // Stats() reads the published VersionRecord, so the (epoch, depth,
  // live_nodes) triple must be internally consistent even while the
  // writer churns.  With COUNT over distinct endpoints the tree only
  // grows, so live_nodes and epoch must be monotone in reader order.
  const std::vector<Tuple> tuples = RandomTuples(1500, 818, 20'000);
  auto created = LiveAggregateIndex::Create(CowCountOptions());
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const Tuple& t : tuples) ASSERT_TRUE(index.InsertTuple(t).ok());
    done.store(true, std::memory_order_release);
  });

  uint64_t last_epoch = 0;
  size_t last_nodes = 0;
  while (!done.load(std::memory_order_acquire)) {
    const LiveIndexStats stats = index.Stats();
    ASSERT_GE(stats.epoch, last_epoch);
    ASSERT_GE(stats.live_nodes, last_nodes);
    ASSERT_GE(stats.tree_depth, 1u);
    ASSERT_EQ(stats.paper_bytes, stats.live_nodes * kPaperNodeBytes);
    ASSERT_GE(stats.versions_published, 1u);
    last_epoch = stats.epoch;
    last_nodes = stats.live_nodes;
  }
  writer.join();
  EXPECT_EQ(index.Stats().epoch, tuples.size());
}

}  // namespace
}  // namespace tagg
