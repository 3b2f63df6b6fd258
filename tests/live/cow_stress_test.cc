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
//   * write batching: every writer call publishes exactly one version,
//     so a reader never observes a partial batch — NULL-skipped tuples
//     included.

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

#include "core/workload.h"
#include "live/live_index.h"

namespace tagg {
namespace {

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
  auto created = LiveAggregateIndex::Create(LiveIndexOptions{});
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
  auto created = LiveAggregateIndex::Create(LiveIndexOptions{});
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

/// SUM(salary) over the first `n` tuples valid at `t`, skipping NULL
/// salaries; NULL when no non-NULL salary covers `t`.
Value SumVisibleAt(const std::vector<Tuple>& tuples, size_t n, Instant t) {
  double sum = 0.0;
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    const Value& salary = tuples[i].value(1);
    if (salary.is_null() || t < tuples[i].start() || t > tuples[i].end()) {
      continue;
    }
    sum += salary.ToNumeric().value();
    any = true;
  }
  return any ? Value::Double(sum) : Value::Null();
}

/// Runs `write(offset)` for every `batch`-tuple slice of `n` tuples on a
/// writer thread while this thread probes `index` at random instants in
/// [0, lifespan): every observed epoch must fall on a batch boundary and
/// the answer must equal `oracle(epoch, t)`.  Afterwards the index must
/// have published exactly one version per batch beyond the empty tree.
template <typename Write, typename Oracle>
void ProbeBatchBoundaries(LiveAggregateIndex& index, size_t n, size_t batch,
                          Instant lifespan, Write write, Oracle oracle) {
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t off = 0; off < n; off += batch) {
      ASSERT_TRUE(write(off).ok());
      std::this_thread::yield();
    }
    done.store(true, std::memory_order_release);
  });

  std::mt19937_64 rng(11);
  std::uniform_int_distribution<Instant> pick(0, lifespan - 1);
  size_t observed = 0;
  while (!done.load(std::memory_order_acquire)) {
    const Instant t = pick(rng);
    uint64_t epoch = 0;
    auto got = index.AggregateAt(t, &epoch);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(epoch % batch, 0u) << "partial batch visible at " << epoch;
    ASSERT_EQ(*got, oracle(static_cast<size_t>(epoch), t))
        << "epoch=" << epoch << " at=" << t;
    ++observed;
  }
  writer.join();
  EXPECT_GT(observed, 0u);
  EXPECT_EQ(index.epoch(), n);
  EXPECT_EQ(index.Stats().versions_published, 1 + n / batch);
}

TEST(CowStressTest, BatchedWriterNeverExposesPartialBatches) {
  // Concurrent readers against a batch writer: every observed epoch must
  // be a batch boundary, and the answer must match the oracle over
  // exactly that many tuples.
  constexpr Instant kLifespan = 30'000;
  const std::vector<Tuple> tuples = RandomTuples(2048, 717, kLifespan);
  constexpr size_t kBatch = 128;
  {
    auto created = LiveAggregateIndex::Create(LiveIndexOptions{});
    ASSERT_TRUE(created.ok());
    LiveAggregateIndex& index = **created;
    ProbeBatchBoundaries(
        index, tuples.size(), kBatch, kLifespan,
        [&](size_t off) {
          std::vector<std::pair<Period, double>> batch;
          for (size_t i = off; i < off + kBatch; ++i) {
            batch.emplace_back(tuples[i].valid(), 0.0);
          }
          return index.InsertBatch(batch);
        },
        [&](size_t epoch, Instant t) {
          return Value::Int(CountVisibleAt(tuples, epoch, t));
        });
  }

  // The same contract through InsertTuples on a SUM index whose batches
  // carry NULL salaries: a skipped NULL advances the epoch inside its
  // batch's version, never as a version of its own.
  std::vector<Tuple> with_nulls = tuples;
  for (size_t i = 0; i < with_nulls.size(); i += 3) {
    std::vector<Value> values = with_nulls[i].values();
    values[1] = Value::Null();
    with_nulls[i] = Tuple(std::move(values), with_nulls[i].valid());
  }
  LiveIndexOptions sum;
  sum.aggregate = AggregateKind::kSum;
  sum.attribute = 1;
  auto created = LiveAggregateIndex::Create(sum);
  ASSERT_TRUE(created.ok());
  LiveAggregateIndex& index = **created;
  ProbeBatchBoundaries(
      index, with_nulls.size(), kBatch, kLifespan,
      [&](size_t off) {
        const std::vector<Tuple> batch(with_nulls.begin() + off,
                                       with_nulls.begin() + off + kBatch);
        return index.InsertTuples(batch);
      },
      [&](size_t epoch, Instant t) {
        return SumVisibleAt(with_nulls, epoch, t);
      });
  EXPECT_EQ(index.Stats().inserts_absorbed,
            with_nulls.size() - (with_nulls.size() + 2) / 3);
}

TEST(CowStressTest, StatsAreConsistentSnapshotsUnderWriteLoad) {
  // Stats() reads the published VersionRecord, so the (epoch, depth,
  // live_nodes) triple must be internally consistent even while the
  // writer churns.  With COUNT over distinct endpoints the tree only
  // grows, so live_nodes and epoch must be monotone in reader order.
  const std::vector<Tuple> tuples = RandomTuples(1500, 818, 20'000);
  auto created = LiveAggregateIndex::Create(LiveIndexOptions{});
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
