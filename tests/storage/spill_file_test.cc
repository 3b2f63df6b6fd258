#include "storage/spill_file.h"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "storage/external_sort.h"

namespace tagg {
namespace {

using Field = TemporalColumnLayout::Field;

struct Rec {
  int64_t key;
  double payload;
};

TemporalColumnLayout RecLayout() { return {{Field::kTime, Field::kDouble}}; }
TemporalColumnLayout Int64Layout() { return {{Field::kInt}}; }

TEST(SpillFileTest, RoundTripsRecords) {
  auto file = SpillFile::Create(RecLayout());
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<Rec> recs;
  for (int64_t i = 0; i < 100; ++i) recs.push_back({i, i * 0.5});
  ASSERT_TRUE((*file)->Append(recs.data(), recs.size()).ok());
  EXPECT_EQ((*file)->record_count(), 100u);
  EXPECT_EQ((*file)->raw_bytes(), 100 * sizeof(Rec));
  EXPECT_GT((*file)->encoded_bytes(), 0u);

  SpillFile::Reader reader(**file);
  for (int64_t i = 0; i < 100; ++i) {
    auto rec = reader.Next();
    ASSERT_TRUE(rec.ok());
    ASSERT_NE(rec.value(), nullptr);
    Rec r;
    std::memcpy(&r, rec.value(), sizeof(Rec));
    EXPECT_EQ(r.key, i);
    EXPECT_EQ(r.payload, i * 0.5);
  }
  auto eof = reader.Next();
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(eof.value(), nullptr);
}

TEST(SpillFileTest, EmptyLayoutIsRejected) {
  auto file = SpillFile::Create({});
  EXPECT_TRUE(file.status().IsInvalidArgument()) << file.status().ToString();
}

TEST(SpillFileTest, EmptyFileReadsAsEof) {
  auto file = SpillFile::Create(RecLayout());
  ASSERT_TRUE(file.ok());
  SpillFile::Reader reader(**file);
  auto rec = reader.Next();
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value(), nullptr);
}

TEST(SpillFileTest, MultipleReadersReplayIndependently) {
  auto file = SpillFile::Create(Int64Layout());
  ASSERT_TRUE(file.ok());
  std::vector<int64_t> vals(10);
  std::iota(vals.begin(), vals.end(), 0);
  ASSERT_TRUE((*file)->Append(vals.data(), vals.size()).ok());
  for (int round = 0; round < 2; ++round) {
    SpillFile::Reader reader(**file);
    for (int64_t want = 0; want < 10; ++want) {
      auto rec = reader.Next();
      ASSERT_TRUE(rec.ok());
      ASSERT_NE(rec.value(), nullptr);
      int64_t got;
      std::memcpy(&got, rec.value(), sizeof(got));
      EXPECT_EQ(got, want);
    }
  }
}

TEST(SpillFileTest, ConcurrentAppendsAreComplete) {
  // The partitioned aggregation's phase-1 workers append batches to the
  // same region file concurrently; every record must land exactly once.
  auto file = SpillFile::Create(Int64Layout());
  ASSERT_TRUE(file.ok());
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 1000;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const int64_t v = static_cast<int64_t>(t * kPerThread + i);
        ASSERT_TRUE((*file)->Append(&v, 1).ok());
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ((*file)->record_count(), kThreads * kPerThread);

  // Every value appears exactly once, whatever the interleaving.
  std::vector<int> seen(kThreads * kPerThread, 0);
  SpillFile::Reader reader(**file);
  while (true) {
    auto rec = reader.Next();
    ASSERT_TRUE(rec.ok());
    if (rec.value() == nullptr) break;
    int64_t v;
    std::memcpy(&v, rec.value(), sizeof(v));
    ASSERT_GE(v, 0);
    ASSERT_LT(static_cast<size_t>(v), seen.size());
    ++seen[static_cast<size_t>(v)];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

bool RecKeyLess(const void* a, const void* b) {
  return static_cast<const Rec*>(a)->key < static_cast<const Rec*>(b)->key;
}

TEST(PodRunSorterTest, SortsWithinBudget) {
  PodRunSorter sorter(RecLayout(), RecKeyLess, 1024);
  for (int64_t i = 99; i >= 0; --i) {
    const Rec r{i, static_cast<double>(i)};
    ASSERT_TRUE(sorter.Add(&r).ok());
  }
  EXPECT_EQ(sorter.runs_generated(), 0u);
  std::vector<int64_t> out;
  ASSERT_TRUE(sorter
                  .Merge([&](const void* rec) {
                    out.push_back(static_cast<const Rec*>(rec)->key);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int64_t>(i));
  }
  EXPECT_EQ(sorter.peak_buffered_records(), 100u);
}

TEST(PodRunSorterTest, SpillsRunsAndMergesSorted) {
  // A budget of 16 over 1000 reverse-ordered records forces dozens of
  // runs; the merge must still stream a perfectly sorted sequence.
  PodRunSorter sorter(RecLayout(), RecKeyLess, 16);
  for (int64_t i = 999; i >= 0; --i) {
    const Rec r{i, 0.0};
    ASSERT_TRUE(sorter.Add(&r).ok());
  }
  EXPECT_GE(sorter.runs_generated(), 2u);
  EXPECT_LE(sorter.peak_buffered_records(), 16u);
  std::vector<int64_t> out;
  ASSERT_TRUE(sorter
                  .Merge([&](const void* rec) {
                    out.push_back(static_cast<const Rec*>(rec)->key);
                    return Status::OK();
                  })
                  .ok());
  ASSERT_EQ(out.size(), 1000u);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int64_t>(i));
  }
  // runs_generated survives the merge (the run files themselves do not).
  EXPECT_GE(sorter.runs_generated(), 2u);
}

TEST(PodRunSorterTest, EmptyMergeEmitsNothing) {
  PodRunSorter sorter(RecLayout(), RecKeyLess, 8);
  size_t emitted = 0;
  ASSERT_TRUE(sorter
                  .Merge([&](const void*) {
                    ++emitted;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(emitted, 0u);
}

TEST(PodRunSorterTest, StableUnderDuplicateKeys) {
  PodRunSorter sorter(RecLayout(), RecKeyLess, 4);
  for (int64_t i = 0; i < 50; ++i) {
    const Rec r{i % 5, static_cast<double>(i)};
    ASSERT_TRUE(sorter.Add(&r).ok());
  }
  int64_t prev = -1;
  size_t emitted = 0;
  ASSERT_TRUE(sorter
                  .Merge([&](const void* rec) {
                    const int64_t key = static_cast<const Rec*>(rec)->key;
                    EXPECT_GE(key, prev);
                    prev = key;
                    ++emitted;
                    return Status::OK();
                  })
                  .ok());
  EXPECT_EQ(emitted, 50u);
}

}  // namespace
}  // namespace tagg
