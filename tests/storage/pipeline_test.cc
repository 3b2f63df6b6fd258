// End-to-end integration of the paper's recommended strategy on disk:
//
//   "The simplest strategy is to first sort the underlying relation, then
//    apply the k-ordered aggregation tree algorithm with k = 1."
//
// generate workload -> write a TCR1 column file (stored sorted by time)
// -> stream its blocks through ColumnRelationReader -> k-ordered tree
// (k = 1) -> compare against the in-memory oracle.  Exercises the column
// file writer, the block reader and the streaming aggregator interface
// together.

#include <unistd.h>

#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregates.h"
#include "core/workload.h"
#include "storage/relation_io.h"

namespace tagg {
namespace {

class PipelineTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tagg_pipe_" + std::to_string(::getpid()) + "_" +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  /// Streams every row of `file`, block by block, into `aggregator`.
  static size_t StreamBlocks(const ColumnRelation& file,
                             TemporalAggregator& aggregator) {
    auto reader = file.NewReader();
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (!reader.ok()) return 0;
    size_t streamed = 0;
    std::vector<ColumnRecord> rows;
    for (size_t b = 0; b < file.blocks().size(); ++b) {
      rows.clear();
      const Status read = (*reader)->ReadBlock(b, &rows);
      EXPECT_TRUE(read.ok()) << read.ToString();
      if (!read.ok()) return streamed;
      for (const ColumnRecord& r : rows) {
        EXPECT_TRUE(aggregator.Add(Period(r.start, r.end), 0).ok());
        ++streamed;
      }
    }
    return streamed;
  }

  std::filesystem::path dir_;
};

TEST_F(PipelineTest, SortThenKOneOnDiskMatchesOracle) {
  // 1. A random-order workload with long-lived tuples.
  WorkloadSpec spec;
  spec.num_tuples = 3000;
  spec.lifespan = 200000;
  spec.long_lived_fraction = 0.4;
  spec.order = TupleOrder::kRandom;
  spec.seed = 4242;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());

  // 2. Store it sorted by time, in many small blocks.
  auto sorted = WriteRelationToColumnFile(*relation, Path("sorted.tcr"),
                                          /*rows_per_block=*/256);
  ASSERT_TRUE(sorted.ok()) << sorted.status().ToString();
  ASSERT_EQ((*sorted)->row_count(), relation->size());
  ASSERT_EQ((*sorted)->blocks().size(), 12u);

  // 3. Stream the sorted file through the k = 1 k-ordered tree.
  AggregateOptions options;
  options.algorithm = AlgorithmKind::kKOrderedTree;
  options.k = 1;
  auto aggregator = MakeAggregator(options);
  ASSERT_TRUE(aggregator.ok());
  EXPECT_EQ(StreamBlocks(**sorted, **aggregator), relation->size());
  auto series = (*aggregator)->Finish();
  ASSERT_TRUE(series.ok()) << series.status().ToString();

  // 4. The disk pipeline must agree with the in-memory oracle exactly.
  AggregateOptions oracle_options;
  oracle_options.algorithm = AlgorithmKind::kReference;
  auto oracle = ComputeTemporalAggregate(*relation, oracle_options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(series->intervals, oracle->intervals);

  // The streaming evaluation kept a tiny working set (Section 6.2's win):
  // bounded by the window plus concurrently-open long-lived tuples, far
  // below the full tree's ~4 nodes/tuple.
  EXPECT_LT(series->stats.peak_live_nodes, relation->size());
}

TEST_F(PipelineTest, TwoScanBaselineFromDiskReadsTwice) {
  // The Section 4.1 baseline, driven from disk: one physical pass over
  // the column file's blocks feeds the buffered two-scan evaluator.
  WorkloadSpec spec;
  spec.num_tuples = 400;
  spec.seed = 6;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  auto file = WriteRelationToColumnFile(*relation, Path("t.tcr"),
                                        /*rows_per_block=*/64);
  ASSERT_TRUE(file.ok()) << file.status().ToString();

  AggregateOptions options;
  options.algorithm = AlgorithmKind::kTwoScan;
  auto aggregator = MakeAggregator(options);
  ASSERT_TRUE(aggregator.ok());
  // Physical pass 1 feeds the evaluator (which re-reads its buffer as its
  // own second logical scan).
  EXPECT_EQ(StreamBlocks(**file, **aggregator), relation->size());
  auto series = (*aggregator)->Finish();
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->stats.relation_scans, 2u);

  AggregateOptions oracle_options;
  oracle_options.algorithm = AlgorithmKind::kReference;
  auto oracle = ComputeTemporalAggregate(*relation, oracle_options);
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(series->intervals, oracle->intervals);
}

}  // namespace
}  // namespace tagg
