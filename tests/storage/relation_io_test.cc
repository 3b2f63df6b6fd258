#include "storage/relation_io.h"

#include <unistd.h>

#include <filesystem>

#include <gtest/gtest.h>

#include "core/aggregates.h"
#include "core/workload.h"

namespace tagg {
namespace {

class RelationIoTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tagg_relio_" + std::to_string(::getpid()) + "_" +
            testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

TEST_F(RelationIoTest, RoundTripsEmployed) {
  Relation employed = MakeFigure1EmployedRelation();
  auto file = WriteRelationToColumnFile(employed, Path("e.tcr"));
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ((*file)->row_count(), 4u);
  auto back = LoadRelationFromColumnFile(**file, "employed");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  // The file holds the relation sorted by time.
  Relation sorted = employed;
  sorted.SortByTime();
  ASSERT_EQ(back->size(), sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(back->tuple(i), sorted.tuple(i));
  }
}

TEST_F(RelationIoTest, RoundTripsGeneratedWorkload) {
  WorkloadSpec spec;
  spec.num_tuples = 500;
  spec.long_lived_fraction = 0.4;
  spec.seed = 77;
  auto relation = GenerateEmployedRelation(spec);
  ASSERT_TRUE(relation.ok());
  auto file = WriteRelationToColumnFile(*relation, Path("w.tcr"),
                                        /*rows_per_block=*/64);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  auto back = LoadRelationFromColumnFile(**file, "w");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), relation->size());

  // Aggregates over the loaded relation equal aggregates over the source.
  AggregateOptions options;
  auto a = ComputeTemporalAggregate(*relation, options);
  auto b = ComputeTemporalAggregate(*back, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->intervals, b->intervals);
}

TEST_F(RelationIoTest, SurvivesReopen) {
  Relation employed = MakeFigure1EmployedRelation();
  {
    auto file = WriteRelationToColumnFile(employed, Path("p.tcr"));
    ASSERT_TRUE(file.ok()) << file.status().ToString();
  }
  auto reopened = ColumnRelation::Open(Path("p.tcr"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  auto back = LoadRelationFromColumnFile(**reopened, "employed");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->size(), 4u);
}

TEST_F(RelationIoTest, RejectsUnencodableTuples) {
  auto schema = Schema::Make({{"only", ValueType::kInt}}).value();
  Relation bad(schema, "bad");
  bad.AppendUnchecked(Tuple({Value::Int(1)}, Period(0, 1)));
  EXPECT_TRUE(WriteRelationToColumnFile(bad, Path("bad.tcr"))
                  .status()
                  .IsInvalidArgument());
}

}  // namespace
}  // namespace tagg
