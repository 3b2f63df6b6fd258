// EXPLAIN ANALYZE end-to-end: the statement parses, the query actually
// executes, and the attached QueryProfile forms a well-nested span tree
// whose stage durations are consistent with the total wall time.

#include <gtest/gtest.h>

#include "core/workload.h"
#include "query/executor.h"

namespace tagg {
namespace {

class ExplainAnalyzeTest : public testing::Test {
 protected:
  void SetUp() override {
    auto employed =
        std::make_shared<Relation>(MakeFigure1EmployedRelation());
    ASSERT_TRUE(catalog_.Register(employed).ok());
  }

  Catalog catalog_;
};

TEST_F(ExplainAnalyzeTest, ExecutesAndMarksTheResult) {
  auto result =
      RunQuery("EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
               catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->analyzed);
  // Unlike plain EXPLAIN, the rows are real.
  EXPECT_EQ(result->rows.size(), 6u);
}

TEST_F(ExplainAnalyzeTest, PlainExplainStillPlansOnly) {
  auto result =
      RunQuery("EXPLAIN SELECT COUNT(name) FROM employed", catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->analyzed);
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(ExplainAnalyzeTest, ProfileSpansNestAndCoverTheStages) {
  auto result =
      RunQuery("EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
               catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile, nullptr);
  const obs::QueryProfile& profile = *result->profile;

  // The root holds parse, analyze, execute in statement order.
  const obs::SpanNode& root = profile.root();
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0]->name, "parse");
  EXPECT_EQ(root.children[1]->name, "analyze");
  EXPECT_EQ(root.children[2]->name, "execute");

  // The pipeline stages are children of execute, not siblings of it.
  const obs::SpanNode& execute = *root.children[2];
  for (const char* stage :
       {"filter", "plan", "group", "aggregate", "materialize"}) {
    const obs::SpanNode* node = profile.Find(stage);
    ASSERT_NE(node, nullptr) << stage;
    EXPECT_GE(node->duration_ns, 0) << stage;
    bool is_child = false;
    for (const auto& child : execute.children) {
      if (child.get() == node) is_child = true;
    }
    EXPECT_TRUE(is_child) << stage << " must nest under execute";
  }

  // Well-nested timing: every stage fits inside execute, and the stages
  // together cannot exceed the execute span (they are disjoint).
  int64_t stage_sum = 0;
  for (const auto& child : execute.children) {
    EXPECT_GE(child->start_ns, execute.start_ns);
    EXPECT_LE(child->start_ns + child->duration_ns,
              execute.start_ns + execute.duration_ns);
    stage_sum += child->duration_ns;
  }
  EXPECT_LE(stage_sum, execute.duration_ns);
  // And the query total bounds everything.
  EXPECT_LE(execute.duration_ns, profile.total_ns());
  EXPECT_GT(profile.total_ns(), 0);
}

TEST_F(ExplainAnalyzeTest, AnnotationsCarryExecutionStats) {
  auto result =
      RunQuery("EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
               catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile, nullptr);

  const obs::SpanNode* filter = result->profile->Find("filter");
  ASSERT_NE(filter, nullptr);
  const size_t employed_size = MakeFigure1EmployedRelation().size();
  bool has_tuples_out = false;
  for (const auto& [key, value] : filter->annotations) {
    if (key == "tuples_out") {
      has_tuples_out = true;
      EXPECT_EQ(value, std::to_string(employed_size));
    }
  }
  EXPECT_TRUE(has_tuples_out);

  const obs::SpanNode* aggregate = result->profile->Find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  bool has_work_steps = false;
  for (const auto& [key, value] : aggregate->annotations) {
    if (key == "work_steps") has_work_steps = true;
  }
  EXPECT_TRUE(has_work_steps);

  // Row materialization is timed apart from the kernel.
  const obs::SpanNode* materialize = result->profile->Find("materialize");
  ASSERT_NE(materialize, nullptr);
  bool has_rows = false;
  for (const auto& [key, value] : materialize->annotations) {
    if (key == "rows") {
      has_rows = true;
      EXPECT_EQ(value, std::to_string(result->rows.size()));
    }
  }
  EXPECT_TRUE(has_rows);
}

TEST_F(ExplainAnalyzeTest, RenderingShowsPlanAndTimedStages) {
  auto result =
      RunQuery("EXPLAIN ANALYZE SELECT COUNT(name) FROM employed",
               catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string text = result->ExplainAnalyzeString();
  EXPECT_NE(text.find("Plan: "), std::string::npos);
  EXPECT_NE(text.find("query"), std::string::npos);
  EXPECT_NE(text.find("execute"), std::string::npos);
  EXPECT_NE(text.find("aggregate"), std::string::npos);
  EXPECT_NE(text.find("ms"), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, EveryResultCarriesAProfile) {
  auto result = RunQuery("SELECT COUNT(name) FROM employed", catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(result->analyzed);
  ASSERT_NE(result->profile, nullptr);
  EXPECT_NE(result->profile->Find("execute"), nullptr);
}

}  // namespace
}  // namespace tagg
