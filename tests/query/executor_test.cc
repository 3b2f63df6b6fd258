#include "query/executor.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <string_view>

#include "core/workload.h"
#include "query/analyzer.h"
#include "query/parser.h"
#include "shard/sharded_service.h"
#include "storage/column_relation.h"
#include "storage/relation_io.h"

namespace tagg {
namespace {

class ExecutorTest : public testing::Test {
 protected:
  void SetUp() override {
    auto employed =
        std::make_shared<Relation>(MakeFigure1EmployedRelation());
    ASSERT_TRUE(catalog_.Register(employed).ok());
  }

  Catalog catalog_;
};

void ExpectSameRows(const QueryResult& got, const QueryResult& want) {
  EXPECT_EQ(got.column_names, want.column_names);
  ASSERT_EQ(got.rows.size(), want.rows.size());
  for (size_t i = 0; i < want.rows.size(); ++i) {
    EXPECT_EQ(got.rows[i].valid, want.rows[i].valid) << "row " << i;
    EXPECT_EQ(got.rows[i].values, want.rows[i].values) << "row " << i;
  }
}

TEST_F(ExecutorTest, Table1Query) {
  // The paper's Section 5.1 query: SELECT COUNT(Name) FROM Employed.
  auto result = RunQuery("SELECT COUNT(name) FROM employed", catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // drop_empty defaults to true: six populated constant intervals.
  ASSERT_EQ(result->rows.size(), 6u);
  EXPECT_EQ(result->rows[0].valid, Period(7, 7));
  EXPECT_EQ(result->rows[0].values[0], Value::Int(1));
  EXPECT_EQ(result->rows[3].valid, Period(18, 20));
  EXPECT_EQ(result->rows[3].values[0], Value::Int(3));
  EXPECT_EQ(result->rows[5].valid, Period(22, kForever));
  EXPECT_EQ(result->rows[5].values[0], Value::Int(1));
}

TEST_F(ExecutorTest, KeepEmptyRows) {
  ExecutorOptions options;
  options.drop_empty = false;
  auto result =
      RunQuery("SELECT COUNT(name) FROM employed", catalog_, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 7u);
  EXPECT_EQ(result->rows[0].valid, Period(0, 6));
  EXPECT_EQ(result->rows[0].values[0], Value::Int(0));
}

TEST_F(ExecutorTest, GroupByName) {
  auto result = RunQuery(
      "SELECT name, MAX(salary) FROM employed GROUP BY name", catalog_);
  ASSERT_TRUE(result.ok());
  // Groups sorted by key: Karen, Nathan, Richard.
  ASSERT_FALSE(result->rows.empty());
  EXPECT_EQ(result->rows[0].values[0], Value::String("Karen"));
  EXPECT_EQ(result->rows[0].valid, Period(8, 20));
  EXPECT_EQ(result->rows[0].values[1], Value::Double(45000));
  // Nathan has two disjoint employments -> two rows.
  size_t nathan_rows = 0;
  for (const auto& row : result->rows) {
    if (row.values[0] == Value::String("Nathan")) ++nathan_rows;
  }
  EXPECT_EQ(nathan_rows, 2u);
  // Richard's open-ended employment.
  EXPECT_EQ(result->rows.back().values[0], Value::String("Richard"));
  EXPECT_EQ(result->rows.back().valid, Period(18, kForever));
}

TEST_F(ExecutorTest, WhereFilters) {
  auto result = RunQuery(
      "SELECT COUNT(*) FROM employed WHERE salary >= 40000", catalog_);
  ASSERT_TRUE(result.ok());
  // Only Richard (40000) and Karen (45000) qualify.
  // Karen alone on [8,17], both on [18,20], Richard alone on [21,forever].
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].valid, Period(8, 17));
  EXPECT_EQ(result->rows[0].values[0], Value::Int(1));
  EXPECT_EQ(result->rows[1].valid, Period(18, 20));
  EXPECT_EQ(result->rows[1].values[0], Value::Int(2));
  EXPECT_EQ(result->rows[2].valid, Period(21, kForever));
}

TEST_F(ExecutorTest, WhereStringPredicate) {
  auto result = RunQuery(
      "SELECT COUNT(*) FROM employed WHERE name = 'Nathan'", catalog_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0].valid, Period(7, 12));
  EXPECT_EQ(result->rows[1].valid, Period(18, 21));
}

TEST_F(ExecutorTest, ComplexPredicate) {
  auto result = RunQuery(
      "SELECT COUNT(*) FROM employed WHERE NOT (name = 'Nathan') AND "
      "salary < 45000",
      catalog_);
  ASSERT_TRUE(result.ok());
  // Only Richard.
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].valid, Period(18, kForever));
}

TEST_F(ExecutorTest, MultipleAggregatesShareBoundaries) {
  auto result = RunQuery(
      "SELECT COUNT(*), MIN(salary), MAX(salary), AVG(salary) "
      "FROM employed",
      catalog_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->column_names.size(), 4u);
  // Row over [18,20]: count 3, min 37000, max 45000, avg 122000/3.
  const auto& row = result->rows[3];
  EXPECT_EQ(row.valid, Period(18, 20));
  EXPECT_EQ(row.values[0], Value::Int(3));
  EXPECT_EQ(row.values[1], Value::Double(37000));
  EXPECT_EQ(row.values[2], Value::Double(45000));
  EXPECT_EQ(row.values[3], Value::Double(122000.0 / 3.0));
}

TEST_F(ExecutorTest, SpanGroupingQuery) {
  auto result = RunQuery(
      "SELECT COUNT(*) FROM employed GROUP BY SPAN 10 FROM 0 TO 29",
      catalog_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  // Span [0,9]: Karen + Nathan1 overlap -> 2.
  EXPECT_EQ(result->rows[0].valid, Period(0, 9));
  EXPECT_EQ(result->rows[0].values[0], Value::Int(2));
  // Span [10,19]: Karen, Nathan1, Richard, Nathan2 -> 4.
  EXPECT_EQ(result->rows[1].values[0], Value::Int(4));
  // Span [20,29]: Karen, Richard, Nathan2 -> 3.
  EXPECT_EQ(result->rows[2].values[0], Value::Int(3));
}

TEST_F(ExecutorTest, GroupByValueAndSpanCombined) {
  // Value partitioning composes with span grouping: one span series per
  // name, over a shared window.
  auto result = RunQuery(
      "SELECT name, COUNT(*) FROM employed GROUP BY name, SPAN 10 "
      "FROM 0 TO 29",
      catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Karen overlaps spans [0,9],[10,19],[20,29]; Nathan spans all three
  // ([7,12] and [18,21]); Richard spans [10,19],[20,29].
  size_t karen = 0, nathan = 0, richard = 0;
  for (const auto& row : result->rows) {
    if (row.values[0] == Value::String("Karen")) ++karen;
    if (row.values[0] == Value::String("Nathan")) ++nathan;
    if (row.values[0] == Value::String("Richard")) ++richard;
  }
  EXPECT_EQ(karen, 3u);
  EXPECT_EQ(nathan, 3u);
  EXPECT_EQ(richard, 2u);
}

TEST_F(ExecutorTest, EventRelationAggregation) {
  // Section 2: "aggregates may also be evaluated over event relations" —
  // relations whose tuples are stamped with single instants.
  auto events = std::make_shared<Relation>(EmployedSchema(), "events");
  for (int i = 0; i < 5; ++i) {
    events->AppendUnchecked(
        Tuple({Value::String("e"), Value::Int(i * 100)},
              Period::At(10 * (i % 3))));  // events at instants 0, 10, 20
  }
  ASSERT_TRUE(catalog_.Register(events).ok());
  auto result = RunQuery("SELECT COUNT(*), MAX(salary) FROM events",
                         catalog_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].valid, Period::At(0));
  EXPECT_EQ(result->rows[0].values[0], Value::Int(2));  // i=0 and i=3
  EXPECT_EQ(result->rows[0].values[1], Value::Double(300));
  EXPECT_EQ(result->rows[2].valid, Period::At(20));
  EXPECT_EQ(result->rows[2].values[0], Value::Int(1));
}

TEST_F(ExecutorTest, CoalesceMergesEqualRows) {
  // Two tuples meeting at 12/13 with equal salary: COUNT is 1 across
  // both; coalescing merges them.
  auto rel = std::make_shared<Relation>(EmployedSchema(), "meet");
  rel->AppendUnchecked(
      Tuple({Value::String("a"), Value::Int(1)}, Period(0, 12)));
  rel->AppendUnchecked(
      Tuple({Value::String("b"), Value::Int(1)}, Period(13, 20)));
  ASSERT_TRUE(catalog_.Register(rel).ok());
  ExecutorOptions options;
  options.coalesce = true;
  auto result = RunQuery("SELECT COUNT(*) FROM meet", catalog_, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].valid, Period(0, 20));

  // The routed tiers coalesce the same way: the live index and the pruned
  // scan over a columnar backing return the batch rows exactly.
  const std::string path = testing::TempDir() + "tagg_executor_meet_" +
                           std::to_string(::getpid()) + ".tcr";
  struct RemoveFile {
    std::string path;
    ~RemoveFile() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } remove_file{path};
  auto column = WriteRelationToColumnFile(*rel, path, /*rows_per_block=*/1);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  ASSERT_TRUE(catalog_.AttachColumnBacking("meet", *column).ok());
  shard::ShardedLiveService service;
  ASSERT_TRUE(
      service.RegisterIndex(catalog_, "meet", AggregateKind::kCount).ok());

  ExecutorOptions live_options = options;
  live_options.sharded_service = &service;
  auto live = RunQuery("SELECT COUNT(*) FROM meet", catalog_, live_options);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  EXPECT_EQ(live->plan.algorithm, AlgorithmKind::kLiveIndex);

  auto scan = RunQuery("SELECT COUNT(*) FROM meet", catalog_, options);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->plan.algorithm, AlgorithmKind::kColumnScan);

  // The batch rows come from a catalog with neither backing nor service.
  Catalog plain;
  ASSERT_TRUE(plain.Register(rel).ok());
  ExecutorOptions batch_options = options;
  batch_options.parallel_workers = 1;
  auto batch = RunQuery("SELECT COUNT(*) FROM meet", plain, batch_options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_NE(batch->plan.algorithm, AlgorithmKind::kLiveIndex);
  EXPECT_NE(batch->plan.algorithm, AlgorithmKind::kColumnScan);
  ASSERT_EQ(batch->rows.size(), 1u);
  ExpectSameRows(*live, *batch);
  ExpectSameRows(*scan, *batch);
}

TEST_F(ExecutorTest, PlannerUsesDeclaredStats) {
  RelationStats stats;
  stats.declared_k = 9;
  ASSERT_TRUE(catalog_.SetStats("employed", stats).ok());
  auto result = RunQuery("SELECT COUNT(*) FROM employed", catalog_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kKOrderedTree);
  EXPECT_EQ(result->plan.k, 9);
}

TEST_F(ExecutorTest, WrongKDeclarationFallsBackSafely) {
  // Declare the (unsorted) Employed relation totally ordered: the
  // k-ordered tree will detect the violation and the executor must fall
  // back to sort + k = 1 and still produce the right answer.
  RelationStats stats;
  stats.declared_k = 0;
  ASSERT_TRUE(catalog_.SetStats("employed", stats).ok());
  auto result = RunQuery("SELECT COUNT(name) FROM employed", catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 6u);
  EXPECT_EQ(result->rows[3].values[0], Value::Int(3));
}

/// The value of a span's annotation, or "" when absent.
std::string AnnotationOf(const QueryResult& result, std::string_view span,
                         std::string_view key) {
  const obs::SpanNode* node =
      result.profile == nullptr ? nullptr : result.profile->Find(span);
  if (node == nullptr) return "";
  for (const auto& [k, v] : node->annotations) {
    if (k == key) return v;
  }
  return "";
}

/// Runs `sql` over a catalog whose "employed" is the Figure 1 relation
/// reduced to the tuples `keep` accepts: the filtered copy the executor
/// no longer makes.
Result<QueryResult> RunOverFilteredCopy(
    const std::string& sql, const std::function<bool(const Tuple&)>& keep,
    const ExecutorOptions& options = {}) {
  Catalog copy;
  TAGG_RETURN_IF_ERROR(copy.Register(std::make_shared<Relation>(
      MakeFigure1EmployedRelation().Filter(keep))));
  return RunQuery(sql, copy, options);
}

TEST_F(ExecutorTest, WhereKeepingNoRowsOrEveryRow) {
  ExecutorOptions options;
  options.drop_empty = false;
  const std::string select = "SELECT COUNT(*), MAX(salary) FROM employed";
  auto none = RunQuery(select + " WHERE salary > 999999", catalog_, options);
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  ASSERT_EQ(none->rows.size(), 1u);
  EXPECT_EQ(none->rows[0].valid, Period(kOrigin, kForever));
  EXPECT_EQ(none->rows[0].values,
            (std::vector<Value>{Value::Int(0), Value::Null()}));
  EXPECT_EQ(AnnotationOf(*none, "filter", "tuples_in"), "4");
  EXPECT_EQ(AnnotationOf(*none, "filter", "tuples_out"), "0");

  auto every = RunQuery(select + " WHERE salary > 0", catalog_, options);
  ASSERT_TRUE(every.ok()) << every.status().ToString();
  auto unfiltered = RunQuery(select, catalog_, options);
  ASSERT_TRUE(unfiltered.ok());
  ExpectSameRows(*every, *unfiltered);
  EXPECT_EQ(AnnotationOf(*every, "filter", "tuples_out"), "4");
}

TEST_F(ExecutorTest, WhereGroupBySpanReadsTheSelection) {
  // The span window comes from the lifespan of the selected rows (Karen
  // [8, 20] and Nathan's [18, 21]), not of the whole relation.
  const std::string where = " WHERE salary > 35000 AND NOT (name = 'Richard')";
  const std::string grouped = " GROUP BY name, SPAN 5";
  auto result = RunQuery(
      "SELECT name, COUNT(*), MAX(salary) FROM employed" + where + grouped,
      catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto want = RunOverFilteredCopy(
      "SELECT name, COUNT(*), MAX(salary) FROM employed" + grouped,
      [](const Tuple& t) {
        return t.value(1).AsInt() > 35000 &&
               t.value(0) != Value::String("Richard");
      });
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameRows(*result, *want);
  ASSERT_FALSE(result->rows.empty());
  EXPECT_EQ(result->rows.front().valid.start(), 8);
  EXPECT_EQ(result->rows.back().valid.end(), 21);
}

TEST_F(ExecutorTest, WrongKDeclarationFallsBackOverASelection) {
  // Declared totally ordered, but the selected rows (Richard at 18, Karen
  // at 8, Nathan at 18) are not: the k-ordered tree rejects the selection
  // and the executor re-runs it presorted with k = 1.
  RelationStats stats;
  stats.declared_k = 0;
  ASSERT_TRUE(catalog_.SetStats("employed", stats).ok());
  ExecutorOptions options;
  options.drop_empty = false;
  const std::string selects[] = {"SELECT COUNT(*), MIN(salary) FROM employed",
                                 "SELECT COUNT(*) FROM employed"};
  for (const std::string& s : selects) {
    SCOPED_TRACE(s);
    auto result = RunQuery(s + " WHERE salary >= 37000", catalog_, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kKOrderedTree);
    auto want = RunOverFilteredCopy(
        s, [](const Tuple& t) { return t.value(1).AsInt() >= 37000; },
        options);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    ExpectSameRows(*result, *want);
  }
}

TEST_F(ExecutorTest, ValidOverlapsRestrictsTheTimeline) {
  // Only tuples overlapping [8, 12]: Karen and Nathan1.
  auto result = RunQuery(
      "SELECT COUNT(*) FROM employed WHERE VALID OVERLAPS 8 TO 12",
      catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 3u);
  EXPECT_EQ(result->rows[0].valid, Period(7, 7));   // Nathan1 alone
  EXPECT_EQ(result->rows[1].valid, Period(8, 12));  // both
  EXPECT_EQ(result->rows[1].values[0], Value::Int(2));
  EXPECT_EQ(result->rows[2].valid, Period(13, 20));  // Karen's tail
}

TEST_F(ExecutorTest, ValidOverlapsWithValuePredicate) {
  auto result = RunQuery(
      "SELECT COUNT(*) FROM employed WHERE VALID OVERLAPS 0 TO 12 AND "
      "salary >= 40000",
      catalog_);
  ASSERT_TRUE(result.ok());
  // Only Karen qualifies.
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0].valid, Period(8, 20));
}

TEST_F(ExecutorTest, ExplainPlansWithoutExecuting) {
  auto result =
      RunQuery("EXPLAIN SELECT COUNT(name) FROM employed", catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rows.empty());
  EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kAggregationTree);
  EXPECT_FALSE(result->plan.rationale.empty());
  ASSERT_EQ(result->column_names.size(), 1u);
  EXPECT_EQ(result->column_names[0], "COUNT(name)");
}

TEST_F(ExecutorTest, ExplainReflectsDeclaredStats) {
  RelationStats stats;
  stats.known_sorted = true;
  ASSERT_TRUE(catalog_.SetStats("employed", stats).ok());
  auto result =
      RunQuery("EXPLAIN SELECT COUNT(*) FROM employed", catalog_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kKOrderedTree);
  EXPECT_EQ(result->plan.k, 1);
}

TEST_F(ExecutorTest, EmptyGroupResult) {
  auto result = RunQuery(
      "SELECT COUNT(*) FROM employed WHERE salary > 999999", catalog_);
  ASSERT_TRUE(result.ok());
  // One group (no grouping columns), whose only non-empty rows... none.
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(ExecutorTest, EmptyInputYieldsTheReferenceRowOnEveryTier) {
  // Without GROUP BY an empty input is still one group: with empty rows
  // kept, COUNT(*) over no tuples is the reference's single
  // [origin, forever] row of 0, whichever tier answers.
  auto nobody = std::make_shared<Relation>(EmployedSchema(), "nobody");
  ASSERT_TRUE(catalog_.Register(nobody).ok());
  AggregateOptions reference;
  reference.algorithm = AlgorithmKind::kReference;
  auto oracle = ComputeTemporalAggregate(*nobody, reference);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(oracle->intervals.size(), 1u);

  ExecutorOptions options;
  options.drop_empty = false;
  options.parallel_workers = 1;
  ExecutorOptions parallel = options;
  parallel.parallel_workers = 2;
  const std::string sql = "SELECT COUNT(*) FROM nobody";
  const std::string none_qualify =
      "SELECT COUNT(*) FROM employed WHERE salary > 999999";

  auto planner = RunQuery(sql, catalog_, options);
  ASSERT_TRUE(planner.ok()) << planner.status().ToString();
  ASSERT_EQ(planner->rows.size(), 1u);
  EXPECT_EQ(planner->rows[0].valid, oracle->intervals[0].period);
  EXPECT_EQ(planner->rows[0].values[0], oracle->intervals[0].value);

  std::vector<std::pair<AlgorithmKind, QueryResult>> tiers;
  auto run = [&](const std::string& query, const ExecutorOptions& opts,
                 AlgorithmKind want) {
    auto result = RunQuery(query, catalog_, opts);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    EXPECT_EQ(result->plan.algorithm, want) << query;
    tiers.emplace_back(want, std::move(result).value());
  };
  run(sql, parallel, AlgorithmKind::kPartitioned);
  run(none_qualify, options, planner->plan.algorithm);
  run(none_qualify, parallel, AlgorithmKind::kPartitioned);

  const std::string path = testing::TempDir() + "tagg_executor_nobody_" +
                           std::to_string(::getpid()) + ".tcr";
  struct RemoveFile {
    std::string path;
    ~RemoveFile() {
      std::error_code ec;
      std::filesystem::remove(path, ec);
    }
  } remove_file{path};
  auto column = WriteRelationToColumnFile(*nobody, path);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  ASSERT_TRUE(catalog_.AttachColumnBacking("nobody", *column).ok());
  run(sql, options, AlgorithmKind::kColumnScan);

  shard::ShardedLiveService service;
  ASSERT_TRUE(
      service.RegisterIndex(catalog_, "nobody", AggregateKind::kCount).ok());
  ExecutorOptions live = options;
  live.sharded_service = &service;
  run(sql, live, AlgorithmKind::kLiveIndex);

  for (const auto& [tier, result] : tiers) {
    SCOPED_TRACE(AlgorithmKindToString(tier));
    ExpectSameRows(result, *planner);
  }
}

TEST_F(ExecutorTest, ResultToStringRendersTable) {
  auto result = RunQuery("SELECT COUNT(name) FROM employed", catalog_);
  ASSERT_TRUE(result.ok());
  const std::string table = result->ToString();
  EXPECT_NE(table.find("COUNT(name)"), std::string::npos);
  EXPECT_NE(table.find("VALID"), std::string::npos);
  EXPECT_NE(table.find("[18, 20]"), std::string::npos);
}

TEST_F(ExecutorTest, LargerWorkloadThroughFullStack) {
  WorkloadSpec spec;
  spec.num_tuples = 500;
  spec.lifespan = 50000;
  spec.long_lived_fraction = 0.4;
  spec.seed = 11;
  auto gen = GenerateEmployedRelation(spec);
  ASSERT_TRUE(gen.ok());
  auto rel = std::make_shared<Relation>(std::move(gen).value());
  Catalog catalog;
  ASSERT_TRUE(catalog.Register(rel).ok());

  ExecutorOptions options;
  options.drop_empty = false;
  auto via_query =
      RunQuery("SELECT COUNT(*) FROM employed", catalog, options);
  ASSERT_TRUE(via_query.ok());

  AggregateOptions direct;
  direct.algorithm = AlgorithmKind::kReference;
  auto oracle = ComputeTemporalAggregate(*rel, direct);
  ASSERT_TRUE(oracle.ok());

  ASSERT_EQ(via_query->rows.size(), oracle->intervals.size());
  for (size_t i = 0; i < oracle->intervals.size(); ++i) {
    EXPECT_EQ(via_query->rows[i].valid, oracle->intervals[i].period);
    EXPECT_EQ(via_query->rows[i].values[0], oracle->intervals[i].value);
  }
}

TEST_F(ExecutorTest, LiveIndexServesFreshCountStar) {
  shard::ShardedLiveService service;  // one shard: the unsharded case
  ASSERT_TRUE(
      service.RegisterIndex(catalog_, "employed", AggregateKind::kCount)
          .ok());
  ExecutorOptions options;
  options.sharded_service = &service;

  auto routed = RunQuery("SELECT COUNT(*) FROM employed", catalog_, options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->plan.algorithm, AlgorithmKind::kLiveIndex);
  EXPECT_NE(routed->plan.rationale.find("live index"), std::string::npos);

  // Byte-identical rows to the batch path it replaced.
  auto batch = RunQuery("SELECT COUNT(*) FROM employed", catalog_);
  ASSERT_TRUE(batch.ok());
  EXPECT_NE(batch->plan.algorithm, AlgorithmKind::kLiveIndex);
  ExpectSameRows(*routed, *batch);

  // The shard's counters show the query was actually absorbed there.
  const shard::ShardedStats stats = service.Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  const LiveServiceStats& shard_stats = stats.shards[0].service;
  ASSERT_EQ(shard_stats.indexes.size(), 1u);
  EXPECT_EQ(shard_stats.indexes[0].second.queries_served, 1u);
}

TEST_F(ExecutorTest, LiveIndexFallsBackWhenStale) {
  shard::ShardedLiveService service;
  ASSERT_TRUE(
      service.RegisterIndex(catalog_, "employed", AggregateKind::kCount)
          .ok());
  // Grow the relation behind the service's back: the epoch check must
  // notice and fall back to the batch path rather than serve stale rows.
  auto relation = catalog_.Get("employed");
  ASSERT_TRUE(relation.ok());
  ASSERT_TRUE((*relation)
                  ->Append(Tuple({Value::String("Paula"), Value::Int(50000)},
                                 Period(18, 20)))
                  .ok());

  ExecutorOptions options;
  options.sharded_service = &service;
  auto result = RunQuery("SELECT COUNT(*) FROM employed", catalog_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->plan.algorithm, AlgorithmKind::kLiveIndex);
  // Four employed over [18, 20] now — the fresh answer.
  bool found = false;
  for (const auto& row : result->rows) {
    if (row.valid == Period(18, 20)) {
      EXPECT_EQ(row.values[0], Value::Int(4));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExecutorTest, LiveIndexStaysFreshThroughServiceIngest) {
  shard::ShardedLiveService service;
  ASSERT_TRUE(
      service.RegisterIndex(catalog_, "employed", AggregateKind::kCount)
          .ok());
  ASSERT_TRUE(service
                  .Ingest("employed",
                          Tuple({Value::String("Paula"), Value::Int(50000)},
                                Period(18, 20)))
                  .ok());

  ExecutorOptions options;
  options.sharded_service = &service;
  auto result = RunQuery("SELECT COUNT(*) FROM employed", catalog_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kLiveIndex);
  bool found = false;
  for (const auto& row : result->rows) {
    if (row.valid == Period(18, 20)) {
      EXPECT_EQ(row.values[0], Value::Int(4));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExecutorTest, LiveIndexSkipsQueriesItCannotServe) {
  shard::ShardedLiveService service;
  ASSERT_TRUE(
      service.RegisterIndex(catalog_, "employed", AggregateKind::kCount)
          .ok());
  ExecutorOptions options;
  options.sharded_service = &service;

  // WHERE, GROUP BY, a different aggregate, and a different attribute all
  // fall back to the batch path.
  for (const char* sql :
       {"SELECT COUNT(*) FROM employed WHERE salary >= 40000",
        "SELECT name, COUNT(*) FROM employed GROUP BY name",
        "SELECT MAX(salary) FROM employed",
        "SELECT COUNT(name) FROM employed"}) {
    auto result = RunQuery(sql, catalog_, options);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_NE(result->plan.algorithm, AlgorithmKind::kLiveIndex) << sql;
    // And each still produces the batch path's rows.
    auto batch = RunQuery(sql, catalog_);
    ASSERT_TRUE(batch.ok());
    ExpectSameRows(*result, *batch);
  }
}

TEST_F(ExecutorTest, ParallelWorkersRouteToPartitioned) {
  ExecutorOptions options;
  options.parallel_workers = 4;
  for (const char* sql :
       {"SELECT COUNT(*) FROM employed", "SELECT SUM(salary) FROM employed",
        "SELECT AVG(salary) FROM employed",
        "SELECT MIN(salary) FROM employed",
        "SELECT name, MAX(salary) FROM employed GROUP BY name",
        "SELECT COUNT(*) FROM employed WHERE salary >= 40000"}) {
    auto routed = RunQuery(sql, catalog_, options);
    ASSERT_TRUE(routed.ok()) << sql << ": " << routed.status().ToString();
    EXPECT_EQ(routed->plan.algorithm, AlgorithmKind::kPartitioned) << sql;
    EXPECT_NE(routed->plan.rationale.find("4 worker"), std::string::npos)
        << routed->plan.rationale;
    auto sequential = RunQuery(sql, catalog_);
    ASSERT_TRUE(sequential.ok());
    ExpectSameRows(*routed, *sequential);
  }
}

TEST_F(ExecutorTest, PartitionedSkipsIneligibleQueries) {
  // Multi-aggregate and span-grouped queries keep the planner's
  // sequential choice even with workers configured.
  ExecutorOptions options;
  options.parallel_workers = 4;
  for (const char* sql :
       {"SELECT COUNT(*), SUM(salary) FROM employed",
        "SELECT COUNT(*) FROM employed GROUP BY SPAN 5 FROM 0 TO 29"}) {
    auto result = RunQuery(sql, catalog_, options);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    EXPECT_NE(result->plan.algorithm, AlgorithmKind::kPartitioned) << sql;
    auto sequential = RunQuery(sql, catalog_);
    ASSERT_TRUE(sequential.ok());
    ExpectSameRows(*result, *sequential);
  }
}

TEST_F(ExecutorTest, WorkersResolveFromEnvironment) {
  // parallel_workers = 0 (the default) consults TAGG_WORKERS.
  ASSERT_EQ(setenv("TAGG_WORKERS", "3", /*overwrite=*/1), 0);
  auto routed = RunQuery("SELECT COUNT(*) FROM employed", catalog_);
  ASSERT_EQ(unsetenv("TAGG_WORKERS"), 0);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->plan.algorithm, AlgorithmKind::kPartitioned);
  EXPECT_NE(routed->plan.rationale.find("3 worker"), std::string::npos)
      << routed->plan.rationale;
  auto sequential = RunQuery("SELECT COUNT(*) FROM employed", catalog_);
  ASSERT_TRUE(sequential.ok());
  EXPECT_NE(sequential->plan.algorithm, AlgorithmKind::kPartitioned);
  ExpectSameRows(*routed, *sequential);
}

TEST_F(ExecutorTest, PlanSpanAnnotatesWorkers) {
  ExecutorOptions options;
  options.parallel_workers = 2;
  auto result = RunQuery("EXPLAIN ANALYZE SELECT COUNT(*) FROM employed",
                         catalog_, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_NE(result->profile, nullptr);
  const obs::SpanNode* plan_span = result->profile->Find("plan");
  ASSERT_NE(plan_span, nullptr);
  bool found = false;
  for (const auto& [key, value] : plan_span->annotations) {
    if (key == "workers") {
      EXPECT_EQ(value, "2");
      found = true;
    }
  }
  EXPECT_TRUE(found) << "plan span lacks a workers annotation";
  // The partitioned evaluation's own trace tree hangs off the profile too.
  EXPECT_NE(result->profile->Find("partitioned"), nullptr);
  EXPECT_NE(result->profile->Find("route"), nullptr);
  EXPECT_NE(result->profile->Find("build"), nullptr);
  EXPECT_NE(result->profile->Find("stitch"), nullptr);
}

// The columnar routing tier (0b): the catalog carries a columnar backing
// file for `employed`, and eligible queries are served by the pruned scan
// instead of re-aggregating the in-memory tuples.
class ColumnarRoutingTest : public ExecutorTest {
 protected:
  void SetUp() override {
    ExecutorTest::SetUp();
    path_ = testing::TempDir() + "tagg_executor_column_" +
            std::to_string(::getpid()) + ".tcr";
    auto relation = catalog_.Get("employed");
    ASSERT_TRUE(relation.ok());
    auto column =
        WriteRelationToColumnFile(**relation, path_, /*rows_per_block=*/4);
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    ASSERT_TRUE(catalog_.AttachColumnBacking("employed", *column).ok());
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  std::string path_;
};

TEST_F(ColumnarRoutingTest, ServesEligibleAggregatesFromBacking) {
  // The batch rows come from a catalog holding the same relation without
  // the backing.
  Catalog plain;
  auto relation = catalog_.Get("employed");
  ASSERT_TRUE(relation.ok());
  ASSERT_TRUE(plain.Register(*relation).ok());
  ExecutorOptions batch_options;
  batch_options.parallel_workers = 1;
  for (const char* sql :
       {"SELECT COUNT(*) FROM employed", "SELECT SUM(salary) FROM employed",
        "SELECT MIN(salary) FROM employed",
        "SELECT MAX(salary) FROM employed",
        "SELECT AVG(salary) FROM employed"}) {
    auto routed = RunQuery(sql, catalog_);
    ASSERT_TRUE(routed.ok()) << sql << ": " << routed.status().ToString();
    EXPECT_EQ(routed->plan.algorithm, AlgorithmKind::kColumnScan) << sql;
    // Byte-identical rows to the batch path it replaced.
    auto batch = RunQuery(sql, plain, batch_options);
    ASSERT_TRUE(batch.ok()) << sql;
    EXPECT_NE(batch->plan.algorithm, AlgorithmKind::kColumnScan) << sql;
    ExpectSameRows(*routed, *batch);
  }
}

TEST_F(ColumnarRoutingTest, ParallelWorkersStayOnColumnScan) {
  ExecutorOptions options;
  options.parallel_workers = 3;
  auto routed =
      RunQuery("SELECT SUM(salary) FROM employed", catalog_, options);
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  EXPECT_EQ(routed->plan.algorithm, AlgorithmKind::kColumnScan);
  auto sequential = RunQuery("SELECT SUM(salary) FROM employed", catalog_);
  ASSERT_TRUE(sequential.ok());
  ExpectSameRows(*routed, *sequential);
}

TEST_F(ColumnarRoutingTest, ExplainReportsPrunedScanPlan) {
  auto result =
      RunQuery("EXPLAIN SELECT SUM(salary) FROM employed", catalog_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kColumnScan);
  EXPECT_NE(result->plan.rationale.find("pruned scan"), std::string::npos)
      << result->plan.rationale;
  EXPECT_TRUE(result->rows.empty());
}

TEST_F(ColumnarRoutingTest, PushesSalaryPredicatesIntoTheScan) {
  // Figure 1's relation (one block) and a generated one over many small
  // blocks, each also registered without a backing: a pushable WHERE is
  // served by the pruned scan, row for row what the batch tiers return.
  WorkloadSpec spec;
  spec.num_tuples = 400;
  spec.lifespan = 5000;
  spec.short_max_duration = 300;
  spec.long_lived_fraction = 0.1;
  spec.seed = 11;
  auto generated = GenerateEmployedRelation(spec);
  ASSERT_TRUE(generated.ok());
  Catalog many_blocks;
  ASSERT_TRUE(many_blocks
                  .Register(std::make_shared<Relation>(*generated),
                            RelationStats{})
                  .ok());
  const std::string many_path = path_ + ".many";
  auto column = WriteRelationToColumnFile(*generated, many_path,
                                          /*rows_per_block=*/16);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  ASSERT_TRUE(many_blocks.AttachColumnBacking("employed", *column).ok());

  const char* wheres[] = {
      "salary = 40000",
      "salary <> 40000",
      "salary < 40000",
      "salary <= 40000",
      "salary > 40000",
      "salary >= 40000",
      "salary > 36000 AND salary <= 45000",
      "salary = 35000 OR salary >= 45000",
      "NOT (salary > 37000)",
      "NOT (salary = 40000 OR salary < 36000) AND salary <> 45000",
      "salary < 50000 OR salary > 70000",
      "salary > 0 AND salary < 0",
      "salary >= -9223372036854775808",
      "salary < -9223372036854775808",
      "salary = -9223372036854775808",
      "salary > 9223372036854775807",
      "salary <= 9223372036854775807",
      "salary <> 9223372036854775807",
      "NOT (salary > -9223372036854775808)",
      "salary > -5 AND salary < -1",
  };
  const char* selects[] = {"COUNT(*)", "SUM(salary)", "MIN(salary)",
                           "MAX(salary)", "AVG(salary)"};
  for (const Catalog* backed : {&catalog_, &many_blocks}) {
    auto relation = backed->Get("employed");
    ASSERT_TRUE(relation.ok());
    Catalog plain;
    ASSERT_TRUE(plain.Register(*relation).ok());
    for (const bool drop_empty : {true, false}) {
      ExecutorOptions options;
      options.parallel_workers = 1;
      options.drop_empty = drop_empty;
      for (const char* where : wheres) {
        for (const char* select : selects) {
          const std::string sql = std::string("SELECT ") + select +
                                  " FROM employed WHERE " + where;
          auto routed = RunQuery(sql, *backed, options);
          ASSERT_TRUE(routed.ok()) << sql << ": "
                                   << routed.status().ToString();
          EXPECT_EQ(routed->plan.algorithm, AlgorithmKind::kColumnScan)
              << sql;
          EXPECT_NE(routed->plan.rationale.find("WHERE pushed down as "
                                                "salary in {"),
                    std::string::npos)
              << routed->plan.rationale;
          auto batch = RunQuery(sql, plain, options);
          ASSERT_TRUE(batch.ok()) << sql;
          EXPECT_NE(batch->plan.algorithm, AlgorithmKind::kColumnScan);
          SCOPED_TRACE(sql);
          ExpectSameRows(*routed, *batch);
        }
      }
    }
  }
  std::error_code ec;
  std::filesystem::remove(many_path, ec);
}

TEST_F(ColumnarRoutingTest, PushedPredicateReportsKeptRows) {
  auto result = RunQuery(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM employed WHERE salary > 36000",
      catalog_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kColumnScan);
  EXPECT_NE(result->plan.rationale.find(
                "salary in {[36001, 9223372036854775807]}"),
            std::string::npos)
      << result->plan.rationale;
  const obs::SpanNode* scan = result->profile->Find("column_scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_NE(result->ExplainAnalyzeString().find("rows_kept=3"),
            std::string::npos)
      << result->ExplainAnalyzeString();
  EXPECT_EQ(result->profile->Find("filter"), nullptr);
}

TEST_F(ColumnarRoutingTest, SkipsQueriesItCannotServe) {
  // GROUP BY, an aggregate over a non-stored attribute, and a WHERE that
  // does not push down (a double literal, another column, a temporal
  // selection, or a disjunction with any of these) all fall back to the
  // batch tiers — and still answer correctly.
  for (const char* sql :
       {"SELECT name, COUNT(*) FROM employed GROUP BY name",
        "SELECT COUNT(name) FROM employed",
        "SELECT COUNT(*) FROM employed WHERE salary > 40000.5",
        "SELECT COUNT(*) FROM employed WHERE name = 'Bob'",
        "SELECT COUNT(*) FROM employed WHERE VALID OVERLAPS 5 TO 10",
        "SELECT COUNT(*) FROM employed WHERE salary > 1 OR name = 'x'"}) {
    auto result = RunQuery(sql, catalog_);
    ASSERT_TRUE(result.ok()) << sql;
    EXPECT_NE(result->plan.algorithm, AlgorithmKind::kColumnScan) << sql;
  }
}

TEST_F(ColumnarRoutingTest, StaleBackingFallsBackToFreshAnswer) {
  // Grow the relation behind the backing's back: the row-count freshness
  // check must notice and fall back rather than serve stale blocks.
  auto relation = catalog_.Get("employed");
  ASSERT_TRUE(relation.ok());
  ASSERT_TRUE((*relation)
                  ->Append(Tuple({Value::String("Paula"), Value::Int(50000)},
                                 Period(18, 20)))
                  .ok());
  auto result = RunQuery("SELECT COUNT(*) FROM employed", catalog_);
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->plan.algorithm, AlgorithmKind::kColumnScan);
  bool found = false;
  for (const auto& row : result->rows) {
    if (row.valid == Period(18, 20)) {
      EXPECT_EQ(row.values[0], Value::Int(4));
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExecutorTest, ExplainReportsLiveIndexPlan) {
  shard::ShardedLiveService service;
  ASSERT_TRUE(
      service.RegisterIndex(catalog_, "employed", AggregateKind::kCount)
          .ok());
  ExecutorOptions options;
  options.sharded_service = &service;
  auto result =
      RunQuery("EXPLAIN SELECT COUNT(*) FROM employed", catalog_, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.algorithm, AlgorithmKind::kLiveIndex);
  EXPECT_NE(result->plan.rationale.find("live index"), std::string::npos);
  EXPECT_TRUE(result->rows.empty());
}

}  // namespace
}  // namespace tagg
