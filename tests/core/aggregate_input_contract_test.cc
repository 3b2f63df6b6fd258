// The aggregate-input contract: every evaluator applies the one rule of
// core/aggregates.h, so for the same (aggregate, attribute) pair over the
// same relation they all return the same status code and, where they
// succeed, the same step function over the time-line.
//
// The live index is the one evaluator without a schema: its tuples come
// off the wire, so it can only reject what a tuple shows it.  It must
// return the same code whenever a tuple exposes the violation (a
// non-NULL value of the wrong type, or any tuple too short for the
// attribute), and otherwise succeed with the empty aggregate.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/aggregates.h"
#include "core/multi_agg.h"
#include "core/partitioned_agg.h"
#include "core/span_agg.h"
#include "core/workload.h"
#include "live/live_index.h"

namespace tagg {
namespace {

constexpr size_t kNameAttribute = 0;    // string
constexpr size_t kSalaryAttribute = 1;  // int
constexpr size_t kMissingAttribute = 7;  // past the two-column schema
constexpr Instant kWindowEnd = 24;      // every tuple lies inside [0, 24]

enum class Fill { kFull, kAllNull, kEmpty };

std::string FillName(Fill fill) {
  switch (fill) {
    case Fill::kFull:
      return "full";
    case Fill::kAllNull:
      return "all-NULL";
    case Fill::kEmpty:
      return "empty";
  }
  return "?";
}

Relation MakeRelation(Fill fill) {
  Relation relation(EmployedSchema(), "contract");
  if (fill == Fill::kEmpty) return relation;
  const struct {
    Instant start, end;
    int64_t salary;
  } rows[] = {{0, 9, 30},
              {3, 14, 10},
              {5, 5, 50},
              {12, 20, 20},
              {18, 24, 40}};
  int i = 0;
  for (const auto& row : rows) {
    std::vector<Value> values = {Value::String("e" + std::to_string(i++)),
                                 Value::Int(row.salary)};
    if (fill == Fill::kAllNull) values = {Value::Null(), Value::Null()};
    relation.AppendUnchecked(
        Tuple(std::move(values), Period(row.start, row.end)));
  }
  return relation;
}

struct ContractCase {
  std::string name;
  AggregateKind kind;
  size_t attribute;
  StatusCode code;  // what every schema-aware evaluator returns
};

const ContractCase kCases[] = {
    {"SUM(string)", AggregateKind::kSum, kNameAttribute,
     StatusCode::kNotSupported},
    {"SUM()", AggregateKind::kSum, AggregateOptions::kNoAttribute,
     StatusCode::kInvalidArgument},
    {"SUM(#7)", AggregateKind::kSum, kMissingAttribute,
     StatusCode::kInvalidArgument},
    {"MIN(int)", AggregateKind::kMin, kSalaryAttribute, StatusCode::kOk},
};

/// Whether a schema-less reader can see the case's violation in `fill`.
bool TupleExposesViolation(const ContractCase& c, Fill fill) {
  if (c.attribute == AggregateOptions::kNoAttribute) return true;
  if (fill == Fill::kEmpty) return false;
  return c.attribute == kMissingAttribute || fill == Fill::kFull;
}

std::string_view Name(StatusCode code) { return StatusCodeToString(code); }

/// One evaluator's answer: a status and, on success, the coalesced series.
struct Outcome {
  Status status;
  std::vector<ResultInterval> series;
};

Outcome FromSeries(Result<AggregateSeries> result) {
  if (!result.ok()) return {result.status(), {}};
  return {Status::OK(), CoalesceEqualValues(std::move(result->intervals))};
}

Outcome RunTemporal(const Relation& r, const ContractCase& c) {
  AggregateOptions options;
  options.aggregate = c.kind;
  options.attribute = c.attribute;
  return FromSeries(ComputeTemporalAggregate(r, options));
}

Outcome RunMulti(const Relation& r, const ContractCase& c) {
  MultiAggregateOptions options;
  options.specs = {{c.kind, c.attribute}};
  Result<MultiSeries> multi = ComputeMultiAggregate(r, options);
  if (!multi.ok()) return {multi.status(), {}};
  AggregateSeries series;
  for (size_t i = 0; i < multi->periods.size(); ++i) {
    series.intervals.push_back({multi->periods[i], multi->value(i, 0)});
  }
  return FromSeries(std::move(series));
}

Outcome RunPartitioned(const Relation& r, const ContractCase& c,
                       bool spill) {
  PartitionedOptions options;
  options.aggregate = c.kind;
  options.attribute = c.attribute;
  options.partitions = 3;
  options.spill_to_disk = spill;
  return FromSeries(ComputePartitionedAggregate(r, options));
}

Outcome RunLive(const Relation& r, const ContractCase& c) {
  LiveIndexOptions options;
  options.aggregate = c.kind;
  options.attribute = c.attribute;
  Result<std::unique_ptr<LiveAggregateIndex>> index =
      LiveAggregateIndex::Create(options);
  if (!index.ok()) return {index.status(), {}};
  const Status inserted = (*index)->InsertTuples(r.tuples());
  if (!inserted.ok()) return {inserted, {}};
  return FromSeries((*index)->AggregateOver(Period::All()));
}

/// The value of `series` at instant `t`.
Value ValueAt(const std::vector<ResultInterval>& series, Instant t) {
  for (const ResultInterval& ri : series) {
    if (ri.period.Contains(t)) return ri.value;
  }
  return Value::String("<uncovered>");
}

TEST(AggregateInputContractTest, EveryEvaluatorAppliesTheSameRule) {
  for (const Fill fill : {Fill::kFull, Fill::kAllNull, Fill::kEmpty}) {
    const Relation relation = MakeRelation(fill);
    for (const ContractCase& c : kCases) {
      SCOPED_TRACE(c.name + " over " + FillName(fill));
      const Outcome temporal = RunTemporal(relation, c);
      ASSERT_EQ(Name(temporal.status.code()), Name(c.code))
          << temporal.status.ToString();

      const struct {
        const char* evaluator;
        Outcome outcome;
      } batch[] = {
          {"multi", RunMulti(relation, c)},
          {"partitioned", RunPartitioned(relation, c, /*spill=*/false)},
          {"partitioned-spill",
           RunPartitioned(relation, c, /*spill=*/true)},
      };
      for (const auto& [evaluator, outcome] : batch) {
        EXPECT_EQ(Name(outcome.status.code()), Name(c.code))
            << evaluator << ": " << outcome.status.ToString();
        EXPECT_EQ(outcome.series, temporal.series) << evaluator;
      }

      const Outcome live = RunLive(relation, c);
      if (c.code == StatusCode::kOk || TupleExposesViolation(c, fill)) {
        EXPECT_EQ(Name(live.status.code()), Name(c.code))
            << live.status.ToString();
        EXPECT_EQ(live.series, temporal.series);
      } else {
        ASSERT_TRUE(live.status.ok()) << live.status.ToString();
        const std::vector<ResultInterval> empty = {
            {Period::All(), EmptyAggregateValue(c.kind)}};
        EXPECT_EQ(live.series, empty);
      }

      // Span grouping with one-instant spans is the instant series
      // sampled over the window.
      SpanAggregateOptions span_options;
      span_options.aggregate = c.kind;
      span_options.attribute = c.attribute;
      span_options.window = Period(0, kWindowEnd);
      const Result<AggregateSeries> span =
          ComputeSpanAggregate(relation, span_options);
      EXPECT_EQ(Name(span.status().code()), Name(c.code))
          << span.status().ToString();
      if (!span.ok() || !temporal.status.ok()) continue;
      ASSERT_EQ(span->intervals.size(), static_cast<size_t>(kWindowEnd + 1));
      for (const ResultInterval& ri : span->intervals) {
        EXPECT_EQ(ri.value, ValueAt(temporal.series, ri.period.start()))
            << "span at " << ri.period.start();
      }
    }
  }
}

}  // namespace
}  // namespace tagg
