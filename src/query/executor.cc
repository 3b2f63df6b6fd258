#include "query/executor.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <variant>

#include "core/column_scan.h"
#include "core/multi_agg.h"
#include "core/partitioned_agg.h"
#include "core/span_agg.h"
#include "storage/column_relation.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "util/env.h"
#include "util/str.h"

namespace tagg {
namespace {

/// The in-memory filter.  The analyzer binds only comparisons between
/// compatible types and relations hold schema-checked tuples, so a
/// comparison cannot fail here; SQL three-valued logic collapses to two:
/// a comparison against NULL is false.
bool EvalPredicate(const BoundPredicate& pred, const Tuple& tuple) {
  switch (pred.kind) {
    case Predicate::Kind::kComparison: {
      const Value& v = tuple.value(pred.attribute);
      if (v.is_null()) return false;
      const int cmp = v.CompareCompatible(pred.literal);
      switch (pred.op) {
        case CompareOp::kEq:
          return cmp == 0;
        case CompareOp::kNe:
          return cmp != 0;
        case CompareOp::kLt:
          return cmp < 0;
        case CompareOp::kLe:
          return cmp <= 0;
        case CompareOp::kGt:
          return cmp > 0;
        case CompareOp::kGe:
          return cmp >= 0;
      }
      return false;
    }
    case Predicate::Kind::kValidOverlaps:
      return tuple.valid().Overlaps(pred.period);
    case Predicate::Kind::kAnd:
      return EvalPredicate(*pred.lhs, tuple) &&
             EvalPredicate(*pred.rhs, tuple);
    case Predicate::Kind::kOr:
      return EvalPredicate(*pred.lhs, tuple) ||
             EvalPredicate(*pred.rhs, tuple);
    case Predicate::Kind::kNot:
      return !EvalPredicate(*pred.lhs, tuple);
  }
  return false;
}

// WHERE pushdown.  A predicate built only from comparisons of the stored
// value column with integer literals, under AND, OR and NOT, accepts
// exactly a set of int64 values; the pruned scan filters on that set.  The
// sets below are normalized: sorted, disjoint, non-adjacent ranges.

constexpr int64_t kMinValue = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxValue = std::numeric_limits<int64_t>::max();

ValueSet Complement(const ValueSet& set) {
  ValueSet out;
  int64_t next = kMinValue;  // the smallest value not yet accounted for
  for (const ValueRange& r : set) {
    if (r.lo > next) out.push_back({next, r.lo - 1});
    if (r.hi == kMaxValue) return out;
    next = r.hi + 1;
  }
  out.push_back({next, kMaxValue});
  return out;
}

ValueSet Intersect(const ValueSet& a, const ValueSet& b) {
  ValueSet out;
  for (size_t i = 0, j = 0; i < a.size() && j < b.size();) {
    const int64_t lo = std::max(a[i].lo, b[j].lo);
    const int64_t hi = std::min(a[i].hi, b[j].hi);
    if (lo <= hi) out.push_back({lo, hi});
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

ValueSet Unite(const ValueSet& a, const ValueSet& b) {
  return Complement(Intersect(Complement(a), Complement(b)));
}

/// The values `pred` accepts when it pushes down into the pruned scan;
/// nullopt when it does not.  A double literal stays in memory: there
/// Value::Compare widens the int to a double, and such a comparison keeps
/// its exact meaning only where it is evaluated as written.
std::optional<ValueSet> PushableValueSet(const BoundPredicate& pred) {
  switch (pred.kind) {
    case Predicate::Kind::kComparison: {
      if (pred.attribute != kColumnValueAttribute ||
          pred.literal.type() != ValueType::kInt) {
        return std::nullopt;
      }
      const int64_t c = pred.literal.AsInt();
      switch (pred.op) {
        case CompareOp::kEq:
          return ValueSet{{c, c}};
        case CompareOp::kNe:
          return Complement({{c, c}});
        case CompareOp::kLt:
          return Complement({{c, kMaxValue}});
        case CompareOp::kLe:
          return ValueSet{{kMinValue, c}};
        case CompareOp::kGt:
          return Complement({{kMinValue, c}});
        case CompareOp::kGe:
          return ValueSet{{c, kMaxValue}};
      }
      return std::nullopt;
    }
    case Predicate::Kind::kValidOverlaps:
      return std::nullopt;
    case Predicate::Kind::kAnd:
    case Predicate::Kind::kOr: {
      std::optional<ValueSet> lhs = PushableValueSet(*pred.lhs);
      if (!lhs.has_value()) return std::nullopt;
      std::optional<ValueSet> rhs = PushableValueSet(*pred.rhs);
      if (!rhs.has_value()) return std::nullopt;
      return pred.kind == Predicate::Kind::kAnd ? Intersect(*lhs, *rhs)
                                                : Unite(*lhs, *rhs);
    }
    case Predicate::Kind::kNot: {
      std::optional<ValueSet> inner = PushableValueSet(*pred.lhs);
      if (!inner.has_value()) return std::nullopt;
      return Complement(*inner);
    }
  }
  return std::nullopt;
}

std::string ValueSetToString(const ValueSet& set) {
  std::string out = "{";
  for (size_t i = 0; i < set.size(); ++i) {
    if (i > 0) out += ", ";
    out += "[" + std::to_string(set[i].lo) + ", " +
           std::to_string(set[i].hi) + "]";
  }
  return out + "}";
}

/// Deterministic ordering of group keys for stable result order.
struct GroupKeyLess {
  bool operator()(const std::vector<Value>& a,
                  const std::vector<Value>& b) const {
    for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
      auto cmp = a[i].Compare(b[i]);
      const int c = cmp.ok() ? cmp.value() : 0;
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

obs::Counter& QueriesTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_query_executions_total", "SELECT statements executed");
  return c;
}

obs::Counter& LiveRoutedTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_query_live_routed_total",
      "queries answered from a resident live index instead of the batch "
      "path");
  return c;
}

obs::Histogram& QuerySeconds() {
  static obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "tagg_query_seconds", "end-to-end ExecuteSelect latency");
  return h;
}

obs::Counter& PartitionedRoutedTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_query_partitioned_routed_total",
      "queries evaluated through the parallel partitioned path");
  return c;
}

obs::Counter& ColumnScanRoutedTotal() {
  static obs::Counter& c = obs::MetricsRegistry::Global().GetCounter(
      "tagg_query_column_scan_routed_total",
      "queries served by the pruned scan over a columnar backing");
  return c;
}

/// Resolves the worker count: explicit option, else the TAGG_WORKERS
/// environment variable (hardened: garbage, negatives, and huge values
/// warn and clamp — util/env.h), else 1 (sequential).
size_t ResolveWorkers(size_t requested) {
  if (requested > 0) return requested;
  return ResolveCountEnv("TAGG_WORKERS", 1, 256);
}

/// Where ExecuteSelect answers a query.
struct Route {
  /// The routed tier's plan (kLiveIndex, kColumnScan or kPartitioned);
  /// empty when the Section 6.3 planner picks a sequential algorithm.
  std::optional<Plan> plan;
  std::shared_ptr<const ColumnRelation> backing;  // set for kColumnScan
  std::optional<ValueSet> values;  // kColumnScan: the pushed-down WHERE
};

Route Routed(AlgorithmKind algorithm, std::string rationale,
             std::shared_ptr<const ColumnRelation> backing = nullptr,
             std::optional<ValueSet> values = std::nullopt) {
  Plan plan;
  plan.algorithm = algorithm;
  plan.rationale = std::move(rationale);
  return {std::move(plan), std::move(backing), std::move(values)};
}

/// Picks the tier from what the executor can observe: the query's shape,
/// the freshness of the live indexes and of the columnar backing, and the
/// resolved worker count.  Only a single aggregate with instant grouping
/// leaves the planner; the live index and the column scan additionally
/// need a fresh source and no GROUP BY.  The live index serves only the
/// whole relation (no WHERE); the column scan also serves a WHERE that
/// pushes down into it as a set of stored values.
Route ChooseTier(const BoundQuery& query, const ExecutorOptions& options,
                 size_t workers) {
  if (query.aggregates.size() != 1 ||
      query.temporal.kind != TemporalGrouping::Kind::kInstant) {
    return {};
  }
  const BoundAggregate& agg = query.aggregates[0];
  const Relation& relation = *query.relation;
  if (query.group_attributes.empty()) {
    const shard::ShardedLiveService* sharded = options.sharded_service;
    if (query.where == nullptr && sharded != nullptr &&
        sharded->ServesFresh(relation, agg.kind, agg.attribute)) {
      return Routed(AlgorithmKind::kLiveIndex,
                    "served from the live index for '" + relation.name() +
                        "' (" + std::to_string(sharded->num_shards()) +
                        " shard(s), topology v" +
                        std::to_string(sharded->topology_version()) +
                        "; no per-query tree rebuild)");
    }
    // Column files store a single value column; COUNT(*) is also fine
    // because stored files cannot contain NULLs.
    const bool attribute_ok =
        agg.attribute == kColumnValueAttribute ||
        (agg.kind == AggregateKind::kCount &&
         agg.attribute == AggregateOptions::kNoAttribute);
    std::optional<ValueSet> values;
    if (query.where != nullptr) values = PushableValueSet(*query.where);
    auto backing = std::dynamic_pointer_cast<const ColumnRelation>(
        query.column_backing);
    if (attribute_ok && (query.where == nullptr || values.has_value()) &&
        backing != nullptr && backing->row_count() == relation.size()) {
      std::string rationale = "pruned scan over the columnar backing '" +
                              backing->path() + "' (" +
                              std::to_string(backing->blocks().size()) +
                              " block(s); zone-map skipping + footer "
                              "summaries";
      if (values.has_value()) {
        rationale += "; WHERE pushed down as " +
                     relation.schema().attribute(kColumnValueAttribute).name +
                     " in " + ValueSetToString(*values);
      }
      return Routed(AlgorithmKind::kColumnScan, rationale + ")",
                    std::move(backing), std::move(values));
    }
  }
  if (workers > 1) {
    return Routed(AlgorithmKind::kPartitioned,
                  "parallel partitioned evaluation with " +
                      std::to_string(workers) +
                      " worker(s): sharded routing, per-region builds, "
                      "stitched result");
  }
  return {};
}

/// The materializer reads a group's series in either shape: one
/// aggregate's intervals (the live, column-scan and partitioned tiers) or
/// the fused evaluation's zipped values.  TakeValues moves interval i's
/// values out.
size_t IntervalCount(const AggregateSeries& s) { return s.intervals.size(); }
size_t IntervalCount(const MultiSeries& s) { return s.periods.size(); }
const Period& PeriodAt(const AggregateSeries& s, size_t i) {
  return s.intervals[i].period;
}
const Period& PeriodAt(const MultiSeries& s, size_t i) {
  return s.periods[i];
}
std::vector<Value> TakeValues(AggregateSeries& s, size_t i) {
  std::vector<Value> values;
  values.push_back(std::move(s.intervals[i].value));
  return values;
}
std::vector<Value> TakeValues(MultiSeries& s, size_t i) {
  const auto first = s.values.begin() + static_cast<ptrdiff_t>(i * s.arity);
  return {std::make_move_iterator(first),
          std::make_move_iterator(first + static_cast<ptrdiff_t>(s.arity))};
}

/// The one row materializer: a row per interval of a group's `series`,
/// projected onto the select list (aggregate values and the group's `key`).
/// With `drop_empty`, intervals where every aggregate holds its empty
/// value are skipped.
template <typename Series>
void AppendRows(const BoundQuery& query, const std::vector<Value>& key,
                Series series, bool drop_empty,
                std::vector<QueryResultRow>* rows) {
  std::vector<Value> empty;
  empty.reserve(query.aggregates.size());
  for (const BoundAggregate& agg : query.aggregates) {
    empty.push_back(EmptyAggregateValue(agg.kind));
  }
  // A select list of exactly the aggregates, in order, takes each
  // interval's values by move: the routed tiers' series run to hundreds
  // of thousands of intervals.
  bool identity = query.columns.size() == query.aggregates.size();
  for (size_t c = 0; identity && c < query.columns.size(); ++c) {
    identity = query.columns[c].is_aggregate && query.columns[c].index == c;
  }
  const size_t intervals = IntervalCount(series);
  if (rows->empty()) rows->reserve(intervals);
  for (size_t i = 0; i < intervals; ++i) {
    std::vector<Value> values = TakeValues(series, i);
    if (drop_empty && values == empty) continue;
    QueryResultRow row;
    row.valid = PeriodAt(series, i);
    if (identity) {
      row.values = std::move(values);
    } else {
      row.values.reserve(query.columns.size());
      for (const BoundOutputColumn& col : query.columns) {
        row.values.push_back(col.is_aggregate ? values[col.index]
                                              : key[col.index]);
      }
    }
    rows->push_back(std::move(row));
  }
}

/// Tiers 1-2: the whole relation's series from the live index or the
/// pruned column scan, read where it lives, as the one group's rows.
Status EvaluateRouted(const BoundQuery& query, const Route& route,
                      const ExecutorOptions& options,
                      std::vector<QueryResultRow>* rows) {
  obs::QueryProfile* profile = options.profile;
  const BoundAggregate& agg = query.aggregates[0];
  AggregateSeries series;
  if (route.plan->algorithm == AlgorithmKind::kLiveIndex) {
    const shard::ShardedLiveService& sharded = *options.sharded_service;
    LiveRoutedTotal().Increment();
    obs::Span probe_span(profile, "live_probe");
    probe_span.Annotate("shards", sharded.num_shards());
    uint64_t epoch = 0;
    TAGG_ASSIGN_OR_RETURN(
        series, sharded.AggregateOver(query.relation->name(), agg.kind,
                                      agg.attribute, Period::All(),
                                      /*coalesce=*/false, &epoch));
    probe_span.Annotate("epoch", epoch);
    probe_span.Annotate("intervals", series.intervals.size());
  } else {
    ColumnScanRoutedTotal().Increment();
    obs::Span scan_span(profile, "column_scan");
    ColumnScanOptions copts;  // the whole time-line
    copts.aggregate = agg.kind;
    copts.attribute = agg.attribute;
    copts.values = route.values;
    ColumnScanStats scan_stats;
    TAGG_ASSIGN_OR_RETURN(
        series,
        ComputeColumnScanAggregate(*route.backing, copts, &scan_stats));
    scan_span.Annotate("blocks_total", scan_stats.blocks_total);
    scan_span.Annotate("blocks_skipped", scan_stats.blocks_skipped);
    scan_span.Annotate("blocks_summarized", scan_stats.blocks_summarized);
    scan_span.Annotate("blocks_decoded", scan_stats.blocks_decoded);
    scan_span.Annotate("rows_decoded", scan_stats.rows_decoded);
    scan_span.Annotate("rows_kept", scan_stats.rows_kept);
    scan_span.Annotate("intervals", series.intervals.size());
  }
  obs::Span materialize_span(profile, "materialize");
  AppendRows(query, {}, std::move(series), options.drop_empty, rows);
  materialize_span.Annotate("rows", rows->size());
  return Status::OK();
}

/// Tiers 3-4: groups the selected rows by value and aggregates every group
/// with the partitioned path or the plan's sequential algorithm, where the
/// rows lie; then materializes each group's rows.
Status EvaluateGroups(const BoundQuery& query, const RowSelection& input,
                      const Plan& plan, size_t workers,
                      const ExecutorOptions& options,
                      std::vector<QueryResultRow>* rows) {
  obs::QueryProfile* profile = options.profile;
  // 3. Group by value (Section 4.1's aggregation sets), preserving tuple
  // order within each group so sortedness properties survive.  Without
  // GROUP BY there is exactly one group, the whole input, even when it
  // is empty.
  obs::Span group_span(profile, "group");
  std::map<std::vector<Value>, std::vector<size_t>, GroupKeyLess> groups;
  const std::vector<Value> no_key;
  std::vector<std::pair<const std::vector<Value>*, RowSelection>> selections;
  if (query.group_attributes.empty()) {
    selections.emplace_back(&no_key, input);
  } else {
    for (size_t i = 0; i < input.size(); ++i) {
      std::vector<Value> key;
      key.reserve(query.group_attributes.size());
      for (size_t attr : query.group_attributes) {
        key.push_back(input.tuple(i).value(attr));
      }
      groups[std::move(key)].push_back(input.row(i));
    }
    for (const auto& [key, group_rows] : groups) {
      selections.emplace_back(&key,
                              RowSelection(input.relation(), group_rows));
    }
  }
  group_span.Annotate("groups", selections.size());
  group_span.End();

  // Span grouping shares one window across groups: explicit bounds, or
  // the filtered rows' lifespan.
  Period span_window;
  if (query.temporal.kind == TemporalGrouping::Kind::kSpan) {
    if (query.temporal.has_window) {
      TAGG_ASSIGN_OR_RETURN(span_window,
                            Period::Make(query.temporal.window_start,
                                         query.temporal.window_end));
    } else {
      if (input.empty()) {
        return Status::InvalidArgument(
            "span grouping without FROM/TO requires a non-empty relation "
            "to derive the window");
      }
      TAGG_ASSIGN_OR_RETURN(span_window, input.Lifespan());
    }
  }

  // 4. Aggregate each group.
  obs::Span agg_span(profile, "aggregate");
  std::vector<std::variant<AggregateSeries, MultiSeries>> group_series;
  group_series.reserve(selections.size());
  ExecutionStats agg_stats;  // accumulated across groups
  size_t intervals_total = 0;
  for (const auto& [key, group_input] : selections) {
    if (query.temporal.kind == TemporalGrouping::Kind::kSpan) {
      // Span grouping: fixed buckets, one series per aggregate, zipped
      // (boundaries are the spans, identical by construction).
      MultiSeries zipped;
      zipped.arity = query.aggregates.size();
      for (size_t a = 0; a < zipped.arity; ++a) {
        const BoundAggregate& agg = query.aggregates[a];
        SpanAggregateOptions span_options;
        span_options.aggregate = agg.kind;
        span_options.attribute = agg.attribute;
        span_options.window = span_window;
        span_options.span_width = query.temporal.span_width;
        TAGG_ASSIGN_OR_RETURN(
            AggregateSeries series,
            ComputeSpanAggregate(group_input, span_options));
        zipped.stats.work_steps += series.stats.work_steps;
        zipped.stats.nodes_allocated += series.stats.nodes_allocated;
        zipped.periods.resize(series.intervals.size());
        zipped.values.resize(series.intervals.size() * zipped.arity);
        for (size_t i = 0; i < series.intervals.size(); ++i) {
          zipped.periods[i] = series.intervals[i].period;
          zipped.values[i * zipped.arity + a] =
              std::move(series.intervals[i].value);
        }
      }
      group_series.emplace_back(std::move(zipped));
    } else if (plan.algorithm == AlgorithmKind::kPartitioned) {
      // Parallel partitioned path: one aggregate, evaluated region by
      // region with `workers` threads in both phases.
      PartitionedRoutedTotal().Increment();
      const BoundAggregate& agg = query.aggregates[0];
      PartitionedOptions popts;
      popts.aggregate = agg.kind;
      popts.attribute = agg.attribute;
      popts.parallel_workers = workers;
      // Enough regions that work-stealing balances uneven tuple density.
      popts.partitions = std::max<size_t>(8, workers * 4);
      popts.profile = profile;
      TAGG_ASSIGN_OR_RETURN(
          AggregateSeries series,
          ComputePartitionedAggregate(group_input, popts));
      group_series.emplace_back(std::move(series));
    } else {
      // Instant grouping: all aggregates in one algorithm pass, so the
      // constant intervals are computed once per group rather than once
      // per aggregate.  A lone aggregate runs on its own monoid, two or
      // more on the fused MultiOp.
      MultiAggregateOptions multi;
      multi.specs.reserve(query.aggregates.size());
      for (const BoundAggregate& agg : query.aggregates) {
        multi.specs.push_back({agg.kind, agg.attribute});
      }
      multi.algorithm = plan.algorithm;
      multi.k = plan.k;
      multi.presort = plan.presort;
      auto series = ComputeMultiAggregate(group_input, multi);
      if (!series.ok() && series.status().IsInvalidArgument() &&
          plan.algorithm == AlgorithmKind::kKOrderedTree && !plan.presort) {
        // The declared k-ordering was wrong for this partition; fall back
        // to the paper's safe strategy: sort, then k = 1.
        multi.presort = true;
        multi.k = 1;
        series = ComputeMultiAggregate(group_input, multi);
      }
      if (!series.ok()) return series.status();
      group_series.emplace_back(std::move(series).value());
    }
    std::visit(
        [&](const auto& series) {
          const ExecutionStats& stats = series.stats;
          agg_stats.work_steps += stats.work_steps;
          agg_stats.nodes_allocated += stats.nodes_allocated;
          agg_stats.peak_live_nodes =
              std::max(agg_stats.peak_live_nodes, stats.peak_live_nodes);
          agg_stats.peak_paper_bytes =
              std::max(agg_stats.peak_paper_bytes, stats.peak_paper_bytes);
          agg_stats.tree_depth =
              std::max(agg_stats.tree_depth, stats.tree_depth);
          intervals_total += IntervalCount(series);
        },
        group_series.back());
  }
  agg_span.Annotate("intervals", intervals_total);
  agg_span.Annotate("work_steps", agg_stats.work_steps);
  agg_span.Annotate("nodes_allocated", agg_stats.nodes_allocated);
  agg_span.Annotate("peak_live_nodes", agg_stats.peak_live_nodes);
  agg_span.Annotate("paper_bytes", agg_stats.peak_paper_bytes);
  agg_span.Annotate("tree_depth", agg_stats.tree_depth);
  agg_span.End();

  obs::Span materialize_span(profile, "materialize");
  for (size_t g = 0; g < selections.size(); ++g) {
    std::visit(
        [&](auto& series) {
          AppendRows(query, *selections[g].first, std::move(series),
                     options.drop_empty, rows);
        },
        group_series[g]);
  }
  materialize_span.Annotate("rows", rows->size());
  return Status::OK();
}

}  // namespace

std::string QueryResult::ToString(size_t max_rows) const {
  std::vector<std::string> headers = column_names;
  headers.push_back("VALID");
  std::vector<std::vector<std::string>> cells;
  const size_t shown = std::min(max_rows, rows.size());
  for (size_t r = 0; r < shown; ++r) {
    std::vector<std::string> row;
    for (const Value& v : rows[r].values) row.push_back(v.ToString());
    row.push_back(rows[r].valid.ToString());
    cells.push_back(std::move(row));
  }
  std::vector<size_t> widths(headers.size());
  for (size_t c = 0; c < headers.size(); ++c) {
    widths[c] = headers[c].size();
    for (const auto& row : cells) widths[c] = std::max(widths[c],
                                                       row[c].size());
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      out += row[c];
      out.append(widths[c] - row[c].size() + 2, ' ');
    }
    out += "\n";
  };
  append_row(headers);
  for (size_t c = 0; c < headers.size(); ++c) {
    out.append(widths[c], '-');
    out.append(2, ' ');
  }
  out += "\n";
  for (const auto& row : cells) append_row(row);
  if (shown < rows.size()) {
    out += "... (" + std::to_string(rows.size() - shown) + " more rows)\n";
  }
  return out;
}

std::string QueryResult::ExplainAnalyzeString() const {
  std::string out = "Plan: ";
  out += AlgorithmKindToString(plan.algorithm);
  if (plan.algorithm == AlgorithmKind::kKOrderedTree) {
    out += " (k=" + std::to_string(plan.k) +
           (plan.presort ? ", presort" : "") + ")";
  }
  out += "\n  " + plan.rationale + "\n";
  if (profile != nullptr) {
    out += profile->Render();
  }
  return out;
}

Result<QueryResult> ExecuteSelect(const BoundQuery& query,
                                  const ExecutorOptions& options) {
  const Relation& relation = *query.relation;
  QueriesTotal().Increment();
  obs::ScopedLatencyTimer latency_timer(QuerySeconds());
  obs::QueryProfile* profile = options.profile;
  obs::Span exec_span(profile, "execute");
  exec_span.Annotate("relation", relation.name());
  exec_span.Annotate("input_tuples", relation.size());

  const size_t workers = ResolveWorkers(options.parallel_workers);
  const Route route = ChooseTier(query, options, workers);
  const bool batch = !route.plan.has_value() ||
                     route.plan->algorithm == AlgorithmKind::kPartitioned;

  QueryResult result;
  result.analyzed = query.analyze;
  for (const BoundOutputColumn& col : query.columns) {
    result.column_names.push_back(col.name);
  }

  // 1-2. Filter and plan.  The routed tiers read the whole relation where
  // it lives; the batch tiers filter it into a selection of row indices
  // (every row without WHERE) and, unless partitioned, apply the Section
  // 6.3 rules to the selected rows.
  Plan& plan = result.plan;
  if (route.plan.has_value()) plan = *route.plan;
  std::vector<size_t> selected;
  RowSelection input(relation);
  if (batch) {
    obs::Span filter_span(profile, "filter");
    if (query.where != nullptr) {
      for (size_t i = 0; i < relation.size(); ++i) {
        if (EvalPredicate(*query.where, relation.tuple(i))) {
          selected.push_back(i);
        }
      }
      input = RowSelection(relation, selected);
    }
    filter_span.Annotate("tuples_in", relation.size());
    filter_span.Annotate("tuples_out", input.size());
    filter_span.End();

    obs::Span plan_span(profile, "plan");
    if (!route.plan.has_value()) {
      PlannerInput planner_input;
      planner_input.num_tuples = input.size();
      planner_input.sorted =
          query.stats.known_sorted || input.IsSortedByTime();
      planner_input.declared_k = query.stats.declared_k;
      if (query.temporal.kind == TemporalGrouping::Kind::kSpan &&
          query.temporal.has_window) {
        const Instant width =
            query.temporal.window_end - query.temporal.window_start + 1;
        planner_input.expected_result_intervals =
            static_cast<size_t>((width + query.temporal.span_width - 1) /
                                query.temporal.span_width);
      }
      plan = ChoosePlan(planner_input);
    }
    plan_span.Annotate("algorithm", AlgorithmKindToString(plan.algorithm));
    plan_span.Annotate("workers", workers);
    if (plan.algorithm == AlgorithmKind::kKOrderedTree) {
      plan_span.Annotate("k", plan.k);
    }
  }

  // EXPLAIN: report the chosen plan without executing.  EXPLAIN ANALYZE
  // falls through and executes so the profile carries real timings.
  if (query.explain && !query.analyze) return result;

  // 3-4. Evaluate: every tier hands the materializer one series per group.
  TAGG_RETURN_IF_ERROR(
      batch ? EvaluateGroups(query, input, plan, workers, options,
                             &result.rows)
            : EvaluateRouted(query, route, options, &result.rows));

  // 5. Optional TSQL2 coalescing of adjacent identical rows.  Rows of one
  // group are consecutive and different groups differ in their grouping
  // values, so a single pass cannot merge across groups.
  if (options.coalesce && !result.rows.empty()) {
    obs::Span coalesce_span(profile, "coalesce");
    const size_t rows_in = result.rows.size();
    std::vector<QueryResultRow> coalesced;
    for (QueryResultRow& row : result.rows) {
      if (!coalesced.empty() && coalesced.back().values == row.values &&
          coalesced.back().valid.MeetsBefore(row.valid)) {
        coalesced.back().valid =
            Period(coalesced.back().valid.start(), row.valid.end());
      } else {
        coalesced.push_back(std::move(row));
      }
    }
    result.rows = std::move(coalesced);
    coalesce_span.Annotate("rows_in", rows_in);
    coalesce_span.Annotate("rows_out", result.rows.size());
  }

  exec_span.Annotate("rows_out", result.rows.size());
  return result;
}

Result<QueryResult> RunQuery(std::string_view sql, const Catalog& catalog,
                             const ExecutorOptions& options) {
  // Every result carries its trace tree; the spans cost two clock reads
  // each and are recorded per query, not per tuple.
  auto profile = std::make_shared<obs::QueryProfile>();
  obs::Span parse_span(profile.get(), "parse");
  auto stmt = ParseSelect(sql);
  parse_span.End();
  if (!stmt.ok()) return stmt.status();

  obs::Span analyze_span(profile.get(), "analyze");
  auto bound = Analyze(stmt.value(), catalog);
  analyze_span.End();
  if (!bound.ok()) return bound.status();

  ExecutorOptions traced = options;
  if (traced.profile == nullptr) traced.profile = profile.get();
  auto result = ExecuteSelect(bound.value(), traced);
  profile->Finish();
  if (!result.ok()) return result.status();
  QueryResult out = std::move(result).value();
  if (out.profile == nullptr && traced.profile == profile.get()) {
    out.profile = std::move(profile);
  }
  return out;
}

}  // namespace tagg
