#include "query/executor.h"

#include <algorithm>
#include <cstdlib>
#include <map>

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

Result<bool> EvalPredicate(const BoundPredicate& pred, const Tuple& tuple) {
  switch (pred.kind) {
    case Predicate::Kind::kComparison: {
      const Value& v = tuple.value(pred.attribute);
      // SQL three-valued logic collapsed to two: comparisons against NULL
      // are false.
      if (v.is_null()) return false;
      TAGG_ASSIGN_OR_RETURN(int cmp, v.Compare(pred.literal));
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
      return Status::Internal("unknown comparison op");
    }
    case Predicate::Kind::kValidOverlaps:
      return tuple.valid().Overlaps(pred.period);
    case Predicate::Kind::kAnd: {
      TAGG_ASSIGN_OR_RETURN(bool l, EvalPredicate(*pred.lhs, tuple));
      if (!l) return false;
      return EvalPredicate(*pred.rhs, tuple);
    }
    case Predicate::Kind::kOr: {
      TAGG_ASSIGN_OR_RETURN(bool l, EvalPredicate(*pred.lhs, tuple));
      if (l) return true;
      return EvalPredicate(*pred.rhs, tuple);
    }
    case Predicate::Kind::kNot: {
      TAGG_ASSIGN_OR_RETURN(bool l, EvalPredicate(*pred.lhs, tuple));
      return !l;
    }
  }
  return Status::Internal("unknown predicate kind");
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

/// The "no tuples here" value of an aggregate, used when dropping empty
/// rows: COUNT() of an empty set is 0, the others are NULL.
Value EmptyValueOf(AggregateKind kind) {
  return kind == AggregateKind::kCount ? Value::Int(0) : Value::Null();
}

/// One single-aggregate result row per interval of `series`, in time
/// order: the routed tiers' materialization.  `drop_empty` skips
/// intervals holding the aggregate's empty value; `coalesce` merges
/// adjacent rows with equal values (TSQL2 coalescing), so the answer does
/// not depend on whether the producer already coalesced.
std::vector<QueryResultRow> SeriesToRows(AggregateSeries series,
                                         AggregateKind kind, bool drop_empty,
                                         bool coalesce) {
  const Value empty = EmptyValueOf(kind);
  std::vector<QueryResultRow> rows;
  rows.reserve(series.intervals.size());
  for (ResultInterval& ri : series.intervals) {
    if (drop_empty && ri.value == empty) continue;
    if (coalesce && !rows.empty() && rows.back().values[0] == ri.value &&
        rows.back().valid.MeetsBefore(ri.period)) {
      rows.back().valid = Period(rows.back().valid.start(), ri.period.end());
      continue;
    }
    rows.push_back({{std::move(ri.value)}, ri.period});
  }
  return rows;
}

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

  // 0a. Live routing: when every shard of the sharded live service
  // (src/shard over src/live) has absorbed exactly the relation's current
  // contents, a single-aggregate instant-grouped query without WHERE or
  // GROUP BY is answered scatter-gather from the resident trees instead
  // of rebuilding one.  A forced algorithm other than kLiveIndex is
  // respected; anything else falls through to the tiers below.
  if (options.sharded_service != nullptr && query.where == nullptr &&
      query.group_attributes.empty() && query.aggregates.size() == 1 &&
      query.temporal.kind == TemporalGrouping::Kind::kInstant &&
      (!options.force_algorithm.has_value() ||
       *options.force_algorithm == AlgorithmKind::kLiveIndex)) {
    const BoundAggregate& agg = query.aggregates[0];
    const shard::ShardedLiveService& sharded = *options.sharded_service;
    if (sharded.ServesFresh(relation, agg.kind, agg.attribute)) {
      QueryResult routed;
      routed.analyzed = query.analyze;
      for (const BoundOutputColumn& col : query.columns) {
        routed.column_names.push_back(col.name);
      }
      routed.plan.algorithm = AlgorithmKind::kLiveIndex;
      routed.plan.rationale =
          "served from the live index for '" + relation.name() + "' (" +
          std::to_string(sharded.num_shards()) + " shard(s), topology v" +
          std::to_string(sharded.topology_version()) +
          "; no per-query tree rebuild)";
      if (query.explain && !query.analyze) return routed;
      LiveRoutedTotal().Increment();
      obs::Span probe_span(profile, "live_probe");
      probe_span.Annotate("shards", sharded.num_shards());
      uint64_t epoch = 0;
      TAGG_ASSIGN_OR_RETURN(
          AggregateSeries series,
          sharded.AggregateOver(relation.name(), agg.kind, agg.attribute,
                                Period::All(), /*coalesce=*/false, &epoch));
      probe_span.Annotate("epoch", epoch);
      probe_span.Annotate("intervals", series.intervals.size());
      probe_span.End();
      routed.rows = SeriesToRows(std::move(series), agg.kind,
                                 options.drop_empty, options.coalesce);
      return routed;
    }
  }

  // 0b. Columnar pruned-scan routing: when the catalog attached a columnar
  // backing file that is exactly as fresh as the relation, the same class
  // of query the live tiers serve (single aggregate, instant grouping, no
  // WHERE or GROUP BY) is answered by the pruned scan (core/column_scan)
  // over the stored blocks — zone-map skipping, footer-summary
  // composition, and decode only where needed — instead of re-aggregating
  // the in-memory tuples.
  if (query.column_backing != nullptr && query.where == nullptr &&
      query.group_attributes.empty() && query.aggregates.size() == 1 &&
      query.temporal.kind == TemporalGrouping::Kind::kInstant &&
      (!options.force_algorithm.has_value() ||
       *options.force_algorithm == AlgorithmKind::kColumnScan)) {
    const BoundAggregate& agg = query.aggregates[0];
    // Column files store a single value column; COUNT(*) is also fine
    // because stored files cannot contain NULLs.
    const bool attribute_ok =
        agg.attribute == kColumnValueAttribute ||
        (agg.kind == AggregateKind::kCount &&
         agg.attribute == AggregateOptions::kNoAttribute);
    auto backing = std::dynamic_pointer_cast<const ColumnRelation>(
        query.column_backing);
    if (attribute_ok && backing != nullptr &&
        backing->row_count() == relation.size()) {
      QueryResult routed;
      routed.analyzed = query.analyze;
      for (const BoundOutputColumn& col : query.columns) {
        routed.column_names.push_back(col.name);
      }
      routed.plan.algorithm = AlgorithmKind::kColumnScan;
      routed.plan.rationale =
          "pruned scan over the columnar backing '" + backing->path() +
          "' (" + std::to_string(backing->blocks().size()) +
          " block(s); zone-map skipping + footer summaries)";
      if (query.explain && !query.analyze) return routed;
      ColumnScanRoutedTotal().Increment();
      obs::Span scan_span(profile, "column_scan");
      ColumnScanOptions copts;
      copts.aggregate = agg.kind;
      copts.attribute = agg.attribute;
      copts.window = Period::All();
      copts.parallel_workers = ResolveWorkers(options.parallel_workers);
      ColumnScanStats scan_stats;
      TAGG_ASSIGN_OR_RETURN(
          AggregateSeries series,
          ComputeColumnScanAggregate(*backing, copts, &scan_stats));
      scan_span.Annotate("blocks_total", scan_stats.blocks_total);
      scan_span.Annotate("blocks_skipped", scan_stats.blocks_skipped);
      scan_span.Annotate("blocks_summarized", scan_stats.blocks_summarized);
      scan_span.Annotate("blocks_decoded", scan_stats.blocks_decoded);
      scan_span.Annotate("rows_decoded", scan_stats.rows_decoded);
      scan_span.Annotate("intervals", series.intervals.size());
      scan_span.End();
      routed.rows = SeriesToRows(std::move(series), agg.kind,
                                 options.drop_empty, options.coalesce);
      return routed;
    }
    if (options.force_algorithm == AlgorithmKind::kColumnScan) {
      return Status::InvalidArgument(
          "column scan was forced but the relation's columnar backing is "
          "missing, stale, or the aggregate does not target the stored "
          "value column");
    }
  } else if (options.force_algorithm == AlgorithmKind::kColumnScan) {
    return Status::InvalidArgument(
        "column scan requires an attached columnar backing and a "
        "single-aggregate instant-grouped query without WHERE or GROUP "
        "BY");
  }

  // 1. Filter.
  obs::Span filter_span(profile, "filter");
  Relation filtered(relation.schema(), relation.name());
  if (query.where == nullptr) {
    filtered = relation;
  } else {
    for (const Tuple& t : relation) {
      TAGG_ASSIGN_OR_RETURN(bool keep, EvalPredicate(*query.where, t));
      if (keep) filtered.AppendUnchecked(t);
    }
  }
  filter_span.Annotate("tuples_in", relation.size());
  filter_span.Annotate("tuples_out", filtered.size());
  filter_span.End();

  // 2. Plan (Section 6.3 rules, unless overridden).
  obs::Span plan_span(profile, "plan");
  PlannerInput planner_input;
  planner_input.num_tuples = filtered.size();
  planner_input.sorted =
      query.stats.known_sorted || filtered.IsSortedByTime();
  planner_input.declared_k = query.stats.declared_k;
  if (query.temporal.kind == TemporalGrouping::Kind::kSpan &&
      query.temporal.has_window) {
    const Instant width =
        query.temporal.window_end - query.temporal.window_start + 1;
    planner_input.expected_result_intervals = static_cast<size_t>(
        (width + query.temporal.span_width - 1) / query.temporal.span_width);
  }
  Plan plan = ChoosePlan(planner_input);
  if (options.force_algorithm.has_value()) {
    plan.algorithm = *options.force_algorithm;
    plan.rationale = "forced by executor options";
  }
  // Parallel partitioned routing: with workers > 1 (from the option or
  // TAGG_WORKERS), a single-aggregate instant-grouped query is evaluated
  // region by region with parallel routing and builds.  A forced
  // algorithm other than kPartitioned is respected as-is.
  const size_t workers = ResolveWorkers(options.parallel_workers);
  const bool partitioned_eligible =
      query.aggregates.size() == 1 &&
      query.temporal.kind == TemporalGrouping::Kind::kInstant;
  if (partitioned_eligible &&
      (options.force_algorithm == AlgorithmKind::kPartitioned ||
       (workers > 1 && !options.force_algorithm.has_value()))) {
    plan.algorithm = AlgorithmKind::kPartitioned;
    plan.rationale = "parallel partitioned evaluation with " +
                     std::to_string(workers) +
                     " worker(s): sharded routing, per-region builds, "
                     "stitched result";
  }
  if (plan.algorithm == AlgorithmKind::kPartitioned &&
      !partitioned_eligible) {
    return Status::InvalidArgument(
        "partitioned evaluation requires a single aggregate with instant "
        "grouping; span grouping and fused multi-aggregates use the "
        "sequential algorithms");
  }
  plan_span.Annotate("algorithm", AlgorithmKindToString(plan.algorithm));
  plan_span.Annotate("workers", workers);
  if (plan.algorithm == AlgorithmKind::kKOrderedTree) {
    plan_span.Annotate("k", plan.k);
  }
  plan_span.End();

  // EXPLAIN: report the chosen plan without executing.  EXPLAIN ANALYZE
  // falls through and executes so the profile carries real timings.
  if (query.explain && !query.analyze) {
    QueryResult explained;
    explained.plan = plan;
    for (const BoundOutputColumn& col : query.columns) {
      explained.column_names.push_back(col.name);
    }
    return explained;
  }

  // 3. Group by value (Section 4.1's aggregation sets), preserving tuple
  // order within each group so sortedness properties survive.
  obs::Span group_span(profile, "group");
  std::map<std::vector<Value>, std::vector<size_t>, GroupKeyLess> groups;
  for (size_t i = 0; i < filtered.size(); ++i) {
    std::vector<Value> key;
    key.reserve(query.group_attributes.size());
    for (size_t attr : query.group_attributes) {
      key.push_back(filtered.tuple(i).value(attr));
    }
    groups[std::move(key)].push_back(i);
  }
  group_span.Annotate("groups", groups.size());
  group_span.End();

  // Span grouping shares one window across groups: explicit bounds, or the
  // filtered relation's lifespan.
  Period span_window;
  if (query.temporal.kind == TemporalGrouping::Kind::kSpan) {
    if (query.temporal.has_window) {
      TAGG_ASSIGN_OR_RETURN(span_window,
                            Period::Make(query.temporal.window_start,
                                         query.temporal.window_end));
    } else {
      if (filtered.empty()) {
        return Status::InvalidArgument(
            "span grouping without FROM/TO requires a non-empty relation "
            "to derive the window");
      }
      TAGG_ASSIGN_OR_RETURN(span_window, filtered.Lifespan());
    }
  }

  QueryResult result;
  result.plan = plan;
  result.analyzed = query.analyze;
  for (const BoundOutputColumn& col : query.columns) {
    result.column_names.push_back(col.name);
  }

  // 4. Aggregate each group and zip the per-aggregate series.
  obs::Span agg_span(profile, "aggregate");
  ExecutionStats agg_stats;  // accumulated across groups
  agg_stats.relation_scans = 0;
  size_t intervals_total = 0;
  for (const auto& [key, indices] : groups) {
    Relation group_relation(filtered.schema(), filtered.name());
    group_relation.Reserve(indices.size());
    for (size_t i : indices) {
      group_relation.AppendUnchecked(filtered.tuple(i));
    }

    MultiSeries zipped;
    if (query.temporal.kind == TemporalGrouping::Kind::kSpan) {
      // Span grouping: fixed buckets, one series per aggregate, zipped
      // (boundaries are the spans, identical by construction).
      std::vector<AggregateSeries> per_aggregate;
      per_aggregate.reserve(query.aggregates.size());
      for (const BoundAggregate& agg : query.aggregates) {
        SpanAggregateOptions span_options;
        span_options.aggregate = agg.kind;
        span_options.attribute = agg.attribute;
        span_options.window = span_window;
        span_options.span_width = query.temporal.span_width;
        TAGG_ASSIGN_OR_RETURN(
            AggregateSeries series,
            ComputeSpanAggregate(group_relation, span_options));
        agg_stats.work_steps += series.stats.work_steps;
        agg_stats.nodes_allocated += series.stats.nodes_allocated;
        per_aggregate.push_back(std::move(series));
      }
      for (size_t i = 0; i < per_aggregate[0].intervals.size(); ++i) {
        zipped.periods.push_back(per_aggregate[0].intervals[i].period);
        std::vector<Value> row;
        row.reserve(per_aggregate.size());
        for (const AggregateSeries& s : per_aggregate) {
          row.push_back(s.intervals[i].value);
        }
        zipped.values.push_back(std::move(row));
      }
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
          ComputePartitionedAggregate(group_relation, popts));
      zipped.periods.reserve(series.intervals.size());
      zipped.values.reserve(series.intervals.size());
      for (ResultInterval& ri : series.intervals) {
        zipped.periods.push_back(ri.period);
        zipped.values.push_back({std::move(ri.value)});
      }
      agg_stats.work_steps += series.stats.work_steps;
      agg_stats.nodes_allocated += series.stats.nodes_allocated;
      agg_stats.peak_live_nodes =
          std::max(agg_stats.peak_live_nodes, series.stats.peak_live_nodes);
      agg_stats.peak_paper_bytes = std::max(agg_stats.peak_paper_bytes,
                                            series.stats.peak_paper_bytes);
    } else {
      // Instant grouping: all aggregates fused into one algorithm pass
      // (MultiOp), so the constant intervals are computed once per group
      // rather than once per aggregate.
      MultiAggregateOptions multi;
      multi.specs.reserve(query.aggregates.size());
      for (const BoundAggregate& agg : query.aggregates) {
        multi.specs.push_back({agg.kind, agg.attribute});
      }
      multi.algorithm = plan.algorithm;
      multi.k = plan.k;
      multi.presort = plan.presort;
      auto series = ComputeMultiAggregate(group_relation, multi);
      if (!series.ok() && series.status().IsInvalidArgument() &&
          plan.algorithm == AlgorithmKind::kKOrderedTree && !plan.presort) {
        // The declared k-ordering was wrong for this partition; fall back
        // to the paper's safe strategy: sort, then k = 1.
        multi.presort = true;
        multi.k = 1;
        series = ComputeMultiAggregate(group_relation, multi);
      }
      if (!series.ok()) return series.status();
      zipped = std::move(series).value();
      agg_stats.work_steps += zipped.stats.work_steps;
      agg_stats.nodes_allocated += zipped.stats.nodes_allocated;
      agg_stats.peak_live_nodes =
          std::max(agg_stats.peak_live_nodes, zipped.stats.peak_live_nodes);
      agg_stats.peak_paper_bytes = std::max(agg_stats.peak_paper_bytes,
                                            zipped.stats.peak_paper_bytes);
      agg_stats.tree_depth =
          std::max(agg_stats.tree_depth, zipped.stats.tree_depth);
    }
    intervals_total += zipped.periods.size();

    for (size_t i = 0; i < zipped.periods.size(); ++i) {
      if (options.drop_empty) {
        bool all_empty = true;
        for (size_t a = 0; a < zipped.values[i].size(); ++a) {
          if (zipped.values[i][a] !=
              EmptyValueOf(query.aggregates[a].kind)) {
            all_empty = false;
            break;
          }
        }
        if (all_empty) continue;
      }
      QueryResultRow row;
      row.valid = zipped.periods[i];
      row.values.reserve(query.columns.size());
      for (const BoundOutputColumn& col : query.columns) {
        if (col.is_aggregate) {
          row.values.push_back(zipped.values[i][col.index]);
        } else {
          row.values.push_back(key[col.index]);
        }
      }
      result.rows.push_back(std::move(row));
    }
  }
  agg_span.Annotate("intervals", intervals_total);
  agg_span.Annotate("work_steps", agg_stats.work_steps);
  agg_span.Annotate("nodes_allocated", agg_stats.nodes_allocated);
  agg_span.Annotate("peak_live_nodes", agg_stats.peak_live_nodes);
  agg_span.Annotate("paper_bytes", agg_stats.peak_paper_bytes);
  agg_span.Annotate("tree_depth", agg_stats.tree_depth);
  agg_span.End();

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
