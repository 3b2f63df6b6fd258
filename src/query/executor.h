// Query execution: predicate filtering, value grouping, temporal
// aggregation through the Section 6.3 planner, and result assembly.
//
// Per the paper's aggregation-set model (Section 4.1), the executor
// partitions qualifying tuples by the GROUP BY values, evaluates every
// aggregate of the select list over each partition with the algorithm the
// planner picks, and zips the per-aggregate series together — the
// constant-interval boundaries of a partition are identical across
// aggregates because they depend only on the tuples' timestamps.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/planner.h"
#include "obs/trace.h"
#include "query/analyzer.h"
#include "shard/sharded_service.h"
#include "util/result.h"

namespace tagg {

/// Execution knobs.
struct ExecutorOptions {
  /// Remove result rows over intervals where the group has no tuples.
  bool drop_empty = true;
  /// Merge adjacent rows with identical values (TSQL2 coalescing).
  bool coalesce = false;
  /// Worker threads for the parallel partitioned path.  0 (the default)
  /// resolves from the TAGG_WORKERS environment variable, falling back
  /// to 1 (sequential).  When the resolved value exceeds 1, eligible
  /// queries — a single aggregate with instant grouping — are evaluated
  /// through ComputePartitionedAggregate (core/partitioned_agg.h) with
  /// parallel routing and region builds; everything else keeps the
  /// planner's sequential choice.  Results are identical either way.
  size_t parallel_workers = 0;
  /// When set, single-aggregate instant-grouped queries without WHERE or
  /// GROUP BY are answered scatter-gather from the registered, up-to-date
  /// live indexes of the sharded service (src/shard over src/live)
  /// instead of rebuilding an aggregation tree per query.  A one-shard
  /// service is the unsharded case.  Queries the service cannot serve and
  /// stale indexes fall back to the other tiers transparently.
  const shard::ShardedLiveService* sharded_service = nullptr;
  /// When set, the executor records a span per pipeline stage (filter,
  /// plan, group, aggregate, coalesce) into this profile.  Null disables
  /// tracing at zero cost; RunQuery supplies one automatically.
  obs::QueryProfile* profile = nullptr;
};

/// One result row: the select-list values plus the implicit valid period.
struct QueryResultRow {
  std::vector<Value> values;
  Period valid;
};

/// A complete query result.
struct QueryResult {
  std::vector<std::string> column_names;  // the implicit VALID prints last
  std::vector<QueryResultRow> rows;
  /// The plan the executor chose: the routed tier, or the Section 6.3
  /// planner's algorithm.
  Plan plan;
  /// True when the statement was EXPLAIN ANALYZE: the query ran and
  /// callers should present ExplainAnalyzeString() rather than the rows.
  bool analyzed = false;
  /// The query's trace tree; set by RunQuery (always) or when
  /// ExecutorOptions::profile was supplied.  Shared so results stay
  /// copyable.
  std::shared_ptr<obs::QueryProfile> profile;

  /// Aligned tabular rendering.
  std::string ToString(size_t max_rows = 64) const;

  /// EXPLAIN ANALYZE rendering: the chosen plan followed by the profiled
  /// operator tree with per-stage timings and annotations.
  std::string ExplainAnalyzeString() const;
};

/// Executes a bound query.  The tier follows from what the executor can
/// observe, tried in this order: the sharded live index (fresh indexes),
/// the pruned column scan (a fresh columnar backing), the partitioned path
/// (more than one worker), else the Section 6.3 planner's algorithm.  Only
/// a single aggregate with instant grouping leaves the planner, and the
/// first two tiers also need no WHERE and no GROUP BY.  Every tier yields
/// the same rows.
Result<QueryResult> ExecuteSelect(const BoundQuery& query,
                                  const ExecutorOptions& options = {});

/// Convenience: parse + analyze + execute one statement.
Result<QueryResult> RunQuery(std::string_view sql, const Catalog& catalog,
                             const ExecutorOptions& options = {});

}  // namespace tagg
