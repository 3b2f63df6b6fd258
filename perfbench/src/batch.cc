// batch-stored: one caller runs four query classes round-robin over a
// TCR1 stored relation (2^18 k-ordered Employed tuples, 64 blocks):
//
//   scan      dashboard round: RunQuery COUNT(*), SUM(salary), AVG(salary)
//             over the whole relation (the executor's pruned-scan tier);
//   window    ComputeColumnScanAggregate COUNT over a narrow seeded window
//             (zone maps skip all but ~2 blocks);
//   tree      RunQuery COUNT(*) WHERE salary > s (~50% selectivity), which
//             the planner sends to the k-ordered tree (declared k = 100);
//   parallel  the same query with 2 workers (partitioned route/build/stitch).
//
// MAX(salary) is not in the dashboard round: the pruned scan answers
// MIN/MAX with the unbalanced aggregation tree over the time-sorted file,
// which degenerates quadratically (about 100 s at 2^18 rows).  The traced
// run times it on a 1/32 slice of the timeline as core.scan_max_ms.
//
// No network is involved: query, core kernels and storage decode do all
// the work.  Set-up writes the column file and attaches it, so the cost
// of making the file durable shows in setup_s.

#include <unistd.h>

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/column_scan.h"
#include "core/partitioned_agg.h"
#include "core/workload.h"
#include "obs/trace.h"
#include "query/analyzer.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/relation_io.h"
#include "temporal/catalog.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace tagg;

constexpr size_t kTuples = size_t{1} << 18;
constexpr Instant kLifespan = 1'000'000;
constexpr int64_t kDeclaredK = 100;
constexpr int kSetupReps = 15;
constexpr size_t kWindowsPerRound = 80;
constexpr double kWarmupSeconds = 3.0;
constexpr size_t kCheckInstants = 16;

struct ScanQuery {
  const char* sql;
  AggregateKind kind;
};
constexpr ScanQuery kScan[] = {
    {"SELECT COUNT(*) FROM employed", AggregateKind::kCount},
    {"SELECT SUM(salary) FROM employed", AggregateKind::kSum},
    {"SELECT AVG(salary) FROM employed", AggregateKind::kAvg},
};

std::string TreeSql(int64_t s) {
  return "SELECT COUNT(*) FROM employed WHERE salary > " + std::to_string(s);
}

/// Seeded inputs, all generated before any timer starts.
struct BatchInputs {
  std::shared_ptr<Relation> relation;
  std::vector<OracleTuple> tuples;  // value = salary
  std::vector<Period> windows;
  std::vector<int64_t> thresholds;
  std::vector<Instant> check_instants;
  /// (start, end) sorted by start, to count the rows a window overlaps.
  std::vector<std::pair<Instant, Instant>> by_start;
  Instant max_duration = 0;
};

BatchInputs MakeInputs(uint64_t seed) {
  BatchInputs in;
  WorkloadSpec spec;
  spec.num_tuples = kTuples;
  spec.lifespan = kLifespan;
  spec.order = TupleOrder::kKOrdered;
  spec.k = kDeclaredK;
  spec.k_percentage = 0.08;
  spec.seed = seed;
  in.relation =
      std::make_shared<Relation>(GenerateEmployedRelation(spec).value());
  for (const Tuple& t : *in.relation) {
    in.tuples.push_back({t.valid(), static_cast<double>(t.value(1).AsInt())});
    in.by_start.emplace_back(t.start(), t.end());
    in.max_duration = std::max(in.max_duration, t.end() - t.start() + 1);
  }
  std::sort(in.by_start.begin(), in.by_start.end());
  SeedRng rng(seed ^ 0xBA7C4ull);
  in.windows.resize(4096);
  for (Period& w : in.windows) {
    const int64_t width = rng.LogUniform(1e3, 1e4);
    const Instant lo = rng.Uniform(0, kLifespan - width);
    w = Period(lo, lo + width - 1);
  }
  in.thresholds.resize(1024);
  for (int64_t& s : in.thresholds) s = rng.Uniform(62000, 68000);
  in.check_instants.resize(kCheckInstants);
  for (Instant& t : in.check_instants) t = rng.Uniform(0, kLifespan - 1);
  return in;
}

size_t RowsOverlapping(const BatchInputs& in, const Period& w) {
  auto it = std::lower_bound(
      in.by_start.begin(), in.by_start.end(),
      std::make_pair(w.start() - in.max_duration, Instant{0}));
  size_t n = 0;
  for (; it != in.by_start.end() && it->first <= w.end(); ++it) {
    if (it->second >= w.start()) ++n;
  }
  return n;
}

ExecutorOptions Workers(size_t n) {
  ExecutorOptions o;
  o.parallel_workers = n;
  return o;
}

/// Durations (ms) of every span under `node`, by name.
void CollectSpans(const obs::SpanNode& node,
                  std::map<std::string, std::vector<double>>* out) {
  for (const auto& child : node.children) {
    (*out)[child->name].push_back(static_cast<double>(child->duration_ns) /
                                  1e6);
    CollectSpans(*child, out);
  }
}

/// Copies a QueryProfile subtree into the span recorder, rebased on the
/// caller's clock (the profile's origin is taken as `base_ns`).
void ImportSpans(const obs::SpanNode& node, int64_t base_ns, int64_t parent,
                 uint64_t request_id, SpanRecorder& spans) {
  for (const auto& child : node.children) {
    const int64_t lo = base_ns + child->start_ns;
    const int64_t idx = spans.Add(
        "query." + child->name, lo,
        lo + std::max<int64_t>(child->duration_ns, 0), parent, request_id);
    ImportSpans(*child, base_ns, idx, request_id, spans);
  }
}

/// What one phase of rounds measured.
struct Phase {
  std::vector<double> window_us, round_us;
  std::vector<double> scan_ms, tree_ms, parallel_ms;
  // Per round: the p50 of its windows, and its queries per second.
  std::vector<double> round_window_p50_us, round_rps;
  std::map<std::string, std::vector<double>> scan_spans, tree_spans;
  ColumnScanStats window_stats;
  size_t windows = 0;
  double rows_useful = 0;
  uint64_t ops = 0;
};

}  // namespace

int RunBatch(const RunOptions& opt, Report& report) {
  const BatchInputs in = MakeInputs(opt.seed);
  SpanRecorder spans(opt.trace);
  const std::string path =
      opt.out_dir + "/employed-" + std::to_string(::getpid()) + ".tcr";

  // Setup, several times: write the column file, register the relation
  // with its declared k, attach the backing.
  std::vector<double> setup_s, write_s;
  std::shared_ptr<const ColumnRelation> column;
  std::unique_ptr<Catalog> catalog;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    column.reset();
    catalog = std::make_unique<Catalog>();
    const int64_t t0 = NowNs();
    auto written = WriteRelationToColumnFile(*in.relation, path);
    const int64_t t1 = NowNs();
    Status st = written.status();
    if (st.ok()) {
      column = *written;
      st = catalog->Register(in.relation, RelationStats{false, kDeclaredK});
    }
    if (st.ok()) st = catalog->AttachColumnBacking("employed", column);
    const int64_t t2 = NowNs();
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n",
                   st.ToString().c_str());
      std::remove(path.c_str());
      return 1;
    }
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    write_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  }

  size_t window_cursor = 0, threshold_cursor = 0;
  uint64_t request_id = 0;
  auto run_query = [&](const std::string& sql, size_t workers, int64_t root,
                       std::map<std::string, std::vector<double>>* prof,
                       Phase& ph) -> double {
    report.Attempt();
    ++ph.ops;
    const int64_t t0 = NowNs();
    auto result = RunQuery(sql, *catalog, Workers(workers));
    const int64_t t1 = NowNs();
    if (!result.ok()) {
      report.Fail(sql + ": " + result.status().ToString());
      return kFailedLatency;
    }
    if (spans.enabled() && root >= 0 && result->profile != nullptr) {
      const int64_t idx = spans.Add("query.run", t0, t1, root, ++request_id);
      ImportSpans(result->profile->root(), t0, idx, request_id, spans);
      if (prof != nullptr) CollectSpans(result->profile->root(), prof);
    }
    return static_cast<double>(t1 - t0) / 1e3;
  };
  auto run_windows = [&](size_t n, int64_t root, Phase& ph) {
    for (size_t k = 0; k < n; ++k) {
      const Period& w = in.windows[window_cursor++ % in.windows.size()];
      ColumnScanOptions copts;
      copts.window = w;
      ColumnScanStats stats;
      report.Attempt();
      ++ph.ops;
      const int64_t t0 = NowNs();
      auto series = ComputeColumnScanAggregate(*column, copts, &stats);
      const int64_t t1 = NowNs();
      if (!series.ok()) {
        report.Fail("window: " + series.status().ToString());
        ph.window_us.push_back(kFailedLatency);
        continue;
      }
      ph.window_us.push_back(static_cast<double>(t1 - t0) / 1e3);
      if (root >= 0) {
        spans.Add("core.window", t0, t1, root, ++request_id);
        ph.window_stats.blocks_decoded += stats.blocks_decoded;
        ph.window_stats.blocks_skipped += stats.blocks_skipped;
        ph.window_stats.bytes_decoded += stats.bytes_decoded;
        ++ph.windows;
        if (stats.rows_decoded > 0) {
          ph.rows_useful += static_cast<double>(RowsOverlapping(in, w)) /
                            static_cast<double>(stats.rows_decoded);
        }
      }
    }
  };
  // One round: the three heavy classes, each followed by a share of the
  // narrow windows, so drift reaches every class equally.
  auto run_phase = [&](double seconds, bool traced, Phase& ph) {
    const int64_t start = NowNs();
    const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);
    const size_t per = kWindowsPerRound / 3;
    while (NowNs() < deadline) {
      const int64_t r0 = NowNs();
      const int64_t root = traced ? spans.Add("round", r0, r0, -1, 0) : -1;
      const size_t first_window = ph.window_us.size();
      const uint64_t first_op = ph.ops;
      double scan = 0;
      for (const ScanQuery& q : kScan) {
        scan += run_query(q.sql, 1, root, &ph.scan_spans, ph);
      }
      run_windows(per, root, ph);
      const int64_t s =
          in.thresholds[threshold_cursor++ % in.thresholds.size()];
      const double tree = run_query(TreeSql(s), 1, root, &ph.tree_spans, ph);
      run_windows(per, root, ph);
      const double parallel = run_query(TreeSql(s), 2, root, nullptr, ph);
      run_windows(kWindowsPerRound - 2 * per, root, ph);
      const int64_t r1 = NowNs();
      spans.SetEnd(root, r1);
      ph.round_window_p50_us.push_back(
          Median({ph.window_us.begin() + first_window, ph.window_us.end()}));
      ph.round_rps.push_back(static_cast<double>(ph.ops - first_op) /
                             (static_cast<double>(r1 - r0) / 1e9));
      ph.scan_ms.push_back(scan / 1e3);
      ph.tree_ms.push_back(tree / 1e3);
      ph.parallel_ms.push_back(parallel / 1e3);
      ph.round_us.push_back(scan + tree + parallel);
    }
  };

  // Warm-up, then the measured phase.  A traced run alternates untraced
  // and traced slices so that drift reaches both halves alike.
  Phase warm, untraced, traced;
  run_phase(kWarmupSeconds, false, warm);
  double cpu_us = 0, minflt = 0;
  const int slices = opt.trace ? 6 : 1;
  for (int k = 0; k < slices; ++k) {
    const double slice_s = opt.seconds / slices;
    if (k % 2 == 1) {
      run_phase(slice_s, true, traced);
      continue;
    }
    const ProcSample before = SampleProc();
    run_phase(slice_s, false, untraced);
    const ProcSample after = SampleProc();
    cpu_us += after.cpu_us - before.cpu_us;
    minflt += after.minflt - before.minflt;
  }

  // Correctness, outside the timed phases: each class once against the
  // reference oracle.
  auto check_rows = [&](const std::string& what, AggregateKind kind,
                        const Result<QueryResult>& res,
                        const std::vector<OracleTuple>& truth) {
    report.Attempt();
    if (!res.ok()) {
      report.Wrong(what + ": " + res.status().ToString());
      return;
    }
    for (Instant t : in.check_instants) {
      const OracleInterval want = OracleAt(kind, truth, t);
      const Value got = ValueInSeries(
          res->rows, t, kind, [](const QueryResultRow& r) { return r.valid; },
          [](const QueryResultRow& r) { return r.values[0]; });
      if (!ValuesAgree(kind, want.value, got, want.conditioning)) {
        report.Wrong(what + " at t=" + std::to_string(t) + " expected " +
                     want.value.ToString() + " got " + got.ToString());
        return;
      }
    }
  };
  for (const ScanQuery& q : kScan) {
    check_rows(q.sql, q.kind, RunQuery(q.sql, *catalog, Workers(1)),
               in.tuples);
  }
  const int64_t s0 = in.thresholds[0];
  std::vector<OracleTuple> filtered_truth;
  for (const OracleTuple& t : in.tuples) {
    if (t.value > static_cast<double>(s0)) filtered_truth.push_back(t);
  }
  check_rows("tree", AggregateKind::kCount,
             RunQuery(TreeSql(s0), *catalog, Workers(1)), filtered_truth);
  check_rows("parallel", AggregateKind::kCount,
             RunQuery(TreeSql(s0), *catalog, Workers(2)), filtered_truth);
  {
    report.Attempt();
    ColumnScanOptions copts;
    copts.window = in.windows[0];
    auto series = ComputeColumnScanAggregate(*column, copts);
    if (!series.ok()) {
      report.Wrong("window: " + series.status().ToString());
    } else {
      const std::string diff = CompareWithOracle(
          AggregateKind::kCount,
          OracleSeries(AggregateKind::kCount, in.tuples, in.windows[0]),
          [&](Instant t) {
            return ValueInSeries(
                series->intervals, t, AggregateKind::kCount,
                [](const ResultInterval& r) { return r.period; },
                [](const ResultInterval& r) { return r.value; });
          });
      if (!diff.empty()) report.Wrong("window " + diff);
    }
  }

  // The window p50 and the throughput are taken per round and reported as
  // their median over rounds, so a burst of outside load moves only the
  // rounds it hits.  A round has too few windows for a p99 of its own.
  const double window_p50 = Median(untraced.round_window_p50_us);
  report.Named("scan_p50_ms", Median(untraced.scan_ms), "ms", opt.trace);
  report.Named("window_p50_us", window_p50, "us", opt.trace);
  report.Named("window_p99_us", Quantile(untraced.window_us, 0.99), "us",
               opt.trace);
  report.Named("tree_p50_ms", Median(untraced.tree_ms), "ms", opt.trace);
  report.Named("parallel_p50_ms", Median(untraced.parallel_ms), "ms",
               opt.trace);
  if (!opt.trace) {
    report.Set("setup_s", Median(setup_s), "s");
    report.Set("peak_rss_mb", SampleProc().max_rss_mb, "MB");
    report.Set("throughput_rps", Median(untraced.round_rps), "1/s");
    report.Set("main_p50_us", window_p50, "us");
    report.Set("side_p50_us", Median(untraced.round_us), "us");
    std::fprintf(stderr,
                 "perfbench: batch-stored windows n=%zu rounds n=%zu\n",
                 untraced.window_us.size(), untraced.round_us.size());
    std::remove(path.c_str());
    return report.correct() ? 0 : 1;
  }

  // ---- traced run: per-layer metrics ----------------------------------
  const double ops = static_cast<double>(untraced.ops);
  report.Set("proc.cpu_us_per_req", cpu_us / ops, "us");
  report.Set("proc.minflt_per_query", minflt / ops, "count");
  const double untraced_round = Median(untraced.round_us);
  report.Set("obs.trace_overhead_pct",
             (Median(traced.round_us) - untraced_round) / untraced_round * 100,
             "%");

  // query
  {
    std::vector<double> us;
    for (size_t i = 0; i < 500; ++i) {
      const std::string sql = TreeSql(in.thresholds[i % in.thresholds.size()]);
      const int64_t t0 = NowNs();
      auto stmt = ParseSelect(sql);
      const bool ok = stmt.ok() && Analyze(*stmt, *catalog).ok();
      const int64_t t1 = NowNs();
      report.Attempt();
      if (!ok) report.Fail("parse/analyze");
      spans.Add("query.parse_analyze", t0, t1, -1, ++request_id);
      us.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    report.Set("query.parse_analyze_us", Median(us), "us");
    for (const char* stage : {"filter", "plan", "group", "aggregate"}) {
      report.Set(std::string("query.") + stage + "_ms",
                 Median(traced.tree_spans[stage]), "ms");
    }
    report.Set("query.column_scan_ms",
               Median(traced.scan_spans["column_scan"]), "ms");
  }

  // core: direct kernel calls.
  constexpr size_t kReps = 6;
  auto time_ms = [&](const std::string& name,
                     const std::function<bool()>& fn) {
    std::vector<double> ms;
    for (size_t i = 0; i < kReps; ++i) {
      const int64_t t0 = NowNs();
      const bool ok = fn();
      const int64_t t1 = NowNs();
      report.Attempt();
      if (!ok) report.Fail(name);
      spans.Add(name, t0, t1, -1, ++request_id);
      ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    return Median(ms);
  };
  for (const ScanQuery& q : kScan) {
    ColumnScanOptions copts;
    copts.aggregate = q.kind;
    copts.attribute = q.kind == AggregateKind::kCount
                          ? AggregateOptions::kNoAttribute
                          : kColumnValueAttribute;
    const std::string name =
        std::string("core.scan_") +
        (q.kind == AggregateKind::kCount ? "count"
         : q.kind == AggregateKind::kSum ? "sum"
                                         : "avg");
    report.Set(name + "_ms", time_ms(name, [&] {
                 return ComputeColumnScanAggregate(*column, copts).ok();
               }),
               "ms");
  }
  {
    ColumnScanOptions copts;
    copts.aggregate = AggregateKind::kMax;
    copts.attribute = kColumnValueAttribute;
    copts.window = Period(0, kLifespan / 32 - 1);
    report.Set("core.scan_max_ms", time_ms("core.scan_max", [&] {
                 return ComputeColumnScanAggregate(*column, copts).ok();
               }),
               "ms");
  }
  const Relation filtered = in.relation->Filter(
      [&](const Tuple& t) { return t.value(1).AsInt() > s0; });
  ExecutionStats ktree_stats;
  report.Set("core.ktree_ms", time_ms("core.ktree", [&] {
               AggregateOptions a;
               a.algorithm = AlgorithmKind::kKOrderedTree;
               a.k = kDeclaredK;
               auto r = ComputeTemporalAggregate(filtered, a);
               if (r.ok()) ktree_stats = r->stats;
               return r.ok();
             }),
             "ms");
  report.Set("core.work_steps", static_cast<double>(ktree_stats.work_steps),
             "count");
  report.Set("core.peak_live_nodes",
             static_cast<double>(ktree_stats.peak_live_nodes), "count");
  report.Set("core.intervals",
             static_cast<double>(ktree_stats.intervals_emitted), "count");
  std::map<std::string, std::vector<double>> part_spans;
  report.Set("core.partitioned_ms", time_ms("core.partitioned", [&] {
               obs::QueryProfile profile;
               PartitionedOptions p;
               p.parallel_workers = 2;
               p.partitions = 8;  // the executor's choice for 2 workers
               p.profile = &profile;
               const bool ok = ComputePartitionedAggregate(filtered, p).ok();
               profile.Finish();
               CollectSpans(profile.root(), &part_spans);
               return ok;
             }),
             "ms");
  for (const char* phase : {"route", "build", "stitch"}) {
    report.Set(std::string("core.") + phase + "_ms",
               Median(part_spans[phase]), "ms");
  }

  // storage
  report.Set("storage.decode_ms", time_ms("storage.decode", [&] {
               auto reader = column->NewReader();
               if (!reader.ok()) return false;
               std::vector<ColumnRecord> rows;
               for (size_t b = 0; b < column->blocks().size(); ++b) {
                 rows.clear();
                 if (!(*reader)->ReadBlock(b, &rows).ok()) return false;
               }
               return true;
             }),
             "ms");
  const double nw = static_cast<double>(std::max<size_t>(traced.windows, 1));
  report.Set("storage.blocks_decoded",
             static_cast<double>(traced.window_stats.blocks_decoded) / nw,
             "count");
  report.Set("storage.blocks_skipped",
             static_cast<double>(traced.window_stats.blocks_skipped) / nw,
             "count");
  report.Set("storage.bytes_decoded",
             static_cast<double>(traced.window_stats.bytes_decoded) / nw, "B");
  report.Set("storage.rows_useful_ratio", traced.rows_useful / nw, "ratio");
  report.Set("storage.file_bytes_per_tuple",
             static_cast<double>(column->file_bytes()) /
                 static_cast<double>(in.relation->size()),
             "B");
  report.Set("storage.write_s", Median(write_s), "s");

  // Self time per layer over one round's heavy classes: each class's
  // untraced p50 minus the direct kernel call it bottoms out in, and the
  // kernel minus the decode it does.  The tree paths read the in-memory
  // rows, so only the scan class reaches storage.
  {
    const double decode = 3 * report.Get("storage.decode_ms");
    const double scan_core = report.Get("core.scan_count_ms") +
                             report.Get("core.scan_sum_ms") +
                             report.Get("core.scan_avg_ms");
    const double ktree = report.Get("core.ktree_ms");
    const double part = report.Get("core.partitioned_ms");
    const double scan = Median(untraced.scan_ms);
    const double tree = Median(untraced.tree_ms);
    const double parallel = Median(untraced.parallel_ms);
    const double query_self = (scan - scan_core) + (tree - ktree) +
                              (parallel - part);
    const double core_self = (scan_core - decode) + ktree + part;
    report.Set("self.query_ms", query_self, "ms");
    report.Set("self.core_ms", core_self, "ms");
    report.Set("self.storage_ms", decode, "ms");
    std::fprintf(stderr,
                 "perfbench: batch-stored self time per round (ms): query "
                 "%.2f core %.2f storage %.2f = %.2f (scan %.2f + tree %.2f + "
                 "parallel %.2f)\n",
                 query_self, core_self, decode, query_self + core_self + decode,
                 scan, tree, parallel);
  }

  for (const auto& [name, us] : spans.SelfTimeUs()) {
    std::fprintf(stderr, "perfbench:   span self time %-26s %12.1f us\n",
                 name.c_str(), us);
  }
  const std::string span_path = opt.out_dir + "/spans-" + opt.workload + "-" +
                                std::to_string(opt.seed) + ".jsonl";
  if (!spans.WriteJsonl(span_path)) {
    std::fprintf(stderr, "perfbench: could not write %s\n", span_path.c_str());
  }
  std::remove(path.c_str());
  return report.correct() ? 0 : 1;
}

}  // namespace perfbench
