#include "testing/differential.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/aggregates.h"
#include "core/column_scan.h"
#include "core/partitioned_agg.h"
#include "core/workload.h"
#include "live/live_index.h"
#include "shard/sharded_service.h"
#include "storage/column_relation.h"
#include "storage/relation_io.h"
#include "temporal/catalog.h"
#include "util/cpu_features.h"
#include "util/random.h"

namespace tagg {
namespace testing {
namespace {

/// EmployedSchema is (name: string, salary: int); salary is the aggregated
/// attribute for SUM/MIN/MAX/AVG.
constexpr size_t kSalaryAttribute = 1;

/// Every palette member is an integer well inside 2^53, so its double
/// image is exact and small sums stay exactly representable; divergences
/// beyond the documented tolerance are then real bugs, not palette noise.
constexpr int64_t kPalette[] = {0, 1, -1, 2, 3, 7, -5, 100, 1000, 25000};

/// 1e17 = 2^17 * 5^17 is exactly representable, but adding 1.0 to it is
/// not: the adversarial magnitude that exposes uncompensated accumulators.
constexpr int64_t kBigMagnitude = 100000000000000000LL;

int64_t PickSalary(Rng& rng, bool allow_extreme) {
  if (allow_extreme && rng.Bernoulli(0.15)) {
    return rng.Bernoulli(0.5) ? kBigMagnitude : -kBigMagnitude;
  }
  const int64_t n = static_cast<int64_t>(std::size(kPalette));
  return kPalette[rng.Uniform(0, n - 1)];
}

void AddTuple(Relation& rel, Instant s, Instant e, int64_t salary) {
  rel.AppendUnchecked(
      Tuple({Value::String("t" + std::to_string(rel.size())),
             Value::Int(salary)},
            Period(s, e)));
}

Result<Relation> GenerateViaWorkload(uint64_t seed, Rng& rng,
                                     TupleOrder order) {
  WorkloadSpec spec;
  spec.num_tuples = static_cast<size_t>(rng.Uniform(1, 96));
  spec.lifespan = rng.Uniform(50, 2000);
  spec.short_min_duration = 1;
  spec.short_max_duration = std::max<Instant>(1, spec.lifespan / 3);
  spec.long_lived_fraction = rng.Bernoulli(0.5) ? 0.4 : 0.0;
  spec.order = order;
  if (order == TupleOrder::kKOrdered) {
    spec.k = rng.Uniform(1, 4);
    spec.k_percentage = 0.1;
    // Distance-k swaps need k to fit inside the relation.
    spec.num_tuples = std::max<size_t>(spec.num_tuples, 12);
  }
  spec.seed = seed ^ 0x9E3779B97F4A7C15ull;
  return GenerateEmployedRelation(spec);
}

constexpr AggregateKind kAllAggregates[] = {
    AggregateKind::kCount, AggregateKind::kSum, AggregateKind::kMin,
    AggregateKind::kMax, AggregateKind::kAvg};

size_t AttributeFor(AggregateKind kind) {
  return kind == AggregateKind::kCount ? AggregateOptions::kNoAttribute
                                       : kSalaryAttribute;
}

/// Names the seed, shape, aggregate, and configuration so the failure is
/// replayable from the message alone.
Status Divergence(uint64_t seed, const WorkloadInfo& info,
                  AggregateKind aggregate, std::string_view config,
                  std::string_view detail) {
  return Status::Internal(
      "differential divergence: reproduce with RunDifferentialSeed(" +
      std::to_string(seed) + ") [shape=" + info.shape +
      ", tuples=" + std::to_string(info.tuples) +
      ", aggregate=" + std::string(AggregateKindToString(aggregate)) +
      ", config=" + std::string(config) + "]: " + std::string(detail));
}

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Per-value comparison under the documented policy (see differential.h).
/// `conditioning` is C(I) for the segment under comparison (0 when no
/// conditioning series was supplied).
Status ValuesMatch(const Value& expected, const Value& actual,
                   AggregateKind kind, double tol, double conditioning) {
  if (expected.is_null() || actual.is_null()) {
    if (expected.is_null() && actual.is_null()) return Status::OK();
    return Status::Internal("empty-interval mismatch: expected " +
                            expected.ToString() + ", got " +
                            actual.ToString());
  }
  if (kind == AggregateKind::kCount) {
    if (expected == actual) return Status::OK();
    return Status::Internal("COUNT mismatch: expected " +
                            expected.ToString() + ", got " +
                            actual.ToString());
  }
  TAGG_ASSIGN_OR_RETURN(const double x, expected.ToNumeric());
  TAGG_ASSIGN_OR_RETURN(const double y, actual.ToNumeric());
  if (kind == AggregateKind::kMin || kind == AggregateKind::kMax) {
    if (x == y) return Status::OK();
    return Status::Internal("MIN/MAX mismatch: expected " +
                            expected.ToString() + ", got " +
                            actual.ToString());
  }
  const double scale =
      std::max({1.0, std::abs(x), std::abs(y), conditioning});
  if (std::abs(x - y) <= tol * scale) return Status::OK();
  return Status::Internal(
      "SUM/AVG outside tolerance: expected " + expected.ToString() +
      ", got " + actual.ToString() + " (|diff| = " +
      FormatDouble(std::abs(x - y)) + " > " + FormatDouble(tol) + " * " +
      FormatDouble(scale) + ")");
}

/// Forward-only lookup of a conditioning partition's value at an instant.
class ConditioningCursor {
 public:
  explicit ConditioningCursor(const std::vector<ResultInterval>* series)
      : series_(series) {}

  /// The maximum C over [lo, hi] (a compared segment may span several of
  /// the finer conditioning intervals); segments must be queried in time
  /// order.  0 without a series or over all-empty intervals.
  double MaxOver(Instant lo, Instant hi) {
    if (series_ == nullptr) return 0.0;
    while (i_ < series_->size() && (*series_)[i_].period.end() < lo) ++i_;
    double max_c = 0.0;
    for (size_t j = i_; j < series_->size(); ++j) {
      const ResultInterval& interval = (*series_)[j];
      if (interval.period.start() > hi) break;
      if (!interval.value.is_null()) {
        const Result<double> numeric = interval.value.ToNumeric();
        if (numeric.ok()) {
          max_c = std::max(max_c, std::abs(numeric.value()));
        }
      }
      if (interval.period.end() >= hi) break;
    }
    return max_c;
  }

 private:
  const std::vector<ResultInterval>* series_;
  size_t i_ = 0;
};

Result<std::vector<ResultInterval>> BatchSeries(
    const Relation& relation, const AggregateOptions& options) {
  TAGG_ASSIGN_OR_RETURN(AggregateSeries series,
                        ComputeTemporalAggregate(relation, options));
  return std::move(series.intervals);
}

Result<std::vector<ResultInterval>> PartitionedSeries(
    const Relation& relation, const PartitionedOptions& options) {
  TAGG_ASSIGN_OR_RETURN(AggregateSeries series,
                        ComputePartitionedAggregate(relation, options));
  return std::move(series.intervals);
}

/// One pruned-scan configuration over the seed's column file, coalesced
/// so the cut set matches the reference's maximal equal-value runs.
Result<std::vector<ResultInterval>> ColumnScanSeries(
    const ColumnRelation& column, AggregateKind aggregate, size_t attribute,
    size_t workers) {
  ColumnScanOptions options;
  options.aggregate = aggregate;
  options.attribute = attribute;
  options.parallel_workers = workers;
  TAGG_ASSIGN_OR_RETURN(AggregateSeries series,
                        ComputeColumnScanAggregate(column, options));
  return CoalesceEqualValues(std::move(series.intervals));
}

/// Removes the seed's temporary column file on every exit path (including
/// a Divergence return mid-grid).
struct ColumnFileRemover {
  std::string path;
  ~ColumnFileRemover() {
    if (path.empty()) return;
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
};

Result<std::vector<ResultInterval>> LiveSeries(const Relation& relation,
                                               AggregateKind aggregate,
                                               size_t attribute,
                                               bool use_batch) {
  LiveIndexOptions options;
  options.aggregate = aggregate;
  options.attribute = attribute;
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<LiveAggregateIndex> index,
                        LiveAggregateIndex::Create(options));
  if (use_batch) {
    // One InsertBatch per relation: the amortized writer path must land
    // the exact same tree as tuple-at-a-time inserts.  The generated
    // workloads carry no NULL salaries, so extracting the input here
    // matches InsertTuple's behaviour.
    std::vector<std::pair<Period, double>> batch;
    batch.reserve(relation.size());
    for (const Tuple& tuple : relation) {
      double input = 0.0;
      if (aggregate != AggregateKind::kCount) {
        TAGG_ASSIGN_OR_RETURN(input, tuple.value(attribute).ToNumeric());
      }
      batch.emplace_back(tuple.valid(), input);
    }
    TAGG_RETURN_IF_ERROR(index->InsertBatch(batch));
  } else {
    for (const Tuple& tuple : relation) {
      TAGG_RETURN_IF_ERROR(index->InsertTuple(tuple));
    }
  }
  TAGG_ASSIGN_OR_RETURN(AggregateSeries series,
                        index->AggregateOver(Period::All(),
                                             /*coalesce=*/true));
  return std::move(series.intervals);
}

/// The aggregated attribute's registration name, as ShardedLiveService
/// wants it ("" for COUNT's kNoAttribute).
std::string AttributeNameFor(const Relation& relation, size_t attribute) {
  if (attribute == AggregateOptions::kNoAttribute) return {};
  return relation.schema().attribute(attribute).name;
}

/// A catalog holding an empty same-name, same-schema clone of `relation`
/// for the sharded service to register against and ingest into; the
/// caller's relation stays untouched.
Result<Catalog> ShardedCatalogFor(const Relation& relation) {
  Catalog catalog;
  TAGG_RETURN_IF_ERROR(catalog.Register(
      std::make_shared<Relation>(relation.schema(), relation.name())));
  return catalog;
}

/// Loads `relation` through a ShardedLiveService — tuple-at-a-time or
/// batched, optionally rebalancing mid-stream or splitting a shard after
/// the load — and scatter-gathers the full series.
Result<std::vector<ResultInterval>> ShardedSeries(
    const Relation& relation, AggregateKind aggregate, size_t attribute,
    size_t shards, size_t workers, bool use_batch, bool rebalance_midway,
    bool split_after) {
  TAGG_ASSIGN_OR_RETURN(Catalog catalog, ShardedCatalogFor(relation));
  shard::ShardedServiceOptions options;
  options.shards = shards;
  // A tiny hot window forces the boot boundaries through the generated
  // workloads' small domains, so tuples straddle and spread across the
  // shards even before any data-driven rebalance.
  options.hot_window = Period(0, 63);
  options.scatter_workers = workers;
  shard::ShardedLiveService service(options);
  TAGG_RETURN_IF_ERROR(
      service.RegisterIndex(catalog, relation.name(), aggregate,
                            AttributeNameFor(relation, attribute)));
  const size_t rebalance_at = relation.size() / 2;
  std::vector<Tuple> batch;
  size_t ingested = 0;
  for (const Tuple& tuple : relation) {
    if (use_batch) {
      batch.push_back(tuple);
    } else {
      TAGG_RETURN_IF_ERROR(service.Ingest(relation.name(), tuple));
    }
    if (rebalance_midway && ++ingested == rebalance_at) {
      if (!batch.empty()) {
        TAGG_RETURN_IF_ERROR(
            service.IngestBatch(relation.name(), std::move(batch)));
        batch.clear();
      }
      // Re-cut at the quantiles of what has arrived so far; the rest of
      // the stream lands on the new map.
      TAGG_RETURN_IF_ERROR(service.Reshard(shards));
    }
  }
  if (!batch.empty()) {
    TAGG_RETURN_IF_ERROR(
        service.IngestBatch(relation.name(), std::move(batch)));
  }
  TAGG_RETURN_IF_ERROR(service.Flush());
  if (split_after) {
    TAGG_RETURN_IF_ERROR(service.SplitShard(0));
  }
  TAGG_ASSIGN_OR_RETURN(
      AggregateSeries series,
      service.AggregateOver(relation.name(), aggregate, attribute,
                            Period::All(), /*coalesce=*/true));
  return std::move(series.intervals);
}

/// Exact (no-tolerance) equality of two series.  Callers use it where
/// both sides fold the same inputs in the same order, or where the
/// aggregate is order-insensitive, so any difference is a bug, not float
/// noise.
Status SeriesTupleIdentical(const std::vector<ResultInterval>& a,
                            const std::vector<ResultInterval>& b) {
  if (a == b) return Status::OK();
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (!(a[i] == b[i])) {
      return Status::Internal(
          "series diverge at interval " + std::to_string(i) + ": " +
          a[i].period.ToString() + "=" + a[i].value.ToString() + " vs " +
          b[i].period.ToString() + "=" + b[i].value.ToString());
    }
  }
  return Status::Internal("series differ in length: " +
                          std::to_string(a.size()) + " vs " +
                          std::to_string(b.size()) + " intervals");
}

}  // namespace

Result<Relation> GenerateDifferentialRelation(uint64_t seed,
                                              WorkloadInfo* info) {
  Rng rng(seed);
  Relation rel(EmployedSchema(), "fuzz");
  std::string shape;
  switch (rng.Uniform(0, 9)) {
    case 0:
      shape = "empty";
      break;
    case 1: {
      shape = "single-tuple";
      Instant s = 0;
      Instant e = 0;
      switch (rng.Uniform(0, 4)) {
        case 0: s = e = rng.Uniform(0, 100); break;  // 1-chronon period
        case 1: s = kOrigin; e = rng.Uniform(0, 50); break;
        case 2: s = rng.Uniform(0, 50); e = kForever; break;
        case 3: s = kOrigin; e = kForever; break;
        default:
          s = rng.Uniform(0, 80);
          e = s + rng.Uniform(0, 40);
          break;
      }
      AddTuple(rel, s, e, PickSalary(rng, true));
      break;
    }
    case 2: {
      // Periods touching the ends of the time-line, where off-by-one
      // boundary handling (e + 1 splits) is most fragile.
      shape = "timeline-boundaries";
      const int64_t n = rng.Uniform(2, 16);
      for (int64_t i = 0; i < n; ++i) {
        Instant s = kOrigin;
        Instant e = kForever;
        switch (rng.Uniform(0, 3)) {
          case 0: e = rng.Uniform(0, 100); break;          // [origin, e]
          case 1: s = rng.Uniform(0, 100); break;          // [s, forever]
          case 2: break;                                   // whole line
          default: s = e = kForever; break;                // point at oo
        }
        AddTuple(rel, s, e, PickSalary(rng, true));
      }
      break;
    }
    case 3: {
      // 1-chronon periods over a tiny domain: duplicate instants, zero
      // interior, every boundary adjacent to another.
      shape = "point-periods";
      const int64_t n = rng.Uniform(1, 48);
      for (int64_t i = 0; i < n; ++i) {
        const Instant t =
            rng.Bernoulli(0.05) ? kForever : rng.Uniform(0, 20);
        AddTuple(rel, t, t, PickSalary(rng, false));
      }
      break;
    }
    case 4: {
      // Few distinct start times, many tuples: stresses tie handling in
      // every sort and the k-ordered window's duplicate starts.
      shape = "duplicate-starts";
      const int64_t starts = rng.Uniform(1, 3);
      std::vector<Instant> pool;
      for (int64_t i = 0; i < starts; ++i) pool.push_back(rng.Uniform(0, 20));
      const int64_t n = rng.Uniform(2, 40);
      for (int64_t i = 0; i < n; ++i) {
        const Instant s = pool[rng.Uniform(0, starts - 1)];
        const Instant e =
            rng.Bernoulli(0.1) ? kForever : s + rng.Uniform(0, 30);
        AddTuple(rel, s, e, PickSalary(rng, false));
      }
      break;
    }
    case 5: {
      // Chains of meeting periods ([a,b] then [b+1,c]) plus runs of
      // identical tuples: adjacent boundaries must neither merge nor gap.
      shape = "adjacent-boundaries";
      Instant cursor = rng.Uniform(0, 5);
      const int64_t segments = rng.Uniform(1, 12);
      for (int64_t i = 0; i < segments; ++i) {
        const Instant len = rng.Uniform(1, 10);
        const int64_t salary = PickSalary(rng, false);
        const int64_t copies = rng.Bernoulli(0.3) ? rng.Uniform(2, 4) : 1;
        for (int64_t c = 0; c < copies; ++c) {
          AddTuple(rel, cursor, cursor + len - 1, salary);
        }
        cursor += len;
      }
      break;
    }
    case 6: {
      // The accumulator stressor: ±1e17 magnitudes overlapping unit
      // values, so an uncompensated running sum loses the small addend.
      shape = "mixed-magnitude";
      AddTuple(rel, 0, rng.Uniform(10, 40), kBigMagnitude);
      AddTuple(rel, rng.Uniform(5, 20), rng.Uniform(50, 120), 1);
      const int64_t n = rng.Uniform(0, 20);
      for (int64_t i = 0; i < n; ++i) {
        const Instant s = rng.Uniform(0, 150);
        const Instant e = s + rng.Uniform(0, 60);
        AddTuple(rel, s, e,
                 rng.Bernoulli(0.5)
                     ? (rng.Bernoulli(0.5) ? kBigMagnitude : -kBigMagnitude)
                     : PickSalary(rng, false));
      }
      break;
    }
    case 7: {
      shape = "random-workload";
      TAGG_ASSIGN_OR_RETURN(rel,
                            GenerateViaWorkload(seed, rng,
                                                TupleOrder::kRandom));
      break;
    }
    case 8: {
      // Sorted or k-ordered streams: the k-ordered tree's gc threshold
      // advances, so these are the near-k-order-violating workloads.
      shape = "near-k-ordered";
      TAGG_ASSIGN_OR_RETURN(
          rel, GenerateViaWorkload(seed, rng,
                                   rng.Bernoulli(0.5)
                                       ? TupleOrder::kSorted
                                       : TupleOrder::kKOrdered));
      break;
    }
    default: {
      // A shuffled union of the point and boundary shapes.
      shape = "mixed-shapes";
      const int64_t points = rng.Uniform(1, 16);
      for (int64_t i = 0; i < points; ++i) {
        const Instant t = rng.Uniform(0, 30);
        AddTuple(rel, t, t, PickSalary(rng, true));
      }
      const int64_t spans = rng.Uniform(1, 16);
      for (int64_t i = 0; i < spans; ++i) {
        const Instant s = rng.Uniform(0, 40);
        const Instant e =
            rng.Bernoulli(0.15) ? kForever : s + rng.Uniform(0, 25);
        AddTuple(rel, s, e, PickSalary(rng, true));
      }
      Relation shuffled(rel.schema(), rel.name());
      std::vector<Tuple> tuples = rel.tuples();
      rng.Shuffle(tuples.size(), [&](size_t i, size_t j) {
        std::swap(tuples[i], tuples[j]);
      });
      for (Tuple& t : tuples) shuffled.AppendUnchecked(std::move(t));
      rel = std::move(shuffled);
      break;
    }
  }
  if (info != nullptr) {
    info->shape = shape;
    info->tuples = rel.size();
  }
  return rel;
}

Result<std::vector<ResultInterval>> ComputeConditioningSeries(
    const Relation& relation, size_t attribute) {
  Relation abs_relation(relation.schema(), relation.name());
  abs_relation.Reserve(relation.size());
  for (const Tuple& tuple : relation) {
    std::vector<Value> values = tuple.values();
    if (attribute < values.size() && !values[attribute].is_null()) {
      const Result<double> numeric = values[attribute].ToNumeric();
      if (numeric.ok()) {
        values[attribute] = Value::Double(std::abs(numeric.value()));
      }
    }
    abs_relation.AppendUnchecked(Tuple(std::move(values), tuple.valid()));
  }
  AggregateOptions options;
  options.aggregate = AggregateKind::kSum;
  options.attribute = attribute;
  options.algorithm = AlgorithmKind::kReference;
  TAGG_ASSIGN_OR_RETURN(AggregateSeries series,
                        ComputeTemporalAggregate(abs_relation, options));
  return std::move(series.intervals);
}

Status CompareSeries(const std::vector<ResultInterval>& expected,
                     const std::vector<ResultInterval>& actual,
                     AggregateKind kind, double relative_tolerance,
                     const std::vector<ResultInterval>* conditioning) {
  TAGG_RETURN_IF_ERROR(ValidatePartition(expected));
  TAGG_RETURN_IF_ERROR(ValidatePartition(actual));
  // Walk both partitions of [kOrigin, kForever] as step functions over
  // their merged boundaries; coalescing differences then cannot register
  // as divergences.
  ConditioningCursor condition(conditioning);
  size_t ie = 0;
  size_t ia = 0;
  while (ie < expected.size() && ia < actual.size()) {
    const ResultInterval& re = expected[ie];
    const ResultInterval& ra = actual[ia];
    const Instant seg_lo = std::max(re.period.start(), ra.period.start());
    const Instant seg_hi = std::min(re.period.end(), ra.period.end());
    const Status match = ValuesMatch(re.value, ra.value, kind,
                                     relative_tolerance,
                                     condition.MaxOver(seg_lo, seg_hi));
    if (!match.ok()) {
      return Status::Internal("over [" + InstantToString(seg_lo) + ", " +
                              InstantToString(seg_hi) + "]: " +
                              std::string(match.message()));
    }
    const Instant ee = re.period.end();
    const Instant ea = ra.period.end();
    if (ee <= ea) ++ie;
    if (ea <= ee) ++ia;
  }
  return Status::OK();
}

/// CompareSeries restricted to a window: both series must partition
/// `window` (a windowed scan never covers [kOrigin, kForever], so
/// ValidatePartition's full-timeline contract does not apply), then the
/// same merged-boundary step-function walk decides value equality.
Status CompareWindowedSeries(const std::vector<ResultInterval>& expected,
                             const std::vector<ResultInterval>& actual,
                             AggregateKind kind, double relative_tolerance,
                             const std::vector<ResultInterval>* conditioning,
                             Period window) {
  const auto validate = [&window](const std::vector<ResultInterval>& series,
                                  const char* label) -> Status {
    if (series.empty()) {
      return Status::Internal(std::string(label) + " series is empty");
    }
    if (series.front().period.start() != window.start() ||
        series.back().period.end() != window.end()) {
      return Status::Internal(
          std::string(label) + " series spans [" +
          InstantToString(series.front().period.start()) + ", " +
          InstantToString(series.back().period.end()) +
          "] instead of the window [" + InstantToString(window.start()) +
          ", " + InstantToString(window.end()) + "]");
    }
    for (size_t i = 1; i < series.size(); ++i) {
      if (series[i].period.start() != series[i - 1].period.end() + 1) {
        return Status::Internal(std::string(label) +
                                " series has a gap or overlap after " +
                                InstantToString(series[i - 1].period.end()));
      }
    }
    return Status::OK();
  };
  TAGG_RETURN_IF_ERROR(validate(expected, "expected"));
  TAGG_RETURN_IF_ERROR(validate(actual, "actual"));
  ConditioningCursor condition(conditioning);
  size_t ie = 0;
  size_t ia = 0;
  while (ie < expected.size() && ia < actual.size()) {
    const ResultInterval& re = expected[ie];
    const ResultInterval& ra = actual[ia];
    const Instant seg_lo = std::max(re.period.start(), ra.period.start());
    const Instant seg_hi = std::min(re.period.end(), ra.period.end());
    const Status match = ValuesMatch(re.value, ra.value, kind,
                                     relative_tolerance,
                                     condition.MaxOver(seg_lo, seg_hi));
    if (!match.ok()) {
      return Status::Internal("over [" + InstantToString(seg_lo) + ", " +
                              InstantToString(seg_hi) + "]: " +
                              std::string(match.message()));
    }
    const Instant ee = re.period.end();
    const Instant ea = ra.period.end();
    if (ee <= ea) ++ie;
    if (ea <= ee) ++ia;
  }
  return Status::OK();
}

Status RunDifferentialSeed(uint64_t seed, const DifferentialOptions& options,
                           size_t* comparisons) {
  WorkloadInfo info;
  TAGG_ASSIGN_OR_RETURN(Relation relation,
                        GenerateDifferentialRelation(seed, &info));

  // C(I) series for the tolerance scale of SUM/AVG (see differential.h);
  // one pass serves every configuration of both aggregates.
  Result<std::vector<ResultInterval>> conditioning =
      ComputeConditioningSeries(relation, kSalaryAttribute);
  if (!conditioning.ok()) {
    return Divergence(seed, info, AggregateKind::kSum, "conditioning",
                      conditioning.status().message());
  }

  // One column file per seed serves every aggregate's pruned-scan grid;
  // tiny blocks so even the small generated relations span many blocks
  // and the skip/summarize/decode classification sees all three classes.
  std::shared_ptr<const ColumnRelation> column;
  ColumnFileRemover column_file;
  if (options.include_column_scan) {
    column_file.path =
        (std::filesystem::temp_directory_path() /
         ("tagg_diff_column_" + std::to_string(::getpid()) + "_" +
          std::to_string(seed) + ".tcr"))
            .string();
    Result<std::shared_ptr<const ColumnRelation>> written =
        WriteRelationToColumnFile(relation, column_file.path,
                                  /*rows_per_block=*/32);
    if (!written.ok()) {
      return Divergence(seed, info, AggregateKind::kCount,
                        "column-scan/write", written.status().message());
    }
    column = std::move(written.value());
  }

  for (const AggregateKind aggregate : kAllAggregates) {
    const size_t attribute = AttributeFor(aggregate);
    const std::vector<ResultInterval>* condition =
        (aggregate == AggregateKind::kSum ||
         aggregate == AggregateKind::kAvg)
            ? &conditioning.value()
            : nullptr;

    AggregateOptions base;
    base.aggregate = aggregate;
    base.attribute = attribute;
    base.coalesce_equal_values = true;

    AggregateOptions ref = base;
    ref.algorithm = AlgorithmKind::kReference;
    Result<std::vector<ResultInterval>> oracle = BatchSeries(relation, ref);
    if (!oracle.ok()) {
      return Divergence(seed, info, aggregate, "reference",
                        oracle.status().message());
    }

    const auto check =
        [&](std::string_view config,
            Result<std::vector<ResultInterval>> actual) -> Status {
      if (!actual.ok()) {
        return Divergence(seed, info, aggregate, config,
                          actual.status().message());
      }
      const Status diff = CompareSeries(oracle.value(), actual.value(),
                                        aggregate,
                                        options.relative_tolerance,
                                        condition);
      if (!diff.ok()) {
        return Divergence(seed, info, aggregate, config, diff.message());
      }
      if (comparisons != nullptr) ++*comparisons;
      return Status::OK();
    };

    // Batch algorithms.  The aggregation tree's series is kept: it is the
    // bit-exact oracle of the live index below.
    std::vector<ResultInterval> tree_series;
    for (const AlgorithmKind algorithm :
         {AlgorithmKind::kLinkedList, AlgorithmKind::kAggregationTree,
          AlgorithmKind::kBalancedTree, AlgorithmKind::kTwoScan}) {
      AggregateOptions opts = base;
      opts.algorithm = algorithm;
      Result<std::vector<ResultInterval>> series =
          BatchSeries(relation, opts);
      TAGG_RETURN_IF_ERROR(check(AlgorithmKindToString(algorithm), series));
      if (algorithm == AlgorithmKind::kAggregationTree) {
        tree_series = std::move(series.value());
      }
    }

    // The k-ordered tree in both supported postures: presorted with the
    // minimal window, and unsorted with a window covering any permutation
    // (every n-tuple stream is n-ordered).
    {
      AggregateOptions opts = base;
      opts.algorithm = AlgorithmKind::kKOrderedTree;
      opts.k = 1;
      opts.presort = true;
      TAGG_RETURN_IF_ERROR(
          check("k-ordered/presort-k1", BatchSeries(relation, opts)));
      opts.k = static_cast<int64_t>(std::max<size_t>(relation.size(), 1));
      opts.presort = false;
      TAGG_RETURN_IF_ERROR(
          check("k-ordered/k-n", BatchSeries(relation, opts)));
    }

    if (options.include_partitioned) {
      struct PartConfig {
        const char* name;
        size_t partitions;
        size_t workers;
        bool spill;
        bool scalar = false;
      };
      // The kernel follows the aggregate: the columnar sweep for
      // COUNT/SUM/AVG, the tree for MIN/MAX, so every row covers both.
      const PartConfig grid[] = {
          {"partitioned/p3", 3, 1, false},
          {"partitioned/p5-w4", 5, 4, false},
          {"partitioned/p4-w3-spill", 4, 3, true},
          {"partitioned/p1-w2-spill", 1, 2, true},
          // Columnar kernel in both dispatch paths, in memory and spilled;
          // the tiny sort budget forces external runs.
          {"partitioned/p4-w2-columnar", 4, 2, false},
          {"partitioned/p3-columnar-scalar", 3, 1, false, /*scalar=*/true},
          {"partitioned/p2-w2-spill-columnar", 2, 2, true},
      };
      for (const PartConfig& cfg : grid) {
        PartitionedOptions popts;
        popts.aggregate = aggregate;
        popts.attribute = attribute;
        popts.partitions = cfg.partitions;
        popts.parallel_workers = cfg.workers;
        popts.spill_to_disk = cfg.spill;
        // Small enough that spilled columnar regions sort through external
        // runs, exercising the PodRunSorter path.
        popts.spill_sort_budget_records = 32;
        std::optional<SimdLevelOverride> pin;
        if (cfg.scalar) pin.emplace(SimdLevel::kScalar);
        TAGG_RETURN_IF_ERROR(
            check(cfg.name, PartitionedSeries(relation, popts)));
      }
    }

    if (options.include_column_scan) {
      struct ScanConfig {
        const char* name;
        size_t workers;
      };
      const ScanConfig grid[] = {
          {"column-scan/pruned-w1", 1},
          {"column-scan/pruned-w3", 3},
      };
      for (const ScanConfig& cfg : grid) {
        Result<std::vector<ResultInterval>> scan =
            ColumnScanSeries(*column, aggregate, attribute, cfg.workers);
        TAGG_RETURN_IF_ERROR(check(cfg.name, scan));
        // Footer summaries and decoded events contribute exact values
        // for the order-insensitive aggregates, so after coalescing the
        // scan's cut set collapses to the reference's maximal
        // equal-value runs and the series must match bit for bit.
        if (aggregate == AggregateKind::kCount ||
            aggregate == AggregateKind::kMin ||
            aggregate == AggregateKind::kMax) {
          const Status identical =
              SeriesTupleIdentical(oracle.value(), scan.value());
          if (!identical.ok()) {
            return Divergence(seed, info, aggregate,
                              std::string(cfg.name) + "/reference-equality",
                              identical.message());
          }
          if (comparisons != nullptr) ++*comparisons;
        }
      }

      // Windowed scans: a window at the oracle's inner quartiles (nudged
      // off the boundary so clipping fires at both edges) makes the zone
      // map actually skip leading/trailing blocks and the summary fast
      // path absorb covering ones; the expectation is the reference
      // series restricted to the window and re-coalesced.
      const std::vector<ResultInterval>& full = oracle.value();
      if (full.size() >= 4) {
        const Instant wlo_raw = full[full.size() / 4].period.start();
        const Period& high = full[(3 * full.size()) / 4].period;
        const Instant whi =
            high.end() == kForever ? high.start() : high.end();
        if (wlo_raw + 1 <= whi) {
          const Instant wlo = wlo_raw + 1;
          std::vector<ResultInterval> expected;
          for (const ResultInterval& ri : full) {
            const Instant s = std::max(ri.period.start(), wlo);
            const Instant e = std::min(ri.period.end(), whi);
            if (s > e) continue;
            expected.push_back(ResultInterval{Period(s, e), ri.value});
          }
          expected = CoalesceEqualValues(std::move(expected));
          for (const size_t workers : {size_t{1}, size_t{3}}) {
            const std::string name =
                "column-scan/windowed-w" + std::to_string(workers);
            ColumnScanOptions sopts;
            sopts.aggregate = aggregate;
            sopts.attribute = attribute;
            sopts.window = Period(wlo, whi);
            sopts.parallel_workers = workers;
            Result<AggregateSeries> series =
                ComputeColumnScanAggregate(*column, sopts);
            if (!series.ok()) {
              return Divergence(seed, info, aggregate, name,
                                series.status().message());
            }
            const std::vector<ResultInterval> scan =
                CoalesceEqualValues(std::move(series.value().intervals));
            const Status diff = CompareWindowedSeries(
                expected, scan, aggregate, options.relative_tolerance,
                condition, Period(wlo, whi));
            if (!diff.ok()) {
              return Divergence(seed, info, aggregate, name,
                                diff.message());
            }
            if (aggregate == AggregateKind::kCount ||
                aggregate == AggregateKind::kMin ||
                aggregate == AggregateKind::kMax) {
              const Status identical = SeriesTupleIdentical(expected, scan);
              if (!identical.ok()) {
                return Divergence(seed, info, aggregate,
                                  name + "/restricted-equality",
                                  identical.message());
              }
            }
            if (comparisons != nullptr) ++*comparisons;
          }
        }
      }
    }

    // The unsharded COW series doubles as the identity oracle for the
    // sharded configurations below.
    std::vector<ResultInterval> cow_series;
    bool have_cow = false;

    if (options.include_live_index) {
      Result<std::vector<ResultInterval>> cow = LiveSeries(
          relation, aggregate, attribute, /*use_batch=*/false);
      TAGG_RETURN_IF_ERROR(check("live-index/cow", cow));
      Result<std::vector<ResultInterval>> cow_batch = LiveSeries(
          relation, aggregate, attribute, /*use_batch=*/true);
      TAGG_RETURN_IF_ERROR(check("live-index/cow-batch", cow_batch));
      // Beyond the tolerance-based oracle diff: the COW index and the
      // batch aggregation tree both build internal::SplitTree<Op> from
      // the same insert sequence and fold root-to-leaf states in the same
      // order, so after coalescing they must agree bit for bit — SUM and
      // AVG included.  The batched load must land the identical tree.
      Status identical = SeriesTupleIdentical(tree_series, cow.value());
      if (identical.ok()) {
        identical = SeriesTupleIdentical(cow.value(), cow_batch.value());
      }
      if (!identical.ok()) {
        return Divergence(seed, info, aggregate,
                          "live-index/tree-equality", identical.message());
      }
      if (comparisons != nullptr) *comparisons += 2;
      cow_series = std::move(cow.value());
      have_cow = true;
    }

    if (options.include_sharded) {
      struct ShardConfig {
        const char* name;
        size_t shards;
        size_t workers;
        bool batch;
        bool rebalance;
        bool split = false;
      };
      const ShardConfig grid[] = {
          {"sharded/s2-w1-batch", 2, 1, true, false},
          {"sharded/s2-w2-rebalance", 2, 2, false, true},
          {"sharded/s4-w2-batch-rebalance", 4, 2, true, true},
          {"sharded/s4-w1-split", 4, 1, false, false, /*split=*/true},
      };
      for (const ShardConfig& cfg : grid) {
        Result<std::vector<ResultInterval>> sharded = ShardedSeries(
            relation, aggregate, attribute, cfg.shards, cfg.workers,
            cfg.batch, cfg.rebalance, cfg.split);
        TAGG_RETURN_IF_ERROR(check(cfg.name, sharded));
        // Boundary clipping preserves each instant's covering multiset,
        // so for the order-insensitive aggregates the stitched
        // scatter-gather series must match the unsharded COW series bit
        // for bit.  SUM/AVG sum the same multiset in a different tree
        // shape; the tolerance-based check() above already covered them.
        if (have_cow && (aggregate == AggregateKind::kCount ||
                         aggregate == AggregateKind::kMin ||
                         aggregate == AggregateKind::kMax)) {
          const Status identical =
              SeriesTupleIdentical(cow_series, sharded.value());
          if (!identical.ok()) {
            return Divergence(seed, info, aggregate,
                              std::string(cfg.name) + "/unsharded-equality",
                              identical.message());
          }
          if (comparisons != nullptr) ++*comparisons;
        }
      }
    }
  }

  if (options.concurrent_live_check && !relation.empty()) {
    // One aggregate per seed bounds the thread churn; the rotation covers
    // all five across any run of consecutive seeds.
    const AggregateKind aggregate = kAllAggregates[seed % 5];
    const Status live = CheckLiveIndexConcurrent(
        relation, aggregate, AttributeFor(aggregate),
        seed ^ 0xD1B54A32D192ED03ull, options.relative_tolerance);
    if (!live.ok()) {
      return Divergence(seed, info, aggregate, "live-index/concurrent",
                        live.message());
    }
  }

  if (options.concurrent_sharded_check && !relation.empty()) {
    // Offset the rotation so consecutive seeds exercise a different
    // aggregate here than in the unsharded concurrent check above.
    const AggregateKind aggregate = kAllAggregates[(seed + 3) % 5];
    const Status sharded = CheckShardedServiceConcurrent(
        relation, aggregate, AttributeFor(aggregate),
        seed ^ 0xA0761D6478BD642Full,
        /*shards=*/2 + static_cast<size_t>(seed % 3),
        options.relative_tolerance);
    if (!sharded.ok()) {
      return Divergence(seed, info, aggregate, "sharded/concurrent",
                        sharded.message());
    }
  }
  return Status::OK();
}

Result<DifferentialSummary> RunDifferentialRange(
    uint64_t first_seed, size_t count, const DifferentialOptions& options) {
  DifferentialSummary summary;
  for (size_t i = 0; i < count; ++i) {
    TAGG_RETURN_IF_ERROR(RunDifferentialSeed(first_seed + i, options,
                                             &summary.comparisons));
    ++summary.seeds_run;
  }
  return summary;
}

Status CheckLiveIndexConcurrent(const Relation& relation,
                                AggregateKind aggregate, size_t attribute,
                                uint64_t seed, double relative_tolerance) {
  LiveIndexOptions options;
  options.aggregate = aggregate;
  options.attribute = attribute;
  TAGG_ASSIGN_OR_RETURN(std::unique_ptr<LiveAggregateIndex> index,
                        LiveAggregateIndex::Create(options));

  std::atomic<bool> done{false};
  std::mutex mutex;
  Status first_error;
  const auto record = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(mutex);
    if (first_error.ok()) first_error = status;
  };

  std::thread writer([&] {
    for (const Tuple& tuple : relation) {
      const Status status = index->InsertTuple(tuple);
      if (!status.ok()) {
        record(status);
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });

  const auto reader = [&](uint64_t reader_seed) {
    Rng rng(reader_seed);
    uint64_t last_epoch = 0;
    bool once = false;
    while (!once || !done.load(std::memory_order_acquire)) {
      once = true;
      uint64_t epoch = 0;
      const Result<Value> at =
          index->AggregateAt(rng.Uniform(0, 2000), &epoch);
      if (!at.ok()) {
        record(at.status());
        return;
      }
      if (epoch < last_epoch) {
        record(Status::Internal("live index epoch went backwards"));
        return;
      }
      last_epoch = epoch;
      const Result<AggregateSeries> over =
          index->AggregateOver(Period::All(), /*coalesce=*/true, &epoch);
      if (!over.ok()) {
        record(over.status());
        return;
      }
      if (epoch < last_epoch) {
        record(Status::Internal("live index epoch went backwards"));
        return;
      }
      last_epoch = epoch;
      const Status partition = ValidatePartition(over.value().intervals);
      if (!partition.ok()) {
        record(Status::Internal("live snapshot is not a partition: " +
                                std::string(partition.message())));
        return;
      }
    }
  };
  std::thread reader_a(reader, seed * 2 + 1);
  std::thread reader_b(reader, seed * 2 + 2);
  writer.join();
  reader_a.join();
  reader_b.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    TAGG_RETURN_IF_ERROR(first_error);
  }

  AggregateOptions ref;
  ref.aggregate = aggregate;
  ref.attribute = attribute;
  ref.algorithm = AlgorithmKind::kReference;
  ref.coalesce_equal_values = true;
  TAGG_ASSIGN_OR_RETURN(AggregateSeries expected,
                        ComputeTemporalAggregate(relation, ref));
  TAGG_ASSIGN_OR_RETURN(AggregateSeries actual,
                        index->AggregateOver(Period::All(),
                                             /*coalesce=*/true));
  std::vector<ResultInterval> conditioning;
  const std::vector<ResultInterval>* condition = nullptr;
  if (aggregate == AggregateKind::kSum || aggregate == AggregateKind::kAvg) {
    TAGG_ASSIGN_OR_RETURN(conditioning,
                          ComputeConditioningSeries(relation, attribute));
    condition = &conditioning;
  }
  return CompareSeries(expected.intervals, actual.intervals, aggregate,
                       relative_tolerance, condition);
}

Status CheckShardedServiceConcurrent(const Relation& relation,
                                     AggregateKind aggregate,
                                     size_t attribute, uint64_t seed,
                                     size_t shards,
                                     double relative_tolerance) {
  TAGG_ASSIGN_OR_RETURN(Catalog catalog, ShardedCatalogFor(relation));
  shard::ShardedServiceOptions options;
  options.shards = shards;
  options.hot_window = Period(0, 63);
  shard::ShardedLiveService service(options);
  TAGG_RETURN_IF_ERROR(
      service.RegisterIndex(catalog, relation.name(), aggregate,
                            AttributeNameFor(relation, attribute)));

  std::atomic<bool> done{false};
  std::mutex mutex;
  Status first_error;
  const auto record = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(mutex);
    if (first_error.ok()) first_error = status;
  };

  // The writer interleaves single-tuple ingests with a mid-stream
  // data-quantile rebalance and a shard split: the reader-facing
  // topology cutover is exactly the code under test.
  std::thread writer([&] {
    const size_t rebalance_at = relation.size() / 2;
    size_t ingested = 0;
    for (const Tuple& tuple : relation) {
      Status status = service.Ingest(relation.name(), tuple);
      if (status.ok() && ++ingested == rebalance_at) {
        status = service.Reshard(shards + 1);
        if (status.ok()) {
          // A quantile cut over dense starts can leave shard 0 owning a
          // single instant; an unsplittable shard is a legitimate
          // rejection, not a divergence.
          const Status split = service.SplitShard(0);
          if (!split.ok() && split.code() != StatusCode::kInvalidArgument) {
            status = split;
          }
        }
      }
      if (!status.ok()) {
        record(status);
        break;
      }
    }
    done.store(true, std::memory_order_release);
  });

  const auto reader = [&](uint64_t reader_seed) {
    Rng rng(reader_seed);
    bool once = false;
    while (!once || !done.load(std::memory_order_acquire)) {
      once = true;
      // Point probes route to exactly one owning shard and must succeed
      // whichever topology version they land on.  Epochs are NOT
      // asserted monotone: a rebalance restarts the shard instances.
      const Result<Value> at = service.AggregateAt(
          relation.name(), aggregate, attribute, rng.Uniform(0, 2000));
      if (!at.ok()) {
        record(at.status());
        return;
      }
      const Result<AggregateSeries> over = service.AggregateOver(
          relation.name(), aggregate, attribute, Period::All(),
          /*coalesce=*/true);
      if (!over.ok()) {
        record(over.status());
        return;
      }
      const Status partition = ValidatePartition(over.value().intervals);
      if (!partition.ok()) {
        record(Status::Internal("sharded snapshot is not a partition: " +
                                std::string(partition.message())));
        return;
      }
    }
  };
  std::thread reader_a(reader, seed * 2 + 1);
  std::thread reader_b(reader, seed * 2 + 2);
  writer.join();
  reader_a.join();
  reader_b.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    TAGG_RETURN_IF_ERROR(first_error);
  }

  TAGG_RETURN_IF_ERROR(service.Flush());
  AggregateOptions ref;
  ref.aggregate = aggregate;
  ref.attribute = attribute;
  ref.algorithm = AlgorithmKind::kReference;
  ref.coalesce_equal_values = true;
  TAGG_ASSIGN_OR_RETURN(AggregateSeries expected,
                        ComputeTemporalAggregate(relation, ref));
  TAGG_ASSIGN_OR_RETURN(
      AggregateSeries actual,
      service.AggregateOver(relation.name(), aggregate, attribute,
                            Period::All(), /*coalesce=*/true));
  std::vector<ResultInterval> conditioning;
  const std::vector<ResultInterval>* condition = nullptr;
  if (aggregate == AggregateKind::kSum || aggregate == AggregateKind::kAvg) {
    TAGG_ASSIGN_OR_RETURN(conditioning,
                          ComputeConditioningSeries(relation, attribute));
    condition = &conditioning;
  }
  return CompareSeries(expected.intervals, actual.intervals, aggregate,
                       relative_tolerance, condition);
}

}  // namespace testing
}  // namespace tagg
