// Shared plumbing of the perfbench workload runner: run options, clocks,
// percentiles, process counters, the result printer, the reference
// oracle used by every correctness check, and the span recorder of the
// traced run.
//
// Everything here is benchmark-side code.  The program under test is
// only ever reached through its public headers.

#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/aggregates.h"
#include "core/reference_agg.h"
#include "temporal/period.h"
#include "temporal/value.h"

namespace perfbench {

using tagg::Instant;

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for files the run writes (column files, span dumps).
  std::string out_dir = ".bench_build/out";
};

/// Steady-clock nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Latency recorded for a failed operation: over any limit.
inline constexpr double kFailedLatency = 1e12;

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Process-wide resource counters (getrusage).
struct ProcSample {
  double cpu_us = 0;  // user + system
  double minflt = 0;
  double max_rss_mb = 0;
};

inline ProcSample SampleProc() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcSample s;
  s.cpu_us = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) *
                 1e6 +
             static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
  s.minflt = static_cast<double>(ru.ru_minflt);
  s.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
  return s;
}

/// splitmix64: the benchmark's own seeded generator, so inputs depend on
/// the seed alone and never on the library's RNG.
class SeedRng {
 public:
  explicit SeedRng(uint64_t seed) : s_(seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int64_t Uniform(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Log-uniform in [lo, hi].
  int64_t LogUniform(double lo, double hi) {
    return static_cast<int64_t>(
        std::exp(std::log(lo) + Unit() * (std::log(hi) - std::log(lo))));
  }

 private:
  uint64_t s_;
};

/// The result line: every metric of the run's kind plus the operation
/// counts.  Printed as the last line of standard output.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// A per-class figure under its own name (point_p50_us, scan_p50_ms,
  /// ...): every run prints it to stderr, a traced run also reports it.
  void Named(const std::string& name, double value, const std::string& unit,
             bool as_metric) {
    std::fprintf(stderr, "perfbench: %-16s %14.3f %s\n", name.c_str(), value,
                 unit.c_str());
    if (as_metric) Set(name, value, unit);
  }
  /// A metric set earlier in this run; 0 if none was.
  double Get(const std::string& name) const {
    auto it = metrics_.find(name);
    return it == metrics_.end() ? 0.0 : it->second.value;
  }
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(const std::string& why, uint64_t n = 1) {
    failed_ += n;
    if (failures_logged_++ < 10) {
      std::fprintf(stderr, "perfbench: failed operation: %s\n", why.c_str());
    }
  }
  void Wrong(const std::string& why) {
    correct_ = false;
    Fail("wrong answer: " + why);
  }
  bool correct() const { return correct_; }
  uint64_t failed() const { return failed_; }

  void Print() const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g",
                    std::isfinite(m.value) ? m.value : 0.0);
      out += std::string(first ? "" : ", ") + "\"" + name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
      first = false;
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t failures_logged_ = 0;
  bool correct_ = true;
};

// ---------------------------------------------------------------------------
// Reference oracle
// ---------------------------------------------------------------------------

/// One input of the oracle: a validity period and the aggregated value.
struct OracleTuple {
  tagg::Period valid;
  double value = 0;
};

/// The reference series of `kind` restricted to `window`: every tuple
/// overlapping the window is clipped to it and fed to the library's
/// brute-force ReferenceAggregator, so the oracle's cost is bounded by
/// the window, not the relation.  Also returns, per constant interval,
/// the conditioning C(I) = sum of |value| of the covering tuples that the
/// SUM tolerance policy scales by.
struct OracleInterval {
  tagg::Period period;
  tagg::Value value;
  double conditioning = 0;
};

template <typename Op>
std::vector<OracleInterval> OracleSeriesTyped(
    const std::vector<OracleTuple>& tuples, const tagg::Period& window) {
  tagg::ReferenceAggregator<Op> agg;
  tagg::ReferenceAggregator<tagg::SumOp> cond;
  for (const OracleTuple& t : tuples) {
    if (!t.valid.Overlaps(window)) continue;
    const tagg::Period clipped(std::max(t.valid.start(), window.start()),
                               std::min(t.valid.end(), window.end()));
    (void)agg.Add(clipped, t.value);
    (void)cond.Add(clipped, std::fabs(t.value));
  }
  // Pad the window so the partition always spans it, even where no tuple
  // covers an instant (those stretches are the aggregate's empty value).
  auto typed = agg.FinishTyped();
  auto cond_typed = cond.FinishTyped();
  std::vector<OracleInterval> out;
  if (!typed.ok() || !cond_typed.ok()) return out;
  for (size_t i = 0; i < typed->size(); ++i) {
    const auto& ti = (*typed)[i];
    const tagg::Period p(ti.start, ti.end);
    if (!p.Overlaps(window)) continue;
    double c = 0;
    const auto& ci = (*cond_typed)[i];
    if (!tagg::SumOp::IsEmpty(ci.state)) {
      c = tagg::SumOp::Finalize(ci.state).AsDouble();
    }
    out.push_back({tagg::Period(std::max(p.start(), window.start()),
                                std::min(p.end(), window.end())),
                   Op::Finalize(ti.state), c});
  }
  return out;
}

inline std::vector<OracleInterval> OracleSeries(
    tagg::AggregateKind kind, const std::vector<OracleTuple>& tuples,
    const tagg::Period& window) {
  switch (kind) {
    case tagg::AggregateKind::kCount:
      return OracleSeriesTyped<tagg::CountOp>(tuples, window);
    case tagg::AggregateKind::kSum:
      return OracleSeriesTyped<tagg::SumOp>(tuples, window);
    case tagg::AggregateKind::kMin:
      return OracleSeriesTyped<tagg::MinOp>(tuples, window);
    case tagg::AggregateKind::kMax:
      return OracleSeriesTyped<tagg::MaxOp>(tuples, window);
    case tagg::AggregateKind::kAvg:
      return OracleSeriesTyped<tagg::AvgOp>(tuples, window);
  }
  return {};
}

/// The aggregate's empty value (COUNT 0, others NULL).
inline tagg::Value EmptyValue(tagg::AggregateKind kind) {
  return kind == tagg::AggregateKind::kCount ? tagg::Value::Int(0)
                                             : tagg::Value::Null();
}

/// The differential harness's comparison policy: COUNT/MIN/MAX exact,
/// SUM/AVG within 1e-9 * max(1, |a|, |b|, C(I)).  NULL and an absent
/// interval are the same empty value.
inline bool ValuesAgree(tagg::AggregateKind kind, const tagg::Value& expected,
                        const tagg::Value& actual, double conditioning) {
  const bool e_empty = expected.is_null() || expected == EmptyValue(kind);
  const bool a_empty = actual.is_null() || actual == EmptyValue(kind);
  if (e_empty || a_empty) return e_empty == a_empty;
  auto e = expected.ToNumeric();
  auto a = actual.ToNumeric();
  if (!e.ok() || !a.ok()) return false;
  if (kind == tagg::AggregateKind::kSum || kind == tagg::AggregateKind::kAvg) {
    const double scale =
        std::max({1.0, std::fabs(*e), std::fabs(*a), conditioning});
    return std::fabs(*e - *a) <= 1e-9 * scale;
  }
  return *e == *a;
}

/// The oracle's value at instant `t`.
inline OracleInterval OracleAt(tagg::AggregateKind kind,
                               const std::vector<OracleTuple>& tuples,
                               Instant t) {
  std::vector<OracleInterval> s =
      OracleSeries(kind, tuples, tagg::Period::At(t));
  if (s.empty()) return {tagg::Period::At(t), EmptyValue(kind), 0};
  return s.front();
}

/// Compares a series (time-ordered intervals, possibly coalesced or with
/// empty stretches dropped) against the oracle over `window` by checking
/// the value at every oracle interval's start and end.  Returns an empty
/// string on agreement, else a description of the first mismatch.
template <typename ValueAtFn>
std::string CompareWithOracle(tagg::AggregateKind kind,
                              const std::vector<OracleInterval>& oracle,
                              ValueAtFn value_at) {
  for (const OracleInterval& oi : oracle) {
    for (Instant t : {oi.period.start(), oi.period.end()}) {
      const tagg::Value got = value_at(t);
      if (!ValuesAgree(kind, oi.value, got, oi.conditioning)) {
        return "at t=" + std::to_string(t) + " expected " +
               oi.value.ToString() + " got " + got.ToString();
      }
    }
  }
  return {};
}

/// Value of a time-ordered interval list at `t` (binary search); the
/// empty value where no interval covers t.
template <typename Interval, typename PeriodOf, typename ValueOf>
tagg::Value ValueInSeries(const std::vector<Interval>& series, Instant t,
                          tagg::AggregateKind kind, PeriodOf period_of,
                          ValueOf value_of) {
  auto it = std::upper_bound(
      series.begin(), series.end(), t,
      [&](Instant x, const Interval& iv) { return x < period_of(iv).start(); });
  if (it == series.begin()) return EmptyValue(kind);
  --it;
  if (!period_of(*it).Contains(t)) return EmptyValue(kind);
  return value_of(*it);
}

// ---------------------------------------------------------------------------
// Span recorder (traced runs only)
// ---------------------------------------------------------------------------

/// One recorded span: name, interval, the span that caused it, and the
/// request it belongs to.
struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the recorder; -1 = root
  uint64_t request_id = 0;
};

/// Keeps spans in memory; WriteJsonl() dumps them when the run ends.
/// Single-threaded: the benchmark records from its driving thread only.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }
  bool enabled() const { return enabled_; }

  /// Records a completed span and returns its index (-1 when disabled).
  int64_t Add(std::string_view name, int64_t start_ns, int64_t end_ns,
              int64_t parent, uint64_t request_id) {
    if (!enabled_) return -1;
    spans_.push_back(
        {std::string(name), start_ns, end_ns, parent, request_id});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  /// Closes a span recorded open (for parents added before their
  /// children).
  void SetEnd(int64_t index, int64_t end_ns) {
    if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = end_ns;
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Durations (µs) of every span called `name`.
  std::vector<double> DurationsUs(std::string_view name) const {
    std::vector<double> out;
    for (const SpanRecord& s : spans_) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
    return out;
  }

  /// Self time of each span name (duration minus the union of its
  /// children's intervals), summed over all spans of that name.
  std::map<std::string, double> SelfTimeUs() const;

  bool WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench
