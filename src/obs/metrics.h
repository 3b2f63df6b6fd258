// Process-wide metrics: named counters, gauges, and fixed-bucket latency
// histograms with Prometheus-text and JSON exposition.
//
// Hot paths pay one relaxed atomic add per event.  Counters are sharded
// across cache-line-aligned cells indexed by a per-thread slot, so
// concurrent writers (live-index readers, partitioned-agg workers) do not
// bounce a single cache line; reads sum the shards.  Instruments are
// registered once by name in a MetricsRegistry and live for the process
// lifetime — call sites cache the returned reference (typically in a
// function-local static) and never touch the registry lock again.
//
// The obs library sits below every other layer (it depends only on the
// standard library), so core, storage, live, query, and bench code can all
// publish into the same registry.
//
// Naming convention (docs/OBSERVABILITY.md): `tagg_<subsystem>_<what>`,
// with `_total` for counters and `_seconds` for latency histograms, e.g.
// `tagg_column_scan_scans_total`, `tagg_live_probe_seconds`.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tagg {
namespace obs {

/// Global instrumentation switch.  When off, the scoped timers skip their
/// clock reads (the measurable part of the overhead); counter adds are one
/// relaxed atomic and stay on.  Default: enabled.
bool Enabled();
void SetEnabled(bool on);

namespace internal {

/// One cache line holding one atomic counter cell.
struct alignas(64) AtomicCell {
  std::atomic<uint64_t> v{0};
};

/// Stable small shard index for the calling thread.
size_t ThreadShard();

}  // namespace internal

/// Shards per counter: enough that a handful of reader threads rarely
/// collide, small enough that a counter stays a few cache lines.
inline constexpr size_t kCounterShards = 8;

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t delta = 1) {
    cells_[internal::ThreadShard()].v.fetch_add(delta,
                                                std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const internal::AtomicCell& c : cells_) {
      sum += c.v.load(std::memory_order_relaxed);
    }
    return sum;
  }

 private:
  internal::AtomicCell cells_[kCounterShards];
};

/// Last-write-wins instantaneous value (epoch, staleness, pool size).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  void Add(double delta) { v_.fetch_add(delta, std::memory_order_relaxed); }
  double Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Upper bounds (in seconds) covering sub-microsecond tree probes up to
/// multi-second batch builds.
std::vector<double> DefaultLatencyBoundsSeconds();

/// Fixed-bucket histogram: cumulative-style exposition, relaxed atomic
/// bucket cells.  Bounds are ascending upper bounds; an implicit +Inf
/// bucket catches the rest.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds = DefaultLatencyBoundsSeconds());
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  uint64_t Count() const;
  double Sum() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the +Inf bucket).
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].v.load(std::memory_order_relaxed);
  }

 private:
  std::vector<double> bounds_;
  std::vector<internal::AtomicCell> buckets_;  // bounds_.size() + 1
  std::atomic<double> sum_{0.0};
};

/// Registry of named instruments.  Get* registers on first use and returns
/// the same instrument for the same name afterwards; returned references
/// stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry every subsystem publishes into.
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name, std::string_view help = {});
  Gauge& GetGauge(std::string_view name, std::string_view help = {});
  /// `bounds` is honored on first registration only.
  Histogram& GetHistogram(std::string_view name, std::string_view help = {},
                          std::vector<double> bounds = {});

  /// Prometheus text exposition format (HELP/TYPE lines, cumulative
  /// histogram buckets with le labels, _sum and _count).
  std::string PrometheusText() const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}} — the
  /// machine-readable snapshot bench_util.h writes next to every bench run.
  std::string ToJson() const;

 private:
  template <typename T>
  struct Entry {
    std::string help;
    std::unique_ptr<T> instrument;
  };

  mutable std::mutex mutex_;
  std::map<std::string, Entry<Counter>> counters_;
  std::map<std::string, Entry<Gauge>> gauges_;
  std::map<std::string, Entry<Histogram>> histograms_;
};

/// RAII latency sample: observes the elapsed seconds of its scope into a
/// histogram.  When instrumentation is disabled the clock is never read.
class ScopedLatencyTimer {
 public:
  explicit ScopedLatencyTimer(Histogram& hist)
      : hist_(Enabled() ? &hist : nullptr) {
    if (hist_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ScopedLatencyTimer(const ScopedLatencyTimer&) = delete;
  ScopedLatencyTimer& operator=(const ScopedLatencyTimer&) = delete;

  ~ScopedLatencyTimer() {
    if (hist_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hist_->Observe(std::chrono::duration<double>(elapsed).count());
  }

 private:
  Histogram* hist_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace obs
}  // namespace tagg
