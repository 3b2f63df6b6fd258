// Columnar (structure-of-arrays) endpoint-sweep kernel.
//
// Sorting an array-of-structs event stream ({at, dv, dn} triples) with
// std::sort and folding it through a scalar emitter wastes the memory
// system at region sizes in the millions: each comparison touches 24-byte
// structs, and the accumulation loop is branch-bound.  This module keeps
// the endpoint sweep in columns instead:
//
//   * EventColumns keeps the three event fields in separate contiguous
//     arrays (timestamps, signed value deltas, signed count deltas), so
//     the sort key is a dense int64 column and the sweep streams each
//     column linearly.
//   * SortEventColumns is a stable LSD radix sort on the timestamp
//     column (byte-wise counting passes over the biased key), replacing
//     the comparison sort that dominated the sweep's profile.
//   * ColumnarSweeper replays the sorted columns as a prefix-scan-style
//     loop with an AVX2 body behind runtime dispatch
//     (util/cpu_features).  The COUNT path is fully vectorized (4-lane
//     int64 Kogge-Stone prefix scan + vectorized boundary masks and
//     segment stores); the SUM/AVG path vectorizes the boundary
//     detection but keeps the per-event value accumulation in the exact
//     Neumaier-compensated form the differential tolerance policy is
//     written against (docs/COLUMNAR.md documents the split).
//
// Semantics: events at the same instant coalesce into one segment
// boundary, events past the region's upper bound are ignored, and the
// running sum resets to exactly 0.0 whenever the active count returns to
// zero, so emptied intervals reproduce the aggregate's identity.
//
// The sweeper is a streaming consumer: chunks of sorted events may be fed
// incrementally (the spilled path decodes and feeds one bounded chunk at
// a time), and completed segments may be drained between chunks, keeping
// the spilled path's memory bounded by the chunk size plus the drained
// output.

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/aggregates.h"
#include "temporal/instant.h"
#include "util/cpu_features.h"

namespace tagg {

/// SoA endpoint events: at[i] is the instant, dv[i] the signed value
/// delta, dn[i] the signed active-count delta.  For COUNT (no aggregated
/// attribute) dv may be left empty; every consumer treats a missing dv
/// column as all-zero.
struct EventColumns {
  std::vector<Instant> at;
  std::vector<double> dv;
  std::vector<int64_t> dn;

  size_t size() const { return at.size(); }
  bool empty() const { return at.empty(); }

  void clear() {
    at.clear();
    dv.clear();
    dn.clear();
  }

  void reserve(size_t n, bool with_values = true) {
    at.reserve(n);
    if (with_values) dv.reserve(n);
    dn.reserve(n);
  }
};

/// Stable LSD radix sort of the columns by `at` (ascending).  `scratch`
/// is the ping-pong buffer; it is resized as needed and its contents are
/// unspecified afterwards.  Reusing one scratch across regions amortizes
/// the allocation.  Passes over bytes the key range does not reach are
/// skipped, so narrow time domains sort in one or two passes.
void SortEventColumns(EventColumns& cols, EventColumns& scratch);

/// Whether Op's state forms a group (has an inverse), and how to rebuild a
/// state from the sweep's running (sum, active-count) accumulator.  The
/// sum is reset to exactly 0.0 whenever the active count returns to zero,
/// so an emptied interval reproduces Op::Identity() bit for bit.  A
/// baseline (sum, n) added before Make — the pruned scan's fully-covering
/// block summaries — composes by the same group property.
template <typename Op>
struct SweepTraits {
  static constexpr bool kInvertible = false;
};

template <>
struct SweepTraits<CountOp> {
  static constexpr bool kInvertible = true;
  static CountOp::State Make(double /*sum*/, int64_t n) { return n; }
};

template <>
struct SweepTraits<SumOp> {
  static constexpr bool kInvertible = true;
  static SumOp::State Make(double sum, int64_t n) {
    return {n > 0 ? sum : 0.0, n > 0};
  }
};

template <>
struct SweepTraits<AvgOp> {
  static constexpr bool kInvertible = true;
  static AvgOp::State Make(double sum, int64_t n) {
    return {n > 0 ? sum : 0.0, n};
  }
};

/// Streams sorted event columns and produces the region's constant
/// segments as SoA output: segment i covers [seg_lo(i), seg_hi(i)] with
/// running sum seg_sum(i) and active count seg_n(i).  Equal-timestamp
/// runs may span Consume calls; a segment is only emitted once the
/// timestamp strictly advances (or at Finish), so chunk boundaries are
/// semantically invisible.
class ColumnarSweeper {
 public:
  /// Sweeps [lo, hi]; `count_only` skips the value column entirely
  /// (COUNT), `level` picks the kernel body (clamp via ActiveSimdLevel).
  ColumnarSweeper(Instant lo, Instant hi, SimdLevel level, bool count_only);

  /// Feeds `n` events sorted by `at`, nondecreasing across calls.  `dv`
  /// may be null iff count-only.
  void Consume(const Instant* at, const double* dv, const int64_t* dn,
               size_t n);

  void Consume(const EventColumns& cols) {
    Consume(cols.at.data(), cols.dv.empty() ? nullptr : cols.dv.data(),
            cols.dn.data(), cols.size());
  }

  /// Emits the final open segment [cur, hi].  Call exactly once, after
  /// the last Consume.
  void Finish();

  /// Completed segments since the last ClearSegments (SoA, index-aligned).
  const std::vector<Instant>& seg_lo() const { return seg_lo_; }
  const std::vector<Instant>& seg_hi() const { return seg_hi_; }
  const std::vector<double>& seg_sum() const { return seg_sum_; }
  const std::vector<int64_t>& seg_n() const { return seg_n_; }
  size_t segment_count() const { return seg_lo_.size(); }

  /// Drops drained segments; the carry state (open segment) is untouched.
  void ClearSegments();

  SimdLevel level() const { return level_; }

 private:
  void EmitSegment(Instant end);
  void NeumaierAdd(double x);
  void ConsumeScalar(const Instant* at, const double* dv, const int64_t* dn,
                     size_t begin, size_t end);
  void ConsumeAvx2Count(const Instant* at, const double* dv,
                        const int64_t* dn, size_t n);
  void ConsumeAvx2Value(const Instant* at, const double* dv,
                        const int64_t* dn, size_t n);

  Instant cur_;
  Instant hi_;
  double sum_ = 0.0;
  double comp_ = 0.0;
  int64_t n_ = 0;
  bool count_only_;
  bool done_ = false;  // saw an event past hi_: the rest is out of range
  SimdLevel level_;

  std::vector<Instant> seg_lo_;
  std::vector<Instant> seg_hi_;
  std::vector<double> seg_sum_;
  std::vector<int64_t> seg_n_;
};

/// The invertible region sweep — the one place the batch evaluators turn
/// clipped rows of a group-invertible aggregate (COUNT, SUM, AVG) into
/// constant intervals over [lo, hi]:
///
///   1. AddRow (ForEachEvent for any other sink) emits a row's endpoint
///      events: +v/+1 at its start and, when it ends before hi, the
///      inverse at end + 1;
///   2. Sweep sorts unsorted columns and runs the ColumnarSweeper over
///      them (Consume/Finish take chunks an external sort already ordered);
///   3. Drain hands every completed segment to emit(lo, hi, state) as
///      SweepTraits<Op>::Make(sum + base_sum, n + base_n) — the baseline
///      is the pruned scan's fully-covering block summaries, zero
///      elsewhere.
///
/// The kernel body follows ActiveSimdLevel() (util/cpu_features).
template <typename Op>
class InvertibleSweep {
 public:
  using State = typename Op::State;
  /// COUNT carries no aggregated value: the dv column is skipped outright
  /// and the fully vectorized count body runs.
  static constexpr bool kCountOnly = std::is_same_v<Op, CountOp>;

  InvertibleSweep(Instant lo, Instant hi, double base_sum = 0.0,
                  int64_t base_n = 0)
      : base_sum_(base_sum),
        base_n_(base_n),
        sweeper_(lo, hi, ActiveSimdLevel(), kCountOnly) {}

  /// Appends one event to `cols` (the value is dropped for COUNT).
  static void Append(EventColumns& cols, Instant at, double dv, int64_t dn) {
    cols.at.push_back(at);
    if constexpr (!kCountOnly) cols.dv.push_back(dv);
    cols.dn.push_back(dn);
  }

  /// Step 1: passes the endpoint events of row [start, end] (already
  /// clipped to a sweep ending at `hi`) carrying `v` to push(at, dv, dn);
  /// returns how many there were (1 or 2).
  template <typename Push>
  static size_t ForEachEvent(Instant hi, Instant start, Instant end,
                             double v, Push&& push) {
    push(start, v, int64_t{1});
    if (end >= hi) return 1;
    push(end + 1, -v, int64_t{-1});
    return 2;
  }

  /// Step 1 into columns.
  static void AddRow(EventColumns& cols, Instant hi, Instant start,
                     Instant end, double v) {
    ForEachEvent(hi, start, end, v, [&](Instant at, double dv, int64_t dn) {
      Append(cols, at, dv, dn);
    });
  }

  /// Step 2 over columns in any order: sort, then sweep to the end.
  void Sweep(EventColumns& cols) {
    EventColumns scratch;
    SortEventColumns(cols, scratch);
    Consume(cols);
    Finish();
  }

  /// Step 2 streamed: feeds one chunk sorted after every earlier one.
  void Consume(const EventColumns& sorted) { sweeper_.Consume(sorted); }
  void Finish() { sweeper_.Finish(); }

  /// Segments completed and not yet drained.
  size_t pending() const { return sweeper_.segment_count(); }

  /// Step 3: emits the completed segments and forgets them.
  template <typename Emit>
  void Drain(Emit&& emit) {
    const std::vector<Instant>& lo = sweeper_.seg_lo();
    const std::vector<Instant>& hi = sweeper_.seg_hi();
    const std::vector<double>& sums = sweeper_.seg_sum();
    const std::vector<int64_t>& ns = sweeper_.seg_n();
    for (size_t i = 0; i < lo.size(); ++i) {
      emit(lo[i], hi[i],
           SweepTraits<Op>::Make(sums[i] + base_sum_, ns[i] + base_n_));
    }
    sweeper_.ClearSegments();
  }

  SimdLevel level() const { return sweeper_.level(); }

 private:
  double base_sum_;
  int64_t base_n_;
  ColumnarSweeper sweeper_;
};

}  // namespace tagg
