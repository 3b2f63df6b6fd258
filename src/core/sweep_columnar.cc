#include "core/sweep_columnar.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define TAGG_HAVE_AVX2_BODY 1
#endif

namespace tagg {
namespace {

/// Below this the per-pass histogram overhead beats the comparison sort's
/// branches; tiny regions take the indirect stable sort instead.
constexpr size_t kRadixThreshold = 128;

void GatherByOrder(const EventColumns& src, const std::vector<uint32_t>& ord,
                   EventColumns& dst) {
  const size_t n = ord.size();
  const bool has_dv = !src.dv.empty();
  dst.at.resize(n);
  dst.dn.resize(n);
  if (has_dv) dst.dv.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t j = ord[i];
    dst.at[i] = src.at[j];
    dst.dn[i] = src.dn[j];
    if (has_dv) dst.dv[i] = src.dv[j];
  }
}

}  // namespace

void SortEventColumns(EventColumns& cols, EventColumns& scratch) {
  const size_t n = cols.size();
  if (n < 2) return;

  if (n < kRadixThreshold) {
    std::vector<uint32_t> ord(n);
    std::iota(ord.begin(), ord.end(), 0u);
    std::stable_sort(ord.begin(), ord.end(), [&](uint32_t a, uint32_t b) {
      return cols.at[a] < cols.at[b];
    });
    GatherByOrder(cols, ord, scratch);
    std::swap(cols.at, scratch.at);
    std::swap(cols.dv, scratch.dv);
    std::swap(cols.dn, scratch.dn);
    return;
  }

  // Bias the key so the byte passes see the distance from the minimum:
  // passes above the key range's top byte are skipped entirely.  The
  // subtraction is done in uint64 so kForever-sized spans cannot overflow.
  const auto [mn_it, mx_it] = std::minmax_element(cols.at.begin(),
                                                  cols.at.end());
  const uint64_t bias = static_cast<uint64_t>(*mn_it);
  const uint64_t range = static_cast<uint64_t>(*mx_it) - bias;
  int passes = 1;
  while (passes < 8 && (range >> (8 * passes)) != 0) ++passes;

  const bool has_dv = !cols.dv.empty();
  scratch.at.resize(n);
  scratch.dn.resize(n);
  if (has_dv) scratch.dv.resize(n);

  EventColumns* src = &cols;
  EventColumns* dst = &scratch;
  for (int p = 0; p < passes; ++p) {
    const int shift = 8 * p;
    size_t count[256] = {};
    for (size_t i = 0; i < n; ++i) {
      ++count[(static_cast<uint64_t>(src->at[i]) - bias) >> shift & 0xFF];
    }
    // A pass whose byte is constant would be an identity permutation.
    bool trivial = false;
    for (size_t b = 0; b < 256; ++b) {
      if (count[b] == n) {
        trivial = true;
        break;
      }
      if (count[b] != 0) break;
    }
    if (trivial) continue;
    size_t pos = 0;
    for (size_t b = 0; b < 256; ++b) {
      const size_t c = count[b];
      count[b] = pos;
      pos += c;
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t out =
          count[(static_cast<uint64_t>(src->at[i]) - bias) >> shift & 0xFF]++;
      dst->at[out] = src->at[i];
      dst->dn[out] = src->dn[i];
      if (has_dv) dst->dv[out] = src->dv[i];
    }
    std::swap(src, dst);
  }
  if (src != &cols) {
    std::swap(cols.at, scratch.at);
    std::swap(cols.dv, scratch.dv);
    std::swap(cols.dn, scratch.dn);
  }
}

ColumnarSweeper::ColumnarSweeper(Instant lo, Instant hi, SimdLevel level,
                                 bool count_only)
    : cur_(lo), hi_(hi), count_only_(count_only), level_(level) {
#if !defined(TAGG_HAVE_AVX2_BODY)
  level_ = SimdLevel::kScalar;
#else
  // Never trust the requested level past what the CPU can execute: a test
  // may ask for kAvx2 unconditionally.
  if (static_cast<int>(level_) > static_cast<int>(DetectSimdLevel())) {
    level_ = DetectSimdLevel();
  }
#endif
}

void ColumnarSweeper::EmitSegment(Instant end) {
  seg_lo_.push_back(cur_);
  seg_hi_.push_back(end);
  seg_sum_.push_back(sum_ + comp_);
  seg_n_.push_back(n_);
}

void ColumnarSweeper::NeumaierAdd(double x) {
  const double t = sum_ + x;
  if (std::abs(sum_) >= std::abs(x)) {
    comp_ += (sum_ - t) + x;
  } else {
    comp_ += (x - t) + sum_;
  }
  sum_ = t;
}

void ColumnarSweeper::ClearSegments() {
  seg_lo_.clear();
  seg_hi_.clear();
  seg_sum_.clear();
  seg_n_.clear();
}

void ColumnarSweeper::ConsumeScalar(const Instant* at, const double* dv,
                                    const int64_t* dn, size_t begin,
                                    size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const Instant a = at[i];
    if (a > hi_) {
      // Sorted input: everything after is out of range too.
      done_ = true;
      return;
    }
    if (a > cur_) {
      EmitSegment(a - 1);
      cur_ = a;
    }
    if (!count_only_) NeumaierAdd(dv[i]);
    n_ += dn[i];
    if (n_ == 0) {
      // Exact return to the aggregate's identity.
      sum_ = 0.0;
      comp_ = 0.0;
    }
  }
}

void ColumnarSweeper::Consume(const Instant* at, const double* dv,
                              const int64_t* dn, size_t n) {
  if (done_ || n == 0) return;
#if defined(TAGG_HAVE_AVX2_BODY)
  if (level_ == SimdLevel::kAvx2) {
    if (count_only_) {
      ConsumeAvx2Count(at, dv, dn, n);
    } else {
      ConsumeAvx2Value(at, dv, dn, n);
    }
    return;
  }
#endif
  ConsumeScalar(at, dv, dn, 0, n);
}

void ColumnarSweeper::Finish() { EmitSegment(hi_); }

#if defined(TAGG_HAVE_AVX2_BODY)

namespace {

/// Inclusive 4-lane int64 prefix scan (Kogge-Stone: shift-add by one lane,
/// then by two).
__attribute__((target("avx2"))) inline __m256i PrefixScan64(__m256i v) {
  __m256i t = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(2, 1, 0, 3));
  t = _mm256_blend_epi32(t, _mm256_setzero_si256(), 0x03);
  v = _mm256_add_epi64(v, t);
  t = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(1, 0, 3, 2));
  t = _mm256_blend_epi32(t, _mm256_setzero_si256(), 0x0F);
  return _mm256_add_epi64(v, t);
}

/// Lanes [prev, a0, a1, a2]: each event's predecessor timestamp, with the
/// carried `prev` filling lane 0.
__attribute__((target("avx2"))) inline __m256i ShiftInPrev(__m256i a,
                                                           int64_t prev) {
  __m256i p = _mm256_permute4x64_epi64(a, _MM_SHUFFLE(2, 1, 0, 3));
  return _mm256_blend_epi32(p, _mm256_set1_epi64x(prev), 0x03);
}

}  // namespace

__attribute__((target("avx2"))) void ColumnarSweeper::ConsumeAvx2Count(
    const Instant* at, const double* dv, const int64_t* dn, size_t n) {
  size_t i = 0;
  while (i + 4 <= n) {
    if (at[i + 3] > hi_) break;  // region edge: finish via the scalar tail
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(at + i));
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dn + i));
    const __m256i base = _mm256_set1_epi64x(n_);
    // Active count after each of the four events.
    const __m256i counts = _mm256_add_epi64(PrefixScan64(d), base);
    const __m256i prev = ShiftInPrev(a, cur_);
    const __m256i eq = _mm256_cmpeq_epi64(a, prev);
    const unsigned neq =
        ~static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq))) &
        0xFu;
    if (neq == 0xFu) {
      // Every timestamp advances: four segments in one shot.  Segment j
      // covers [prev_j, a_j - 1] and carries the count *before* event j —
      // `counts` shifted right one lane with the running count in lane 0.
      const size_t out = seg_lo_.size();
      seg_lo_.resize(out + 4);
      seg_hi_.resize(out + 4);
      seg_sum_.resize(out + 4);  // value-initialized: COUNT carries no sum
      seg_n_.resize(out + 4);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(seg_lo_.data() + out),
                          prev);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(seg_hi_.data() + out),
          _mm256_sub_epi64(a, _mm256_set1_epi64x(1)));
      __m256i before = _mm256_permute4x64_epi64(counts,
                                                _MM_SHUFFLE(2, 1, 0, 3));
      before = _mm256_blend_epi32(before, base, 0x03);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(seg_n_.data() + out),
                          before);
      cur_ = at[i + 3];
      n_ = _mm256_extract_epi64(counts, 3);
    } else {
      // Equal-timestamp runs inside the block: emit only where the
      // boundary mask is set, folding the prefix counts back in.
      alignas(32) int64_t cnt[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(cnt), counts);
      for (int j = 0; j < 4; ++j) {
        const Instant aj = at[i + j];
        if (neq & (1u << j)) {
          EmitSegment(aj - 1);
          cur_ = aj;
        }
        n_ = cnt[j];
      }
    }
    i += 4;
  }
  (void)dv;
  ConsumeScalar(at, nullptr, dn, i, n);
}

__attribute__((target("avx2"))) void ColumnarSweeper::ConsumeAvx2Value(
    const Instant* at, const double* dv, const int64_t* dn, size_t n) {
  size_t i = 0;
  while (i + 4 <= n) {
    if (at[i + 3] > hi_) break;
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(at + i));
    const __m256i eq = _mm256_cmpeq_epi64(a, ShiftInPrev(a, cur_));
    const unsigned neq =
        ~static_cast<unsigned>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq))) &
        0xFu;
    // The boundary mask is vector-computed; the value fold stays in the
    // exact Neumaier form so the compensation semantics (and therefore
    // the documented differential tolerance) are preserved verbatim.
    for (int j = 0; j < 4; ++j) {
      if (neq & (1u << j)) {
        const Instant aj = at[i + j];
        EmitSegment(aj - 1);
        cur_ = aj;
      }
      NeumaierAdd(dv[i + j]);
      n_ += dn[i + j];
      if (n_ == 0) {
        sum_ = 0.0;
        comp_ = 0.0;
      }
    }
    i += 4;
  }
  ConsumeScalar(at, dv, dn, i, n);
}

#endif  // TAGG_HAVE_AVX2_BODY

}  // namespace tagg
