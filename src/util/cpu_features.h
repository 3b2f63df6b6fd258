// Runtime CPU feature detection for the SIMD kernel dispatch.
//
// The build carries no -march flags (the binaries must run on any x86-64
// CI box), so vectorized kernels are compiled per-function with
// __attribute__((target("avx2"))) and selected at runtime.  This module is
// the single source of truth for that decision: kernels ask
// ActiveSimdLevel() once per region and branch to the matching body.
//
// Two overrides exist so both dispatch paths stay testable on any machine:
//   * the TAGG_NO_AVX2 environment variable (any non-empty value) forces
//     the scalar fallback process-wide — CI runs a whole matrix leg under
//     it, and
//   * SimdLevelOverride pins the decision programmatically — the only
//     per-evaluation pin, used by the tests, the differential harness
//     and the benches' honest scalar-vs-SIMD ablation.

#pragma once

#include <cstdint>
#include <string_view>

namespace tagg {

/// Instruction-set tiers the columnar kernels are compiled for, in
/// ascending order of capability.
enum class SimdLevel : uint8_t {
  kScalar,  // portable C++ body; always available
  kAvx2,    // 256-bit integer/double bodies behind __builtin_cpu_supports
};

std::string_view SimdLevelToString(SimdLevel level);

/// What the hardware supports, ignoring every override.  Uncached.
SimdLevel DetectSimdLevel();

/// The dispatch decision: DetectSimdLevel() clamped by TAGG_NO_AVX2 and by
/// any SimdLevelOverride.  The environment is consulted once and cached;
/// overrides take effect immediately.
SimdLevel ActiveSimdLevel();

/// Scoped override pinning ActiveSimdLevel() to `level` (still clamped to
/// what the hardware supports — requesting kAvx2 on a non-AVX2 box yields
/// kScalar).  Not thread-safe against concurrent overrides; intended for
/// tests and bench ablations, which pin it around a single-threaded setup.
class SimdLevelOverride {
 public:
  explicit SimdLevelOverride(SimdLevel level);
  ~SimdLevelOverride();

  SimdLevelOverride(const SimdLevelOverride&) = delete;
  SimdLevelOverride& operator=(const SimdLevelOverride&) = delete;

 private:
  int previous_;
};

}  // namespace tagg
