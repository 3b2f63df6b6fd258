// Regression tests for the hardened count-knob parsing (util/env.h): the
// raw strtol-of-getenv pattern turned "-4" into ~2^64 workers and "1e9"
// into 1; ClampCount/ResolveCountEnv must repair every such input to a
// sane value instead of taking it at face value.

#include "util/env.h"

#include <cstdlib>

#include "gtest/gtest.h"

namespace tagg {
namespace {

constexpr char kVar[] = "TAGG_ENV_TEST_COUNT";

class ResolveCountEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { ::unsetenv(kVar); }

  void Set(const char* value) { ::setenv(kVar, value, /*overwrite=*/1); }
};

TEST(ClampCountTest, InRangeValuePassesThrough) {
  EXPECT_EQ(ClampCount("knob", 4, 1, 64), 4u);
  EXPECT_EQ(ClampCount("knob", 1, 8, 64), 1u);
  EXPECT_EQ(ClampCount("knob", 64, 1, 64), 64u);
}

TEST(ClampCountTest, NonPositiveFallsBack) {
  EXPECT_EQ(ClampCount("knob", 0, 4, 64), 4u);
  EXPECT_EQ(ClampCount("knob", -1, 4, 64), 4u);
  EXPECT_EQ(ClampCount("knob", -9999999999LL, 4, 64), 4u);
}

TEST(ClampCountTest, OverMaxClampsToMax) {
  EXPECT_EQ(ClampCount("knob", 65, 4, 64), 64u);
  EXPECT_EQ(ClampCount("knob", 9999999999LL, 4, 64), 64u);
}

TEST(ClampCountTest, DegenerateBoundsAreRepaired) {
  // A zero max would admit nothing; it floors to 1.
  EXPECT_EQ(ClampCount("knob", 5, 1, 0), 1u);
  // A fallback outside [1, max] is itself clamped before use.
  EXPECT_EQ(ClampCount("knob", 0, 0, 64), 1u);
  EXPECT_EQ(ClampCount("knob", 0, 100, 64), 64u);
}

TEST_F(ResolveCountEnvTest, UnsetAndEmptyYieldFallback) {
  ::unsetenv(kVar);
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
  Set("");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
}

TEST_F(ResolveCountEnvTest, NumericValueIsTaken) {
  Set("12");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 12u);
  Set("1");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 1u);
}

TEST_F(ResolveCountEnvTest, NonPositiveValuesFallBack) {
  Set("0");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
  Set("-4");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
}

TEST_F(ResolveCountEnvTest, GarbageFallsBack) {
  Set("lots");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
  // Trailing garbage is garbage, not a prefix parse: "1e9" must not
  // silently become 1 worker.
  Set("1e9");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
  Set("12 ");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
}

TEST_F(ResolveCountEnvTest, OverflowFallsBack) {
  Set("99999999999999999999999999");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
  Set("-99999999999999999999999999");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 4u);
}

TEST_F(ResolveCountEnvTest, HugeButParsableValueClampsToMax) {
  Set("5000");
  EXPECT_EQ(ResolveCountEnv(kVar, 4, 64), 64u);
}

TEST_F(ResolveCountEnvTest, IntEnvTakesZeroAndFallsBackOnJunk) {
  // ResolveIntEnv serves knobs where 0 is meaningful (0 = off).
  EXPECT_EQ(ResolveIntEnv(kVar, 7, 0, 100), 7);
  Set("0");
  EXPECT_EQ(ResolveIntEnv(kVar, 7, 0, 100), 0);
  Set("100");
  EXPECT_EQ(ResolveIntEnv(kVar, 7, 0, 100), 100);
  for (const char* bad : {"101", "-1", "lots", "5x", "99999999999999999999"}) {
    Set(bad);
    EXPECT_EQ(ResolveIntEnv(kVar, 7, 0, 100), 7) << bad;
  }
}

}  // namespace
}  // namespace tagg
