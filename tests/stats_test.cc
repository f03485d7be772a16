#include "sim/stats.h"

#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

namespace bdisk::sim {
namespace {

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats s;
  EXPECT_EQ(s.Count(), 0U);
  EXPECT_EQ(s.Mean(), 0.0);
  EXPECT_EQ(s.Variance(), 0.0);
  EXPECT_EQ(s.StdError(), 0.0);
}

TEST(RunningStatsTest, SingleObservation) {
  RunningStats s;
  s.Add(5.0);
  EXPECT_EQ(s.Count(), 1U);
  EXPECT_EQ(s.Mean(), 5.0);
  EXPECT_EQ(s.Variance(), 0.0);
  EXPECT_EQ(s.Min(), 5.0);
  EXPECT_EQ(s.Max(), 5.0);
  EXPECT_EQ(s.Sum(), 5.0);
}

TEST(RunningStatsTest, KnownMeanAndVariance) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_DOUBLE_EQ(s.Mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.Variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.StdDev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.Min(), 2.0);
  EXPECT_EQ(s.Max(), 9.0);
}

TEST(RunningStatsTest, NumericallyStableForShiftedData) {
  // Large offset + small variance is where naive sum-of-squares fails.
  RunningStats s;
  const double offset = 1e9;
  for (const double x : {offset + 1, offset + 2, offset + 3}) s.Add(x);
  EXPECT_NEAR(s.Mean(), offset + 2, 1e-3);
  EXPECT_NEAR(s.Variance(), 1.0, 1e-6);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats s;
  s.Add(1.0);
  s.Reset();
  EXPECT_EQ(s.Count(), 0U);
  EXPECT_EQ(s.Mean(), 0.0);
}

TEST(RunningStatsTest, StdErrorShrinksWithN) {
  RunningStats s;
  for (int i = 0; i < 100; ++i) s.Add(i % 2 == 0 ? 1.0 : -1.0);
  const double se100 = s.StdError();
  for (int i = 0; i < 300; ++i) s.Add(i % 2 == 0 ? 1.0 : -1.0);
  EXPECT_LT(s.StdError(), se100);
  EXPECT_NEAR(s.StdError(), s.StdDev() / 20.0, 1e-12);  // n = 400.
}

}  // namespace
}  // namespace bdisk::sim
