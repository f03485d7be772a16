#include "broadcast/air_index.h"

#include <gtest/gtest.h>

namespace bdisk::broadcast {
namespace {

TEST(AirIndexTest, CycleLength) {
  EXPECT_DOUBLE_EQ(IndexedCycleLength({1600, 1, 40}), 1640.0);
  EXPECT_DOUBLE_EQ(IndexedCycleLength({100, 5, 4}), 120.0);
}

TEST(AirIndexTest, SingleIndexMatchesHandComputation) {
  // m=1, one index slot over 100 data slots: cycle 101; wait-to-index
  // 101/2, index 1, doze 101/2, page 1.
  const AirIndexConfig config{100, 1, 1};
  EXPECT_DOUBLE_EQ(ExpectedLatency(config), 50.5 + 1.0 + 50.5 + 1.0);
  EXPECT_DOUBLE_EQ(ExpectedTuningTime(config), 3.0);
}

TEST(AirIndexTest, TuningTimeIndependentOfM) {
  for (const std::uint32_t m : {1U, 4U, 16U, 64U}) {
    EXPECT_DOUBLE_EQ(ExpectedTuningTime({1600, 2, m}), 4.0) << m;
  }
}

TEST(AirIndexTest, TuningFarBelowUnindexed) {
  EXPECT_DOUBLE_EQ(UnindexedTuningTime(1600), 801.0);
  EXPECT_LT(ExpectedTuningTime({1600, 1, 40}), 4.0);
}

TEST(AirIndexTest, LatencyConvexInM) {
  // Latency falls, bottoms out near m*, then rises as index overhead
  // inflates the cycle.
  const std::uint32_t m_star = OptimalIndexFrequency(1600, 1);
  EXPECT_EQ(m_star, 40U);  // sqrt(1600/1).
  const double at_optimum = ExpectedLatency({1600, 1, m_star});
  EXPECT_LT(at_optimum, ExpectedLatency({1600, 1, 1}));
  EXPECT_LT(at_optimum, ExpectedLatency({1600, 1, 1600}));
  EXPECT_LE(at_optimum, ExpectedLatency({1600, 1, 20}));
  EXPECT_LE(at_optimum, ExpectedLatency({1600, 1, 80}));
}

TEST(AirIndexTest, OptimalFrequencyScalesAsSqrt) {
  EXPECT_EQ(OptimalIndexFrequency(100, 1), 10U);
  EXPECT_EQ(OptimalIndexFrequency(100, 4), 5U);
  EXPECT_EQ(OptimalIndexFrequency(2, 100), 1U);  // Clamped to >= 1.
}

TEST(AirIndexTest, IndexingCostsLatencyVsNoIndex) {
  // The index makes the cycle longer, so pure latency is (slightly) worse
  // than unindexed — energy is what it buys.
  const AirIndexConfig config{1600, 1, 40};
  EXPECT_GT(ExpectedLatency(config), UnindexedLatency(1600));
}

TEST(AirIndexDeathTest, RejectsBadShapes) {
  EXPECT_DEATH(IndexedCycleLength({0, 1, 1}), "data slot");
  EXPECT_DEATH(IndexedCycleLength({10, 0, 1}), "index slot");
  EXPECT_DEATH(IndexedCycleLength({10, 1, 0}), "index segment");
  EXPECT_DEATH(IndexedCycleLength({10, 1, 11}), "more index segments");
}

}  // namespace
}  // namespace bdisk::broadcast
