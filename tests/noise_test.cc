#include "workload/noise.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "oracles.h"

namespace bdisk::workload {
namespace {

bool IsPermutation(const std::vector<std::uint32_t>& perm) {
  std::vector<std::uint32_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] != i) return false;
  }
  return true;
}

TEST(NoiseTest, ZeroNoiseIsIdentity) {
  sim::Rng rng(1);
  const auto perm = NoisePermutation(100, 0.0, rng);
  EXPECT_EQ(PermutationDisplacement(perm), 0.0);
}

TEST(NoiseTest, AlwaysAValidPermutation) {
  for (const double noise : {0.0, 0.15, 0.35, 1.0}) {
    sim::Rng rng(static_cast<std::uint64_t>(noise * 100) + 7);
    const auto perm = NoisePermutation(200, noise, rng);
    EXPECT_TRUE(IsPermutation(perm)) << "noise=" << noise;
  }
}

TEST(NoiseTest, DisplacementGrowsWithNoise) {
  sim::Rng rng15(42);
  sim::Rng rng35(42);
  const auto perm15 = NoisePermutation(1000, 0.15, rng15);
  const auto perm35 = NoisePermutation(1000, 0.35, rng35);
  EXPECT_GT(PermutationDisplacement(perm35),
            PermutationDisplacement(perm15));
  EXPECT_GT(PermutationDisplacement(perm15), 0.05);
}

TEST(NoiseTest, DeterministicGivenRngState) {
  sim::Rng a(9);
  sim::Rng b(9);
  EXPECT_EQ(NoisePermutation(100, 0.5, a), NoisePermutation(100, 0.5, b));
}

TEST(NoiseTest, TinyDomains) {
  sim::Rng rng(3);
  EXPECT_EQ(NoisePermutation(0, 0.5, rng).size(), 0U);
  const auto one = NoisePermutation(1, 1.0, rng);
  ASSERT_EQ(one.size(), 1U);
  EXPECT_EQ(one[0], 0U);
}

TEST(NoiseTest, DisplacementHelper) {
  EXPECT_EQ(PermutationDisplacement({0, 1, 2, 3}), 0.0);
  EXPECT_EQ(PermutationDisplacement({1, 0, 2, 3}), 0.5);
  EXPECT_EQ(PermutationDisplacement({}), 0.0);
}

TEST(NoiseDeathTest, RejectsOutOfRangeNoise) {
  sim::Rng rng(5);
  EXPECT_DEATH(NoisePermutation(10, 1.5, rng), "noise");
  EXPECT_DEATH(NoisePermutation(10, -0.1, rng), "noise");
}

}  // namespace
}  // namespace bdisk::workload
