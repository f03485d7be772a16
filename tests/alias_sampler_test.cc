#include "sim/alias_sampler.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace bdisk::sim {
namespace {

TEST(AliasSamplerTest, SingleOutcome) {
  AliasSampler sampler({5.0});
  Rng rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(rng), 0U);
  EXPECT_EQ(sampler.Probability(0), 1.0);
}

TEST(AliasSamplerTest, NormalizesWeights) {
  AliasSampler sampler({2.0, 6.0});
  EXPECT_NEAR(sampler.Probability(0), 0.25, 1e-12);
  EXPECT_NEAR(sampler.Probability(1), 0.75, 1e-12);
}

TEST(AliasSamplerTest, ZeroWeightNeverSampled) {
  AliasSampler sampler({1.0, 0.0, 1.0});
  Rng rng(2);
  for (int i = 0; i < 10000; ++i) EXPECT_NE(sampler.Sample(rng), 1U);
}

TEST(AliasSamplerTest, UniformFrequencies) {
  const std::size_t n = 8;
  AliasSampler sampler(std::vector<double>(n, 1.0));
  Rng rng(3);
  std::vector<int> counts(n, 0);
  const int draws = 160000;
  for (int i = 0; i < draws; ++i) ++counts[sampler.Sample(rng)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / draws, 1.0 / n, 0.01);
  }
}

TEST(AliasSamplerTest, SkewedFrequenciesMatchChiSquare) {
  const std::vector<double> weights = {10.0, 5.0, 2.5, 1.0, 0.5, 1.0};
  AliasSampler sampler(weights);
  Rng rng(4);
  std::vector<int> counts(weights.size(), 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++counts[sampler.Sample(rng)];

  // Pearson chi-square against the expected distribution; 5 dof, the 99.9th
  // percentile is ~20.5.
  double chi2 = 0.0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const double expected = sampler.Probability(i) * draws;
    const double diff = counts[i] - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 20.5);
}

TEST(AliasSamplerTest, LargeDistribution) {
  std::vector<double> weights(1000);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / static_cast<double>(i + 1);
  }
  AliasSampler sampler(weights);
  Rng rng(5);
  // Hottest item should dominate: p0 ~ 1/H_1000 ~ 0.1336.
  int zero = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (sampler.Sample(rng) == 0) ++zero;
  }
  EXPECT_NEAR(static_cast<double>(zero) / draws, sampler.Probability(0),
              0.005);
}

TEST(AliasSamplerDeathTest, RejectsAllZeroWeights) {
  EXPECT_DEATH(AliasSampler({0.0, 0.0}), "positive");
}

TEST(AliasSamplerDeathTest, RejectsNegativeWeights) {
  EXPECT_DEATH(AliasSampler({1.0, -0.5}), "non-negative");
}

TEST(AliasSamplerDeathTest, RejectsEmpty) {
  EXPECT_DEATH(AliasSampler({}), "at least one");
}

}  // namespace
}  // namespace bdisk::sim
