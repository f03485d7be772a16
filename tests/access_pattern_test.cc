#include "workload/access_pattern.h"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "oracles.h"
#include "workload/access_generator.h"

namespace bdisk::workload {
namespace {

TEST(AccessPatternTest, ZipfIdentityMapping) {
  const AccessPattern pattern = AccessPattern::Zipf(100, 0.95);
  EXPECT_EQ(pattern.DbSize(), 100U);
  // Page id == rank: probabilities strictly decrease with page id.
  for (PageId p = 1; p < 100; ++p) {
    EXPECT_LT(pattern.Prob(p), pattern.Prob(p - 1));
  }
}

TEST(AccessPatternTest, ExplicitProbabilities) {
  const AccessPattern pattern({0.25, 0.75});
  EXPECT_EQ(pattern.Prob(1), 0.75);
}

TEST(AccessPatternTest, RankedPagesSortedByProbability) {
  const AccessPattern pattern({0.2, 0.5, 0.3});
  EXPECT_EQ(RankedPages(pattern), (std::vector<PageId>{1, 2, 0}));
}

TEST(AccessPatternTest, NoiseZeroIsIdentity) {
  const AccessPattern base = AccessPattern::Zipf(50, 0.95);
  sim::Rng rng(1);
  const AccessPattern same = base.WithNoise(0.0, rng);
  for (PageId p = 0; p < 50; ++p) EXPECT_EQ(same.Prob(p), base.Prob(p));
}

TEST(AccessPatternTest, NoisePreservesTheDistributionMultiset) {
  const AccessPattern base = AccessPattern::Zipf(50, 0.95);
  sim::Rng rng(2);
  const AccessPattern noisy = base.WithNoise(0.35, rng);
  // Same probabilities, different assignment: totals match.
  const double total = std::accumulate(noisy.probs().begin(),
                                       noisy.probs().end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  std::vector<double> a = base.probs();
  std::vector<double> b = noisy.probs();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST(AccessPatternTest, NoisePerturbsTheMapping) {
  const AccessPattern base = AccessPattern::Zipf(100, 0.95);
  sim::Rng rng(3);
  const AccessPattern noisy = base.WithNoise(0.35, rng);
  int moved = 0;
  for (PageId p = 0; p < 100; ++p) {
    if (noisy.Prob(p) != base.Prob(p)) ++moved;
  }
  EXPECT_GT(moved, 10);  // 35% noise must move a substantial fraction.
}

TEST(AccessGeneratorTest, DrawsFollowThePattern) {
  const AccessPattern pattern({0.8, 0.1, 0.1});
  AccessGenerator generator(pattern);
  sim::Rng rng(4);
  int zero = 0;
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) {
    if (generator.Next(rng) == 0) ++zero;
  }
  EXPECT_NEAR(static_cast<double>(zero) / draws, 0.8, 0.01);
}

TEST(AccessPatternDeathTest, RejectsUnnormalized) {
  EXPECT_DEATH(AccessPattern({0.5, 0.1}), "sum to 1");
}

TEST(AccessPatternDeathTest, RejectsNegative) {
  EXPECT_DEATH(AccessPattern({1.5, -0.5}), "non-negative");
}

}  // namespace
}  // namespace bdisk::workload
