#include "sim/alias_sampler.h"

#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "oracles.h"
#include "sim/rng.h"
#include "sim/zipf.h"

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

// Sample() through SampleFromWords: the words Sample() would draw from
// `words`, with a rejected bucket word replaced by the next one, as
// Rng::NextBounded does.
std::size_t SampleFromStream(const AliasSampler& sampler, Rng& words) {
  std::uint64_t bucket_word = words.Next();
  while (sampler.Rejects(bucket_word)) bucket_word = words.Next();
  return sampler.SampleFromWords(bucket_word, words.Next());
}

TEST(AliasSamplerTest, SampleFromWordsMatchesSample) {
  const std::vector<std::vector<double>> tables = {
      ZipfPmf(1000, 0.95),
      {5.0},
      {1.0, 0.0, 1.0},
      {10.0, 5.0, 2.5, 1.0, 0.5, 1.0},
      std::vector<double>(7, 1.0),
  };
  for (std::size_t t = 0; t < tables.size(); ++t) {
    const AliasSampler sampler(tables[t]);
    const int draws = t == 0 ? 1000000 : 200000;
    Rng oracle(100 + t);
    Rng words = oracle;
    for (int i = 0; i < draws; ++i) {
      const std::size_t want = sampler.Sample(oracle);
      ASSERT_EQ(SampleFromStream(sampler, words), want)
          << "table " << t << ", draw " << i;
    }
    // Both consumed the same words.
    EXPECT_EQ(words.Next(), oracle.Next()) << "table " << t;
  }
}

TEST(AliasSamplerTest, RejectedBucketWordsMatchSample) {
  // At size 1000 NextBounded rejects a word whose low product word
  // (word * 1000 mod 2^64) is below 2^64 mod 1000 = 616. Products are
  // multiples of 8, so 608 is the last rejected one and 616 the first kept.
  const AliasSampler sampler(ZipfPmf(1000, 0.95));
  constexpr std::uint64_t kLow608 = 0x03126e978d4fdf3cULL;
  constexpr std::uint64_t kLow616 = 0x1fbe76c8b4395811ULL;
  EXPECT_TRUE(sampler.Rejects(0));
  EXPECT_TRUE(sampler.Rejects(kLow608));
  EXPECT_FALSE(sampler.Rejects(kLow616));
  EXPECT_FALSE(sampler.Rejects(1));  // Low product 1000.
  // Crafted streams whose first (or second) word is the one above: the
  // reference is Sample() on the very same stream.
  for (const std::uint64_t word : {std::uint64_t{0}, kLow608, kLow616}) {
    for (std::uint64_t at = 0; at < 2; ++at) {
      Rng oracle = RngWithWordAt(7 + at, at, word);
      Rng words = oracle;
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(SampleFromStream(sampler, words), sampler.Sample(oracle))
            << std::hex << word << " at word " << at << ", draw " << i;
      }
      EXPECT_EQ(words.Next(), oracle.Next());
    }
  }
  // The crafted stream really carries the word where asked.
  Rng check = RngWithWordAt(9, 3, 0);
  for (int i = 0; i < 3; ++i) check.Next();
  EXPECT_EQ(check.Next(), 0U);
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
