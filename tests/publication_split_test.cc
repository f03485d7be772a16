#include "analysis/publication_split.h"

#include <gtest/gtest.h>

#include "sim/zipf.h"

namespace bdisk::analysis {
namespace {

// The evaluation of publishing the `n` hottest pages, as the optimizer
// reports it; the response bound picks the best split but leaves `all`
// as it is.
SplitEvaluation EvaluationAt(const std::vector<double>& probs,
                             double request_rate, std::uint32_t n) {
  return OptimizePublicationSplit(probs, request_rate, /*response_bound=*/1.0)
      .all.at(n);
}

TEST(PublicationSplitTest, PublishNothingIsPurePull) {
  const auto probs = sim::ZipfPmf(100, 0.95);
  const SplitEvaluation eval = EvaluationAt(probs, 0.5, 0);
  EXPECT_DOUBLE_EQ(eval.on_demand_mass, 1.0);
  EXPECT_DOUBLE_EQ(eval.uplink_rate, 0.5);
  EXPECT_TRUE(eval.stable);
  // M/M/1 with lambda=0.5, mu=1: W=2, +1 alignment.
  EXPECT_DOUBLE_EQ(eval.expected_response, 3.0);
}

TEST(PublicationSplitTest, PublishEverythingIsPurePush) {
  const auto probs = sim::ZipfPmf(100, 0.95);
  const SplitEvaluation eval = EvaluationAt(probs, 0.5, 100);
  EXPECT_DOUBLE_EQ(eval.on_demand_mass, 0.0);
  EXPECT_DOUBLE_EQ(eval.uplink_rate, 0.0);
  // Flat 100-page cycle: 100/2 + 1.
  EXPECT_DOUBLE_EQ(eval.expected_response, 51.0);
}

TEST(PublicationSplitTest, UplinkRateDecreasesWithPublicationSize) {
  const auto probs = sim::ZipfPmf(100, 0.95);
  double prev = 2.0;
  for (const std::uint32_t n : {0U, 10U, 50U, 90U, 100U}) {
    const SplitEvaluation eval = EvaluationAt(probs, 1.5, n);
    EXPECT_LT(eval.uplink_rate, prev) << n;
    prev = eval.uplink_rate;
  }
}

TEST(PublicationSplitTest, InstabilityDetected) {
  const auto probs = sim::ZipfPmf(100, 0.95);
  // Request rate 2/slot with nothing published: lambda = 2 > 1.
  const SplitEvaluation eval = EvaluationAt(probs, 2.0, 0);
  EXPECT_FALSE(eval.stable);
}

TEST(PublicationSplitTest, OptimizerMinimizesUplinkSubjectToBound) {
  const auto probs = sim::ZipfPmf(100, 0.95);
  const SplitResult result = OptimizePublicationSplit(probs, 1.5, 40.0);
  ASSERT_TRUE(result.feasible);
  EXPECT_TRUE(result.best.stable);
  EXPECT_LE(result.best.expected_response, 40.0);
  // Minimizing uplink under the bound publishes as much as the bound
  // allows; every larger stable split must violate the bound.
  for (const SplitEvaluation& eval : result.all) {
    if (eval.publication_size > result.best.publication_size &&
        eval.stable) {
      EXPECT_GT(eval.expected_response, 40.0) << eval.publication_size;
    }
  }
}

TEST(PublicationSplitTest, TighterBoundForcesMoreUplink) {
  const auto probs = sim::ZipfPmf(100, 0.95);
  const SplitResult loose = OptimizePublicationSplit(probs, 1.5, 40.0);
  const SplitResult tight = OptimizePublicationSplit(probs, 1.5, 15.0);
  ASSERT_TRUE(loose.feasible);
  ASSERT_TRUE(tight.feasible);
  EXPECT_GE(tight.best.uplink_rate, loose.best.uplink_rate);
  EXPECT_LE(tight.best.publication_size, loose.best.publication_size);
}

TEST(PublicationSplitTest, InfeasibleWhenBoundTooTightUnderLoad) {
  const auto probs = sim::ZipfPmf(1000, 0.95);
  // Huge load: publishing little diverges, publishing much blows the
  // bound; a 2-unit bound is unattainable.
  const SplitResult result = OptimizePublicationSplit(probs, 5.0, 2.0);
  EXPECT_FALSE(result.feasible);
  EXPECT_EQ(result.all.size(), 1001U);
}

TEST(PublicationSplitTest, EvaluationsSweepWholeRange) {
  const auto probs = sim::ZipfPmf(10, 0.95);
  const SplitResult result = OptimizePublicationSplit(probs, 0.1, 100.0);
  ASSERT_EQ(result.all.size(), 11U);
  for (std::uint32_t n = 0; n <= 10; ++n) {
    EXPECT_EQ(result.all[n].publication_size, n);
  }
}

TEST(PublicationSplitDeathTest, RejectsBadInputs) {
  const auto probs = sim::ZipfPmf(10, 0.95);
  EXPECT_DEATH(OptimizePublicationSplit({}, 1.0, 1.0), "empty");
  EXPECT_DEATH(OptimizePublicationSplit(probs, -1.0, 1.0), "negative");
  EXPECT_DEATH(OptimizePublicationSplit(probs, 1.0, 0.0), "positive");
}

}  // namespace
}  // namespace bdisk::analysis
