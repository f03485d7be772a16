#include "analytic.h"

#include <gtest/gtest.h>

namespace bdisk::core {
namespace {

using broadcast::BroadcastProgram;

TEST(AnalyticTest, FlatDiskExpectation) {
  // Flat 4-page disk, uniform access: expected wait = 4/2 + 1 = 3.
  const BroadcastProgram program({0, 1, 2, 3}, 4);
  const std::vector<double> uniform(4, 0.25);
  EXPECT_DOUBLE_EQ(ExpectedPushResponse(program, uniform), 3.0);
}

TEST(AnalyticTest, FrequencyWeighting) {
  // Page 0 twice per 4-slot cycle (wait 2), pages 1,2 once (wait 3).
  const BroadcastProgram program({0, 1, 0, 2}, 3);
  EXPECT_DOUBLE_EQ(ExpectedPushResponse(program, {1.0, 0.0, 0.0}), 2.0);
  EXPECT_DOUBLE_EQ(ExpectedPushResponse(program, {0.0, 1.0, 0.0}), 3.0);
  EXPECT_DOUBLE_EQ(ExpectedPushResponse(program, {0.5, 0.25, 0.25}),
                   0.5 * 2.0 + 0.5 * 3.0);
}

TEST(AnalyticTest, SteadyStateSkipsResidentPages) {
  const BroadcastProgram program({0, 1, 0, 2}, 3);
  const std::vector<double> probs = {0.5, 0.25, 0.25};
  const std::vector<bool> resident = {true, false, false};
  EXPECT_DOUBLE_EQ(ExpectedSteadyPushResponse(program, probs, resident),
                   0.5 * 3.0);
  const std::vector<bool> none(3, false);
  EXPECT_DOUBLE_EQ(ExpectedSteadyPushResponse(program, probs, none),
                   ExpectedPushResponse(program, probs));
}

TEST(AnalyticTest, ZeroProbabilityUnscheduledPageIsFine) {
  const BroadcastProgram program({0, 1}, 3);  // Page 2 unscheduled.
  EXPECT_DOUBLE_EQ(ExpectedPushResponse(program, {0.5, 0.5, 0.0}),
                   0.5 * 2.0 + 0.5 * 2.0);
}

TEST(AnalyticDeathTest, RejectsUnscheduledPageWithProbability) {
  const BroadcastProgram program({0, 1}, 3);
  EXPECT_DEATH(ExpectedPushResponse(program, {0.5, 0.25, 0.25}),
               "not scheduled");
}

TEST(AnalyticDeathTest, RejectsSizeMismatch) {
  const BroadcastProgram program({0, 1}, 2);
  EXPECT_DEATH(ExpectedPushResponse(program, {1.0}), "cover");
}

}  // namespace
}  // namespace bdisk::core
