#include "core/csv.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace bdisk::core {
namespace {

SweepOutcome MakeOutcome(const std::string& curve, double x,
                         double response) {
  SweepOutcome outcome;
  outcome.point.curve = curve;
  outcome.point.x = x;
  outcome.result.mean_response = response;
  outcome.result.drop_rate = 0.25;
  outcome.result.mc_hit_rate = 0.5;
  outcome.result.converged = true;
  return outcome;
}

TEST(CsvTest, HeaderAndRows) {
  const std::string csv =
      SweepCsv({MakeOutcome("Push", 10, 158.2),
                  MakeOutcome("Pull", 10, 0.4)});
  EXPECT_NE(csv.find("curve,x,mean_response"), std::string::npos);
  EXPECT_NE(csv.find("Push,10,158.2"), std::string::npos);
  EXPECT_NE(csv.find("Pull,10,0.4"), std::string::npos);
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 3);
}

TEST(CsvTest, QuotesLabelsWithCommas) {
  const std::string csv = SweepCsv({MakeOutcome("IPP, bw=50%", 25, 7.0)});
  EXPECT_NE(csv.find("\"IPP, bw=50%\""), std::string::npos);
}

TEST(CsvTest, EmptySweepIsJustHeader) {
  const std::string csv = SweepCsv({});
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 1);
}

TEST(CsvTest, WarmupRowsSkipUnreachedFractions) {
  SweepOutcome outcome = MakeOutcome("Push", 25, 0.0);
  outcome.result.warmup = {{0.1, 100.0},
                           {0.5, 500.0},
                           {0.9, sim::kTimeNever}};
  const std::string csv = WarmupCsv({outcome});
  EXPECT_NE(csv.find("Push,25,0.1,100"), std::string::npos);
  EXPECT_NE(csv.find("Push,25,0.5,500"), std::string::npos);
  EXPECT_EQ(csv.find("0.9"), std::string::npos);
}

}  // namespace
}  // namespace bdisk::core
