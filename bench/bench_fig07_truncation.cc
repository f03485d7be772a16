// Figure 7: restricting the push schedule's contents at light load
// (ThinkTimeRatio = 25). Pages are chopped from the slowest disk first,
// then the middle disk; chopped pages are pull-only.
//   (a) ThresPerc = 0%   (b) ThresPerc = 35%
// Curves: IPP at PullBW {10,30,50}%, with the pure algorithms flat.

#include <cstdio>

#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner(
      "Figure 7",
      "Truncating the push schedule, ThinkTimeRatio = 25.");

  const std::vector<std::uint32_t> chops = {0, 100, 200, 300, 400,
                                            500, 600, 700};
  const double kTtr = 25.0;

  for (const double thres : {0.0, 0.35}) {
    std::vector<core::SweepPoint> points;
    for (const std::uint32_t chop : chops) {
      // The pure algorithms do not depend on the chop (Pull has no push
      // schedule; Push is only run unchopped) — plot them flat.
      points.push_back(bench::MakePoint("Push", chop,
                                        DeliveryMode::kPurePush, kTtr));
      points.push_back(bench::MakePoint("Pull", chop,
                                        DeliveryMode::kPurePull, kTtr, 1.0));
      for (const double bw : {0.1, 0.3, 0.5}) {
        char label[32];
        std::snprintf(label, sizeof(label), "IPP bw%.0f%%", bw * 100);
        points.push_back(bench::MakePoint(label, chop, DeliveryMode::kIpp,
                                          kTtr, bw, thres, 0.95, 0.0, chop));
      }
    }
    const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());
    std::printf("Figure 7(%c): ThresPerc = %.0f%%\n",
                thres == 0.0 ? 'a' : 'b', thres * 100);
    bench::PrintResponseTable("Non-broadcast pages", outcomes);
    std::printf("\n");
  }
  std::printf(
      "Paper shape: dropping pages needs matching pull bandwidth. At\n"
      "PullBW=10%% response explodes as pages leave the schedule (no safety\n"
      "net + dropped requests). With a 35%% threshold and PullBW=50%%,\n"
      "truncation *improves* response (paper: 155 -> 63 units) until the\n"
      "pull channel can no longer carry the extra misses.\n");
  return 0;
}
