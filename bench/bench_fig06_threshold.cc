// Figure 6: influence of the client-side threshold on IPP response time.
//   (a) PullBW = 50%   (b) PullBW = 30%
// ThresPerc in {0,10,25,35}%, with Pure-Push and Pure-Pull for reference.
// Uses the paper's extended TTR sweep {10,25,35,50,75,100,250}.

#include <cstdio>

#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner("Figure 6",
                     "Threshold (ThresPerc) vs response time for IPP.");

  const std::vector<double> ttrs = {10, 25, 35, 50, 75, 100, 250};
  const std::vector<double> thresholds = {0.0, 0.10, 0.25, 0.35};

  for (const double bw : {0.5, 0.3}) {
    std::vector<core::SweepPoint> points;
    for (const double ttr : ttrs) {
      points.push_back(
          bench::MakePoint("Push", ttr, DeliveryMode::kPurePush, ttr));
      points.push_back(
          bench::MakePoint("Pull", ttr, DeliveryMode::kPurePull, ttr, 1.0));
      for (const double thres : thresholds) {
        char label[32];
        std::snprintf(label, sizeof(label), "IPP t%.0f%%", thres * 100);
        points.push_back(
            bench::MakePoint(label, ttr, DeliveryMode::kIpp, ttr, bw, thres));
      }
    }
    const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());
    std::printf("Figure 6(%c): PullBW = %.0f%%\n", bw == 0.5 ? 'a' : 'b',
                bw * 100);
    bench::PrintResponseTable("ThinkTimeRatio", outcomes);
    std::printf("\n");
  }
  std::printf(
      "Paper shape: at light load thresholds only delay clients; as load\n"
      "grows they push the Pure-Push crossover to the right (~2x more\n"
      "clients at PullBW=50%% with t25%%, ~3x at PullBW=30%% with t35%%).\n"
      "Too large a threshold (35%% at PullBW=50%%) wastes waiting time\n"
      "before the server is actually saturated.\n");
  return 0;
}
