// Figure 4: client cache warm-up time, IPP PullBW = 50%.
//   (a) ThinkTimeRatio = 25 (light load)   (b) ThinkTimeRatio = 250 (heavy).
// Curves: Push; Pull and IPP at SteadyStatePerc 0% and 95%.

#include <cstdio>

#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner(
      "Figure 4",
      "Time for a cold client cache to reach X% of its ideal contents.");

  for (const double ttr : {25.0, 250.0}) {
    std::vector<core::SweepPoint> points;
    points.push_back(
        bench::MakePoint("Push", ttr, DeliveryMode::kPurePush, ttr));
    for (const double ssp : {0.0, 0.95}) {
      const std::string suffix = ssp == 0.0 ? " ss0%" : " ss95%";
      points.push_back(bench::MakePoint("Pull" + suffix, ttr,
                                        DeliveryMode::kPurePull, ttr, 1.0,
                                        0.0, ssp));
      points.push_back(bench::MakePoint("IPP" + suffix, ttr,
                                        DeliveryMode::kIpp, ttr, 0.5, 0.0,
                                        ssp));
    }
    for (auto& point : points) point.warmup_run = true;

    const auto outcomes = core::RunSweep(points, {},
                                        bench::BenchWarmupProtocol());
    std::printf("Figure 4(%c): ThinkTimeRatio = %.0f\n",
                ttr == 25.0 ? 'a' : 'b', ttr);
    bench::PrintWarmupTable(outcomes);
    std::printf("\n");
  }
  std::printf(
      "Paper shape: at TTR=25 Pure-Pull warms fastest and Push slowest; at\n"
      "TTR=250 the order inverts — the saturated server drops requests, so\n"
      "the periodic broadcast fills caches faster than the backchannel.\n");
  return 0;
}
