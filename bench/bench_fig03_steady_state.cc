// Figure 3: steady-state client performance vs server load.
//   (a) Push flat; Pure-Pull and IPP (PullBW=50%) each at
//       SteadyStatePerc 0% and 95%.
//   (b) IPP PullBW in {10,30,50}% at SteadyStatePerc=95%, vs the pure
//       algorithms.

#include <cstdio>

#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner("Figure 3",
                     "Steady-state response time vs ThinkTimeRatio.");

  // ---------------------------------------------------------- Figure 3(a)
  std::vector<core::SweepPoint> points_a;
  for (const double ttr : bench::PaperTtrSweep()) {
    points_a.push_back(
        bench::MakePoint("Push", ttr, DeliveryMode::kPurePush, ttr));
    for (const double ssp : {0.0, 0.95}) {
      const std::string suffix =
          ssp == 0.0 ? " ss0%" : " ss95%";
      points_a.push_back(bench::MakePoint("Pull" + suffix, ttr,
                                          DeliveryMode::kPurePull, ttr, 1.0,
                                          0.0, ssp));
      points_a.push_back(bench::MakePoint("IPP" + suffix, ttr,
                                          DeliveryMode::kIpp, ttr, 0.5, 0.0,
                                          ssp));
    }
  }
  const auto outcomes_a =
      core::RunSweep(points_a, bench::BenchSteadyProtocol());
  std::printf("Figure 3(a): IPP PullBW=50%%, SteadyStatePerc varied\n");
  bench::PrintResponseTable("ThinkTimeRatio", outcomes_a);
  std::printf(
      "Paper shape: Push flat; pull-based curves start ~2 units, cross Push\n"
      "around TTR 50, and saturate high; 95%% steady-state curves sit below\n"
      "their 0%% counterparts; IPP levels off below Pure-Pull at the right.\n\n");

  // ---------------------------------------------------------- Figure 3(b)
  std::vector<core::SweepPoint> points_b;
  for (const double ttr : bench::PaperTtrSweep()) {
    points_b.push_back(
        bench::MakePoint("Push", ttr, DeliveryMode::kPurePush, ttr));
    points_b.push_back(bench::MakePoint("Pull", ttr, DeliveryMode::kPurePull,
                                        ttr, 1.0));
    for (const double bw : {0.1, 0.3, 0.5}) {
      char label[32];
      std::snprintf(label, sizeof(label), "IPP bw%.0f%%", bw * 100);
      points_b.push_back(
          bench::MakePoint(label, ttr, DeliveryMode::kIpp, ttr, bw));
    }
  }
  const auto outcomes_b =
      core::RunSweep(points_b, bench::BenchSteadyProtocol());
  std::printf("Figure 3(b): IPP PullBW varied, SteadyStatePerc=95%%\n");
  bench::PrintResponseTable("ThinkTimeRatio", outcomes_b);
  std::printf(
      "Paper shape: higher PullBW tracks Pure-Pull (good left, bad right);\n"
      "lower PullBW flattens toward Push; PullBW=10%% is worse than Push\n"
      "even at light load (it starves pulls while slowing the disk 10%%).\n");
  return 0;
}
