// Extension bench (paper §6 future work): dynamic adaptation.
//
// "We also see the utility in developing more dynamic algorithms that can
//  adjust to changes in the system load. For example, as the contention on
//  the server increases, a dynamic algorithm might automatically reduce
//  the pull bandwidth at the server and also use a larger threshold at the
//  client."
//
// We compare static IPP corner points against IPP with both controllers
// enabled, across the full load sweep. The adaptive system should track
// the better static corner in each regime without knowing the load.

#include <cstdio>

#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner("Adaptive IPP (extension)",
                     "Static corner points vs dynamic PullBW + threshold "
                     "controllers.");

  std::vector<core::SweepPoint> points;
  for (const double ttr : bench::PaperTtrSweep()) {
    points.push_back(
        bench::MakePoint("Push", ttr, DeliveryMode::kPurePush, ttr));
    points.push_back(
        bench::MakePoint("Pull", ttr, DeliveryMode::kPurePull, ttr, 1.0));
    // Static corners: aggressive (light-load-optimal) and conservative
    // (heavy-load-optimal).
    points.push_back(bench::MakePoint("IPP bw50% t0%", ttr,
                                      DeliveryMode::kIpp, ttr, 0.5, 0.0));
    points.push_back(bench::MakePoint("IPP bw30% t35%", ttr,
                                      DeliveryMode::kIpp, ttr, 0.3, 0.35));
    // Adaptive: starts at bw50%/t0% and tunes itself.
    core::SweepPoint adaptive = bench::MakePoint(
        "IPP adaptive", ttr, DeliveryMode::kIpp, ttr, 0.5, 0.0);
    adaptive.config.adaptive_pull_bw = true;
    adaptive.config.adaptive_threshold = true;
    points.push_back(adaptive);
  }
  const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());
  bench::PrintResponseTable("ThinkTimeRatio", outcomes);
  std::printf(
      "Expected: the adaptive column matches the aggressive corner at light\n"
      "load and beats both corners' *bad* regimes (no 70-80-unit penalty on\n"
      "the left, no 200+ saturation on the right). Mid-range it settles\n"
      "conservative — the price of steering by purely local signals.\n");
  return 0;
}
