// Extension bench: opportunistic PT prefetching ([Acha96a], cited in §5:
// "opportunistic prefetching by the client can significantly improve
// performance over demand-driven caching").
//
// Two views: (1) steady-state response with and without prefetching across
// load; (2) warm-up time — prefetching clients grab pages as they stream
// past instead of faulting on them.

#include <cstdio>

#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner("PT prefetching (extension)",
                     "Demand-driven vs prefetching measured client.");

  // ---- Steady state across load. ----
  std::vector<core::SweepPoint> points;
  for (const double ttr : bench::PaperTtrSweep()) {
    points.push_back(
        bench::MakePoint("Push demand", ttr, DeliveryMode::kPurePush, ttr));
    core::SweepPoint push_pt =
        bench::MakePoint("Push PT", ttr, DeliveryMode::kPurePush, ttr);
    push_pt.config.mc_prefetch = true;
    points.push_back(push_pt);

    points.push_back(bench::MakePoint("IPP demand", ttr, DeliveryMode::kIpp,
                                      ttr, 0.5, 0.25));
    core::SweepPoint ipp_pt = bench::MakePoint(
        "IPP PT", ttr, DeliveryMode::kIpp, ttr, 0.5, 0.25);
    ipp_pt.config.mc_prefetch = true;
    points.push_back(ipp_pt);
  }
  const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());
  std::printf("Steady-state response:\n");
  bench::PrintResponseTable("ThinkTimeRatio", outcomes);

  // ---- Warm-up. ----
  std::vector<core::SweepPoint> warm_points;
  for (const bool prefetch : {false, true}) {
    core::SweepPoint point = bench::MakePoint(
        prefetch ? "Push PT" : "Push demand", 25, DeliveryMode::kPurePush,
        25);
    point.config.mc_prefetch = prefetch;
    point.warmup_run = true;
    warm_points.push_back(point);
  }
  const auto warm_outcomes =
      core::RunSweep(warm_points, {}, bench::BenchWarmupProtocol());
  std::printf("Warm-up time (Pure-Push):\n");
  bench::PrintWarmupTable(warm_outcomes);
  std::printf(
      "Expected: prefetching slashes warm-up time (orders of magnitude) and\n"
      "modestly improves steady-state response by keeping the cache at the\n"
      "p*t optimum instead of the demand-faulted approximation.\n");
  return 0;
}
