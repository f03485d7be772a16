// Extension bench: volatile data ([Acha96b], lifting §1.4 assumption 3).
//
// The paper assumed read-only data, citing its companion result that "for
// moderate update rates, it is possible to approach the performance of the
// read-only case". This bench re-checks that claim in the push/pull
// setting: response time vs server update rate for each algorithm, at a
// moderate load.

#include <cstdio>

#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner("Volatile data (extension)",
                     "Response time vs update rate (updates per broadcast "
                     "unit), ThinkTimeRatio = 50.");

  const std::vector<double> rates = {0.0, 0.005, 0.01, 0.02, 0.05, 0.1};
  const double kTtr = 50.0;

  std::vector<core::SweepPoint> points;
  for (const double rate : rates) {
    core::SweepPoint push =
        bench::MakePoint("Push", rate * 1000, DeliveryMode::kPurePush, kTtr);
    push.config.update_rate = rate;
    points.push_back(push);

    core::SweepPoint pull = bench::MakePoint(
        "Pull", rate * 1000, DeliveryMode::kPurePull, kTtr, 1.0);
    pull.config.update_rate = rate;
    points.push_back(pull);

    core::SweepPoint ipp = bench::MakePoint(
        "IPP bw50% t25%", rate * 1000, DeliveryMode::kIpp, kTtr, 0.5, 0.25);
    ipp.config.update_rate = rate;
    points.push_back(ipp);
  }
  const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());
  bench::PrintResponseTable("updates per 1000 units", outcomes);
  std::printf(
      "Expected: graceful degradation — low update rates stay near the\n"
      "read-only column; updates cost more under load because every\n"
      "invalidated hot page turns into new backchannel traffic.\n");
  return 0;
}
