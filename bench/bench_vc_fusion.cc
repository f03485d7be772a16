// Virtual-client event fusion A/B: the same configuration run on the fused
// production path (the batched arrival spine, vc_fusion on) and on the
// unfused oracle, interleaved back to back per EXPERIMENTS.md wall-clock
// methodology, across the light/medium/heavy loads TTR {10, 50, 250}.
// Reports the heap-event reduction (exact, deterministic) and the
// wall-clock ratio (indicative on a contended box). The trajectory itself
// must not change: the bench aborts if the arms disagree on any response
// statistic.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "core/table_printer.h"
#include "harness.h"

namespace {

struct Sample {
  double wall_ms = 0.0;
  bdisk::core::RunResult result;
};

Sample RunOnce(bdisk::core::SystemConfig config, bool fused,
               const bdisk::core::SteadyStateProtocol& protocol) {
  config.vc_fusion = fused;
  bdisk::core::System system(config);
  const auto start = std::chrono::steady_clock::now();
  Sample sample;
  sample.result = system.RunSteadyState(protocol);
  sample.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return sample;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

bool SameTrajectory(const bdisk::core::RunResult& a,
                    const bdisk::core::RunResult& b) {
  return a.mean_response == b.mean_response &&
         a.response_stats.Count() == b.response_stats.Count() &&
         a.sim_time_end == b.sim_time_end;
}

}  // namespace

int main() {
  using namespace bdisk;

  bench::PrintBanner("VC fusion A/B",
                     "Heap events and wall-clock: fused vs unfused.");

  const core::SteadyStateProtocol protocol = bench::BenchSteadyProtocol();
  const int reps = bench::QuickMode() ? 3 : 5;

  core::TablePrinter table({"TTR", "heap ev fused", "heap ev unfused",
                            "event ratio", "arrivals fused", "wall fused ms",
                            "wall unfused ms", "speedup"});
  for (const double ttr : {10.0, 50.0, 250.0}) {
    core::SystemConfig config;  // Table 3 defaults.
    config.mode = core::DeliveryMode::kIpp;
    config.pull_bw = 0.5;
    config.think_time_ratio = ttr;

    std::vector<double> fused_ms;
    std::vector<double> unfused_ms;
    core::RunResult fused_result;
    core::RunResult unfused_result;
    for (int rep = 0; rep < reps; ++rep) {
      // Interleave the arms within each rep so both share the same
      // background load.
      Sample fused = RunOnce(config, true, protocol);
      Sample unfused = RunOnce(config, false, protocol);
      fused_ms.push_back(fused.wall_ms);
      unfused_ms.push_back(unfused.wall_ms);
      fused_result = fused.result;
      unfused_result = unfused.result;
    }

    if (!SameTrajectory(fused_result, unfused_result)) {
      std::fprintf(stderr,
                   "FUSION BROKE THE TRAJECTORY at TTR=%.0f: fused mean %.17g"
                   " vs unfused %.17g\n",
                   ttr, fused_result.mean_response,
                   unfused_result.mean_response);
      return 1;
    }

    const double fused_events =
        static_cast<double>(fused_result.kernel.events_executed);
    const double unfused_events =
        static_cast<double>(unfused_result.kernel.events_executed);
    table.AddRow(
        {core::TablePrinter::Fmt(ttr, 0),
         core::TablePrinter::Fmt(fused_events, 0),
         core::TablePrinter::Fmt(unfused_events, 0),
         core::TablePrinter::Fmt(unfused_events / fused_events, 2),
         core::TablePrinter::Fmt(
             static_cast<double>(fused_result.kernel.lazy_arrivals_fused), 0),
         core::TablePrinter::Fmt(Median(fused_ms), 1),
         core::TablePrinter::Fmt(Median(unfused_ms), 1),
         core::TablePrinter::Fmt(Median(unfused_ms) / Median(fused_ms), 2)});
  }
  std::printf("%s", table.ToString().c_str());
  std::printf(
      "\nEvent ratios are deterministic; wall-clock ratios drift with the\n"
      "box (EXPERIMENTS.md). The heavier the load (higher TTR), the larger\n"
      "the share of time spent in VC arrivals, so both the fusion event\n"
      "ratio and the speedup (unfused/fused) grow to the right.\n");
  return 0;
}
