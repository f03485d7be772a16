// Quoted drop-rate observations from the paper's prose (§4.1.2, §4.2):
//
//  * PullBW=10%, TTR=10: "58% of the pull requests are dropped".
//  * TTR=50: IPP (PullBW=50%) drops "68.8%" vs Pure-Pull "39.9%".
//  * PullBW=30%, ThresPerc=25%, TTR=25: "the server drops 9.4%".
//
// This bench reproduces those observations as a table (shape, not exact
// values) plus a full drop-rate sweep for context.

#include <cstdio>

#include "core/table_printer.h"
#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner("Drop rates (§4.1.2 / §4.2 prose)",
                     "Server request-drop percentages at quoted settings.");

  std::vector<core::SweepPoint> quoted;
  quoted.push_back(
      bench::MakePoint("IPP bw10%", 10, DeliveryMode::kIpp, 10, 0.1));
  quoted.push_back(
      bench::MakePoint("IPP bw50%", 50, DeliveryMode::kIpp, 50, 0.5));
  quoted.push_back(
      bench::MakePoint("Pull", 50, DeliveryMode::kPurePull, 50, 1.0));
  quoted.push_back(bench::MakePoint("IPP bw30% t25%", 25,
                                    DeliveryMode::kIpp, 25, 0.3, 0.25));
  const auto outcomes = core::RunSweep(quoted, bench::BenchSteadyProtocol());

  core::TablePrinter table(
      {"setting", "TTR", "paper drop%", "measured drop%"});
  const char* expected[] = {"58.0", "68.8", "39.9", "9.4"};
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    table.AddRow({outcomes[i].point.curve,
                  core::TablePrinter::Fmt(outcomes[i].point.x, 0),
                  expected[i],
                  core::TablePrinter::Fmt(
                      outcomes[i].result.drop_rate * 100.0, 1)});
  }
  std::printf("%s\n", table.ToString().c_str());

  // Context: drop rate vs load for the three algorithms.
  std::vector<core::SweepPoint> sweep;
  for (const double ttr : bench::PaperTtrSweep()) {
    sweep.push_back(
        bench::MakePoint("Pull", ttr, DeliveryMode::kPurePull, ttr, 1.0));
    sweep.push_back(
        bench::MakePoint("IPP bw50%", ttr, DeliveryMode::kIpp, ttr, 0.5));
    sweep.push_back(bench::MakePoint("IPP bw50% t25%", ttr,
                                     DeliveryMode::kIpp, ttr, 0.5, 0.25));
  }
  const auto sweep_outcomes =
      core::RunSweep(sweep, bench::BenchSteadyProtocol());
  std::printf("Drop rate (%%) vs load:\n");
  bench::PrintDropRateTable("ThinkTimeRatio", sweep_outcomes);
  std::printf(
      "Paper shape: IPP saturates before Pure-Pull at equal load (less pull\n"
      "bandwidth for the same request stream); a threshold sharply cuts the\n"
      "drop rate by suppressing requests for soon-to-arrive pages.\n");
  return 0;
}
