// Extension bench (paper §6 future work): analytical parameter setting.
//
// "Beyond what was presented, we would like to develop tools to make the
//  parameter setting decisions for real dissemination-based information
//  systems easier. These tools could be analytic ..."
//
// Part 1 validates the closed-form predictor against the simulator across
// the load sweep for the three algorithms. Part 2 runs the advisor: it
// recommends (PullBW, ThresPerc) per load and for the whole load range,
// and we simulate its picks.

#include <cstdio>

#include "analysis/advisor.h"
#include "analysis/response_model.h"
#include "core/table_printer.h"
#include "harness.h"

int main() {
  using namespace bdisk;
  using core::DeliveryMode;

  bench::PrintBanner("Analytic predictor & advisor (extension)",
                     "Closed-form response model vs simulation; automated "
                     "knob selection.");

  // ---- Part 1: predictor vs simulator. ----
  struct Algo {
    const char* name;
    DeliveryMode mode;
    double bw;
    double thres;
  };
  const std::vector<Algo> algos = {
      {"Push", DeliveryMode::kPurePush, 0.0, 0.0},
      {"Pull", DeliveryMode::kPurePull, 1.0, 0.0},
      {"IPP bw50% t25%", DeliveryMode::kIpp, 0.5, 0.25},
  };

  std::vector<core::SweepPoint> points;
  for (const Algo& algo : algos) {
    for (const double ttr : bench::PaperTtrSweep()) {
      points.push_back(bench::MakePoint(algo.name, ttr, algo.mode, ttr,
                                        algo.bw, algo.thres));
    }
  }
  const auto outcomes = core::RunSweep(points, bench::BenchSteadyProtocol());

  core::TablePrinter table(
      {"algorithm", "TTR", "predicted", "simulated", "ratio"});
  for (const auto& outcome : outcomes) {
    const double predicted =
        analysis::PredictResponse(outcome.point.config).mean_response;
    const double simulated = outcome.result.mean_response;
    table.AddRow({outcome.point.curve,
                  core::TablePrinter::Fmt(outcome.point.x, 0),
                  core::TablePrinter::Fmt(predicted, 1),
                  core::TablePrinter::Fmt(simulated, 1),
                  core::TablePrinter::Fmt(
                      simulated > 0 ? predicted / simulated : 0.0, 2)});
  }
  std::printf("Predictor validation:\n%s\n", table.ToString().c_str());

  // ---- Part 2: advisor recommendations. ----
  core::TablePrinter rec_table({"load (TTR)", "rec PullBW", "rec ThresPerc",
                                "predicted", "simulated"});
  std::vector<core::SweepPoint> rec_points;
  std::vector<analysis::Recommendation> recs;
  for (const double ttr : bench::PaperTtrSweep()) {
    core::SystemConfig base;
    base.think_time_ratio = ttr;
    const analysis::Recommendation rec = analysis::Recommend(base);
    recs.push_back(rec);
    core::SweepPoint point = bench::MakePoint(
        "advised", ttr, DeliveryMode::kIpp, ttr, rec.pull_bw, rec.thres_perc);
    rec_points.push_back(point);
  }
  const auto rec_outcomes =
      core::RunSweep(rec_points, bench::BenchSteadyProtocol());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    rec_table.AddRow(
        {core::TablePrinter::Fmt(rec_points[i].x, 0),
         core::TablePrinter::Pct(recs[i].pull_bw, 0),
         core::TablePrinter::Pct(recs[i].thres_perc, 0),
         core::TablePrinter::Fmt(recs[i].predicted_response, 1),
         core::TablePrinter::Fmt(rec_outcomes[i].result.mean_response, 1)});
  }
  std::printf("Per-load recommendations:\n%s\n", rec_table.ToString().c_str());

  core::SystemConfig base;
  const analysis::Recommendation robust =
      analysis::RecommendRobust(base, bench::PaperTtrSweep());
  std::printf("Robust pick across the whole sweep: PullBW=%.0f%%, "
              "ThresPerc=%.0f%% (predicted worst case %.1f)\n",
              robust.pull_bw * 100, robust.thres_perc * 100,
              robust.predicted_response);
  std::printf(
      "\nExpected: predictions within a small factor of simulation with the\n"
      "same orderings/crossovers; recommendations move from aggressive\n"
      "pull (left) to conservative threshold-heavy settings (right).\n");
  return 0;
}
