#include "analysis/publication_split.h"

#include <algorithm>
#include <numeric>

#include "sim/check.h"

namespace bdisk::analysis {

namespace {

// Probability mass of the coldest pages, cumulative from the tail:
// tail_mass[n] = mass NOT covered by publishing the n hottest pages.
std::vector<double> TailMass(const std::vector<double>& probs) {
  std::vector<double> sorted = probs;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  std::vector<double> tail(sorted.size() + 1, 0.0);
  for (std::size_t n = sorted.size(); n-- > 0;) {
    tail[n] = tail[n + 1] + sorted[n];
  }
  return tail;
}

SplitEvaluation Evaluate(const std::vector<double>& tail_mass,
                         double request_rate, std::uint32_t n) {
  SplitEvaluation eval;
  eval.publication_size = n;
  eval.on_demand_mass = tail_mass[n];
  eval.uplink_rate = request_rate * eval.on_demand_mass;
  eval.stable = eval.uplink_rate < 1.0;
  if (!eval.stable) {
    eval.expected_response = 0.0;  // Meaningless: the queue diverges.
    return eval;
  }
  const double lambda = eval.uplink_rate;
  const double slowdown = 1.0 / (1.0 - lambda);
  // Published pages: flat cycle of n pages, slowed by pull traffic.
  const double published_mass = 1.0 - eval.on_demand_mass;
  const double published_response =
      n == 0 ? 0.0
             : (static_cast<double>(n) / 2.0) * slowdown + 1.0;
  // On-demand pages: M/M/1 system time with mu = 1, plus the transmission
  // alignment slot (matching response_model.cc's convention).
  const double on_demand_response =
      eval.on_demand_mass == 0.0 ? 0.0 : 1.0 / (1.0 - lambda) + 1.0;
  eval.expected_response = published_mass * published_response +
                           eval.on_demand_mass * on_demand_response;
  return eval;
}

}  // namespace

SplitResult OptimizePublicationSplit(const std::vector<double>& probs,
                                     double request_rate,
                                     double response_bound) {
  BDISK_CHECK_MSG(!probs.empty(), "empty database");
  BDISK_CHECK_MSG(request_rate >= 0.0, "negative request rate");
  BDISK_CHECK_MSG(response_bound > 0.0, "response bound must be positive");

  const std::vector<double> tail_mass = TailMass(probs);
  SplitResult result;
  result.all.reserve(probs.size() + 1);
  for (std::uint32_t n = 0; n <= probs.size(); ++n) {
    const SplitEvaluation eval = Evaluate(tail_mass, request_rate, n);
    result.all.push_back(eval);
    if (!eval.stable || eval.expected_response > response_bound) continue;
    if (!result.feasible || eval.uplink_rate < result.best.uplink_rate ||
        (eval.uplink_rate == result.best.uplink_rate &&
         eval.expected_response < result.best.expected_response)) {
      result.best = eval;
      result.feasible = true;
    }
  }
  return result;
}

}  // namespace bdisk::analysis
