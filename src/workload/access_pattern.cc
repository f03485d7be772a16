#include "workload/access_pattern.h"

#include <cmath>
#include <utility>

#include "sim/check.h"
#include "sim/zipf.h"
#include "workload/noise.h"

namespace bdisk::workload {

AccessPattern::AccessPattern(std::vector<double> probs)
    : probs_(std::move(probs)) {
  BDISK_CHECK_MSG(!probs_.empty(), "pattern needs at least one page");
  double total = 0.0;
  for (const double p : probs_) {
    BDISK_CHECK_MSG(p >= 0.0, "probabilities must be non-negative");
    total += p;
  }
  BDISK_CHECK_MSG(std::fabs(total - 1.0) < 1e-6,
                  "probabilities must sum to 1");
}

AccessPattern AccessPattern::Zipf(std::size_t db_size, double theta) {
  return AccessPattern(sim::ZipfPmf(db_size, theta));
}

AccessPattern AccessPattern::WithNoise(double noise, sim::Rng& rng) const {
  const std::vector<std::uint32_t> perm =
      NoisePermutation(probs_.size(), noise, rng);
  std::vector<double> perturbed(probs_.size());
  for (std::size_t i = 0; i < probs_.size(); ++i) {
    // The probability mass that canonically belongs to page i lands on
    // page perm[i].
    perturbed[perm[i]] = probs_[i];
  }
  return AccessPattern(std::move(perturbed));
}

}  // namespace bdisk::workload
