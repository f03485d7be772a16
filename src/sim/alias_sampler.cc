#include "sim/alias_sampler.h"

#include <cstdint>
#include <numeric>

#include "sim/check.h"

namespace bdisk::sim {

AliasSampler::AliasSampler(const std::vector<double>& weights) {
  const std::size_t n = weights.size();
  BDISK_CHECK_MSG(n > 0, "AliasSampler needs at least one outcome");
  BDISK_CHECK_MSG(n <= UINT32_MAX, "too many outcomes");

  double total = 0.0;
  for (const double w : weights) {
    BDISK_CHECK_MSG(w >= 0.0, "weights must be non-negative");
    total += w;
  }
  BDISK_CHECK_MSG(total > 0.0, "at least one weight must be positive");

  reject_below_ = (std::uint64_t{0} - n) % n;
  normalized_.resize(n);
  for (std::size_t i = 0; i < n; ++i) normalized_[i] = weights[i] / total;

  // Vose's algorithm: scale probabilities by n, partition into under-full
  // ("small") and over-full ("large") buckets, and pair them up.
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = normalized_[i] * static_cast<double>(n);
  }

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }

  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    large.pop_back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    (scaled[l] < 1.0 ? small : large).push_back(l);
  }
  // Residual buckets are full by construction (up to rounding).
  for (const std::uint32_t i : large) prob_[i] = 1.0;
  for (const std::uint32_t i : small) prob_[i] = 1.0;
}

}  // namespace bdisk::sim
