#include "workload/noise.h"

#include <numeric>
#include <utility>

#include "sim/check.h"

namespace bdisk::workload {

std::vector<std::uint32_t> NoisePermutation(std::size_t n, double noise,
                                            sim::Rng& rng) {
  BDISK_CHECK_MSG(noise >= 0.0 && noise <= 1.0, "noise must be in [0,1]");
  std::vector<std::uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0U);
  if (noise == 0.0 || n < 2) return perm;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.NextBernoulli(noise)) {
      const std::size_t j = static_cast<std::size_t>(rng.NextBounded(n));
      std::swap(perm[i], perm[j]);
    }
  }
  return perm;
}

}  // namespace bdisk::workload
