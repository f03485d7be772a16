#ifndef BDISK_WORKLOAD_ACCESS_PATTERN_H_
#define BDISK_WORKLOAD_ACCESS_PATTERN_H_

#include <cstddef>
#include <vector>

#include "broadcast/page.h"
#include "sim/rng.h"

namespace bdisk::workload {

using broadcast::PageId;

/// A client's access probability distribution over the database.
///
/// The canonical pattern is Zipf(theta) with rank r mapped to page id r
/// (rank 0 = page 0 = hottest). The virtual client — and therefore the
/// server's broadcast program — always uses this canonical mapping; the
/// measured client's mapping may be perturbed by Noise (see noise.h) to
/// model disagreement with the aggregate pattern (§3.1).
class AccessPattern {
 public:
  /// Pattern with explicit per-page probabilities (must sum to ~1).
  explicit AccessPattern(std::vector<double> probs);

  /// Canonical Zipf pattern: page id == rank.
  static AccessPattern Zipf(std::size_t db_size, double theta);

  /// Number of pages.
  std::size_t DbSize() const { return probs_.size(); }

  /// Probability of accessing `page`.
  double Prob(PageId page) const { return probs_[page]; }

  /// Full probability vector, indexed by page id.
  const std::vector<double>& probs() const { return probs_; }

  /// Returns a copy of this pattern with its probability-to-page mapping
  /// perturbed by `noise` in [0,1] (see NoisePermutation). noise == 0
  /// returns an identical pattern.
  AccessPattern WithNoise(double noise, sim::Rng& rng) const;

 private:
  std::vector<double> probs_;
};

}  // namespace bdisk::workload

#endif  // BDISK_WORKLOAD_ACCESS_PATTERN_H_
