#ifndef BDISK_SIM_ALIAS_SAMPLER_H_
#define BDISK_SIM_ALIAS_SAMPLER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace bdisk::sim {

/// O(1) sampling from an arbitrary discrete distribution using Walker's
/// alias method (Vose's linear-time construction).
///
/// Construction is O(n); each Sample() costs two RNG words (a bucket and
/// its acceptance uniform), one table lookup and one comparison. Used for
/// the Zipf page-access distributions, which are sampled tens of millions
/// of times per experiment.
class AliasSampler {
 public:
  /// Builds a sampler over `weights` (all >= 0, at least one > 0). The
  /// weights need not be normalized.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Number of outcomes.
  std::size_t size() const { return prob_.size(); }

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight. Inline: the unfused virtual client and sim::DrawArrivals'
  /// one-at-a-time refill call it per arrival, where the call overhead
  /// would rival the draw itself.
  std::size_t Sample(Rng& rng) const {
    const std::size_t bucket = rng.NextBounded(prob_.size());
    return rng.NextDouble() < prob_[bucket] ? bucket : alias_[bucket];
  }

  /// The normalized probability of outcome `i` (for tests/diagnostics).
  double Probability(std::size_t i) const { return normalized_[i]; }

  /// The tables Sample() reads, size() entries each, for kernels that
  /// gather them (sim/arrival_lanes.h): the acceptance threshold and the
  /// alias outcome per bucket.
  const double* prob_data() const { return prob_.data(); }
  const std::uint32_t* alias_data() const { return alias_.data(); }

 private:
  std::vector<double> prob_;         // Acceptance threshold per bucket.
  std::vector<std::uint32_t> alias_;  // Fallback outcome per bucket.
  std::vector<double> normalized_;   // Original distribution, normalized.
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_ALIAS_SAMPLER_H_
