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
/// Construction is O(n); each Sample() costs one RNG draw, one table lookup
/// and one comparison. Used for the Zipf page-access distributions, which
/// are sampled tens of millions of times per experiment.
class AliasSampler {
 public:
  /// Builds a sampler over `weights` (all >= 0, at least one > 0). The
  /// weights need not be normalized.
  explicit AliasSampler(const std::vector<double>& weights);

  /// Number of outcomes.
  std::size_t size() const { return prob_.size(); }

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight. Inline: the per-arrival page draw sits in the virtual
  /// client's fused drain loop, where the call overhead would rival the
  /// draw itself.
  std::size_t Sample(Rng& rng) const {
    const std::size_t bucket = rng.NextBounded(prob_.size());
    return rng.NextDouble() < prob_[bucket] ? bucket : alias_[bucket];
  }

  /// Sample() on raw generator words, for callers that draw a block of
  /// words first: `bucket_word` is the word Rng::NextBounded(size())
  /// keeps and `accept_word` the one Rng::NextDouble() then draws. The
  /// alias is loaded whether or not it wins and picked by a mask, so the
  /// result costs no data-dependent branch (at Zipf(1000, 0.95) the alias
  /// wins 62% of draws, which a branch mispredicts). `bucket_word` must
  /// be one NextBounded keeps: see Rejects().
  std::size_t SampleFromWords(std::uint64_t bucket_word,
                              std::uint64_t accept_word) const {
    const auto bucket = static_cast<std::size_t>(
        (static_cast<__uint128_t>(bucket_word) * prob_.size()) >> 64);
    const std::size_t alias = alias_[bucket];
    const bool accept = Rng::UnitDouble(accept_word) < prob_[bucket];
    const std::size_t keep = std::size_t{0} - std::size_t{accept};
    return (bucket & keep) | (alias & ~keep);
  }

  /// Whether Rng::NextBounded(size()) rejects `bucket_word` and draws the
  /// next word instead (Lemire: the low product word falls below
  /// 2^64 mod size(); 616 words in 2^64 at size 1000).
  bool Rejects(std::uint64_t bucket_word) const {
    return static_cast<std::uint64_t>(static_cast<__uint128_t>(bucket_word) *
                                      prob_.size()) < reject_below_;
  }

  /// The normalized probability of outcome `i` (for tests/diagnostics).
  double Probability(std::size_t i) const { return normalized_[i]; }

 private:
  std::vector<double> prob_;         // Acceptance threshold per bucket.
  std::vector<std::uint32_t> alias_;  // Fallback outcome per bucket.
  std::vector<double> normalized_;   // Original distribution, normalized.
  std::uint64_t reject_below_ = 0;   // 2^64 mod size(): see Rejects().
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_ALIAS_SAMPLER_H_
