#ifndef BDISK_WORKLOAD_ACCESS_GENERATOR_H_
#define BDISK_WORKLOAD_ACCESS_GENERATOR_H_

#include "sim/alias_sampler.h"
#include "sim/rng.h"
#include "workload/access_pattern.h"

namespace bdisk::workload {

/// Draws page requests from an AccessPattern in O(1) per draw (alias
/// method). Each client owns one generator and its own RNG stream.
class AccessGenerator {
 public:
  explicit AccessGenerator(const AccessPattern& pattern)
      : sampler_(pattern.probs()) {}

  /// Draws the next requested page.
  PageId Next(sim::Rng& rng) const {
    return static_cast<PageId>(sampler_.Sample(rng));
  }

  /// The sampler itself, for the virtual client's batch refill
  /// (sim::DrawArrivals).
  const sim::AliasSampler& sampler() const { return sampler_; }

 private:
  sim::AliasSampler sampler_;
};

}  // namespace bdisk::workload

#endif  // BDISK_WORKLOAD_ACCESS_GENERATOR_H_
