#ifndef BDISK_WORKLOAD_NOISE_H_
#define BDISK_WORKLOAD_NOISE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace bdisk::workload {

/// Builds the Noise permutation of §3.1 / [Acha95a]: a mapping from
/// canonical page ids to perturbed page ids.
///
/// For each position i in turn, with probability `noise` the entries at i
/// and at a uniformly random position are swapped. Noise = 0 yields the
/// identity (measured and virtual clients agree exactly); larger values
/// monotonically increase the expected disagreement between the measured
/// client's hot set and the broadcast program, which is the property the
/// paper's Experiment 1.4 varies. (The original implementation is described
/// only by citation; see DESIGN.md, Substitutions.)
std::vector<std::uint32_t> NoisePermutation(std::size_t n, double noise,
                                            sim::Rng& rng);

}  // namespace bdisk::workload

#endif  // BDISK_WORKLOAD_NOISE_H_
