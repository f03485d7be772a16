#ifndef BDISK_SIM_ARRIVAL_LANES_H_
#define BDISK_SIM_ARRIVAL_LANES_H_

#include <cstdint>

#include "sim/alias_sampler.h"
#include "sim/rng.h"

namespace bdisk::sim {

/// A refill of the virtual client's arrivals: four lanes of 64, lane j
/// holding arrivals 64j to 64j + 63.
inline constexpr std::uint32_t kLaneArrivals = 64;
inline constexpr std::uint32_t kArrivalLanes = 4;
inline constexpr std::uint32_t kRefillArrivals = kArrivalLanes * kLaneArrivals;

/// Where a refill's arrivals go, each array in arrival order.
struct ArrivalDraws {
  std::uint32_t* page;    // kRefillArrivals sampled outcomes.
  std::uint64_t* steady;  // kArrivalLanes coin masks: bit i of word j is
                          // arrival 64j + i's steady coin.
  double* neg_u;          // kRefillArrivals think uniforms u, as -u.
};

/// Draws the next kRefillArrivals arrivals of `rng`'s stream as the
/// one-at-a-time path draws them: per arrival `sampler.Sample(rng)`, the
/// coin `rng.NextBernoulli(steady_perc)` (steady_perc in [0, 1]; it draws
/// a word only strictly between), then `-rng.NextDouble()`. The results
/// and the generator state after them are the one-at-a-time path's, bit
/// for bit, whichever way they were drawn.
///
/// xoshiro256++'s state step is linear over GF(2), so lane j's start, L
/// words past lane j - 1's (L = 64 arrivals' words), is one 256x256 bit
/// matrix product away; the matrix is built once per process and L, on
/// first use. The four lanes then step together, each AVX2 register
/// holding one state word of every lane, so one step draws the same word
/// of four arrivals, one per lane. Where the lanes decline (see
/// arrival_lanes_detail::DrawLanes) the refill is those same calls, one
/// arrival at a time.
void DrawArrivals(Rng& rng, const AliasSampler& sampler, double steady_perc,
                  const ArrivalDraws& out);

/// Whether DrawArrivals runs the lanes in this process.
bool ArrivalLanesActive();

/// The pieces DrawArrivals is built from, for its tests.
namespace arrival_lanes_detail {

/// Whether the CPU (and the OS) runs AVX2 code.
bool CpuHasAvx2();

/// DrawArrivals through the four lanes alone. Returns false, with `rng`
/// unchanged and `out` unspecified, when the CPU lacks AVX2 or a bucket
/// word anywhere in the refill may be one that Rng::NextBounded rejects
/// (it would draw again and shift every later lane). The test is the high
/// half of the low product word being 0, which every rejected word (616
/// in 2^64 at 1000 pages) passes and other words pass once in 2^32.
bool DrawLanes(Rng& rng, const AliasSampler& sampler, double steady_perc,
               const ArrivalDraws& out);

/// The state `words_per_arrival` * kLaneArrivals Rng::Next() steps after
/// `state`, through the jump table DrawLanes uses for that many words per
/// arrival (3 or 4). Call only when CpuHasAvx2().
Rng::State JumpLane(const Rng::State& state, std::uint32_t words_per_arrival);

}  // namespace arrival_lanes_detail
}  // namespace bdisk::sim

#endif  // BDISK_SIM_ARRIVAL_LANES_H_
