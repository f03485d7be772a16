#ifndef BDISK_SIM_RNG_H_
#define BDISK_SIM_RNG_H_

#include <array>
#include <cmath>
#include <cstdint>

#include "sim/check.h"

namespace bdisk::sim {

/// xoshiro256++ pseudo-random generator (Blackman & Vigna, 2019).
///
/// Small, fast, and high quality — suitable for simulation hot paths where
/// std::mt19937_64's state size and speed are a poor fit. Deterministic for
/// a given seed, so every experiment in this repo is exactly reproducible.
/// Satisfies the C++ UniformRandomBitGenerator concept.
///
/// The draw methods are defined inline, so a loop that draws millions of
/// times per run (the unfused virtual client, sim::DrawArrivals where its
/// vector lanes do not run) keeps the state in registers. The virtual
/// client's batch refill draws the think uniforms itself and turns a whole
/// batch of them into log1p values with one sim::Log1pInPlace call;
/// NextExponential stays the one-draw form for everything else (DESIGN.md
/// § "The batched arrival spine").
class Rng {
 public:
  using result_type = std::uint64_t;

  /// The generator's 256-bit state, s0..s3.
  using State = std::array<std::uint64_t, 4>;

  /// Seeds the generator. Distinct seeds give statistically independent
  /// streams (the seed is expanded with SplitMix64 per Vigna's guidance).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

  /// The generator whose state is `state`, for code that steps copies of
  /// one stream in vector lanes (sim/arrival_lanes.h) or crafts a stream.
  /// The state step is linear over GF(2), so any state, even one with a
  /// single bit set, steps correctly; only the all-zero state is stuck.
  static Rng FromState(const State& state) { return Rng(state); }

  /// The current state: FromState(state()) continues this stream.
  State state() const { return {s_[0], s_[1], s_[2], s_[3]}; }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  /// Next 64 uniformly distributed bits.
  result_type operator()() { return Next(); }

  /// Next 64 uniformly distributed bits.
  std::uint64_t Next() {
    const std::uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [0, bound), bound > 0. Uses Lemire's unbiased
  /// multiply-shift rejection method.
  std::uint64_t NextBounded(std::uint64_t bound) {
    BDISK_DCHECK(bound > 0);
    std::uint64_t x = Next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (low < threshold) {
        x = Next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial: true with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return NextDouble() < p;
  }

  /// Exponentially distributed variate with the given mean (> 0).
  double NextExponential(double mean) {
    BDISK_DCHECK(mean > 0.0);
    // Inverse CDF; 1 - u avoids log(0) since NextDouble() < 1.
    return -mean * std::log1p(-NextDouble());
  }

  /// Creates an independent child stream; deterministic given this
  /// generator's current state. Useful for giving each model component its
  /// own stream so adding a component never perturbs another's draws.
  Rng Split();

 private:
  explicit Rng(const State& state)
      : s_{state[0], state[1], state[2], state[3]} {}

  static std::uint64_t Rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace bdisk::sim

#endif  // BDISK_SIM_RNG_H_
