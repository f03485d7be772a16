#include "sim/arrival_lanes.h"

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace bdisk::sim {

namespace arrival_lanes_detail {

bool CpuHasAvx2() { return __builtin_cpu_supports("avx2"); }

namespace {

// T^L for xoshiro256's state step T, as one table per nibble of the state:
// entry v of table k is T^L applied to the state whose bits 4k..4k+3 (bit
// b is bit b % 64 of word b / 64) spell v and whose other bits are zero.
// T is linear over GF(2), so T^L s is the XOR of the 64 entries that s's
// nibbles select. 64 x 16 x 32 bytes = 32 KiB per L.
struct JumpTable {
  explicit JumpTable(std::uint32_t steps);
  alignas(32) std::uint64_t entry[64][16][4];
};

JumpTable::JumpTable(std::uint32_t steps) {
  for (int k = 0; k < 64; ++k) {
    Rng::State column[4];  // T^L of each single bit of nibble k.
    for (int b = 0; b < 4; ++b) {
      const int bit = 4 * k + b;
      Rng::State unit{};
      unit[bit / 64] = std::uint64_t{1} << (bit % 64);
      Rng rng = Rng::FromState(unit);
      for (std::uint32_t i = 0; i < steps; ++i) rng.Next();
      column[b] = rng.state();
    }
    for (int w = 0; w < 4; ++w) entry[k][0][w] = 0;
    for (unsigned v = 1; v < 16; ++v) {
      const int low = std::countr_zero(v);
      for (int w = 0; w < 4; ++w) {
        entry[k][v][w] = entry[k][v & (v - 1)][w] ^ column[low][w];
      }
    }
  }
}

// Once per process and lane length, on the first refill that needs it:
// never in a constructor's path.
template <std::uint32_t kWords>
const JumpTable& JumpTableFor() {
  static const JumpTable table(kWords * kLaneArrivals);
  return table;
}

}  // namespace

__attribute__((target("avx2"))) Rng::State JumpLane(
    const Rng::State& state, std::uint32_t words_per_arrival) {
  const JumpTable& table =
      words_per_arrival == 4 ? JumpTableFor<4>() : JumpTableFor<3>();
  // Two accumulators, so consecutive lookups do not wait on one XOR chain.
  __m256i even = _mm256_setzero_si256();
  __m256i odd = _mm256_setzero_si256();
  for (int w = 0; w < 4; ++w) {
    std::uint64_t bits = state[w];
    for (int k = 16 * w; k < 16 * w + 16; k += 2) {
      even = _mm256_xor_si256(
          even, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                    table.entry[k][bits & 15])));
      odd = _mm256_xor_si256(
          odd, _mm256_load_si256(reinterpret_cast<const __m256i*>(
                   table.entry[k + 1][(bits >> 4) & 15])));
      bits >>= 8;
    }
  }
  Rng::State out;
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.data()),
                      _mm256_xor_si256(even, odd));
  return out;
}

namespace {

template <int kBits>
__attribute__((target("avx2"))) inline __m256i Rotl(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, kBits),
                         _mm256_srli_epi64(x, 64 - kBits));
}

// xoshiro256++ in four lanes: word i of s0..s3 is lane i's state.
struct Lanes {
  __m256i s0, s1, s2, s3;
};

// Rng::Next on every lane.
__attribute__((target("avx2"))) inline __m256i Next(Lanes& s) {
  const __m256i result =
      _mm256_add_epi64(Rotl<23>(_mm256_add_epi64(s.s0, s.s3)), s.s0);
  const __m256i t = _mm256_slli_epi64(s.s1, 17);
  s.s2 = _mm256_xor_si256(s.s2, s.s0);
  s.s3 = _mm256_xor_si256(s.s3, s.s1);
  s.s1 = _mm256_xor_si256(s.s1, s.s2);
  s.s0 = _mm256_xor_si256(s.s0, s.s3);
  s.s2 = _mm256_xor_si256(s.s2, t);
  s.s3 = Rotl<45>(s.s3);
  return result;
}

// Rng::NextDouble's double of each of four words: (w >> 11) * 2^-53,
// exactly. AVX2 has no 64-bit integer conversion, so the 53 bits go in as
// two mantissas: the high 21 as 2^31 + hi * 2^-21, the low 32 as
// 2^-1 + lo * 2^-53. Subtracting 2^31 + 2^-1 from the first and adding
// the second rounds nowhere: each result is a multiple of 2^-53 below 1.
__attribute__((target("avx2"))) inline __m256d UnitDouble(__m256i w) {
  const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(w, 43),
                                     _mm256_set1_epi64x(0x41e0000000000000));
  const __m256i lo = _mm256_blend_epi32(
      _mm256_srli_epi64(w, 11), _mm256_set1_epi64x(0x3fe0000000000000), 0xAA);
  return _mm256_add_pd(
      _mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(0x1.00000001p31)),
      _mm256_castsi256_pd(lo));
}

// Four doubles, one per lane, to entry i of each lane's 64.
__attribute__((target("avx2"))) inline void StoreLanes(double* out,
                                                       std::uint32_t i,
                                                       __m256d v) {
  const __m128d low = _mm256_castpd256_pd128(v);
  const __m128d high = _mm256_extractf128_pd(v, 1);
  _mm_storel_pd(out + i, low);
  _mm_storeh_pd(out + kLaneArrivals + i, low);
  _mm_storel_pd(out + 2 * kLaneArrivals + i, high);
  _mm_storeh_pd(out + 3 * kLaneArrivals + i, high);
}

// The refill with kWords words per arrival: bucket, accept, the steady
// coin when it draws, think.
template <std::uint32_t kWords>
__attribute__((target("avx2"))) bool LaneRefill(Rng& rng,
                                                const AliasSampler& sampler,
                                                double steady_perc,
                                                const ArrivalDraws& out) {
  static_assert(kArrivalLanes == 4, "one lane per 64-bit AVX2 word");
  Rng::State start[kArrivalLanes];
  start[0] = rng.state();
  for (std::uint32_t j = 1; j < kArrivalLanes; ++j) {
    start[j] = JumpLane(start[j - 1], kWords);
  }
  alignas(32) std::uint64_t words[4][kArrivalLanes];  // [word][lane]
  for (std::uint32_t j = 0; j < kArrivalLanes; ++j) {
    for (int w = 0; w < 4; ++w) words[w][j] = start[j][w];
  }
  Lanes s{_mm256_load_si256(reinterpret_cast<const __m256i*>(words[0])),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(words[1])),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(words[2])),
          _mm256_load_si256(reinterpret_cast<const __m256i*>(words[3]))};

  const __m256i n = _mm256_set1_epi64x(static_cast<long long>(sampler.size()));
  const double* prob = sampler.prob_data();
  const auto* alias = reinterpret_cast<const int*>(sampler.alias_data());
  const __m256i low_halves = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  // NextBernoulli's NextDouble() < p on the word w: (w >> 11) * 2^-53 < p
  // exactly when the integer w >> 11 is below ceil(p * 2^53).
  const __m256i coin_below = _mm256_set1_epi64x(
      static_cast<long long>(std::ceil(steady_perc * 0x1.0p53)));
  const __m256d negate = _mm256_set1_pd(-0.0);
  __m256i rejected = _mm256_setzero_si256();
  __m256i steady = _mm256_setzero_si256();
  __m256i coin_bit = _mm256_set1_epi64x(1);
  for (std::uint32_t i = 0; i < kLaneArrivals; ++i) {
    const __m256i bucket_word = Next(s);
    const __m256i accept_word = Next(s);
    // Lemire's multiply-high by n < 2^32 from two 32 x 32-bit products.
    // The low 32 bits of `sum` are the high half of the low product word,
    // and NextBounded rejects only a word whose low product word is below
    // 2^64 mod n < 2^32: the refill declines where that half is 0.
    const __m256i hi = _mm256_mul_epu32(_mm256_srli_epi64(bucket_word, 32), n);
    const __m256i lo = _mm256_mul_epu32(bucket_word, n);
    const __m256i sum = _mm256_add_epi64(hi, _mm256_srli_epi64(lo, 32));
    const __m256i bucket = _mm256_srli_epi64(sum, 32);
    rejected = _mm256_or_si256(rejected,
                               _mm256_cmpeq_epi32(sum, _mm256_setzero_si256()));
    // AliasSampler::Sample: the bucket if its threshold accepts, else its
    // alias.
    const __m256d accept = _mm256_cmp_pd(
        UnitDouble(accept_word), _mm256_i64gather_pd(prob, bucket, 8),
        _CMP_LT_OQ);
    const __m128i page = _mm_blendv_epi8(
        _mm256_i64gather_epi32(alias, bucket, 4),
        _mm256_castsi256_si128(
            _mm256_permutevar8x32_epi32(bucket, low_halves)),
        _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
            _mm256_castpd_si256(accept), low_halves)));
    out.page[i] = static_cast<std::uint32_t>(_mm_cvtsi128_si32(page));
    out.page[kLaneArrivals + i] =
        static_cast<std::uint32_t>(_mm_extract_epi32(page, 1));
    out.page[2 * kLaneArrivals + i] =
        static_cast<std::uint32_t>(_mm_extract_epi32(page, 2));
    out.page[3 * kLaneArrivals + i] =
        static_cast<std::uint32_t>(_mm_extract_epi32(page, 3));
    if constexpr (kWords == 4) {
      const __m256i heads =
          _mm256_cmpgt_epi64(coin_below, _mm256_srli_epi64(Next(s), 11));
      steady = _mm256_or_si256(steady, _mm256_and_si256(heads, coin_bit));
      coin_bit = _mm256_slli_epi64(coin_bit, 1);
    }
    StoreLanes(out.neg_u, i, _mm256_xor_pd(UnitDouble(Next(s)), negate));
  }
  // Any lane's `sum` with a zero low half (the even 32-bit elements).
  if ((_mm256_movemask_ps(_mm256_castsi256_ps(rejected)) & 0x55) != 0) {
    return false;
  }
  if constexpr (kWords == 4) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out.steady), steady);
  } else {
    const std::uint64_t fixed = steady_perc >= 1.0 ? ~std::uint64_t{0} : 0;
    for (std::uint32_t j = 0; j < kArrivalLanes; ++j) out.steady[j] = fixed;
  }
  // The last lane ends where one-at-a-time drawing of the refill ends.
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[0]), s.s0);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[1]), s.s1);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[2]), s.s2);
  _mm256_store_si256(reinterpret_cast<__m256i*>(words[3]), s.s3);
  rng = Rng::FromState({words[0][3], words[1][3], words[2][3], words[3][3]});
  return true;
}

}  // namespace

bool DrawLanes(Rng& rng, const AliasSampler& sampler, double steady_perc,
               const ArrivalDraws& out) {
  if (!ArrivalLanesActive()) return false;
  // NextBernoulli draws a word only strictly between 0 and 1.
  if (steady_perc > 0.0 && steady_perc < 1.0) {
    return LaneRefill<4>(rng, sampler, steady_perc, out);
  }
  return LaneRefill<3>(rng, sampler, steady_perc, out);
}

}  // namespace arrival_lanes_detail

bool ArrivalLanesActive() {
  static const bool active = arrival_lanes_detail::CpuHasAvx2();
  return active;
}

void DrawArrivals(Rng& rng, const AliasSampler& sampler, double steady_perc,
                  const ArrivalDraws& out) {
  if (arrival_lanes_detail::DrawLanes(rng, sampler, steady_perc, out)) return;
  // The lanes declined, leaving `rng` as it was: the same draws, one
  // arrival at a time.
  for (std::uint32_t j = 0; j < kArrivalLanes; ++j) {
    std::uint64_t steady = 0;
    for (std::uint32_t i = 0; i < kLaneArrivals; ++i) {
      const std::uint32_t a = j * kLaneArrivals + i;
      out.page[a] = static_cast<std::uint32_t>(sampler.Sample(rng));
      steady |= std::uint64_t{rng.NextBernoulli(steady_perc)} << i;
      out.neg_u[a] = -rng.NextDouble();
    }
    out.steady[j] = steady;
  }
}

}  // namespace bdisk::sim
