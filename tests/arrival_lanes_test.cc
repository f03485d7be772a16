// sim::DrawArrivals must draw what the one-at-a-time path draws, bit for
// bit and with the same generator state after every refill, on every host.
// Its lanes alone (arrival_lanes_detail::DrawLanes) must do the same or
// decline and leave the generator as it was.

#include "sim/arrival_lanes.h"

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "oracles.h"
#include "sim/alias_sampler.h"
#include "sim/rng.h"
#include "sim/zipf.h"

namespace bdisk::sim {
namespace {

using arrival_lanes_detail::DrawLanes;
using arrival_lanes_detail::JumpLane;

const char* const kInactive =
    "no AVX2 on this host: DrawLanes declines every refill";

/// One refill's outputs, in the layout the virtual client's batch uses.
struct Refill {
  std::array<std::uint32_t, kRefillArrivals> page{};
  std::array<std::uint64_t, kArrivalLanes> steady{};
  std::array<double, kRefillArrivals> neg_u{};

  ArrivalDraws Draws() { return {page.data(), steady.data(), neg_u.data()}; }
};

/// The one-at-a-time path: per arrival, the page, the steady coin and the
/// think uniform as the unfused virtual client draws them.
Refill OracleRefill(Rng& rng, const AliasSampler& sampler,
                    double steady_perc) {
  Refill r;
  for (std::uint32_t i = 0; i < kRefillArrivals; ++i) {
    r.page[i] = static_cast<std::uint32_t>(sampler.Sample(rng));
    r.steady[i / 64] |= std::uint64_t{rng.NextBernoulli(steady_perc)}
                        << (i % 64);
    r.neg_u[i] = -rng.NextDouble();
  }
  return r;
}

/// Index of the first arrival where `got` and `want` differ, or -1.
int FirstMismatch(const Refill& got, const Refill& want) {
  for (std::uint32_t i = 0; i < kRefillArrivals; ++i) {
    const auto coin = [i](const Refill& r) {
      return (r.steady[i / 64] >> (i % 64)) & 1;
    };
    if (got.page[i] != want.page[i] || coin(got) != coin(want) ||
        std::bit_cast<std::uint64_t>(got.neg_u[i]) !=
            std::bit_cast<std::uint64_t>(want.neg_u[i])) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Runs `refills` refills through the kernel and the oracle side by side
/// and counts those that disagree, in outputs or in the state after.
int MismatchedRefills(const AliasSampler& sampler, double steady_perc,
                      std::uint64_t seed, int refills) {
  Rng lanes(seed);
  Rng oracle(seed);
  int bad = 0;
  for (int r = 0; r < refills; ++r) {
    Refill got;
    const Refill want = OracleRefill(oracle, sampler, steady_perc);
    // A rejected bucket word (616 in 2^64 at 1000 pages) declines; the
    // oracle's state then stands in for the caller's fallback draw.
    if (!DrawLanes(lanes, sampler, steady_perc, got.Draws())) {
      ADD_FAILURE() << "refill " << r << " declined";
      lanes = oracle;
      ++bad;
      continue;
    }
    const int at = FirstMismatch(got, want);
    if (at >= 0 || lanes.state() != oracle.state()) {
      if (++bad <= 3) {
        ADD_FAILURE() << "refill " << r << ": first differing arrival " << at
                      << (lanes.state() != oracle.state()
                              ? ", generator state differs"
                              : "");
      }
      lanes = oracle;
    }
  }
  return bad;
}

TEST(ArrivalLanesTest, ActiveExactlyWhenTheCpuHasAvx2) {
  EXPECT_EQ(ArrivalLanesActive(), __builtin_cpu_supports("avx2") != 0);
}

TEST(ArrivalLanesTest, JumpEqualsTheScalarStepsOfOneLane) {
  if (!ArrivalLanesActive()) GTEST_SKIP() << kInactive;
  Rng seeds(20261019);
  for (const std::uint32_t words : {3U, 4U}) {
    for (int trial = 0; trial < 200; ++trial) {
      Rng rng(seeds.Next());
      const Rng::State start = rng.state();
      for (std::uint32_t i = 0; i < words * kLaneArrivals; ++i) rng.Next();
      ASSERT_EQ(JumpLane(start, words), rng.state())
          << words << " words per arrival, trial " << trial;
    }
  }
}

TEST(ArrivalLanesTest, MatchesOneAtATimeDrawsWithTheCoin) {
  if (!ArrivalLanesActive()) GTEST_SKIP() << kInactive;
  const AliasSampler zipf(ZipfPmf(1000, 0.95));
  // 40,000 refills: 1.024e7 arrivals, 4 words each.
  EXPECT_EQ(MismatchedRefills(zipf, 0.95, 20261019, 40000), 0);
}

TEST(ArrivalLanesTest, MatchesOneAtATimeDrawsWithEveryClientSteady) {
  if (!ArrivalLanesActive()) GTEST_SKIP() << kInactive;
  const AliasSampler zipf(ZipfPmf(1000, 0.95));
  EXPECT_EQ(MismatchedRefills(zipf, 1.0, 4242, 40000), 0);
}

TEST(ArrivalLanesTest, MatchesOneAtATimeDrawsWithNoClientSteady) {
  if (!ArrivalLanesActive()) GTEST_SKIP() << kInactive;
  const AliasSampler zipf(ZipfPmf(1000, 0.95));
  EXPECT_EQ(MismatchedRefills(zipf, 0.0, 7, 40000), 0);
}

TEST(ArrivalLanesTest, MatchesOneAtATimeDrawsOnSmallTables) {
  if (!ArrivalLanesActive()) GTEST_SKIP() << kInactive;
  // One outcome, a power of two (nothing rejected), and a skewed odd size.
  for (const std::vector<double>& weights :
       std::vector<std::vector<double>>{
           {1.0}, {1.0, 2.0, 3.0, 4.0}, {5.0, 0.0, 1.0, 0.5, 2.0, 9.0, 0.1}}) {
    const AliasSampler sampler(weights);
    SCOPED_TRACE(::testing::Message() << weights.size() << " outcomes");
    EXPECT_EQ(MismatchedRefills(sampler, 0.5, 11, 2000), 0);
    EXPECT_EQ(MismatchedRefills(sampler, 1.0, 12, 2000), 0);
  }
}

TEST(ArrivalLanesTest, RejectedBucketWordDeclinesAndLeavesTheGenerator) {
  if (!ArrivalLanesActive()) GTEST_SKIP() << kInactive;
  const AliasSampler zipf(ZipfPmf(1000, 0.95));
  // A 0 bucket word at the first and the last arrival of every lane, with
  // the coin (4 words per arrival) and without (3).
  for (const double steady : {0.5, 1.0}) {
    const std::uint64_t words = steady < 1.0 ? 4 : 3;
    for (std::uint64_t lane = 0; lane < kArrivalLanes; ++lane) {
      for (const std::uint64_t at : {0U, kLaneArrivals - 1}) {
        const std::uint64_t arrival = lane * kLaneArrivals + at;
        SCOPED_TRACE(::testing::Message()
                     << "steady " << steady << ", arrival " << arrival);
        Rng rng = RngWithWordAt(17, words * arrival, 0);
        const Rng::State before = rng.state();
        Refill got;
        EXPECT_FALSE(DrawLanes(rng, zipf, steady, got.Draws()));
        EXPECT_EQ(rng.state(), before);
        // The same word as the arrival's accept word is no rejection.
        Rng accept = RngWithWordAt(17, words * arrival + 1, 0);
        Rng oracle = accept;
        ASSERT_TRUE(DrawLanes(accept, zipf, steady, got.Draws()));
        EXPECT_EQ(FirstMismatch(got, OracleRefill(oracle, zipf, steady)), -1);
        EXPECT_EQ(accept.state(), oracle.state());
      }
    }
  }
}

TEST(ArrivalLanesTest, DrawArrivalsMatchesOneAtATimeDrawsOnEveryHost) {
  const AliasSampler zipf(ZipfPmf(1000, 0.95));
  // The crafted stream carries the word where asked, and NextBounded
  // rejects a 0 bucket word at 1000 pages (its low product word 0 is below
  // 2^64 mod 1000 = 616), so it takes the word after instead.
  Rng check = RngWithWordAt(9, 3, 0);
  for (int i = 0; i < 3; ++i) check.Next();
  Rng bounded = check;
  EXPECT_EQ(check.Next(), 0U);
  check.Next();
  bounded.NextBounded(zipf.size());
  EXPECT_EQ(bounded.state(), check.state());
  // A 0 bucket word at the first, the 64th and the last arrival, which the
  // lanes decline, then a refill drawn the way this host draws it.
  for (const double steady : {0.0, 0.5, 1.0}) {
    const std::uint64_t words = steady > 0.0 && steady < 1.0 ? 4 : 3;
    for (const std::uint64_t arrival : {0U, 63U, 255U}) {
      SCOPED_TRACE(::testing::Message()
                   << "steady " << steady << ", arrival " << arrival);
      Rng rng = RngWithWordAt(17, words * arrival, 0);
      Rng oracle = rng;
      for (int refill = 0; refill < 2; ++refill) {
        Refill got;
        DrawArrivals(rng, zipf, steady, got.Draws());
        EXPECT_EQ(FirstMismatch(got, OracleRefill(oracle, zipf, steady)), -1)
            << "refill " << refill;
        EXPECT_EQ(rng.state(), oracle.state()) << "refill " << refill;
      }
    }
  }
}

}  // namespace
}  // namespace bdisk::sim
