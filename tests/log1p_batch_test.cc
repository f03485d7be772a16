// sim::Log1pInPlace must return std::log1p's bits, whichever path runs:
// the vector kernel on the virtual client's inputs and around every branch
// edge of glibc's log1p, and the scalar fallback everywhere.

#include "sim/log1p_batch.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sim/rng.h"

namespace bdisk::sim {
namespace {

using log1p_detail::Kernel;

std::uint64_t Bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// Runs `kernel` over `inputs` and counts the values whose bits differ
/// from std::log1p's, reporting the first few.
std::size_t Mismatches(Kernel kernel, std::span<const double> inputs) {
  std::vector<double> values(inputs.begin(), inputs.end());
  kernel(values);
  std::size_t bad = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const double want = std::log1p(inputs[i]);
    if (Bits(values[i]) == Bits(want)) continue;
    if (++bad <= 5) {
      ADD_FAILURE() << std::hexfloat << "log1p(" << inputs[i] << ") = "
                    << values[i] << ", std::log1p gives " << want;
    }
  }
  return bad;
}

/// The doubles within `radius` ulps of `center`, center included.
std::vector<double> UlpsAround(double center, int radius) {
  std::vector<double> out;
  for (int d = -radius; d <= radius; ++d) {
    out.push_back(std::bit_cast<double>(Bits(center) + d));
  }
  return out;
}

/// Branch edges: glibc's direct/renormalised boundary and every power of
/// two the virtual client's inputs cross, ±2·10^4 ulps each.
std::vector<double> EdgeInputs() {
  std::vector<double> out = UlpsAround(-0x1.2bec4p-2, 20000);
  for (int e = 1; e <= 53; ++e) {
    const std::vector<double> around =
        UlpsAround(-std::ldexp(1.0, -e), 20000);
    out.insert(out.end(), around.begin(), around.end());
  }
  return out;
}

std::vector<double> SpecialInputs() {
  return {-0x1p-19,
          -0x1p-20,
          -0x1p-29,
          -(1.0 - 0x1p-40),
          -0.0,
          0.0,
          -0x1.fffffffffffffp-1,
          -0x1p-1074,
          0.5,
          1.0,
          -1.0,
          -2.0,
          std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          -0.75,
          -0.125,
          -0.3};  // 17: not a multiple of the four lanes.
}

const char* const kInactive =
    "the vector kernel is off on this host (no AVX2/FMA, or a libm log1p "
    "that differs from glibc's __log1p_fma on the probe inputs); "
    "Log1pInPlace runs std::log1p";

// glibc 2.36's __log1p_fma on every probe input; the first eight are the
// inputs on which its SSE2 build gives the neighbouring double.
struct Expected {
  double x;
  double log1p;
};
constexpr Expected kGlibcFma[] = {
    {-0x1.31d89e3a583fep-2, -0x1.6b4d8be45d771p-2},
    {-0x1.ba44bc9479a2cp-3, -0x1.f23f0907aa5ffp-3},
    {-0x1.9c213a6d80aa8p-4, -0x1.b25e578e3ed62p-4},
    {-0x1.d876563240c08p-4, -0x1.f60189d45ecb5p-4},
    {-0x1.3a97fd10f32a5p-1, -0x1.e7f78f6f90badp-1},
    {-0x1.a2f2c313a4d2ap-1, -0x1.b485f8eaf794fp+0},
    {-0x1.fe8dc89a7b298p-1, -0x1.77a47c404db11p+2},
    {-0x1.2d4e34664c70cp-2, -0x1.64d94de0b96f8p-2},
    {-0x1.2bec4p-2, -0x1.62e4420e1ff1p-2},
    {-0x1.2bec3ffffffffp-2, -0x1.62e4420e1ff0fp-2},
    {-0x1.4afb1p-1, -0x1.0a2b287b59cbcp+0},
    {-0x1.4afb100000001p-1, -0x1.0a2b287b59cbdp+0},
    {-0x1p-29, -0x1.00000004p-29},
    {-0x1.0000000000001p-29, -0x1.0000000400001p-29},
    {-0x1.ffffffffffffdp-1, -0x1.1d1b02751cfe2p+5},
};

TEST(Log1pBatchTest, ProbeHoldsInputsWhereGlibcBuildsDisagree) {
  const std::span<const double> probe = log1p_detail::ProbeInputs();
  ASSERT_EQ(probe.size(), std::size(kGlibcFma));
  for (std::size_t i = 0; i < probe.size(); ++i) {
    EXPECT_EQ(Bits(probe[i]), Bits(kGlibcFma[i].x)) << i;
  }
}

TEST(Log1pBatchTest, VectorKernelGivesGlibcFmaBitsOnProbeInputs) {
  // Whatever the host's libm: a kernel that fails here would switch
  // itself off through the probe, and the tests below would skip.
  if (!log1p_detail::CpuHasAvx2Fma()) GTEST_SKIP() << "no AVX2/FMA";
  std::vector<double> values;
  for (const Expected& e : kGlibcFma) values.push_back(e.x);
  log1p_detail::Log1pAvx2Fma(values);
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(Bits(values[i]), Bits(kGlibcFma[i].log1p))
        << std::hexfloat << "log1p(" << kGlibcFma[i].x << ") = " << values[i]
        << ", __log1p_fma gives " << kGlibcFma[i].log1p;
  }
}

TEST(Log1pBatchTest, KernelRunsOnlyWhereCpuAndProbeAllowIt) {
  if (!log1p_detail::CpuHasAvx2Fma()) {
    EXPECT_FALSE(Log1pKernelActive());
    return;
  }
  EXPECT_EQ(Log1pKernelActive(),
            log1p_detail::ProbeAgrees(&log1p_detail::Log1pAvx2Fma));
}

TEST(Log1pBatchTest, ProbeRefusesAKernelOneUlpOffOnOneInput) {
  EXPECT_TRUE(log1p_detail::ProbeAgrees(&log1p_detail::Log1pScalar));
  // A libm built without FMA differs from __log1p_fma by one ulp on the
  // first probe input.
  const Kernel off_by_one = [](std::span<double> values) {
    const double first = log1p_detail::ProbeInputs()[0];
    for (double& v : values) {
      const bool bump = Bits(v) == Bits(first);
      v = std::log1p(v);
      if (bump) v = std::bit_cast<double>(Bits(v) + 1);
    }
  };
  EXPECT_FALSE(log1p_detail::ProbeAgrees(off_by_one));
}

TEST(Log1pBatchTest, FallbackPathIsStdLog1p) {
  EXPECT_EQ(Mismatches(&log1p_detail::Log1pScalar, SpecialInputs()), 0U);
  EXPECT_EQ(Mismatches(&log1p_detail::Log1pScalar,
                       log1p_detail::ProbeInputs()),
            0U);
}

TEST(Log1pBatchTest, DispatchMatchesOnEdgesAndSpecialInputs) {
  EXPECT_EQ(Mismatches(&Log1pInPlace, EdgeInputs()), 0U);
  EXPECT_EQ(Mismatches(&Log1pInPlace, SpecialInputs()), 0U);
  EXPECT_EQ(Mismatches(&Log1pInPlace, log1p_detail::ProbeInputs()), 0U);
}

TEST(Log1pBatchTest, VectorKernelMatchesOnSeededVcInputs) {
  if (!Log1pKernelActive()) GTEST_SKIP() << kInactive;
  // The virtual client's inputs: -u for uniforms u in [0, 1).
  Rng rng(20261019);
  std::vector<double> inputs(4096);
  std::size_t bad = 0;
  for (int chunk = 0; chunk < 2500; ++chunk) {  // 1.024e7 inputs.
    for (double& x : inputs) x = -rng.NextDouble();
    bad += Mismatches(&log1p_detail::Log1pAvx2Fma, inputs);
  }
  EXPECT_EQ(bad, 0U);
}

TEST(Log1pBatchTest, VectorKernelMatchesAtEdgesAndSpecialInputs) {
  if (!Log1pKernelActive()) GTEST_SKIP() << kInactive;
  EXPECT_EQ(Mismatches(&log1p_detail::Log1pAvx2Fma, EdgeInputs()), 0U);
  EXPECT_EQ(Mismatches(&log1p_detail::Log1pAvx2Fma, SpecialInputs()), 0U);
}

}  // namespace
}  // namespace bdisk::sim
