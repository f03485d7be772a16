// The vector kernel below transcribes fdlibm's log1p as glibc 2.36 builds
// it for FMA hosts (__log1p_fma in sysdeps/ieee754/dbl-64/s_log1p.c).
// fdlibm carries this notice:
//
// ====================================================
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
//
// Developed at SunPro, a Sun Microsystems, Inc. business.
// Permission to use, copy, modify, and distribute this
// software is freely granted, provided that this notice
// is preserved.
// ====================================================
//
// This file is compiled with -ffp-contract=off (src/sim/CMakeLists.txt):
// the FMAs below are exactly those of glibc's build, and the compiler must
// not fuse any other multiply and add.

#include "sim/log1p_batch.h"

#include <immintrin.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bdisk::sim {

namespace log1p_detail {

bool CpuHasAvx2Fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

void Log1pScalar(std::span<double> values) {
  for (double& v : values) v = std::log1p(v);
}

namespace {

// fdlibm's log1p constants: ln 2 split in a high and a low part, and the
// coefficients Lp1..Lp7 of its polynomial in s^2.
constexpr double kLn2Hi = 6.93147180369123816490e-01;
constexpr double kLn2Lo = 1.90821492927058770002e-10;
constexpr double kLp1 = 6.666666666666735130e-01;
constexpr double kLp2 = 3.999999999940941908e-01;
constexpr double kLp3 = 2.857142874366239149e-01;
constexpr double kLp4 = 2.222219843214978396e-01;
constexpr double kLp5 = 1.818357216161805012e-01;
constexpr double kLp6 = 1.531383769920937332e-01;
constexpr double kLp7 = 1.479819860511658591e-01;

// Four lanes of log1p(x). Lanes with -1 < x <= -2^-29 follow glibc's
// common path; the others are flagged in `*fallback` (one bit per lane,
// _mm256_movemask_pd order) and left for std::log1p: |x| < 2^-29, the
// hu == 0 cases next to powers of two (glibc's |f| < 2^-20 branch), and
// anything outside (-1, 0].
__attribute__((target("avx2,fma"))) __m256d Log1p4(__m256d x,
                                                   int* fallback) {
  const __m256d one = _mm256_set1_pd(1.0);
  // NaN is outside too: the unordered compares are true for it.
  const __m256d outside =
      _mm256_or_pd(_mm256_cmp_pd(x, _mm256_set1_pd(-1.0), _CMP_NGT_UQ),
                   _mm256_cmp_pd(x, _mm256_set1_pd(-0x1p-29), _CMP_NLE_UQ));
  // glibc takes f = x, k = 0 when the high word of x is below 0xbfd2bec4
  // (x > -0.2929); otherwise it renormalises u = 1 + x into [sqrt(2)/2,
  // sqrt(2)) * 2^k and keeps the rounding error of 1 + x in c.
  const __m256d direct =
      _mm256_cmp_pd(x, _mm256_set1_pd(-0x1.2bec4p-2), _CMP_GT_OQ);

  const __m256d u = _mm256_add_pd(x, one);
  const __m256i ub = _mm256_castpd_si256(u);
  // u > 0, so its biased exponent is the top 12 bits; k <= -1 here, so the
  // correction is fdlibm's k <= 0 form.
  __m256i k = _mm256_sub_epi64(_mm256_srli_epi64(ub, 52),
                               _mm256_set1_epi64x(1023));
  const __m256d c =
      _mm256_div_pd(_mm256_sub_pd(x, _mm256_sub_pd(u, one)), u);
  const __m256i hu = _mm256_and_si256(_mm256_srli_epi64(ub, 32),
                                      _mm256_set1_epi64x(0xfffff));
  // hu >= 0x6a09e: normalise u/2 instead (k + 1, exponent 0x3fe).
  const __m256i big = _mm256_cmpgt_epi64(hu, _mm256_set1_epi64x(0x6a09d));
  k = _mm256_sub_epi64(k, big);
  const __m256i exponent =
      _mm256_blendv_epi8(_mm256_set1_epi64x(0x3ff0000000000000),
                         _mm256_set1_epi64x(0x3fe0000000000000), big);
  const __m256d un = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(ub, _mm256_set1_epi64x(0x000fffffffffffff)),
      exponent));
  const __m256i hu_final = _mm256_blendv_epi8(
      hu,
      _mm256_srli_epi64(_mm256_sub_epi64(_mm256_set1_epi64x(0x100000), hu),
                        2),
      big);
  const __m256d hu_zero = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(hu_final, _mm256_setzero_si256()));

  const __m256d f = _mm256_blendv_pd(_mm256_sub_pd(un, one), x, direct);
  const __m256d kc = _mm256_blendv_pd(c, _mm256_setzero_pd(), direct);
  // k as a double: exact for |k| < 2^51 by the 1.5 * 2^52 bias.
  const __m256d bias = _mm256_set1_pd(0x1.8p52);
  const __m256d biased =
      _mm256_castsi256_pd(_mm256_add_epi64(k, _mm256_castpd_si256(bias)));
  const __m256d kd = _mm256_blendv_pd(_mm256_sub_pd(biased, bias),
                                      _mm256_setzero_pd(), direct);

  *fallback = _mm256_movemask_pd(
      _mm256_or_pd(outside, _mm256_andnot_pd(direct, hu_zero)));

  // The polynomial, with glibc's FMAs: R2..R4 = Lp_even + z*Lp_odd, and
  // R = z*Lp1 + z2*R2 + z4*R3 + z6*R4 accumulated left to right.
  const __m256d hfsq =
      _mm256_mul_pd(_mm256_mul_pd(f, _mm256_set1_pd(0.5)), f);
  const __m256d s = _mm256_div_pd(f, _mm256_add_pd(f, _mm256_set1_pd(2.0)));
  const __m256d z = _mm256_mul_pd(s, s);
  const __m256d r2 = _mm256_fmadd_pd(z, _mm256_set1_pd(kLp3),
                                     _mm256_set1_pd(kLp2));
  const __m256d r3 = _mm256_fmadd_pd(z, _mm256_set1_pd(kLp5),
                                     _mm256_set1_pd(kLp4));
  const __m256d r4 = _mm256_fmadd_pd(z, _mm256_set1_pd(kLp7),
                                     _mm256_set1_pd(kLp6));
  const __m256d z2 = _mm256_mul_pd(z, z);
  const __m256d z4 = _mm256_mul_pd(z2, z2);
  const __m256d z6 = _mm256_mul_pd(z2, z4);
  __m256d r = _mm256_fmadd_pd(z, _mm256_set1_pd(kLp1), _mm256_mul_pd(z2, r2));
  r = _mm256_fmadd_pd(z4, r3, r);
  r = _mm256_fmadd_pd(z6, r4, r);
  const __m256d w = _mm256_mul_pd(_mm256_add_pd(r, hfsq), s);

  // k == 0: f - (hfsq - s*(hfsq+R)).
  const __m256d plain = _mm256_sub_pd(f, _mm256_sub_pd(hfsq, w));
  // k != 0: k*ln2_hi - ((hfsq - (s*(hfsq+R) + (k*ln2_lo + c))) - f), the
  // outer multiply-subtract fused.
  const __m256d lo =
      _mm256_add_pd(_mm256_fmadd_pd(kd, _mm256_set1_pd(kLn2Lo), kc), w);
  const __m256d scaled =
      _mm256_fmsub_pd(kd, _mm256_set1_pd(kLn2Hi),
                      _mm256_sub_pd(_mm256_sub_pd(hfsq, lo), f));
  return _mm256_blendv_pd(
      scaled, plain, _mm256_cmp_pd(kd, _mm256_setzero_pd(), _CMP_EQ_OQ));
}

}  // namespace

__attribute__((target("avx2,fma"))) void Log1pAvx2Fma(
    std::span<double> values) {
  double* v = values.data();
  const std::size_t n = values.size();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d x = _mm256_loadu_pd(v + i);
    int fallback = 0;
    _mm256_storeu_pd(v + i, Log1p4(x, &fallback));
    if (fallback != 0) {
      alignas(32) double lanes[4];
      _mm256_store_pd(lanes, x);
      for (int j = 0; j < 4; ++j) {
        if ((fallback >> j) & 1) v[i + j] = std::log1p(lanes[j]);
      }
    }
  }
  if (i < n) Log1pScalar(values.subspan(i));
}

std::span<const double> ProbeInputs() {
  static constexpr double kInputs[] = {
      // glibc's FMA and SSE2 builds disagree on these, in the direct
      // branch and in the renormalised one at k = -1, -2 and -8. Most
      // such splits come from the fused z*Lp1 + z2*R2; on the last one
      // the fused R2 = Lp2 + z*Lp3 alone decides the last bit.
      -0x1.31d89e3a583fep-2,
      -0x1.ba44bc9479a2cp-3,
      -0x1.9c213a6d80aa8p-4,
      -0x1.d876563240c08p-4,
      -0x1.3a97fd10f32a5p-1,
      -0x1.a2f2c313a4d2ap-1,
      -0x1.fe8dc89a7b298p-1,
      -0x1.2d4e34664c70cp-2,
      // Branch edges the kernel computes itself: the direct/renormalised
      // boundary, the u/2 switch, |x| = 2^-29 and x next to -1.
      -0x1.2bec4p-2,
      -0x1.2bec3ffffffffp-2,
      -0x1.4afb1p-1,
      -0x1.4afb100000001p-1,
      -0x1p-29,
      -0x1.0000000000001p-29,
      -0x1.ffffffffffffdp-1,
  };
  return kInputs;
}

bool ProbeAgrees(Kernel kernel) {
  const std::span<const double> inputs = ProbeInputs();
  std::vector<double> values(inputs.begin(), inputs.end());
  kernel(values);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(values[i]) !=
        std::bit_cast<std::uint64_t>(std::log1p(inputs[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace log1p_detail

bool Log1pKernelActive() {
  // Once per process, on first use: never in a constructor's path.
  static const bool active =
      log1p_detail::CpuHasAvx2Fma() &&
      log1p_detail::ProbeAgrees(&log1p_detail::Log1pAvx2Fma);
  return active;
}

void Log1pInPlace(std::span<double> values) {
  if (Log1pKernelActive()) {
    log1p_detail::Log1pAvx2Fma(values);
  } else {
    log1p_detail::Log1pScalar(values);
  }
}

}  // namespace bdisk::sim
