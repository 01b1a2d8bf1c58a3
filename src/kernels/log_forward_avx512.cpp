// AVX-512 body of log_forward_f32_block: 8-wide evaluation of the exact
// fast_log2 expression plus the fused classification (sign / zero / finite
// masks, max |log|) over full 64-element bitmap words.
//
// Bit-identity with the scalar path is by construction: every operation is
// a per-lane IEEE-754 double op (add/sub/mul/div/cvt) in the same order as
// fast_log2, integer selects become mask blends/merges of the same
// operands, and the exponent comes from VCVTQQ2PD (AVX512DQ) — the same
// int64 -> double convert the scalar code performs. The e + 1 of the
// sqrt(2) fold and the bias subtraction run in the double domain, where
// every operand is an exact small integer, so the sums equal the scalar
// integer arithmetic exactly. No FMA instructions are emitted: only
// explicit mul/add intrinsics are used and the build pins -ffp-contract=off.
//
// The function is only called after a runtime __builtin_cpu_supports
// check in log_batch.cpp; this TU is compiled with the baseline flags and
// the AVX-512 code generation is scoped to the one function attribute
// below.
#include <cstddef>
#include <cstdint>

#include <immintrin.h>

#include "kernels/simd.h"

// GCC's AVX-512 intrinsic headers route through _mm512_undefined_*, which
// trips -Wmaybe-uninitialized at -O3 (GCC PR105593); not a real read.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace transpwr {
namespace kernels {
namespace detail {

__attribute__((target("avx512f,avx512dq"))) void log_forward_f32_words_avx512(
    const float* in, float* mapped, std::size_t nwords, double scale,
    std::uint64_t* sign_words, std::uint64_t* zero_words, double* max_abs_log,
    LogFwdFlags* flags) {
  const __m512d kZero = _mm512_setzero_pd();
  const __m512d kOne = _mm512_set1_pd(1.0);
  const __m512d kHalf = _mm512_set1_pd(0.5);
  const __m512d kAbsMask =
      _mm512_castsi512_pd(_mm512_set1_epi64(0x7fffffffffffffffLL));
  const __m512d kInf =
      _mm512_castsi512_pd(_mm512_set1_epi64(0x7ff0000000000000LL));
  const __m512d kTwo64 = _mm512_set1_pd(0x1p64);
  const __m512d kSqrt2 = _mm512_set1_pd(0x1.6a09e667f3bcdp+0);
  const __m512d kTwoOverLn2 = _mm512_set1_pd(0x1.71547652b82fep+1);
  const __m512d kScale = _mm512_set1_pd(scale);
  const __m512i kMantMask = _mm512_set1_epi64(0x000fffffffffffffLL);
  const __m512i kOneBits = _mm512_set1_epi64(0x3ff0000000000000LL);
  // Exponent bias: 1023 (normal) / 1087 (renormalized subnormal, extra 64).
  const __m512d kBiasN = _mm512_set1_pd(1023.0);
  const __m512d kBiasS = _mm512_set1_pd(1087.0);

  __m512d vmax = _mm512_setzero_pd();
  unsigned neg_acc = 0;
  unsigned zero_acc = 0;
  unsigned nf_acc = 0;

  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t sign_w = 0;
    std::uint64_t zero_w = 0;
    const float* p_in = in + w * 64;
    float* p_out = mapped + w * 64;
    for (unsigned g = 0; g < 8; ++g) {
      const __m512d v = _mm512_cvtps_pd(_mm256_loadu_ps(p_in + g * 8));
      const __m512d absv = _mm512_and_pd(v, kAbsMask);
      const __mmask8 negm = _mm512_cmp_pd_mask(v, kZero, _CMP_LT_OQ);
      const __mmask8 zerom = _mm512_cmp_pd_mask(v, kZero, _CMP_EQ_OQ);
      // !(|v| < inf) <=> !isfinite(v); unordered so NaN lands in the mask.
      nf_acc |= _mm512_cmp_pd_mask(absv, kInf, _CMP_NLT_UQ);
      neg_acc |= negm;
      zero_acc |= zerom;
      const __m512d tin = _mm512_mask_blend_pd(zerom, absv, kOne);

      // fast_log2, lane-parallel. Subnormal renorm via exact * 2^64.
      const __m512i bits = _mm512_castpd_si512(tin);
      const __mmask8 subn = _mm512_cmpeq_epi64_mask(
          _mm512_srli_epi64(bits, 52), _mm512_setzero_si512());
      const __m512d xn = _mm512_mask_mul_pd(tin, subn, tin, kTwo64);
      const __m512i b2 = _mm512_castpd_si512(xn);
      // (double)(ebits) - bias: VCVTQQ2PD of the shifted exponent field is
      // the scalar int64 convert; the bias subtraction is exact (both
      // operands are small integers).
      const __m512d ed = _mm512_sub_pd(
          _mm512_cvtepi64_pd(_mm512_srli_epi64(b2, 52)),
          _mm512_mask_blend_pd(subn, kBiasN, kBiasS));
      __m512d m = _mm512_castsi512_pd(
          _mm512_or_si512(_mm512_and_si512(b2, kMantMask), kOneBits));
      const __mmask8 high = _mm512_cmp_pd_mask(m, kSqrt2, _CMP_GE_OQ);
      m = _mm512_mask_mul_pd(m, high, m, kHalf);
      const __m512d e2 = _mm512_mask_add_pd(ed, high, ed, kOne);
      const __m512d s =
          _mm512_div_pd(_mm512_sub_pd(m, kOne), _mm512_add_pd(m, kOne));
      const __m512d u = _mm512_mul_pd(s, s);
      __m512d p = _mm512_set1_pd(1.0 / 19.0);
      p = _mm512_add_pd(_mm512_mul_pd(p, u), _mm512_set1_pd(1.0 / 17.0));
      p = _mm512_add_pd(_mm512_mul_pd(p, u), _mm512_set1_pd(1.0 / 15.0));
      p = _mm512_add_pd(_mm512_mul_pd(p, u), _mm512_set1_pd(1.0 / 13.0));
      p = _mm512_add_pd(_mm512_mul_pd(p, u), _mm512_set1_pd(1.0 / 11.0));
      p = _mm512_add_pd(_mm512_mul_pd(p, u), _mm512_set1_pd(1.0 / 9.0));
      p = _mm512_add_pd(_mm512_mul_pd(p, u), _mm512_set1_pd(1.0 / 7.0));
      p = _mm512_add_pd(_mm512_mul_pd(p, u), _mm512_set1_pd(1.0 / 5.0));
      p = _mm512_add_pd(_mm512_mul_pd(p, u), _mm512_set1_pd(1.0 / 3.0));
      p = _mm512_add_pd(_mm512_mul_pd(p, u), kOne);
      // (double)e + (s * kTwoOverLn2) * p, the scalar association.
      const __m512d res =
          _mm512_add_pd(e2, _mm512_mul_pd(_mm512_mul_pd(s, kTwoOverLn2), p));

      const __m512d lv = _mm512_mul_pd(res, kScale);
      _mm256_storeu_ps(p_out + g * 8, _mm512_cvtpd_ps(lv));
      // MAXPD(alv, vmax) returns vmax when alv is NaN and vmax is never
      // NaN, which reproduces the scalar strict-greater NaN skip.
      const __m512d alv = _mm512_and_pd(lv, kAbsMask);
      vmax = _mm512_max_pd(alv, vmax);

      const unsigned shift = g * 8;
      sign_w |= static_cast<std::uint64_t>(negm) << shift;
      zero_w |= static_cast<std::uint64_t>(zerom) << shift;
    }
    sign_words[w] = sign_w;
    zero_words[w] = zero_w;
  }

  alignas(64) double lanes[8];
  _mm512_storeu_pd(lanes, vmax);
  double mx = *max_abs_log;
  for (double m : lanes)
    if (m > mx) mx = m;
  *max_abs_log = mx;
  if (neg_acc) flags->any_negative = true;
  if (zero_acc) flags->has_zeros = true;
  if (nf_acc) flags->non_finite = true;
}

}  // namespace detail
}  // namespace kernels
}  // namespace transpwr
