// AVX2 body of log_forward_f32_block: 4-wide evaluation of the exact
// fast_log2 expression plus the fused classification (sign / zero / finite
// masks, max |log|) over full 64-element bitmap words.
//
// Bit-identity with the scalar path is by construction: every operation is
// a per-lane IEEE-754 double op (add/sub/mul/div/cvt) in the same order as
// fast_log2, integer selects become mask blends of the same operands, and
// the exponent is materialized through the exact 2^52 bias trick instead of
// an int64 convert (both produce the exact integer-valued double). No FMA
// instructions are emitted: the target clause enables avx2 only and the
// build pins -ffp-contract=off.
//
// The function is only called after a runtime __builtin_cpu_supports
// check in log_batch.cpp; this TU is compiled with the baseline flags and
// the AVX2 code generation is scoped to the one function attribute below.
#include <cstddef>
#include <cstdint>

#include <immintrin.h>

#include "kernels/simd.h"

namespace transpwr {
namespace kernels {
namespace detail {

__attribute__((target("avx2"))) void log_forward_f32_words_avx2(
    const float* in, float* mapped, std::size_t nwords, double scale,
    std::uint64_t* sign_words, std::uint64_t* zero_words, double* max_abs_log,
    LogFwdFlags* flags) {
  const __m256d kZero = _mm256_setzero_pd();
  const __m256d kOne = _mm256_set1_pd(1.0);
  const __m256d kHalf = _mm256_set1_pd(0.5);
  const __m256d kAbsMask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  const __m256d kInf =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7ff0000000000000LL));
  const __m256d kTwo64 = _mm256_set1_pd(0x1p64);
  const __m256d kSqrt2 = _mm256_set1_pd(0x1.6a09e667f3bcdp+0);
  const __m256d kTwoOverLn2 = _mm256_set1_pd(0x1.71547652b82fep+1);
  const __m256d kScale = _mm256_set1_pd(scale);
  const __m256i kExpMask = _mm256_set1_epi64x(0x7ff0000000000000LL);
  const __m256i kMantMask = _mm256_set1_epi64x(0x000fffffffffffffLL);
  const __m256i kOneBits = _mm256_set1_epi64x(0x3ff0000000000000LL);
  const __m256i kMagic = _mm256_set1_epi64x(0x4330000000000000LL);
  // 2^52 + 1023 (normal) / + 1087 (renormalized subnormal, extra 64).
  const __m256d kBiasN = _mm256_set1_pd(0x1p52 + 1023.0);
  const __m256d kBiasS = _mm256_set1_pd(0x1p52 + 1087.0);

  __m256d vmax = _mm256_setzero_pd();
  __m256d neg_acc = _mm256_setzero_pd();
  __m256d zero_acc = _mm256_setzero_pd();
  __m256d nf_acc = _mm256_setzero_pd();

  for (std::size_t w = 0; w < nwords; ++w) {
    std::uint64_t sign_w = 0;
    std::uint64_t zero_w = 0;
    const float* p_in = in + w * 64;
    float* p_out = mapped + w * 64;
    for (unsigned g = 0; g < 16; ++g) {
      const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(p_in + g * 4));
      const __m256d absv = _mm256_and_pd(v, kAbsMask);
      const __m256d negm = _mm256_cmp_pd(v, kZero, _CMP_LT_OQ);
      const __m256d zerom = _mm256_cmp_pd(v, kZero, _CMP_EQ_OQ);
      // !(|v| < inf) <=> !isfinite(v); unordered so NaN lands in the mask.
      nf_acc = _mm256_or_pd(nf_acc, _mm256_cmp_pd(absv, kInf, _CMP_NLT_UQ));
      neg_acc = _mm256_or_pd(neg_acc, negm);
      zero_acc = _mm256_or_pd(zero_acc, zerom);
      const __m256d tin = _mm256_blendv_pd(absv, kOne, zerom);

      // fast_log2, lane-parallel. Subnormal renorm via exact * 2^64.
      const __m256i bits = _mm256_castpd_si256(tin);
      const __m256d subn = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
          _mm256_and_si256(bits, kExpMask), _mm256_setzero_si256()));
      const __m256d xn =
          _mm256_blendv_pd(tin, _mm256_mul_pd(tin, kTwo64), subn);
      const __m256i b2 = _mm256_castpd_si256(xn);
      // Exponent as an exact integer-valued double: (2^52 | ebits) viewed
      // as a double equals 2^52 + ebits, so subtracting the matching bias
      // (also an exact integer) leaves exactly (double)(ebits - bias) —
      // the same value the scalar path gets from the int64 convert.
      const __m256d ed = _mm256_sub_pd(
          _mm256_castsi256_pd(
              _mm256_or_si256(_mm256_srli_epi64(b2, 52), kMagic)),
          _mm256_blendv_pd(kBiasN, kBiasS, subn));
      __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
          _mm256_and_si256(b2, kMantMask), kOneBits));
      const __m256d high = _mm256_cmp_pd(m, kSqrt2, _CMP_GE_OQ);
      m = _mm256_blendv_pd(m, _mm256_mul_pd(m, kHalf), high);
      const __m256d e2 = _mm256_add_pd(ed, _mm256_and_pd(high, kOne));
      const __m256d s = _mm256_div_pd(_mm256_sub_pd(m, kOne),
                                      _mm256_add_pd(m, kOne));
      const __m256d u = _mm256_mul_pd(s, s);
      __m256d p = _mm256_set1_pd(1.0 / 19.0);
      p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(1.0 / 17.0));
      p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(1.0 / 15.0));
      p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(1.0 / 13.0));
      p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(1.0 / 11.0));
      p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(1.0 / 9.0));
      p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(1.0 / 7.0));
      p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(1.0 / 5.0));
      p = _mm256_add_pd(_mm256_mul_pd(p, u), _mm256_set1_pd(1.0 / 3.0));
      p = _mm256_add_pd(_mm256_mul_pd(p, u), kOne);
      // (double)e + (s * kTwoOverLn2) * p, the scalar association.
      const __m256d res = _mm256_add_pd(
          e2, _mm256_mul_pd(_mm256_mul_pd(s, kTwoOverLn2), p));

      const __m256d lv = _mm256_mul_pd(res, kScale);
      _mm_storeu_ps(p_out + g * 4, _mm256_cvtpd_ps(lv));
      // MAXPD(alv, vmax) returns vmax when alv is NaN and vmax is never
      // NaN, which reproduces the scalar strict-greater NaN skip.
      const __m256d alv = _mm256_and_pd(lv, kAbsMask);
      vmax = _mm256_max_pd(alv, vmax);

      const unsigned shift = g * 4;
      sign_w |= static_cast<std::uint64_t>(_mm256_movemask_pd(negm)) << shift;
      zero_w |= static_cast<std::uint64_t>(_mm256_movemask_pd(zerom))
                << shift;
    }
    sign_words[w] = sign_w;
    zero_words[w] = zero_w;
  }

  alignas(32) double lanes[4];
  _mm256_storeu_pd(lanes, vmax);
  double mx = *max_abs_log;
  for (double m : lanes)
    if (m > mx) mx = m;
  *max_abs_log = mx;
  if (_mm256_movemask_pd(neg_acc)) flags->any_negative = true;
  if (_mm256_movemask_pd(zero_acc)) flags->has_zeros = true;
  if (_mm256_movemask_pd(nf_acc)) flags->non_finite = true;
}

}  // namespace detail
}  // namespace kernels
}  // namespace transpwr
