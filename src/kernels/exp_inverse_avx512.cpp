// AVX-512 body of exp2_inverse_f32_block: the AVX2 body
// (exp_inverse_avx2.cpp, which explains why it is bit-identical to the
// scalar path) at 8 lanes, with the sign bits and the zero test applied
// through mask registers instead of blend vectors.
//
// The body is only called after a runtime __builtin_cpu_supports
// check in log_batch.cpp; this TU is compiled with the baseline flags and
// the AVX-512 code generation is scoped to the function attributes below.
#include <cstddef>
#include <cstdint>
#include <limits>

#include <immintrin.h>

#include "kernels/simd.h"

// GCC's AVX-512 intrinsic headers route through _mm512_undefined_*, which
// trips -Wmaybe-uninitialized at -O3 (GCC PR105593); not a real read.
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

namespace transpwr {
namespace kernels {
namespace detail {
namespace {

// fast_exp2, lane-parallel.
__attribute__((target("avx512f"))) inline __m512d exp2_lanes(__m512d v) {
  const __mmask8 nan_in = _mm512_cmp_pd_mask(v, v, _CMP_UNORD_Q);
  __m512d vc = _mm512_mask_mov_pd(v, nan_in, _mm512_setzero_pd());
  vc = _mm512_max_pd(vc, _mm512_set1_pd(-1075.0));
  vc = _mm512_min_pd(vc, _mm512_set1_pd(1025.0));

  const __m512d kShifter = _mm512_set1_pd(0x1.8p52);
  const __m512d nd =
      _mm512_sub_pd(_mm512_add_pd(vc, kShifter), kShifter);
  const __m512d f = _mm512_sub_pd(vc, nd);

  const __m512d t = _mm512_mul_pd(f, _mm512_set1_pd(0x1.62e42fefa39efp-1));
  __m512d p = _mm512_set1_pd(1.0 / 479001600.0);
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 39916800.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 3628800.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 362880.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 40320.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 5040.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 720.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 120.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 24.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 6.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0 / 2.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0));
  p = _mm512_add_pd(_mm512_mul_pd(p, t), _mm512_set1_pd(1.0));

  const __m512d n1 = _mm512_roundscale_pd(
      _mm512_mul_pd(nd, _mm512_set1_pd(0.5)),
      _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m512d n2 = _mm512_sub_pd(nd, n1);
  const __m512d kBias = _mm512_set1_pd(0x1p52 + 1023.0);
  const __m512d s1 = _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_castpd_si512(_mm512_add_pd(n1, kBias)), 52));
  const __m512d s2 = _mm512_castsi512_pd(
      _mm512_slli_epi64(_mm512_castpd_si512(_mm512_add_pd(n2, kBias)), 52));
  const __m512d r = _mm512_mul_pd(_mm512_mul_pd(p, s1), s2);
  return _mm512_mask_mov_pd(r, nan_in, v);
}

}  // namespace

__attribute__((target("avx512f"))) void exp2_inverse_f32_words_avx512(
    float* io, std::size_t nwords, double scale, double zero_threshold,
    const std::uint64_t* sign_words) {
  const __m512d kScale = _mm512_set1_pd(scale);
  const __m512d kThreshold = _mm512_set1_pd(zero_threshold);
  const __m512d kMax =
      _mm512_set1_pd(static_cast<double>(std::numeric_limits<float>::max()));
  const __m512d kNegMax = _mm512_set1_pd(
      -static_cast<double>(std::numeric_limits<float>::max()));
  const __m512i kSignBit =
      _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));

  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t sign_w = sign_words ? sign_words[w] : 0;
    float* p_io = io + w * 64;
    for (unsigned g = 0; g < 8; ++g) {
      const __m512d m = _mm512_cvtps_pd(_mm256_loadu_ps(p_io + g * 8));
      __m512d v = exp2_lanes(_mm512_mul_pd(m, kScale));
      const auto neg = static_cast<__mmask8>(sign_w >> (g * 8));
      const __m512i vi = _mm512_castpd_si512(v);
      v = _mm512_castsi512_pd(_mm512_mask_xor_epi64(vi, neg, vi, kSignBit));
      v = _mm512_max_pd(kNegMax, _mm512_min_pd(kMax, v));
      const __mmask8 zero = _mm512_cmp_pd_mask(m, kThreshold, _CMP_LE_OQ);
      v = _mm512_maskz_mov_pd(static_cast<__mmask8>(~zero), v);
      _mm256_storeu_ps(p_io + g * 8, _mm512_cvtpd_ps(v));
    }
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace transpwr
