// AVX2 body of exp2_inverse_f32_block: 4-wide evaluation of the exact
// fast_exp2 expression, then the zero-threshold test, the sign from the
// packed bitmap word and the saturating narrow to float, over full
// 64-element bitmap words.
//
// Bit-identity with the scalar path is by construction: every operation is
// a per-lane IEEE-754 double op (add/sub/mul/cvt) in the same order as
// fast_exp2 and narrow_to<float>, and the selects become mask blends of
// the same operands. Two integer steps of the scalar code are replaced by
// exact double arithmetic, because AVX2 has no 64-bit arithmetic shift:
// n >> 1 is floor(nd * 0.5) (nd is an integer-valued double, so the halving
// is exact), and each 2^k factor comes from the 2^52 bias trick — k + 1023
// added to 2^52 lands in the low mantissa bits, and a left shift by 52
// moves it into the exponent field while the bias bits fall off the top.
// MAXPD/MINPD return their second operand when the first is NaN or the
// operands are equal, which is the scalar clamp (NaN never reaches the
// clamp) and narrow_to's pass-through of NaN. No FMA instructions are
// emitted: the target clause enables avx2 only and the build pins
// -ffp-contract=off.
//
// The body is only called after a runtime __builtin_cpu_supports
// check in log_batch.cpp; this TU is compiled with the baseline flags and
// the AVX2 code generation is scoped to the function attributes below.
#include <cstddef>
#include <cstdint>
#include <limits>

#include <immintrin.h>

#include "kernels/simd.h"

namespace transpwr {
namespace kernels {
namespace detail {
namespace {

// fast_exp2, lane-parallel.
__attribute__((target("avx2"))) inline __m256d exp2_lanes(__m256d v) {
  const __m256d nan_in = _mm256_cmp_pd(v, v, _CMP_UNORD_Q);
  __m256d vc = _mm256_andnot_pd(nan_in, v);  // NaN lanes -> +0.0
  vc = _mm256_max_pd(vc, _mm256_set1_pd(-1075.0));
  vc = _mm256_min_pd(vc, _mm256_set1_pd(1025.0));

  const __m256d kShifter = _mm256_set1_pd(0x1.8p52);
  const __m256d nd =
      _mm256_sub_pd(_mm256_add_pd(vc, kShifter), kShifter);
  const __m256d f = _mm256_sub_pd(vc, nd);

  const __m256d t = _mm256_mul_pd(f, _mm256_set1_pd(0x1.62e42fefa39efp-1));
  __m256d p = _mm256_set1_pd(1.0 / 479001600.0);
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 39916800.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 3628800.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 362880.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 40320.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 5040.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 720.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 120.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 24.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 6.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0 / 2.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0));
  p = _mm256_add_pd(_mm256_mul_pd(p, t), _mm256_set1_pd(1.0));

  // n1 = floor(n / 2), n2 = n - n1; both stay inside [-538, 513].
  const __m256d n1 = _mm256_round_pd(_mm256_mul_pd(nd, _mm256_set1_pd(0.5)),
                                     _MM_FROUND_TO_NEG_INF |
                                         _MM_FROUND_NO_EXC);
  const __m256d n2 = _mm256_sub_pd(nd, n1);
  const __m256d kBias = _mm256_set1_pd(0x1p52 + 1023.0);
  const __m256d s1 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_castpd_si256(_mm256_add_pd(n1, kBias)), 52));
  const __m256d s2 = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_castpd_si256(_mm256_add_pd(n2, kBias)), 52));
  const __m256d r = _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);
  return _mm256_blendv_pd(r, v, nan_in);
}

}  // namespace

__attribute__((target("avx2"))) void exp2_inverse_f32_words_avx2(
    float* io, std::size_t nwords, double scale, double zero_threshold,
    const std::uint64_t* sign_words) {
  const __m256d kScale = _mm256_set1_pd(scale);
  const __m256d kThreshold = _mm256_set1_pd(zero_threshold);
  const __m256d kMax =
      _mm256_set1_pd(static_cast<double>(std::numeric_limits<float>::max()));
  const __m256d kNegMax = _mm256_set1_pd(
      -static_cast<double>(std::numeric_limits<float>::max()));
  const __m256i kLaneBits = _mm256_set_epi64x(8, 4, 2, 1);
  const __m256i kSignBit =
      _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));

  for (std::size_t w = 0; w < nwords; ++w) {
    const std::uint64_t sign_w = sign_words ? sign_words[w] : 0;
    float* p_io = io + w * 64;
    for (unsigned g = 0; g < 16; ++g) {
      const __m256d m = _mm256_cvtps_pd(_mm_loadu_ps(p_io + g * 4));
      __m256d v = exp2_lanes(_mm256_mul_pd(m, kScale));
      // Lane l takes bit 4g + l of the word as its sign.
      const __m256i lane_bits = _mm256_and_si256(
          _mm256_set1_epi64x(static_cast<long long>((sign_w >> (g * 4)) & 15)),
          kLaneBits);
      const __m256i neg = _mm256_and_si256(
          _mm256_cmpeq_epi64(lane_bits, kLaneBits), kSignBit);
      v = _mm256_xor_pd(v, _mm256_castsi256_pd(neg));
      v = _mm256_max_pd(kNegMax, _mm256_min_pd(kMax, v));
      const __m256d zero = _mm256_cmp_pd(m, kThreshold, _CMP_LE_OQ);
      v = _mm256_andnot_pd(zero, v);
      _mm_storeu_ps(p_io + g * 4, _mm256_cvtpd_ps(v));
    }
  }
}

}  // namespace detail
}  // namespace kernels
}  // namespace transpwr
