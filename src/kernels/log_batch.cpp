#include "kernels/log_batch.h"

#include <algorithm>
#include <cmath>

#include "common/numeric.h"
#include "kernels/dispatch.h"
#include "kernels/fastmath.h"
#include "kernels/simd.h"

namespace transpwr {
namespace kernels {
namespace detail {

bool cpu_has_avx2() {
  static const bool has = __builtin_cpu_supports("avx2");
  return has;
}

bool cpu_has_avx512() {
  static const bool has = __builtin_cpu_supports("avx512dq");
  return has;
}

}  // namespace detail

namespace {

// Scalar reference body of log_forward_f32_block; also serves the final
// partial word of the native path. `in` is 64-aligned relative to the word
// buffers (the caller slices on bitmap-word boundaries).
void log_forward_f32_generic(const float* in, float* mapped, std::size_t n,
                             double scale, std::uint64_t* sign_words,
                             std::uint64_t* zero_words, double* max_abs_log,
                             LogFwdFlags* flags) {
  double mx = *max_abs_log;
  bool neg = false, zer = false, nf = false;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t word_end = std::min(n, (i & ~std::size_t{63}) + 64);
    std::uint64_t sw = 0, zw = 0;
    for (; i < word_end; ++i) {
      const double v = static_cast<double>(in[i]);
      if (!std::isfinite(v)) nf = true;
      sw |= static_cast<std::uint64_t>(v < 0) << (i & 63);
      zw |= static_cast<std::uint64_t>(v == 0) << (i & 63);
      const double tin = v == 0 ? 1.0 : std::abs(v);
      const double lv = fast_log2(tin) * scale;
      mapped[i] = static_cast<float>(lv);
      const double m = std::abs(lv);
      if (m > mx) mx = m;
    }
    sign_words[(i - 1) >> 6] = sw;
    zero_words[(i - 1) >> 6] = zw;
    neg |= sw != 0;
    zer |= zw != 0;
  }
  *max_abs_log = mx;
  if (neg) flags->any_negative = true;
  if (zer) flags->has_zeros = true;
  if (nf) flags->non_finite = true;
}

}  // namespace

void log_forward_f32_block(const float* in, float* mapped, std::size_t n,
                           double scale, std::uint64_t* sign_words,
                           std::uint64_t* zero_words, double* max_abs_log,
                           LogFwdFlags* flags) {
  std::size_t head = 0;
  if (active() == Dispatch::kNative) {
    const std::size_t nwords = n / 64;
    if (nwords && detail::cpu_has_avx512()) {
      detail::log_forward_f32_words_avx512(in, mapped, nwords, scale,
                                           sign_words, zero_words,
                                           max_abs_log, flags);
      head = nwords * 64;
    } else if (nwords && detail::cpu_has_avx2()) {
      detail::log_forward_f32_words_avx2(in, mapped, nwords, scale,
                                         sign_words, zero_words, max_abs_log,
                                         flags);
      head = nwords * 64;
    }
  }
  if (head < n)
    log_forward_f32_generic(in + head, mapped + head, n - head, scale,
                            sign_words + head / 64, zero_words + head / 64,
                            max_abs_log, flags);
}

namespace {

void log2_generic(const double* in, double* out, std::size_t n,
                  double scale) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fast_log2(in[i]) * scale;
}

// Scalar reference body of exp2_inverse_f32_block; also serves the final
// partial word of the native path.
void exp2_inverse_f32_generic(float* io, std::size_t n, double scale,
                              double zero_threshold,
                              const std::uint64_t* sign_words) {
  for (std::size_t i = 0; i < n; ++i) {
    const double m = static_cast<double>(io[i]);
    if (m <= zero_threshold) {
      io[i] = 0.0f;
      continue;
    }
    double v = fast_exp2(m * scale);
    if (sign_words && ((sign_words[i >> 6] >> (i & 63)) & 1)) v = -v;
    io[i] = narrow_to<float>(v);
  }
}

// Native log2 variant: a 4-wide unrolled body with no cross-iteration
// state, so the vectorizer emits packed divides/multiplies and the scalar
// remainder peels off at the end. Same per-element expression as generic.
void log2_native(const double* in, double* out, std::size_t n, double scale) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double a = fast_log2(in[i]);
    const double b = fast_log2(in[i + 1]);
    const double c = fast_log2(in[i + 2]);
    const double d = fast_log2(in[i + 3]);
    out[i] = a * scale;
    out[i + 1] = b * scale;
    out[i + 2] = c * scale;
    out[i + 3] = d * scale;
  }
  for (; i < n; ++i) out[i] = fast_log2(in[i]) * scale;
}

}  // namespace

void log2_scaled_batch(const double* in, double* out, std::size_t n,
                       double scale) {
  if (active() == Dispatch::kNative)
    log2_native(in, out, n, scale);
  else
    log2_generic(in, out, n, scale);
}

void exp2_scaled_batch(const double* in, double* out, std::size_t n,
                       double scale) {
  for (std::size_t i = 0; i < n; ++i) out[i] = fast_exp2(in[i] * scale);
}

void exp2_inverse_f32_block(float* io, std::size_t n, double scale,
                            double zero_threshold,
                            const std::uint64_t* sign_words) {
  std::size_t head = 0;
  if (active() == Dispatch::kNative) {
    const std::size_t nwords = n / 64;
    if (nwords && detail::cpu_has_avx512()) {
      detail::exp2_inverse_f32_words_avx512(io, nwords, scale,
                                            zero_threshold, sign_words);
      head = nwords * 64;
    } else if (nwords && detail::cpu_has_avx2()) {
      detail::exp2_inverse_f32_words_avx2(io, nwords, scale, zero_threshold,
                                          sign_words);
      head = nwords * 64;
    }
  }
  if (head < n)
    exp2_inverse_f32_generic(io + head, n - head, scale, zero_threshold,
                             sign_words ? sign_words + head / 64 : nullptr);
}

}  // namespace kernels
}  // namespace transpwr
