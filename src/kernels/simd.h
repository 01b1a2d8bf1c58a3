// The runtime-dispatched SIMD bodies behind log_batch.h. Each works on
// whole 64-element bitmap words and leaves the remainder to the scalar
// body, which the dispatching function runs.
// Call a body only after the matching cpu_has_* check; each lives in its
// own translation unit, compiled with baseline flags plus one `target`
// attribute. Declared here rather than in log_batch.cpp so the identity
// tests can run every body the host supports against the scalar one.
#ifndef TRANSPWR_KERNELS_SIMD_H_
#define TRANSPWR_KERNELS_SIMD_H_

#include <cstddef>
#include <cstdint>

#include "kernels/log_batch.h"

namespace transpwr {
namespace kernels {
namespace detail {

bool cpu_has_avx2();
// AVX512DQ implies AVX512F; DQ supplies VCVTQQ2PD for the log exponent.
bool cpu_has_avx512();

void log_forward_f32_words_avx2(const float* in, float* mapped,
                                std::size_t nwords, double scale,
                                std::uint64_t* sign_words,
                                std::uint64_t* zero_words,
                                double* max_abs_log, LogFwdFlags* flags);
void log_forward_f32_words_avx512(const float* in, float* mapped,
                                  std::size_t nwords, double scale,
                                  std::uint64_t* sign_words,
                                  std::uint64_t* zero_words,
                                  double* max_abs_log, LogFwdFlags* flags);

// exp2_inverse_f32_block over nwords * 64 elements; sign_words may be null.
void exp2_inverse_f32_words_avx2(float* io, std::size_t nwords, double scale,
                                 double zero_threshold,
                                 const std::uint64_t* sign_words);
void exp2_inverse_f32_words_avx512(float* io, std::size_t nwords,
                                   double scale, double zero_threshold,
                                   const std::uint64_t* sign_words);

}  // namespace detail
}  // namespace kernels
}  // namespace transpwr

#endif  // TRANSPWR_KERNELS_SIMD_H_
