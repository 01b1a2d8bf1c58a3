#ifndef TRANSPWR_CORE_TRANSFORMED_H
#define TRANSPWR_CORE_TRANSFORMED_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/log_transform.h"

namespace transpwr {

/// SZ_T / ZFP_T: Algorithm 1 of the paper. Wraps an absolute-error-bounded
/// inner codec with the logarithmic pre/post-processing stages:
/// forward log-map the data, compress the mapped data with b'_a, and carry
/// the (losslessly compressed) sign bitmap alongside.
enum class InnerCodec : std::uint8_t { kSz = 0, kZfp = 1, kSzInterp = 2 };

struct TransformedParams {
  double rel_bound = 1e-3;
  double log_base = 2.0;
  std::uint32_t quant_intervals = 65536;  ///< SZ inner codec only
  /// Workers for every stage (log map, inner codec, sign coding);
  /// 0 => hardware. The stream bytes are the same for every value.
  std::size_t threads = 0;
};

/// Stage times are spans under `transformed.{compress,decompress}`: `pre`
/// and `post` (paper Table III), each split into `log_map` and `signs`,
/// around `inner` (docs/observability.md).
template <typename T>
std::vector<std::uint8_t> transformed_compress(std::span<const T> data,
                                               Dims dims, InnerCodec codec,
                                               const TransformedParams& p);

/// `threads` bounds the inner-decode and inverse-transform workers;
/// 0 => hardware concurrency.
template <typename T>
std::vector<T> transformed_decompress(std::span<const std::uint8_t> stream,
                                      Dims* dims_out = nullptr,
                                      std::size_t threads = 0);

/// Kept only for the repository benchmark: perfbench/src/whole_field.cpp,
/// pinned by BENCHMARK.json, calls
/// `transformed_decompress<float>(stream, nullptr, nullptr, 1)`. Remove it
/// with that call.
template <typename T>
std::vector<T> transformed_decompress(std::span<const std::uint8_t> stream,
                                      Dims* dims_out, std::nullptr_t,
                                      std::size_t threads) {
  return transformed_decompress<T>(stream, dims_out, threads);
}

}  // namespace transpwr

#endif  // TRANSPWR_CORE_TRANSFORMED_H
