#ifndef TRANSPWR_CORE_TRANSFORMED_H
#define TRANSPWR_CORE_TRANSFORMED_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/log_transform.h"
#include "sz/sz.h"

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

/// Timing breakdown of the transform stages (paper Table III).
struct StageTimes {
  double pre_seconds = 0;   ///< forward log map + sign compression
  double post_seconds = 0;  ///< inverse map + sign decompression
  /// Per-stage breakdown of the inner codec; only filled when the inner
  /// codec is kSz (the paper's SZ_T configuration).
  sz::StageStats inner;
};

template <typename T>
std::vector<std::uint8_t> transformed_compress(std::span<const T> data,
                                               Dims dims, InnerCodec codec,
                                               const TransformedParams& p,
                                               StageTimes* times = nullptr);

/// `threads` bounds the inner-decode and inverse-transform workers;
/// 0 => hardware concurrency.
template <typename T>
std::vector<T> transformed_decompress(std::span<const std::uint8_t> stream,
                                      Dims* dims_out = nullptr,
                                      StageTimes* times = nullptr,
                                      std::size_t threads = 0);

}  // namespace transpwr

#endif  // TRANSPWR_CORE_TRANSFORMED_H
