#ifndef TRANSPWR_ZFP_ZFP_H
#define TRANSPWR_ZFP_ZFP_H

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace transpwr {
namespace zfp {

/// ZFP 0.5-style transform-based lossy compressor (clean-room).
///
/// Pipeline per 4^d block (paper Sec. IV-B-1):
///   1. block-floating-point alignment: every value is scaled by a common
///      power of two derived from the block's largest exponent and cast to a
///      two's-complement integer;
///   2. an invertible-up-to-rounding lifted orthogonal transform along each
///      dimension decorrelates the block;
///   3. coefficients are reordered by total sequency, mapped to negabinary,
///      and bit planes are coded most-significant first with group testing
///      (embedded coding).
///
/// Modes:
///   - kAccuracy: absolute error bound `tolerance` (the mode our
///     transformation scheme drives as ZFP_T);
///   - kPrecision: keep `precision` bit planes per block — ZFP's `-p` mode,
///     which the paper evaluates as the pointwise-relative *approximation*
///     ZFP_P. It does not strictly bound relative error.
///   - kRate: exactly `rate` bits per value — ZFP's headline fixed-rate
///     mode. Every block occupies the same number of bits (random access /
///     in-situ arrays); no error bound of any kind is guaranteed.
enum class Mode : std::uint8_t { kAccuracy = 0, kPrecision = 1, kRate = 2 };

struct Params {
  Mode mode = Mode::kAccuracy;
  /// kAccuracy: absolute error bound. Honored provided it is coarser than
  /// the block-floating-point granularity, i.e. tolerance >= ~2^-21 (float)
  /// / ~2^-50 (double) of the largest magnitude in each block — the same
  /// machine-precision caveat as ZFP's own fixed-accuracy mode.
  double tolerance = 1e-3;
  std::uint32_t precision = 26;  ///< kPrecision: bit planes kept
  double rate = 8.0;             ///< kRate: bits per value, [1, 8*sizeof(T)]
  /// Block-group coding workers; 0 => hardware concurrency. The stream
  /// bytes are the same for every value.
  std::size_t threads = 0;
};

/// kRate: exact payload bits one block consumes at the given rate.
std::size_t block_bits_for_rate(double rate, int nd);

/// Random access into a kRate stream: decode the single 4^d block at block
/// coordinates (bz, by, bx) without touching the rest of the payload — the
/// capability fixed-rate mode exists for. Returns the 4^nd block values
/// (including padding positions of partial blocks). Throws ParamError for
/// valid non-kRate streams or out-of-range coordinates, StreamError for a
/// corrupt header.
template <typename T>
std::vector<T> decode_block_at(std::span<const std::uint8_t> stream,
                               std::size_t bz, std::size_t by,
                               std::size_t bx);

/// Blocks are coded in groups of 2^16 values in raster block order, the
/// groups in parallel. Variable-rate streams of more than one group carry a
/// directory of group end offsets (TFP1 layout byte 1) so decode can fan
/// out too; see docs/formats.md.
template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params);

/// `threads` bounds the group-decoding workers; 0 => hardware concurrency.
/// Serial (layout 0) variable-rate payloads decode on one thread.
template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out = nullptr, std::size_t threads = 0);

/// Expose the forward transform of a single gathered block for analysis
/// (used by the paper's Lemma 4 base-invariance study of decorrelation
/// efficiency and coding gain). `values` must hold 4^nd entries; returns the
/// transformed coefficients in sequency order, as doubles scaled back to the
/// value domain.
std::vector<double> transform_block_for_analysis(std::span<const double>
                                                     values,
                                                 int nd);

}  // namespace zfp
}  // namespace transpwr

#endif  // TRANSPWR_ZFP_ZFP_H
