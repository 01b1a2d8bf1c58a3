#ifndef TRANSPWR_PARALLEL_CHUNKED_H
#define TRANSPWR_PARALLEL_CHUNKED_H

#include <cstdint>
#include <span>
#include <vector>

#include "core/compressor.h"
#include "parallel/slab.h"

namespace transpwr {
namespace chunked {

/// Shared-memory parallel compression, the OpenMP-style counterpart of the
/// paper's MPI experiments: the field is split into independent slabs along
/// its slowest-varying dimension, each slab is compressed with the chosen
/// scheme on a worker thread, and the slab streams are concatenated into
/// one self-describing container. Every error-bound guarantee of the
/// underlying scheme carries over (slabs are compressed exactly as smaller
/// fields); the only cost is slightly weaker prediction at slab seams.
struct Params {
  Scheme scheme = Scheme::kSzT;
  CompressorParams compressor;
  std::size_t num_chunks = 0;  ///< 0 => one chunk per thread
  std::size_t threads = 0;     ///< 0 => hardware concurrency
};

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params);

/// `threads` = 0 uses hardware concurrency.
template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out = nullptr, std::size_t threads = 0);

/// Region-of-interest decode: reconstruct only the rows
/// [row_begin, row_end) along the slowest dimension, touching (and
/// checksumming) only the slabs that overlap the range — partial reads of
/// huge snapshots without decompressing the rest. Returns the rows in
/// order; `roi_dims_out` receives their shape.
template <typename T>
std::vector<T> decompress_rows(std::span<const std::uint8_t> stream,
                               std::size_t row_begin, std::size_t row_end,
                               Dims* roi_dims_out = nullptr,
                               std::size_t threads = 0);

/// In-situ accumulation: simulations emit a field a few planes at a time;
/// StreamingCompressor is a row-appending writer that compresses each
/// buffered slab as soon as it is full and appends it to the container, so
/// peak memory stays at one slab of values instead of the whole field, and
/// finish() yields a container chunked::decompress() reads. Fed the same
/// field with the same slab height it writes the bytes chunked::compress
/// writes. The error-bound guarantees of the scheme hold slab-by-slab,
/// hence globally.
template <typename T>
class StreamingCompressor {
 public:
  /// `rows_per_chunk` counts along the slowest dimension of `full_dims`.
  StreamingCompressor(Dims full_dims, Params params,
                      std::size_t rows_per_chunk);

  /// Append whole rows (size must be a multiple of the row element count);
  /// compresses eagerly whenever a slab fills.
  void append(std::span<const T> rows);

  /// Rows still expected before the field is complete.
  std::size_t rows_remaining() const { return dims_[0] - rows_seen_; }

  /// Return the container. The field must be complete; the object may not
  /// be reused afterwards.
  std::vector<std::uint8_t> finish();

 private:
  void flush_slab();

  Dims dims_;
  Params params_;
  slab::Plan plan_;
  std::size_t row_elems_;
  std::size_t rows_seen_ = 0;
  std::size_t slabs_done_ = 0;
  std::vector<T> buffer_;
  std::vector<std::uint8_t> container_;  // header + the slabs written so far
  bool finished_ = false;
};

}  // namespace chunked
}  // namespace transpwr

#endif  // TRANSPWR_PARALLEL_CHUNKED_H
