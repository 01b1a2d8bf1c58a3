#ifndef TRANSPWR_PARALLEL_SLAB_H
#define TRANSPWR_PARALLEL_SLAB_H

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/compressor.h"

namespace transpwr {
namespace slab {

/// The slab engine under the CHK1 chunked container (parallel/chunked) and
/// the TPAR archive (store/archive). A field is cut along its slowest
/// dimension into slabs of whole rows, each compressed as its own field.
/// The engine plans the rows, fans compression out in slab order, decodes
/// one slab against its planned shape and reads row ranges; the containers
/// keep only their framing and I/O.

/// Row partition of a field along its slowest dimension.
class Plan {
 public:
  /// Slabs of `per` rows, clamped to [1, rows]; the last may be shorter.
  static Plan of_rows(std::size_t rows, std::size_t per);
  /// ceil(rows / n) rows per slab, `n` clamped to [1, rows].
  static Plan of_count(std::size_t rows, std::size_t n);
  /// A row table read from a stream: nonzero entries summing to `rows`,
  /// else a StreamError prefixed with `who`.
  static Plan from_table(std::size_t rows,
                         std::span<const std::uint64_t> table,
                         const char* who);

  std::size_t size() const { return begin_.size() - 1; }
  std::size_t row_begin(std::size_t i) const { return begin_[i]; }
  std::size_t rows(std::size_t i) const { return begin_[i + 1] - begin_[i]; }
  /// Shape of slab i of a field shaped `field`.
  Dims dims(std::size_t i, Dims field) const {
    field.d[0] = rows(i);
    return field;
  }

 private:
  std::vector<std::size_t> begin_{0};  // first row per slab, then the total
};

/// Run work(i) for every slab i in [0, n) on at most `threads` threads, the
/// caller included (0 => default_threads()), and emit(i) on the calling
/// thread in slab order as soon as work(i) is done, while later slabs are
/// still compressing. emit(i) happens-after work(i). With threads == 1, or
/// from a pool worker, this is work(0), emit(0), work(1), ... inline. After
/// the first exception no work starts and no emit runs; it is rethrown once
/// every started work call has returned.
void compress_in_order(std::size_t n, std::size_t threads,
                       const std::function<void(std::size_t)>& work,
                       const std::function<void(std::size_t)>& emit);

/// Decode one slab stream and check it has the planned shape `want`
/// (StreamError otherwise).
template <typename T>
std::vector<T> decode(Scheme scheme, std::span<const std::uint8_t> stream,
                      Dims want);

/// One slab's decoded values as bytes, kept alive by `owner` (a decoded
/// vector or a shared cache entry).
struct Decoded {
  std::span<const std::uint8_t> bytes;
  std::shared_ptr<const void> owner;
};

/// Hand a freshly decoded slab to read_rows.
template <typename T>
Decoded own(std::vector<T> values) {
  auto held = std::make_shared<const std::vector<T>>(std::move(values));
  return {{reinterpret_cast<const std::uint8_t*>(held->data()),
           held->size() * sizeof(T)},
          held};
}

/// Rows [row_begin, row_end) of a field shaped `field` and cut by `plan`:
/// fetch(i) every overlapping slab on at most `threads` threads and copy
/// its overlap into place. Checks the range (ParamError) and the size of
/// the ROI, not the field, against the decode guard; errors are prefixed
/// with `who`.
template <typename T>
std::vector<T> read_rows(const Plan& plan, Dims field, std::size_t row_begin,
                         std::size_t row_end, std::size_t threads,
                         const std::function<Decoded(std::size_t)>& fetch,
                         const char* who, Dims* roi_dims_out = nullptr);

}  // namespace slab
}  // namespace transpwr

#endif  // TRANSPWR_PARALLEL_SLAB_H
