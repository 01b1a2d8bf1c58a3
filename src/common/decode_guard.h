#ifndef TRANSPWR_COMMON_DECODE_GUARD_H
#define TRANSPWR_COMMON_DECODE_GUARD_H

#include <cstddef>

#include "common/bytestream.h"
#include "common/types.h"

namespace transpwr {

/// Process-wide ceiling on the size of any single allocation a *decoder*
/// makes on behalf of untrusted header fields (element counts, dimensions,
/// declared payload sizes). Honest streams never get near it; a corrupt
/// u64 length of 2^60 turns into a clean StreamError instead of an
/// out-of-memory abort (which sanitizers treat as a crash).
///
/// Default: `TRANSPWR_MAX_DECODE_BYTES` env var when set, else 16 GiB.
/// Fuzz harnesses lower it (via ScopedDecodeLimit) so mutated streams with
/// large-but-plausible dimensions also fail fast.
std::size_t max_decode_bytes();

/// Override the ceiling for this process; `0` restores the default.
void set_max_decode_bytes(std::size_t bytes);

/// RAII override used by tests and the fuzz driver.
class ScopedDecodeLimit {
 public:
  explicit ScopedDecodeLimit(std::size_t bytes);
  ~ScopedDecodeLimit();
  ScopedDecodeLimit(const ScopedDecodeLimit&) = delete;
  ScopedDecodeLimit& operator=(const ScopedDecodeLimit&) = delete;

 private:
  std::size_t prev_;
};

/// Throw StreamError unless `count * elem_size` is overflow-free and within
/// max_decode_bytes(). `what` names the decoder for the message.
void check_decode_alloc(std::size_t count, std::size_t elem_size,
                        const char* what);

/// Overflow-checked Dims::count() for caller-supplied shapes: validates the
/// dims (ParamError) and throws StreamError if the element count product
/// wraps.
std::size_t checked_count(const Dims& dims, const char* what);

/// Read the 3 x u64 dimension words that follow a stream header's `nd`
/// byte. A header is stream data, so an nd outside 1-3, a zero used
/// dimension or an overflowing element count is a StreamError; the
/// returned dims' count() is safe to use.
Dims read_dims(int nd, ByteReader& in, const char* what);

}  // namespace transpwr

#endif  // TRANSPWR_COMMON_DECODE_GUARD_H
