#ifndef TRANSPWR_LOSSLESS_RLE_H
#define TRANSPWR_LOSSLESS_RLE_H

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/bitmap.h"
#include "common/bitstream.h"
#include "common/decode_guard.h"
#include "common/error.h"

namespace transpwr {
namespace rle {

/// Length of the run of bits equal to bits[i] starting at i. Each word is
/// XORed with the run's fill pattern, so the run ends at the first set bit
/// of that difference: one countr_zero per word instead of a test per bit.
inline std::size_t run_length(const Bitmap& bits, std::size_t i) {
  const auto words = bits.words();
  const std::uint64_t fill = bits[i] ? ~std::uint64_t{0} : std::uint64_t{0};
  std::size_t w = i / Bitmap::kWordBits;
  // Bits below i are shifted out; the zeros shifted in at the top never
  // count as a difference.
  std::uint64_t diff = (words[w] ^ fill) >> (i % Bitmap::kWordBits);
  std::size_t end = i;
  if (!diff) {
    end = (w + 1) * Bitmap::kWordBits;
    while (++w < words.size() && !(diff = words[w] ^ fill))
      end += Bitmap::kWordBits;
  }
  if (diff) end += static_cast<std::size_t>(std::countr_zero(diff));
  // Bits past size() are zero, so a run of zeros can read on past the end.
  return std::min(end, bits.size()) - i;
}

/// Run-length code a bit vector (e.g. a sign bitmap) as alternating-run
/// Elias-gamma lengths. Dense same-sign regions — the common case in
/// scientific fields — collapse to a few bits. The stream format is
/// unchanged from the std::vector<bool> era.
inline void encode_bits(const Bitmap& bits, BitWriter& bw) {
  bw.write_bits(bits.size(), 64);
  if (bits.empty()) return;
  bw.write_bit(bits[0]);
  std::size_t i = 0;
  while (i < bits.size()) {
    const std::size_t run = run_length(bits, i);
    // Elias gamma of `run` (run >= 1): nbits zeros, the stop bit (the MSB
    // of run), then the low nbits of run LSB-first.
    const auto nbits = static_cast<unsigned>(std::bit_width(run) - 1);
    const std::uint64_t tail = 1 | (static_cast<std::uint64_t>(run) << 1);
    if (2 * nbits + 1 <= 64) {
      bw.write_bits(tail << nbits, 2 * nbits + 1);
    } else {
      bw.write_bits(0, nbits);
      bw.write_bits(tail, nbits + 1);
    }
    i += run;
  }
}

inline Bitmap decode_bits(BitReader& br) {
  auto n = static_cast<std::size_t>(br.read_bits(64));
  check_decode_alloc(n / 8 + 1, 1, "rle");
  Bitmap bits;
  if (n == 0) return bits;
  bits.resize(n);
  bool cur = br.read_bit();
  std::size_t at = 0;
  // Bits past the end peek as 0: a stop bit found in a window is always
  // real, and a code that runs off the end makes skip_bits throw.
  constexpr unsigned kWindow = 57;
  while (at < n) {
    std::uint64_t window = br.peek_bits(kWindow);
    auto nbits = static_cast<unsigned>(std::countr_zero(window));
    std::size_t run;
    if (window && 2 * nbits + 1 <= kWindow) {
      // The whole gamma code sits in the window: nbits zeros, the stop
      // bit, then the low nbits of the run.
      run = (std::size_t{1} << nbits) |
            ((window >> (nbits + 1)) & ((std::size_t{1} << nbits) - 1));
      br.skip_bits(2 * nbits + 1);
    } else {
      // Long prefix: count zeros a window at a time.
      nbits = 0;
      while (!window && nbits < 64) {
        nbits += kWindow;
        br.skip_bits(kWindow);
        window = br.peek_bits(kWindow);
      }
      // A gamma prefix of >= 64 zeros cannot come from the encoder (runs
      // fit in size_t) and would shift past the 64-bit accumulator below.
      nbits += static_cast<unsigned>(std::countr_zero(window));
      if (nbits >= 64) throw StreamError("rle: gamma run length overflow");
      br.skip_bits(static_cast<unsigned>(std::countr_zero(window)) + 1);
      run = (std::size_t{1} << nbits) | br.read_bits(nbits);
    }
    // A final run may overshoot n; clamp without forming at + run.
    const std::size_t end = run >= n - at ? n : at + run;
    if (cur) bits.set_range(at, end);
    at = end;
    cur = !cur;
  }
  return bits;
}

}  // namespace rle
}  // namespace transpwr

#endif  // TRANSPWR_LOSSLESS_RLE_H
