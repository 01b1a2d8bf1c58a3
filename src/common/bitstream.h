#ifndef TRANSPWR_COMMON_BITSTREAM_H
#define TRANSPWR_COMMON_BITSTREAM_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "common/error.h"

namespace transpwr {

/// Append-only bit stream writer. Bits are packed LSB-first into a growing
/// byte buffer; a 64-bit accumulator keeps the hot path branch-light.
class BitWriter {
 public:
  BitWriter() = default;
  /// Write into `buffer`'s storage, discarding its contents, so one
  /// allocation can back a sequence of writers (take() hands it back).
  explicit BitWriter(std::vector<std::uint8_t> buffer)
      : bytes_(std::move(buffer)) {
    bytes_.clear();
  }

  /// Append the low `nbits` of `value` (0 <= nbits <= 64).
  void write_bits(std::uint64_t value, unsigned nbits) {
    if (nbits == 0) return;
    if (nbits < 64) value &= (std::uint64_t{1} << nbits) - 1;
    acc_ |= value << fill_;
    unsigned produced = 64 - fill_;
    if (nbits >= produced) {
      flush_word();
      // `produced` bits of `value` were consumed; stash the rest.
      acc_ = produced < 64 ? value >> produced : 0;
      fill_ = nbits - produced;
    } else {
      fill_ += nbits;
    }
  }

  void write_bit(bool b) { write_bits(b ? 1u : 0u, 1); }

  /// Number of bits written so far.
  std::size_t bit_count() const { return bytes_.size() * 8 + fill_; }

  /// Flush the accumulator and return the backing bytes. The writer may not
  /// be used after calling take().
  std::vector<std::uint8_t> take() {
    unsigned pending = (fill_ + 7) / 8;
    for (unsigned i = 0; i < pending; ++i)
      bytes_.push_back(static_cast<std::uint8_t>(acc_ >> (8 * i)));
    acc_ = 0;
    fill_ = 0;
    return std::move(bytes_);
  }

 private:
  void flush_word() {
    std::size_t off = bytes_.size();
    bytes_.resize(off + 8);
    std::memcpy(bytes_.data() + off, &acc_, 8);
    acc_ = 0;
    fill_ = 0;
  }

  std::vector<std::uint8_t> bytes_;
  std::uint64_t acc_ = 0;
  unsigned fill_ = 0;  // bits currently held in acc_
};

/// Reader matching BitWriter's LSB-first packing. Reading past the end
/// throws StreamError.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint64_t read_bits(unsigned nbits) {
    if (nbits == 0) return 0;
    // Width check first: corrupt streams can ask for symbol widths far past
    // the 64-bit accumulator, where shifting by `nbits` would be UB.
    if (nbits > 64)
      throw StreamError("BitReader: read of " + std::to_string(nbits) +
                        " bits exceeds 64-bit accumulator");
    if (nbits > bytes_.size() * 8 - bit_pos_)
      throw StreamError("BitReader: read past end of stream");
    std::uint64_t out = load_from(bit_pos_);
    const unsigned have = 64 - (bit_pos_ & 7);  // valid bits in `out`
    if (nbits > have)
      // The word load straddled the accumulator; top up from the following
      // byte (in range: the remaining-bits check above passed, so the
      // stream extends at least `nbits` past bit_pos_).
      out |= std::uint64_t{bytes_[(bit_pos_ >> 3) + 8]} << have;
    if (nbits < 64) out &= (std::uint64_t{1} << nbits) - 1;
    bit_pos_ += nbits;
    return out;
  }

  bool read_bit() { return read_bits(1) != 0; }

  /// Read up to `nbits` (<= 57) without advancing; bits past the end read
  /// as 0.
  std::uint64_t peek_bits(unsigned nbits) const {
    std::uint64_t out = load_from(bit_pos_);
    return nbits < 64 ? out & ((std::uint64_t{1} << nbits) - 1) : out;
  }

  /// Advance by `nbits` without reading (also used to seek in fixed-rate
  /// streams).
  void skip_bits(std::size_t nbits) {
    // Subtraction form: fixed-rate seeks compute `block_index * rate_bits`
    // from header fields, so `bit_pos_ + nbits` can wrap for corrupt input.
    if (nbits > bytes_.size() * 8 - bit_pos_)
      throw StreamError("BitReader: skip past end of stream");
    bit_pos_ += nbits;
  }

  /// Jump to an absolute bit position (batched decoders keep a local
  /// cursor and resynchronize through this).
  void seek(std::size_t bit_pos) {
    if (bit_pos > bytes_.size() * 8)
      throw StreamError("BitReader: seek past end of stream");
    bit_pos_ = bit_pos;
  }

  std::size_t bit_pos() const { return bit_pos_; }
  std::size_t bits_remaining() const { return bytes_.size() * 8 - bit_pos_; }
  const std::uint8_t* data() const { return bytes_.data(); }
  std::size_t size_bytes() const { return bytes_.size(); }

 private:
  /// Up to 64 bits starting at bit `pos` (57+ of them valid when the word
  /// straddles the accumulator; bits past the end read as 0). One unaligned
  /// word load in the interior, a byte-assembly fallback in the last 8
  /// bytes.
  std::uint64_t load_from(std::size_t pos) const {
    const std::size_t byte = pos >> 3;
    std::uint64_t w = 0;
    if (byte + 8 <= bytes_.size()) {
      std::memcpy(&w, bytes_.data() + byte, 8);
    } else {
      for (std::size_t i = byte; i < bytes_.size(); ++i)
        w |= std::uint64_t{bytes_[i]} << (8 * (i - byte));
    }
    return w >> (pos & 7);
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t bit_pos_ = 0;
};

}  // namespace transpwr

#endif  // TRANSPWR_COMMON_BITSTREAM_H
