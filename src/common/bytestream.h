#ifndef TRANSPWR_COMMON_BYTESTREAM_H
#define TRANSPWR_COMMON_BYTESTREAM_H

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace transpwr {

/// Growing byte buffer with little-endian POD append helpers. Used for the
/// self-describing container headers of every compressed stream.
class ByteWriter {
 public:
  template <typename T>
  void put(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::size_t off = bytes_.size();
    bytes_.resize(off + sizeof(T));
    std::memcpy(bytes_.data() + off, &v, sizeof(T));
  }

  void put_bytes(std::span<const std::uint8_t> b) {
    bytes_.insert(bytes_.end(), b.begin(), b.end());
  }

  /// Append a u64 length prefix followed by the bytes.
  void put_sized(std::span<const std::uint8_t> b) {
    put<std::uint64_t>(b.size());
    put_bytes(b);
  }

  void reserve(std::size_t n) { bytes_.reserve(n); }
  std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Sequential reader over a byte span; throws StreamError on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    require(sizeof(T));
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::uint8_t> get_bytes(std::size_t n) {
    require(n);
    auto s = bytes_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  /// Read a u64 length prefix, then that many bytes.
  std::span<const std::uint8_t> get_sized() {
    auto n = get<std::uint64_t>();
    return get_bytes(static_cast<std::size_t>(n));
  }

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  void require(std::size_t n) const {
    // Subtraction form: `pos_ + n` wraps for attacker-controlled n near
    // SIZE_MAX (e.g. a corrupt u64 length prefix), which would pass the
    // check and hand subspan() an out-of-range window.
    if (n > bytes_.size() - pos_)
      throw StreamError("ByteReader: truncated stream (need " +
                        std::to_string(n) + " bytes, have " +
                        std::to_string(bytes_.size() - pos_) + ")");
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace transpwr

#endif  // TRANSPWR_COMMON_BYTESTREAM_H
