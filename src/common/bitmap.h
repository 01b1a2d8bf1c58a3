#ifndef TRANSPWR_COMMON_BITMAP_H
#define TRANSPWR_COMMON_BITMAP_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace transpwr {

/// Packed bit vector over 64-bit words, replacing std::vector<bool> for
/// sign bitmaps: contiguous word storage (8x denser iteration for the RLE
/// coder's run scans) and safe concurrent writes from parallel loops as
/// long as each writer owns a 64-bit-aligned index range — blocks aligned
/// to a multiple of 64 never touch the same word.
///
/// Invariant: bits past size() in the last word are zero, so word-level
/// comparison and run scanning need no tail masking.
class Bitmap {
 public:
  static constexpr std::size_t kWordBits = 64;

  Bitmap() = default;
  explicit Bitmap(std::size_t n) { assign(n, false); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    words_.clear();
    size_ = 0;
  }

  /// Resize to n bits, all set to `value`.
  void assign(std::size_t n, bool value) {
    size_ = n;
    words_.assign(word_count(),
                  value ? ~std::uint64_t{0} : std::uint64_t{0});
    mask_tail();
  }

  void resize(std::size_t n) {
    size_ = n;
    words_.resize(word_count(), 0);
    mask_tail();
  }

  void push_back(bool v) {
    resize(size_ + 1);
    if (v) set(size_ - 1);
  }

  bool operator[](std::size_t i) const {
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }

  void set(std::size_t i) { words_[i / kWordBits] |= word_bit(i); }

  void set(std::size_t i, bool v) {
    if (v)
      words_[i / kWordBits] |= word_bit(i);
    else
      words_[i / kWordBits] &= ~word_bit(i);
  }

  /// Set bits [b, e), a whole word at a time between the edge words.
  void set_range(std::size_t b, std::size_t e) {
    if (b >= e) return;
    const std::size_t wb = b / kWordBits, wl = (e - 1) / kWordBits;
    const std::uint64_t head = ~std::uint64_t{0} << (b % kWordBits);
    const std::uint64_t tail =
        ~std::uint64_t{0} >> (kWordBits - 1 - (e - 1) % kWordBits);
    if (wb == wl) {
      words_[wb] |= head & tail;
      return;
    }
    words_[wb] |= head;
    for (std::size_t w = wb + 1; w < wl; ++w) words_[w] = ~std::uint64_t{0};
    words_[wl] |= tail;
  }

  /// True if any bit is set (word-level scan).
  bool any() const {
    for (auto w : words_)
      if (w) return true;
    return false;
  }

  std::size_t word_count() const {
    return (size_ + kWordBits - 1) / kWordBits;
  }
  std::span<std::uint64_t> words() { return words_; }
  std::span<const std::uint64_t> words() const { return words_; }

  friend bool operator==(const Bitmap& a, const Bitmap& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  static std::uint64_t word_bit(std::size_t i) {
    return std::uint64_t{1} << (i % kWordBits);
  }

  void mask_tail() {
    std::size_t used = size_ % kWordBits;
    if (used && !words_.empty())
      words_.back() &= (std::uint64_t{1} << used) - 1;
  }

  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace transpwr

#endif  // TRANSPWR_COMMON_BITMAP_H
