// The word-level sign RLE must write and read exactly the stream the
// bit-at-a-time coder did. The reference pair below is that coder, kept
// verbatim: every map is encoded by both and must give the same bytes, and
// each decoder must read the other's stream back to the same map.
#include "lossless/rle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bitmap.h"
#include "common/bitstream.h"
#include "common/error.h"
#include "common/rng.h"

namespace transpwr {
namespace {

void reference_encode(const Bitmap& bits, BitWriter& bw) {
  bw.write_bits(bits.size(), 64);
  if (bits.empty()) return;
  bw.write_bit(bits[0]);
  std::size_t i = 0;
  while (i < bits.size()) {
    std::size_t run = 1;
    while (i + run < bits.size() && bits[i + run] == bits[i]) ++run;
    unsigned nbits = 0;
    for (std::size_t v = run; v > 1; v >>= 1) ++nbits;
    bw.write_bits(0, nbits);
    bw.write_bit(true);
    bw.write_bits(run, nbits);
    i += run;
  }
}

Bitmap reference_decode(BitReader& br) {
  auto n = static_cast<std::size_t>(br.read_bits(64));
  Bitmap bits;
  if (n == 0) return bits;
  bits.resize(n);
  bool cur = br.read_bit();
  std::size_t at = 0;
  while (at < n) {
    unsigned nbits = 0;
    while (!br.read_bit()) ++nbits;
    if (nbits >= 64) throw StreamError("rle: gamma run length overflow");
    std::size_t run = (std::size_t{1} << nbits) | br.read_bits(nbits);
    if (cur)
      for (std::size_t j = at; j < std::min(n, at + run); ++j) bits.set(j);
    at += run;
    cur = !cur;
  }
  return bits;
}

std::vector<std::uint8_t> encode(const Bitmap& bits) {
  BitWriter bw;
  rle::encode_bits(bits, bw);
  return bw.take();
}

/// Both coders give the same bytes, and both decoders read them back.
void check_same_stream(const Bitmap& bits, const std::string& what) {
  SCOPED_TRACE(what + ", n = " + std::to_string(bits.size()));
  BitWriter ref_bw;
  reference_encode(bits, ref_bw);
  const auto ref = ref_bw.take();
  const auto got = encode(bits);
  ASSERT_EQ(got, ref);
  BitReader br(got);
  EXPECT_EQ(rle::decode_bits(br), bits);
  BitReader ref_br(got);
  EXPECT_EQ(reference_decode(ref_br), bits);
  EXPECT_EQ(br.bit_pos(), ref_br.bit_pos());
}

Bitmap filled(std::size_t n, bool value) {
  Bitmap b;
  b.assign(n, value);
  return b;
}

TEST(Rle, EdgeSizesAllSetAndAllClear) {
  for (std::size_t n : {1u, 2u, 63u, 64u, 65u, 127u, 128u, 129u, 4096u}) {
    check_same_stream(filled(n, false), "all clear");
    check_same_stream(filled(n, true), "all set");
    Bitmap last = filled(n, false);
    last.set(n - 1);
    check_same_stream(last, "last bit set");
    Bitmap first = filled(n, true);
    first.set(0, false);
    check_same_stream(first, "first bit clear");
  }
  check_same_stream(Bitmap(), "empty");
}

TEST(Rle, RunLengthsStraddlingWordBoundaries) {
  // Alternating runs of every length 1..200, started at every offset
  // within a word, so runs begin, end and span across word edges.
  for (std::size_t run = 1; run <= 200; ++run) {
    for (std::size_t offset : {0u, 1u, 31u, 62u, 63u}) {
      Bitmap b;
      b.assign(offset + 5 * run + 3, false);
      bool v = true;
      for (std::size_t at = offset; at < b.size(); at += run, v = !v)
        if (v)
          for (std::size_t j = at; j < std::min(b.size(), at + run); ++j)
            b.set(j);
      check_same_stream(b, "run " + std::to_string(run) + " offset " +
                               std::to_string(offset));
    }
  }
}

TEST(Rle, RandomMapsAndLongRuns) {
  Rng rng(1401);
  for (int rep = 0; rep < 40; ++rep) {
    const std::size_t n = 1 + rng.below(5000);
    Bitmap b;
    b.assign(n, false);
    // Runs drawn from short to thousands of bits long.
    bool v = rng.below(2) != 0;
    for (std::size_t at = 0; at < n; v = !v) {
      const std::size_t run = 1 + rng.below(rep % 2 ? 3000 : 9);
      if (v) b.set_range(at, std::min(n, at + run));
      at += run;
    }
    check_same_stream(b, "random rep " + std::to_string(rep));
  }
}

TEST(Rle, OverlongGammaPrefixIsRejected) {
  for (unsigned zeros : {64u, 70u, 200u}) {
    BitWriter bw;
    bw.write_bits(100, 64);
    bw.write_bit(true);
    for (unsigned i = 0; i < zeros; ++i) bw.write_bit(false);
    bw.write_bit(true);
    bw.write_bits(~std::uint64_t{0}, 64);
    auto s = bw.take();
    BitReader br(s);
    EXPECT_THROW(rle::decode_bits(br), StreamError) << zeros;
  }
}

TEST(Rle, TruncatedStreamIsRejected) {
  Bitmap b;
  b.assign(1000, false);
  for (std::size_t i = 0; i < b.size(); i += 7) b.set(i);
  auto s = encode(b);
  s.resize(s.size() / 2);
  BitReader br(s);
  EXPECT_THROW(rle::decode_bits(br), StreamError);
}

TEST(Bitmap, SetRangeMatchesPerBitSets) {
  for (std::size_t b = 0; b < 140; b += 3)
    for (std::size_t e = b; e <= 200; e += 5) {
      Bitmap got, want;
      got.assign(200, false);
      want.assign(200, false);
      got.set_range(b, e);
      for (std::size_t i = b; i < e; ++i) want.set(i);
      EXPECT_EQ(got, want) << b << ".." << e;
    }
}

}  // namespace
}  // namespace transpwr
