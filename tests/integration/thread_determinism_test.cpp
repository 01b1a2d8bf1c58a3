// Compressed bytes must be a pure function of the input — never of the
// worker count. Block sizes are derived from element counts and histograms
// are merged with exact integer sums, so any thread count must emit
// identical streams.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/compressor.h"
#include "core/transformed.h"
#include "lossless/lossless.h"
#include "sz/interp.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

template <typename T>
std::vector<T> smooth_field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> data(n);
  double v = 1.0;
  for (auto& x : data) {
    v += rng.normal() * 0.01;
    x = static_cast<T>(v);
  }
  return data;
}

TEST(ThreadDeterminism, SzCompressBytesMatch) {
  Dims dims(64, 48);
  auto data = smooth_field<float>(dims.count(), 7);
  sz::Params p;
  p.bound = 1e-3;
  p.threads = 1;
  auto one = sz::compress<float>(data, dims, p);
  for (std::size_t threads : {2u, 8u}) {
    p.threads = threads;
    EXPECT_EQ(sz::compress<float>(data, dims, p), one)
        << "threads=" << threads;
  }
}

TEST(ThreadDeterminism, InterpCompressBytesMatch) {
  Dims dims(31, 33);
  auto data = smooth_field<float>(dims.count(), 11);
  sz_interp::Params p;
  p.bound = 1e-3;
  p.threads = 1;
  auto one = sz_interp::compress<float>(data, dims, p);
  p.threads = 8;
  EXPECT_EQ(sz_interp::compress<float>(data, dims, p), one);
}

TEST(ThreadDeterminism, LosslessBlockedBytesMatch) {
  // Large enough to cross the blocked (method 2) threshold.
  Rng rng(13);
  std::vector<std::uint8_t> raw(200000);
  for (auto& b : raw) b = static_cast<std::uint8_t>(rng.below(6) * 31);
  auto one = lossless::compress(raw, 1);
  EXPECT_EQ(one[0], 2u) << "corpus should land in the blocked container";
  for (std::size_t threads : {2u, 8u})
    EXPECT_EQ(lossless::compress(raw, threads), one) << "threads=" << threads;
}

TEST(ThreadDeterminism, TransformedSzBytesMatchAndRoundTrip) {
  Dims dims(40, 25);
  auto data = smooth_field<float>(dims.count(), 17);
  TransformedParams tp;
  tp.rel_bound = 1e-3;
  tp.threads = 1;
  auto one = transformed_compress<float>(data, dims, InnerCodec::kSz, tp);
  tp.threads = 8;
  auto eight = transformed_compress<float>(data, dims, InnerCodec::kSz, tp);
  EXPECT_EQ(eight, one);
  // And the parallel decoder agrees with the serial one.
  EXPECT_EQ(transformed_decompress<float>(one, nullptr, nullptr, 8),
            transformed_decompress<float>(one, nullptr, nullptr, 1));
}

// --- ZFP block groups ---------------------------------------------------------
//
// ZFP codes blocks in groups of 2^16 values, the groups in parallel. Each
// shape below spans two groups with a partial last group (and partial
// blocks along every axis), so the directory, the group boundaries and the
// implicit fixed-rate offsets are all exercised.

const Dims kGroupShapes[] = {
    Dims(65536 + 4 * 100 + 1),  // 1-D: 16384 + 101 blocks
    Dims(67, 1001),             // 2-D: 17 x 251 = 4267 blocks
    Dims(50, 37, 29),           // 3-D: 13 x 10 x 8 = 1040 blocks
};
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 8};

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// Encode at every thread count, require identical bytes, then decode the
/// stream at every thread count and require bit-identical values.
template <typename T>
void check_zfp_determinism(
    const std::function<std::vector<std::uint8_t>(std::span<const T>, Dims,
                                                   std::size_t)>& encode,
    const std::function<std::vector<T>(std::span<const std::uint8_t>,
                                       std::size_t)>& decode) {
  for (const Dims& dims : kGroupShapes) {
    SCOPED_TRACE("dims " + dims.to_string());
    // Starts at 1 and walks across zero, so ZFP_T carries a sign map.
    auto data = smooth_field<T>(dims.count(), 23 + dims.nd);
    auto one = encode(data, dims, 1);
    auto ref = decode(one, 1);
    ASSERT_EQ(ref.size(), dims.count());
    for (std::size_t threads : kThreadCounts) {
      EXPECT_EQ(encode(data, dims, threads), one) << "threads=" << threads;
      EXPECT_TRUE(same_bits(decode(one, threads), ref))
          << "threads=" << threads;
    }
  }
}

template <typename T>
void check_raw_zfp(zfp::Mode mode) {
  zfp::Params p;
  p.mode = mode;
  p.tolerance = 1e-4;
  p.precision = 20;
  p.rate = 6.0;
  check_zfp_determinism<T>(
      [&](std::span<const T> d, Dims dims, std::size_t threads) {
        auto q = p;
        q.threads = threads;
        auto s = zfp::compress<T>(d, dims, q);
        // TFP1 byte 7: fixed-rate streams never carry a directory; the
        // variable-rate ones here span two groups and always do.
        EXPECT_EQ(s.at(7), mode == zfp::Mode::kRate ? 0u : 1u);
        return s;
      },
      [](std::span<const std::uint8_t> s, std::size_t threads) {
        return zfp::decompress<T>(s, nullptr, threads);
      });
}

TEST(ThreadDeterminism, ZfpAccuracyFloat) {
  check_raw_zfp<float>(zfp::Mode::kAccuracy);
}
TEST(ThreadDeterminism, ZfpAccuracyDouble) {
  check_raw_zfp<double>(zfp::Mode::kAccuracy);
}
TEST(ThreadDeterminism, ZfpPrecisionFloat) {
  check_raw_zfp<float>(zfp::Mode::kPrecision);
}
TEST(ThreadDeterminism, ZfpPrecisionDouble) {
  check_raw_zfp<double>(zfp::Mode::kPrecision);
}
TEST(ThreadDeterminism, ZfpRateFloat) {
  check_raw_zfp<float>(zfp::Mode::kRate);
}
TEST(ThreadDeterminism, ZfpRateDouble) {
  check_raw_zfp<double>(zfp::Mode::kRate);
}

template <typename T>
void check_transformed_zfp() {
  check_zfp_determinism<T>(
      [](std::span<const T> d, Dims dims, std::size_t threads) {
        TransformedParams tp;
        tp.rel_bound = 1e-3;
        tp.threads = threads;
        return transformed_compress<T>(d, dims, InnerCodec::kZfp, tp);
      },
      [](std::span<const std::uint8_t> s, std::size_t threads) {
        return transformed_decompress<T>(s, nullptr, nullptr, threads);
      });
}

TEST(ThreadDeterminism, ZfpTransformedFloat) { check_transformed_zfp<float>(); }
TEST(ThreadDeterminism, ZfpTransformedDouble) {
  check_transformed_zfp<double>();
}

template <typename T>
void check_zfp_precision_scheme() {
  // A ZFP_P stream is exactly a precision-mode zfp stream, so the raw
  // encoder at each thread count must reproduce what the registry wrote.
  auto comp = make_compressor(Scheme::kZfpP);
  CompressorParams cp;
  cp.zfp_precision = 20;
  check_zfp_determinism<T>(
      [&](std::span<const T> d, Dims dims, std::size_t threads) {
        zfp::Params zp;
        zp.mode = zfp::Mode::kPrecision;
        zp.precision = cp.zfp_precision;
        zp.threads = threads;
        auto s = zfp::compress<T>(d, dims, zp);
        EXPECT_EQ(s, comp->compress(d, dims, cp));
        return s;
      },
      [](std::span<const std::uint8_t> s, std::size_t threads) {
        return zfp::decompress<T>(s, nullptr, threads);
      });
}

TEST(ThreadDeterminism, ZfpPrecisionSchemeFloat) {
  check_zfp_precision_scheme<float>();
}
TEST(ThreadDeterminism, ZfpPrecisionSchemeDouble) {
  check_zfp_precision_scheme<double>();
}

}  // namespace
}  // namespace transpwr
