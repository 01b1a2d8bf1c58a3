#include "zfp/zfp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "metrics/metrics.h"

namespace transpwr {
namespace {

template <typename T>
double max_abs_err(std::span<const T> a, std::span<const T> b) {
  double worst = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(a[i]) -
                                     static_cast<double>(b[i])));
  return worst;
}

TEST(ZfpAccuracy, SmoothField3D) {
  auto f = gen::hurricane_wind(Dims(12, 20, 20), 1);
  zfp::Params p;
  p.tolerance = 0.5;
  auto stream = zfp::compress<float>(f.span(), f.dims, p);
  Dims dims;
  auto out = zfp::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, f.dims);
  EXPECT_LE(max_abs_err<float>(f.span(), out), p.tolerance);
  EXPECT_LT(stream.size(), f.bytes());
}

TEST(ZfpAccuracy, PartialBlocksEveryRemainder) {
  // Dimensions not divisible by 4 exercise gather/scatter padding.
  Rng rng(2);
  for (std::size_t nx : {5u, 6u, 7u, 9u, 13u}) {
    SCOPED_TRACE(nx);
    Dims dims(nx, nx + 1);
    std::vector<float> data(dims.count());
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<float>(std::sin(0.3 * static_cast<double>(i)) +
                                   0.01 * rng.normal());
    zfp::Params p;
    p.tolerance = 1e-3;
    auto stream = zfp::compress<float>(data, dims, p);
    auto out = zfp::decompress<float>(stream);
    EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
  }
}

TEST(ZfpAccuracy, AllZeroBlocksAreSkipped) {
  std::vector<float> data(64 * 64, 0.0f);
  zfp::Params p;
  p.tolerance = 1e-6;
  auto stream = zfp::compress<float>(data, Dims(64, 64), p);
  EXPECT_LT(stream.size(), 200u);  // ~1 bit per block + header
  auto out = zfp::decompress<float>(stream);
  EXPECT_EQ(out, data);
}

TEST(ZfpAccuracy, BelowToleranceBlocksCollapseToZero) {
  std::vector<float> data(4096, 1e-9f);
  zfp::Params p;
  p.tolerance = 1e-3;
  auto stream = zfp::compress<float>(data, Dims(4096), p);
  auto out = zfp::decompress<float>(stream);
  for (float v : out) EXPECT_EQ(v, 0.0f);
  EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
}

TEST(ZfpAccuracy, DoubleType) {
  Rng rng(3);
  Dims dims(16, 16, 16);
  std::vector<double> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1e6 * std::cos(0.05 * static_cast<double>(i)) + rng.normal();
  zfp::Params p;
  p.tolerance = 1e-4;
  auto stream = zfp::compress<double>(data, dims, p);
  auto out = zfp::decompress<double>(stream);
  EXPECT_LE(max_abs_err<double>(data, out), p.tolerance);
}

TEST(ZfpAccuracy, MixedMagnitudeBlocks) {
  // Blocks alternate between tiny and huge magnitudes; each block gets its
  // own exponent so the bound must hold everywhere.
  std::vector<float> data(1024);
  Rng rng(4);
  for (std::size_t i = 0; i < data.size(); ++i) {
    double scale = (i / 4) % 2 ? 1e8 : 1e-4;
    data[i] = static_cast<float>(scale * (1.0 + 0.1 * rng.normal()));
  }
  zfp::Params p;
  p.tolerance = 1e-2;
  auto stream = zfp::compress<float>(data, Dims(1024), p);
  auto out = zfp::decompress<float>(stream);
  EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
}

TEST(ZfpAccuracy, NegativeValues) {
  Rng rng(5);
  std::vector<float> data(512);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 100.0);
  zfp::Params p;
  p.tolerance = 0.05;
  auto stream = zfp::compress<float>(data, Dims(512), p);
  auto out = zfp::decompress<float>(stream);
  EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
}

TEST(ZfpAccuracy, TighterToleranceCostsMoreBits) {
  auto f = gen::hurricane_cloud(Dims(8, 32, 32), 6);
  zfp::Params p;
  p.tolerance = 1e-3;
  auto loose = zfp::compress<float>(f.span(), f.dims, p);
  p.tolerance = 1e-7;
  auto tight = zfp::compress<float>(f.span(), f.dims, p);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(ZfpPrecision, MorePlanesLowerError) {
  auto f = gen::nyx_velocity(Dims(16, 16, 16), 7);
  double prev_err = std::numeric_limits<double>::infinity();
  for (std::uint32_t prec : {8u, 14u, 20u, 26u}) {
    zfp::Params p;
    p.mode = zfp::Mode::kPrecision;
    p.precision = prec;
    auto stream = zfp::compress<float>(f.span(), f.dims, p);
    auto out = zfp::decompress<float>(stream);
    double err = max_abs_err<float>(f.span(), out);
    EXPECT_LE(err, prev_err * 1.001);
    prev_err = err;
  }
  // 26 planes on ~1e7-magnitude data: relative error ~1e-6 of the range.
  EXPECT_LT(prev_err, 50.0);
}

TEST(ZfpPrecision, DoesNotBoundRelativeError) {
  // The paper's ZFP_P caveat: in precision mode small values near large
  // ones lose all relative accuracy. Construct a block mixing 1e8 and 1e-4.
  std::vector<float> data(256);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = i % 7 == 0 ? 1e-4f : 1e8f;
  zfp::Params p;
  p.mode = zfp::Mode::kPrecision;
  p.precision = 16;
  auto stream = zfp::compress<float>(data, Dims(256), p);
  auto out = zfp::decompress<float>(stream);
  auto stats = compute_error_stats(std::span<const float>(data),
                                   std::span<const float>(out));
  EXPECT_GT(stats.max_rel, 0.5) << "small values should be wiped out";
}

TEST(ZfpAnalysis, TransformBlockShapes) {
  std::vector<double> block(16, 1.0);
  auto coeffs = zfp::transform_block_for_analysis(block, 2);
  ASSERT_EQ(coeffs.size(), 16u);
  // Constant block: all energy in the DC coefficient.
  EXPECT_NEAR(coeffs[0], 1.0, 0.01);
  for (std::size_t i = 1; i < coeffs.size(); ++i)
    EXPECT_NEAR(coeffs[i], 0.0, 0.01);
}

TEST(ZfpAnalysis, WrongSizeThrows) {
  std::vector<double> block(10, 1.0);
  EXPECT_THROW(zfp::transform_block_for_analysis(block, 2), ParamError);
  EXPECT_THROW(zfp::transform_block_for_analysis(block, 5), ParamError);
}

TEST(ZfpErrors, InvalidParamsAndStreams) {
  std::vector<float> data(16, 1.0f);
  zfp::Params p;
  p.tolerance = 0.0;
  EXPECT_THROW(zfp::compress<float>(data, Dims(16), p), ParamError);
  p.tolerance = 1e-3;
  p.mode = zfp::Mode::kPrecision;
  p.precision = 0;
  EXPECT_THROW(zfp::compress<float>(data, Dims(16), p), ParamError);

  zfp::Params ok;
  auto stream = zfp::compress<float>(data, Dims(16), ok);
  auto bad = stream;
  bad[0] ^= 0xff;
  EXPECT_THROW(zfp::decompress<float>(bad), StreamError);
  EXPECT_THROW(zfp::decompress<double>(stream), StreamError);
  // A hostile header shape is stream data: StreamError, not ParamError.
  for (std::uint8_t nd : {0, 4, 9}) {
    auto bad_nd = stream;
    bad_nd[5] = nd;
    EXPECT_THROW(zfp::decompress<float>(bad_nd), StreamError) << int(nd);
  }
  auto zero_dim = stream;
  std::fill_n(zero_dim.begin() + 8, 8, std::uint8_t{0});
  EXPECT_THROW(zfp::decompress<float>(zero_dim), StreamError);
}


// --- fixed-rate mode (ZFP's headline mode) ---

TEST(ZfpRate, StreamSizeIsExactlyRateTimesValues) {
  Rng rng(21);
  Dims dims(32, 32);  // 64 full blocks
  std::vector<float> data(dims.count());
  for (auto& v : data) v = static_cast<float>(rng.normal() * 100.0);
  for (double rate : {4.0, 8.0, 16.0}) {
    SCOPED_TRACE(rate);
    zfp::Params p;
    p.mode = zfp::Mode::kRate;
    p.rate = rate;
    auto stream = zfp::compress<float>(data, dims, p);
    std::size_t blocks = (32 / 4) * (32 / 4);
    std::size_t payload_bits = blocks * zfp::block_bits_for_rate(rate, 2);
    auto out = zfp::decompress<float>(stream);
    ASSERT_EQ(out.size(), data.size());
    // Container = fixed header + sized payload; payload is exactly the
    // rate-determined bit count rounded up to bytes.
    std::size_t expected_payload = (payload_bits + 7) / 8;
    EXPECT_GE(stream.size(), expected_payload);
    EXPECT_LE(stream.size(), expected_payload + 64);
  }
}

TEST(ZfpRate, HigherRateLowerError) {
  auto f = gen::hurricane_wind(Dims(8, 24, 24), 22);
  double prev = std::numeric_limits<double>::infinity();
  for (double rate : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    zfp::Params p;
    p.mode = zfp::Mode::kRate;
    p.rate = rate;
    auto stream = zfp::compress<float>(f.span(), f.dims, p);
    auto out = zfp::decompress<float>(stream);
    double err = max_abs_err<float>(f.span(), out);
    EXPECT_LE(err, prev * 1.0001) << rate;
    prev = err;
  }
  EXPECT_LT(prev, 1e-3);  // 32 bits/value on ~70-magnitude data
}

TEST(ZfpRate, AllZeroBlocksStillFixedSize) {
  std::vector<float> data(1024, 0.0f);
  zfp::Params p;
  p.mode = zfp::Mode::kRate;
  p.rate = 8.0;
  auto stream = zfp::compress<float>(data, Dims(1024), p);
  auto out = zfp::decompress<float>(stream);
  EXPECT_EQ(out, data);
  std::size_t payload_bits = (1024 / 4) * zfp::block_bits_for_rate(8.0, 1);
  EXPECT_GE(stream.size(), payload_bits / 8);
}

TEST(ZfpRate, PartialBlocksAndDoubles) {
  Rng rng(23);
  Dims dims(9, 13, 17);
  std::vector<double> data(dims.count());
  for (auto& v : data) v = rng.normal() * 1e6;
  zfp::Params p;
  p.mode = zfp::Mode::kRate;
  p.rate = 24.0;
  auto stream = zfp::compress<double>(data, dims, p);
  auto out = zfp::decompress<double>(stream);
  ASSERT_EQ(out.size(), data.size());
  EXPECT_LT(max_abs_err<double>(data, out), 1.0);
}

TEST(ZfpRate, InvalidRateThrows) {
  std::vector<float> data(16, 1.0f);
  zfp::Params p;
  p.mode = zfp::Mode::kRate;
  p.rate = 0.1;
  EXPECT_THROW(zfp::compress<float>(data, Dims(16), p), ParamError);
  p.rate = 100.0;
  EXPECT_THROW(zfp::compress<float>(data, Dims(16), p), ParamError);
}


TEST(ZfpRate, RandomBlockAccessMatchesFullDecode) {
  Rng rng(29);
  Dims dims(16, 20, 24);
  std::vector<float> data(dims.count());
  for (auto& v : data) v = static_cast<float>(rng.normal() * 50.0);
  zfp::Params p;
  p.mode = zfp::Mode::kRate;
  p.rate = 16.0;
  auto stream = zfp::compress<float>(data, dims, p);
  auto full = zfp::decompress<float>(stream);

  // Every block decoded in isolation must agree bit-exactly with the full
  // decode at the corresponding positions.
  for (std::size_t bz = 0; bz < 4; ++bz)
    for (std::size_t by = 0; by < 5; ++by)
      for (std::size_t bx = 0; bx < 6; ++bx) {
        auto block = zfp::decode_block_at<float>(stream, bz, by, bx);
        ASSERT_EQ(block.size(), 64u);
        for (std::size_t z = 0; z < 4; ++z)
          for (std::size_t y = 0; y < 4; ++y)
            for (std::size_t x = 0; x < 4; ++x) {
              std::size_t gz = bz * 4 + z, gy = by * 4 + y, gx = bx * 4 + x;
              if (gz >= 16 || gy >= 20 || gx >= 24) continue;
              ASSERT_EQ(block[(z * 4 + y) * 4 + x],
                        full[(gz * 20 + gy) * 24 + gx]);
            }
      }
}

TEST(ZfpRate, RandomAccessRejectsNonRateStreams) {
  std::vector<float> data(64, 1.0f);
  zfp::Params p;  // accuracy mode
  auto stream = zfp::compress<float>(data, Dims(64), p);
  EXPECT_THROW(zfp::decode_block_at<float>(stream, 0, 0, 0), ParamError);
}

TEST(ZfpRate, RandomAccessRejectsCorruptHeaders) {
  // Regression: the mode byte was cast without a range check, so a corrupt
  // byte surfaced as ParamError ("requires a fixed-rate stream") instead of
  // StreamError, and the layout byte was not checked at all.
  std::vector<float> data(64, 1.0f);
  zfp::Params p;
  p.mode = zfp::Mode::kRate;
  p.rate = 8.0;
  auto stream = zfp::compress<float>(data, Dims(64), p);
  ASSERT_EQ(stream[7], 0u);
  for (std::uint8_t mode : {3, 0x7f, 0xff}) {
    auto bad = stream;
    bad[6] = mode;
    EXPECT_THROW(zfp::decode_block_at<float>(bad, 0, 0, 0), StreamError)
        << "mode byte " << int{mode};
  }
  for (std::uint8_t layout : {1, 2, 0xff}) {
    auto bad = stream;
    bad[7] = layout;
    EXPECT_THROW(zfp::decode_block_at<float>(bad, 0, 0, 0), StreamError)
        << "layout byte " << int{layout};
    EXPECT_THROW(zfp::decompress<float>(bad), StreamError)
        << "layout byte " << int{layout};
  }
}

TEST(ZfpRate, RandomAccessRejectsBadCoordinates) {
  std::vector<float> data(64, 1.0f);
  zfp::Params p;
  p.mode = zfp::Mode::kRate;
  p.rate = 8.0;
  auto stream = zfp::compress<float>(data, Dims(64), p);
  EXPECT_NO_THROW(zfp::decode_block_at<float>(stream, 0, 0, 15));
  EXPECT_THROW(zfp::decode_block_at<float>(stream, 0, 0, 16), ParamError);
  EXPECT_THROW(zfp::decode_block_at<float>(stream, 1, 0, 0), ParamError);
}

// --- block groups: 2^16-value groups, coded in parallel ---

// TFP1 header: magic(4) dtype nd mode layout, dims 3 x u64, tolerance f64,
// precision u32, rate f64. A layout-1 stream continues with the sized
// group directory (u64 end offsets) and then the sized payload.
constexpr std::size_t kHeaderBytes = 52;
constexpr std::size_t kDirEntries = kHeaderBytes + 8;

std::uint64_t get_u64(const std::vector<std::uint8_t>& s, std::size_t off) {
  std::uint64_t v;
  std::memcpy(&v, s.data() + off, 8);
  return v;
}

void set_u64(std::vector<std::uint8_t>& s, std::size_t off, std::uint64_t v) {
  std::memcpy(s.data() + off, &v, 8);
}

/// Smooth 257 x 256 field: 65 x 64 = 4160 blocks, two groups of 4096.
std::vector<float> two_group_field() {
  std::vector<float> data(257 * 256);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(std::sin(0.01 * static_cast<double>(i % 256)) +
                                 std::cos(0.02 * static_cast<double>(i / 256)));
  return data;
}

std::vector<std::uint8_t> two_group_stream() {
  zfp::Params p;
  p.tolerance = 1e-3;
  return zfp::compress<float>(two_group_field(), Dims(257, 256), p);
}

void expect_stream_error(const std::vector<std::uint8_t>& s,
                         const std::string& what) {
  try {
    zfp::decompress<float>(s);
    ADD_FAILURE() << "decoded cleanly; expected: " << what;
  } catch (const StreamError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(ZfpGroups, LayoutByteMarksMultiGroupVariableRateStreams) {
  zfp::Params p;
  // Exactly one group (16384 1-D blocks): serial layout, no directory.
  std::vector<float> one(65536, 1.5f);
  EXPECT_EQ(zfp::compress<float>(one, Dims(65536), p)[7], 0u);
  // One value more starts a second group.
  std::vector<float> two(65537, 1.5f);
  auto s = zfp::compress<float>(two, Dims(65537), p);
  ASSERT_EQ(s[7], 1u);
  EXPECT_EQ(get_u64(s, kHeaderBytes), 16u);  // two end offsets
  const std::size_t payload_len_at = kDirEntries + 16;
  EXPECT_EQ(get_u64(s, kDirEntries + 8), get_u64(s, payload_len_at));
  EXPECT_EQ(s.size(), payload_len_at + 8 + get_u64(s, payload_len_at));
}

TEST(ZfpGroups, ManyEncodeWavesGiveTheSameBytes) {
  // Nine 1-D groups: compress codes four groups per worker per wave, so
  // one worker takes three waves, two take two and eight take one. The
  // bytes and the decode must not depend on how the waves fell.
  const std::size_t n = 9 * 65536 - 3;
  std::vector<float> data(n);
  for (std::size_t i = 0; i < n; ++i)
    data[i] = static_cast<float>(std::sin(0.001 * static_cast<double>(i)));
  for (zfp::Mode mode : {zfp::Mode::kAccuracy, zfp::Mode::kRate}) {
    zfp::Params p;
    p.mode = mode;
    p.rate = 5.0;
    p.threads = 1;
    auto one = zfp::compress<float>(data, Dims(n), p);
    EXPECT_EQ(one[7], mode == zfp::Mode::kRate ? 0u : 1u);
    for (std::size_t threads : {2u, 8u}) {
      p.threads = threads;
      EXPECT_EQ(zfp::compress<float>(data, Dims(n), p), one)
          << "threads=" << threads;
    }
    auto out = zfp::decompress<float>(one, nullptr, 1);
    EXPECT_EQ(zfp::decompress<float>(one, nullptr, 8), out);
    if (mode == zfp::Mode::kAccuracy) {
      EXPECT_LE(max_abs_err<float>(data, out), p.tolerance);
    }
  }
}

TEST(ZfpGroups, GroupedRoundTripHonorsTolerance) {
  auto data = two_group_field();
  auto stream = two_group_stream();
  ASSERT_EQ(stream[7], 1u);
  for (std::size_t threads : {1u, 4u}) {
    Dims dims;
    auto out = zfp::decompress<float>(stream, &dims, threads);
    EXPECT_EQ(dims, Dims(257, 256));
    EXPECT_LE(max_abs_err<float>(data, out), 1e-3) << "threads=" << threads;
  }
}

TEST(ZfpGroups, DoublesOutsideTheNormalScaleRangeRoundTrip) {
  // Blocks of doubles below ~2^-960 scale by a power of two that is not a
  // normal double; that path keeps std::ldexp. The values here are tiny
  // but normal and subnormal.
  std::vector<double> data(64);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = (i % 2 ? -1.0 : 1.0) * std::ldexp(1.0 + 0.01 * i,
                                               -1000 - static_cast<int>(i));
  zfp::Params p;
  p.mode = zfp::Mode::kPrecision;
  p.precision = 64;
  auto out = zfp::decompress<double>(
      zfp::compress<double>(data, Dims(4, 16), p));
  ASSERT_EQ(out.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    EXPECT_LE(std::abs(out[i] - data[i]), std::ldexp(1.0, -1040)) << i;
}

TEST(ZfpGroups, DecoderRejectsLayoutByteAboveOne) {
  auto s = two_group_stream();
  for (std::uint8_t layout : {2, 0x80, 0xff}) {
    auto bad = s;
    bad[7] = layout;
    expect_stream_error(bad, "layout byte");
  }
}

TEST(ZfpGroups, DecoderRejectsRaggedDirectoryLength) {
  auto bad = two_group_stream();
  set_u64(bad, kHeaderBytes, 12);
  expect_stream_error(bad, "whole number");
}

TEST(ZfpGroups, DecoderRejectsWrongGroupCount) {
  auto bad = two_group_stream();
  set_u64(bad, kHeaderBytes, 8);
  expect_stream_error(bad, "count");
  bad = two_group_stream();
  set_u64(bad, kHeaderBytes, 24);
  expect_stream_error(bad, "count");
}

TEST(ZfpGroups, DecoderRejectsNonMonotoneOffsets) {
  auto bad = two_group_stream();
  set_u64(bad, kDirEntries + 8, get_u64(bad, kDirEntries) - 1);
  expect_stream_error(bad, "monotone");
}

TEST(ZfpGroups, DecoderRejectsOffsetsPastThePayload) {
  auto bad = two_group_stream();
  set_u64(bad, kDirEntries + 8, get_u64(bad, kDirEntries + 8) + 1);
  expect_stream_error(bad, "past the payload");
  bad = two_group_stream();
  set_u64(bad, kDirEntries, ~std::uint64_t{0});
  expect_stream_error(bad, "past the payload");
  // Short of the payload end: trailing bytes no group owns.
  bad = two_group_stream();
  set_u64(bad, kDirEntries + 8, get_u64(bad, kDirEntries + 8) - 1);
  expect_stream_error(bad, "does not cover");
}

TEST(ZfpGroups, DecoderRejectsGroupReadingPastItsSpan) {
  // Group 0 loses its last byte to group 1: its blocks must not read on
  // into the neighbouring substream.
  auto bad = two_group_stream();
  set_u64(bad, kDirEntries, get_u64(bad, kDirEntries) - 1);
  expect_stream_error(bad, "past end");
  // An empty group cannot even read its first skip flag.
  bad = two_group_stream();
  set_u64(bad, kDirEntries, 0);
  expect_stream_error(bad, "past end");
}

TEST(ZfpGroups, GroupSubstreamIsTheSerialStreamOfItsBlocks) {
  // Rows 0..255 of the 257 x 256 field are exactly the 4096 blocks of
  // group 0, so that group's substream must equal the serial payload of a
  // 256 x 256 stream of the same rows: grouping adds framing, never bits.
  auto data = two_group_field();
  std::vector<float> rows(data.begin(), data.begin() + 256 * 256);
  zfp::Params p;
  p.tolerance = 1e-3;
  auto single = zfp::compress<float>(rows, Dims(256, 256), p);
  ASSERT_EQ(single[7], 0u);
  const std::uint64_t single_len = get_u64(single, kHeaderBytes);
  const std::uint8_t* single_payload = single.data() + kHeaderBytes + 8;

  auto grouped = two_group_stream();
  const std::uint64_t group0_end = get_u64(grouped, kDirEntries);
  const std::uint8_t* grouped_payload = grouped.data() + kDirEntries + 16 + 8;
  ASSERT_EQ(group0_end, single_len);
  EXPECT_EQ(std::memcmp(grouped_payload, single_payload, single_len), 0);
}

// Property sweep: the fixed-accuracy guarantee across tolerances,
// dimensionalities, and data shapes — the load-bearing invariant for ZFP_T.
class ZfpToleranceSweep
    : public ::testing::TestWithParam<std::tuple<double, int, int>> {};

TEST_P(ZfpToleranceSweep, AccuracyBoundAlwaysRespected) {
  auto [rel_tol, nd, shape] = GetParam();
  Rng rng(static_cast<std::uint64_t>(nd * 100 + shape));
  Dims dims = nd == 1 ? Dims(777) : nd == 2 ? Dims(21, 35) : Dims(9, 10, 11);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i) {
    double x = static_cast<double>(i);
    switch (shape) {
      case 0:  // smooth
        data[i] = static_cast<float>(std::sin(0.1 * x) * 40.0);
        break;
      case 1:  // noisy
        data[i] = static_cast<float>(rng.normal() * 1e5);
        break;
      default:  // wide dynamic range
        data[i] = static_cast<float>(
            std::pow(10.0, rng.uniform(-6.0, 6.0)) *
            (rng.uniform() < 0.5 ? -1 : 1));
        break;
    }
  }
  // The tolerance is scaled to the data's magnitude: float block-floating-
  // point can honor tolerances down to ~2^-21 of the per-block max, not
  // absolute tolerances finer than the data's own ulp.
  double scale = 0;
  for (float v : data) scale = std::max(scale, std::abs(
      static_cast<double>(v)));
  double tol = rel_tol * scale;
  zfp::Params p;
  p.tolerance = tol;
  auto stream = zfp::compress<float>(data, dims, p);
  auto out = zfp::decompress<float>(stream);
  EXPECT_LE(max_abs_err<float>(data, out), tol);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ZfpToleranceSweep,
    ::testing::Combine(::testing::Values(1e-6, 1e-3, 1e-1, 10.0),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(0, 1, 2)));

}  // namespace
}  // namespace transpwr
