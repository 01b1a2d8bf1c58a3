#include "sz/sz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "metrics/metrics.h"

namespace transpwr {
namespace {

template <typename T>
void expect_abs_bounded(std::span<const T> orig, std::span<const T> dec,
                        double eb) {
  ASSERT_EQ(orig.size(), dec.size());
  double worst = 0;
  for (std::size_t i = 0; i < orig.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(orig[i]) -
                                     static_cast<double>(dec[i])));
  EXPECT_LE(worst, eb);
}

TEST(SzAbs, SmoothFieldRoundTrip3D) {
  auto f = gen::nyx_velocity(Dims(20, 20, 20), 1);
  sz::Params p;
  p.bound = 100.0;
  auto stream = sz::compress<float>(f.span(), f.dims, p);
  Dims dims;
  auto out = sz::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, f.dims);
  expect_abs_bounded<float>(f.span(), out, p.bound);
  EXPECT_LT(stream.size(), f.bytes());
}

TEST(SzAbs, Dims1D2D3DAllWork) {
  Rng rng(2);
  for (Dims dims : {Dims(500), Dims(25, 20), Dims(8, 9, 7)}) {
    SCOPED_TRACE(dims.to_string());
    std::vector<float> data(dims.count());
    double v = 0;
    for (auto& x : data) {
      v += rng.normal();
      x = static_cast<float>(v);
    }
    sz::Params p;
    p.bound = 0.05;
    auto stream = sz::compress<float>(data, dims, p);
    auto out = sz::decompress<float>(stream);
    expect_abs_bounded<float>(data, out, p.bound);
  }
}

TEST(SzAbs, SpikyDataFallsBackToOutliers) {
  // Alternating huge spikes defeat the predictor; everything becomes an
  // outlier and must still round-trip exactly (outliers are verbatim).
  std::vector<float> data(1000);
  Rng rng(3);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = (i % 2 ? 1.0f : -1.0f) *
              static_cast<float>(std::pow(10.0, rng.uniform(0, 30)));
  sz::Params p;
  p.bound = 1e-20;
  auto stream = sz::compress<float>(data, Dims(data.size()), p);
  auto out = sz::decompress<float>(stream);
  EXPECT_EQ(out, data);
}

TEST(SzAbs, ConstantFieldCompressesExtremelyWell) {
  std::vector<float> data(100000, 3.14f);
  sz::Params p;
  p.bound = 1e-4;
  auto stream = sz::compress<float>(data, Dims(data.size()), p);
  EXPECT_GT(compression_ratio(data.size() * 4, stream.size()), 100.0);
  auto out = sz::decompress<float>(stream);
  expect_abs_bounded<float>(data, out, p.bound);
}

TEST(SzAbs, DoubleTypeRoundTrip) {
  Rng rng(4);
  std::vector<double> data(5000);
  double v = 1000;
  for (auto& x : data) {
    v += rng.normal() * 0.1;
    x = v;
  }
  sz::Params p;
  p.bound = 1e-6;
  auto stream = sz::compress<double>(data, Dims(data.size()), p);
  auto out = sz::decompress<double>(stream);
  expect_abs_bounded<double>(data, out, p.bound);
}

TEST(SzAbs, QuantIntervalVariants) {
  auto f = gen::cesm_cloud_fraction(Dims(64, 64), 5);
  for (std::uint32_t intervals : {16u, 256u, 4096u, 65536u}) {
    SCOPED_TRACE(intervals);
    sz::Params p;
    p.bound = 1e-3;
    p.quant_intervals = intervals;
    auto stream = sz::compress<float>(f.span(), f.dims, p);
    auto out = sz::decompress<float>(stream);
    expect_abs_bounded<float>(f.span(), out, p.bound);
  }
}

TEST(SzAbs, LzStageToggleBothDecode) {
  auto f = gen::cesm_cloud_fraction(Dims(64, 64), 6);
  sz::Params p;
  p.bound = 1e-3;
  p.lz_stage = false;
  auto s1 = sz::compress<float>(f.span(), f.dims, p);
  p.lz_stage = true;
  auto s2 = sz::compress<float>(f.span(), f.dims, p);
  EXPECT_LE(s2.size(), s1.size());
  expect_abs_bounded<float>(f.span(), sz::decompress<float>(s1), p.bound);
  expect_abs_bounded<float>(f.span(), sz::decompress<float>(s2), p.bound);
}

TEST(SzAbs, TinyInputs) {
  for (std::size_t n : {1u, 2u, 3u, 5u}) {
    std::vector<float> data(n, 1.25f);
    sz::Params p;
    p.bound = 1e-3;
    auto stream = sz::compress<float>(data, Dims(n), p);
    auto out = sz::decompress<float>(stream);
    expect_abs_bounded<float>(data, out, p.bound);
  }
}

TEST(SzPwr, RelativeBoundHeldOnPositiveData) {
  auto f = gen::nyx_dark_matter_density(Dims(24, 24, 24), 7);
  sz::Params p;
  p.mode = sz::Mode::kPwrBlock;
  p.bound = 1e-2;
  auto stream = sz::compress<float>(f.span(), f.dims, p);
  auto out = sz::decompress<float>(stream);
  auto stats = compute_error_stats(f.span(), std::span<const float>(out));
  // Nonzero points must respect the relative bound (modified zeros are the
  // documented SZ_PWR deviation, the paper's `*`).
  EXPECT_LE(stats.max_rel, p.bound * (1 + 1e-12));
}

TEST(SzPwr, WideDynamicRangeStaysBounded) {
  // Values spanning 12 orders of magnitude: the per-block bound must follow
  // the local minimum.
  Rng rng(8);
  std::vector<float> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i) {
    double mag = std::pow(10.0, -6.0 + 12.0 * (static_cast<double>(i) /
                                               data.size()));
    data[i] = static_cast<float>(mag * (1.0 + 0.01 * rng.normal()));
  }
  sz::Params p;
  p.mode = sz::Mode::kPwrBlock;
  p.bound = 1e-3;
  auto stream = sz::compress<float>(data, Dims(data.size()), p);
  auto out = sz::decompress<float>(stream);
  auto stats = compute_error_stats(std::span<const float>(data),
                                   std::span<const float>(out));
  EXPECT_LE(stats.max_rel, p.bound * (1 + 1e-12));
}

TEST(SzPwr, BlockEdgeVariants) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 16, 16), 9);
  for (std::uint32_t edge : {4u, 8u, 16u}) {
    SCOPED_TRACE(edge);
    sz::Params p;
    p.mode = sz::Mode::kPwrBlock;
    p.bound = 1e-2;
    p.block_edge = edge;
    auto stream = sz::compress<float>(f.span(), f.dims, p);
    auto out = sz::decompress<float>(stream);
    auto stats = compute_error_stats(f.span(), std::span<const float>(out));
    EXPECT_LE(stats.max_rel, p.bound * (1 + 1e-12));
  }
}

TEST(SzPwr, AllZeroFieldRoundTripsExactly) {
  std::vector<float> data(2048, 0.0f);
  sz::Params p;
  p.mode = sz::Mode::kPwrBlock;
  p.bound = 1e-2;
  auto stream = sz::compress<float>(data, Dims(data.size()), p);
  auto out = sz::decompress<float>(stream);
  EXPECT_EQ(out, data);
}

TEST(SzPwr, SmallerBoundCostsMoreBits) {
  auto f = gen::nyx_dark_matter_density(Dims(20, 20, 20), 10);
  sz::Params p;
  p.mode = sz::Mode::kPwrBlock;
  p.bound = 1e-1;
  auto loose = sz::compress<float>(f.span(), f.dims, p);
  p.bound = 1e-4;
  auto tight = sz::compress<float>(f.span(), f.dims, p);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(SzErrors, InvalidParams) {
  std::vector<float> data(10, 1.0f);
  sz::Params p;
  p.bound = 0.0;
  EXPECT_THROW(sz::compress<float>(data, Dims(10), p), ParamError);
  p.bound = 1e-3;
  p.quant_intervals = 100;  // not a power of two
  EXPECT_THROW(sz::compress<float>(data, Dims(10), p), ParamError);
  p.quant_intervals = 2;  // too small
  EXPECT_THROW(sz::compress<float>(data, Dims(10), p), ParamError);
}

TEST(SzErrors, SizeMismatchThrows) {
  std::vector<float> data(10, 1.0f);
  sz::Params p;
  EXPECT_THROW(sz::compress<float>(data, Dims(11), p), ParamError);
}

TEST(SzErrors, CorruptStreamsThrow) {
  std::vector<float> data(100, 1.0f);
  sz::Params p;
  auto stream = sz::compress<float>(data, Dims(100), p);
  // bad magic
  auto bad = stream;
  bad[0] ^= 0xff;
  EXPECT_THROW(sz::decompress<float>(bad), StreamError);
  // wrong type
  EXPECT_THROW(sz::decompress<double>(stream), StreamError);
  // truncation
  auto cut = stream;
  cut.resize(cut.size() / 3);
  EXPECT_THROW(sz::decompress<float>(cut), StreamError);
  // A hostile header shape is stream data: StreamError, not ParamError.
  for (std::uint8_t nd : {0, 4, 9}) {
    auto bad_nd = stream;
    bad_nd[5] = nd;
    EXPECT_THROW(sz::decompress<float>(bad_nd), StreamError) << int(nd);
  }
  auto zero_dim = stream;
  std::fill_n(zero_dim.begin() + 9, 8, std::uint8_t{0});
  EXPECT_THROW(sz::decompress<float>(zero_dim), StreamError);
}



TEST(SzOutliers, CorrelatedOutliersCompressBelowVerbatim) {
  // All-outlier data (tiny bound, smooth drift): the XOR leading-byte
  // coding should store well under 4 bytes per value.
  std::vector<float> data(20000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1000.0f + 0.125f * static_cast<float>(i % 37);
  sz::Params p;
  p.bound = 1e-30;  // everything predictable fails the bound check
  p.quant_intervals = 4;
  auto stream = sz::compress<float>(data, Dims(data.size()), p);
  auto out = sz::decompress<float>(stream);
  EXPECT_EQ(out, data);  // outliers are exact
  EXPECT_LT(stream.size(), data.size() * 3);  // < 3 bytes/value
}

TEST(SzOutliers, UncorrelatedOutliersStillExact) {
  Rng rng(41);
  std::vector<float> data(5000);
  for (auto& v : data)
    v = static_cast<float>(rng.normal() * std::pow(10.0,
                                                   rng.uniform(-20, 20)));
  sz::Params p;
  p.bound = 1e-35;
  auto stream = sz::compress<float>(data, Dims(data.size()), p);
  EXPECT_EQ(sz::decompress<float>(stream), data);
}

// --- SZ 2.x-style hybrid predictor (Predictor::kAuto) ---

TEST(SzHybrid, BoundStillRespected) {
  auto f = gen::hurricane_wind(Dims(16, 32, 32), 31);
  sz::Params p;
  p.bound = 0.05;
  p.predictor = sz::Predictor::kAuto;
  auto stream = sz::compress<float>(f.span(), f.dims, p);
  auto out = sz::decompress<float>(stream);
  expect_abs_bounded<float>(f.span(), out, p.bound);
}

TEST(SzHybrid, RegressionWinsOnPlanarData) {
  // Perfect plane: regression predicts exactly; the stream should be much
  // smaller than with the pure Lorenzo predictor under a tight bound.
  Dims dims(48, 48);
  std::vector<float> data(dims.count());
  for (std::size_t y = 0; y < 48; ++y)
    for (std::size_t x = 0; x < 48; ++x)
      data[y * 48 + x] = 3.0f + 0.25f * static_cast<float>(x) -
                         0.125f * static_cast<float>(y);
  sz::Params p;
  p.bound = 1e-6;
  auto lorenzo_stream = sz::compress<float>(data, dims, p);
  p.predictor = sz::Predictor::kAuto;
  auto hybrid_stream = sz::compress<float>(data, dims, p);
  EXPECT_LE(hybrid_stream.size(), lorenzo_stream.size() + 64);
  auto out = sz::decompress<float>(hybrid_stream);
  expect_abs_bounded<float>(data, out, p.bound);
}

TEST(SzHybrid, NoisyDataFallsBackToLorenzo) {
  // On rough data the plan should keep (mostly) Lorenzo and never hurt
  // correctness.
  Rng rng(33);
  std::vector<float> data(4096);
  for (auto& v : data) v = static_cast<float>(rng.normal());
  sz::Params p;
  p.bound = 0.01;
  p.predictor = sz::Predictor::kAuto;
  auto stream = sz::compress<float>(data, Dims(4096), p);
  auto out = sz::decompress<float>(stream);
  expect_abs_bounded<float>(data, out, p.bound);
}

TEST(SzHybrid, WorksInPwrModeToo) {
  auto f = gen::nyx_dark_matter_density(Dims(20, 20, 20), 35);
  sz::Params p;
  p.mode = sz::Mode::kPwrBlock;
  p.bound = 1e-2;
  p.predictor = sz::Predictor::kAuto;
  auto stream = sz::compress<float>(f.span(), f.dims, p);
  auto out = sz::decompress<float>(stream);
  auto stats = compute_error_stats(f.span(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel, p.bound * (1 + 1e-12));
}

TEST(SzHybrid, AllDimensionalities) {
  Rng rng(37);
  for (Dims dims : {Dims(700), Dims(30, 25), Dims(9, 11, 13)}) {
    SCOPED_TRACE(dims.to_string());
    std::vector<float> data(dims.count());
    double v = 0;
    for (auto& x : data) {
      v += 0.3 + 0.05 * rng.normal();
      x = static_cast<float>(v);
    }
    sz::Params p;
    p.bound = 0.01;
    p.predictor = sz::Predictor::kAuto;
    auto stream = sz::compress<float>(data, dims, p);
    auto out = sz::decompress<float>(stream);
    expect_abs_bounded<float>(data, out, p.bound);
  }
}

TEST(SzHybrid, DoubleType) {
  Dims dims(24, 24, 24);
  std::vector<double> data(dims.count());
  std::size_t i = 0;
  for (std::size_t z = 0; z < 24; ++z)
    for (std::size_t y = 0; y < 24; ++y)
      for (std::size_t x = 0; x < 24; ++x, ++i)
        data[i] = 1e3 + 2.0 * x - 0.5 * y + 0.25 * z;
  sz::Params p;
  p.bound = 1e-9;
  p.predictor = sz::Predictor::kAuto;
  auto stream = sz::compress<double>(data, dims, p);
  auto out = sz::decompress<double>(stream);
  expect_abs_bounded<double>(data, out, p.bound);
}

// Property sweep: bound x dimensionality on realistic fields.
class SzBoundSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SzBoundSweep, AbsBoundAlwaysRespected) {
  auto [bound, nd] = GetParam();
  Field<float> f = nd == 1   ? gen::hacc_velocity(1 << 12, 21)
                   : nd == 2 ? gen::cesm_flux(Dims(48, 80), 21)
                             : gen::hurricane_wind(Dims(10, 24, 24), 21);
  sz::Params p;
  p.bound = bound;
  auto stream = sz::compress<float>(f.span(), f.dims, p);
  auto out = sz::decompress<float>(stream);
  expect_abs_bounded<float>(f.span(), out, bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SzBoundSweep,
    ::testing::Combine(::testing::Values(1e-4, 1e-2, 1.0, 100.0),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace transpwr
