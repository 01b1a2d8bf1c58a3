#include "sz/interp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "sz/sz.h"
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

TEST(SzInterp, SmoothField3D) {
  auto f = gen::hurricane_wind(Dims(20, 24, 24), 1);
  sz_interp::Params p;
  p.bound = 0.05;
  auto stream = sz_interp::compress<float>(f.span(), f.dims, p);
  Dims dims;
  auto out = sz_interp::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, f.dims);
  expect_abs_bounded<float>(f.span(), out, p.bound);
  EXPECT_LT(stream.size(), f.bytes());
}

TEST(SzInterp, NonPowerOfTwoSizes) {
  Rng rng(2);
  for (Dims dims : {Dims(1), Dims(2), Dims(3), Dims(17), Dims(1000),
                    Dims(5, 7), Dims(33, 65), Dims(3, 5, 9),
                    Dims(13, 11, 7)}) {
    SCOPED_TRACE(dims.to_string());
    std::vector<float> data(dims.count());
    double v = 0;
    for (auto& x : data) {
      v += 0.1 + 0.02 * rng.normal();
      x = static_cast<float>(v);
    }
    sz_interp::Params p;
    p.bound = 1e-3;
    auto stream = sz_interp::compress<float>(data, dims, p);
    auto out = sz_interp::decompress<float>(stream);
    expect_abs_bounded<float>(data, out, p.bound);
  }
}

TEST(SzInterp, BeatsLorenzoOnSmoothData) {
  // Two-sided interpolation context should out-predict one-sided Lorenzo
  // on a very smooth field at a tight bound.
  Dims dims(64, 64);
  std::vector<float> data(dims.count());
  for (std::size_t y = 0; y < 64; ++y)
    for (std::size_t x = 0; x < 64; ++x)
      data[y * 64 + x] = static_cast<float>(
          std::sin(0.11 * static_cast<double>(x)) *
          std::cos(0.07 * static_cast<double>(y)));
  sz_interp::Params ip;
  ip.bound = 1e-5;
  auto interp_stream = sz_interp::compress<float>(data, dims, ip);
  sz::Params sp;
  sp.bound = 1e-5;
  auto lorenzo_stream = sz::compress<float>(data, dims, sp);
  EXPECT_LT(interp_stream.size(), lorenzo_stream.size());
  expect_abs_bounded<float>(data, sz_interp::decompress<float>(interp_stream),
                            1e-5);
}

TEST(SzInterp, CubicToggleBothBounded) {
  auto f = gen::nyx_dark_matter_density(Dims(24, 24, 24), 3);
  for (bool cubic : {false, true}) {
    SCOPED_TRACE(cubic);
    sz_interp::Params p;
    p.bound = 1e-3;
    p.cubic = cubic;
    auto stream = sz_interp::compress<float>(f.span(), f.dims, p);
    auto out = sz_interp::decompress<float>(stream);
    expect_abs_bounded<float>(f.span(), out, p.bound);
  }
}

TEST(SzInterp, SpikyDataFallsBackToOutliers) {
  Rng rng(4);
  std::vector<float> data(2000);
  for (auto& v : data)
    v = static_cast<float>(std::pow(10.0, rng.uniform(0, 25)) *
                           (rng.uniform() < 0.5 ? -1 : 1));
  sz_interp::Params p;
  p.bound = 1e-25;
  auto stream = sz_interp::compress<float>(data, Dims(data.size()), p);
  EXPECT_EQ(sz_interp::decompress<float>(stream), data);
}

TEST(SzInterp, DoubleType) {
  Rng rng(5);
  Dims dims(16, 16, 16);
  std::vector<double> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1e6 + std::sin(0.05 * static_cast<double>(i)) + rng.normal();
  sz_interp::Params p;
  p.bound = 1e-5;
  auto stream = sz_interp::compress<double>(data, dims, p);
  auto out = sz_interp::decompress<double>(stream);
  expect_abs_bounded<double>(data, out, p.bound);
}

TEST(SzInterp, TraversalCoversEveryPointExactlyOnce) {
  // If any point were visited twice or skipped, the code count would not
  // match the element count and decode would desynchronize — this is the
  // canary: a structured ramp must round-trip within bound at every point.
  Dims dims(6, 10, 14);
  std::vector<float> data(dims.count());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(i);
  sz_interp::Params p;
  p.bound = 0.4;
  auto out = sz_interp::decompress<float>(
      sz_interp::compress<float>(data, dims, p));
  for (std::size_t i = 0; i < data.size(); ++i)
    ASSERT_LE(std::abs(out[i] - data[i]), 0.4) << i;
}

TEST(SzInterp, InvalidParamsAndStreams) {
  std::vector<float> data(16, 1.0f);
  sz_interp::Params p;
  p.bound = 0;
  EXPECT_THROW(sz_interp::compress<float>(data, Dims(16), p), ParamError);
  p.bound = 1e-3;
  p.quant_intervals = 100;
  EXPECT_THROW(sz_interp::compress<float>(data, Dims(16), p), ParamError);

  sz_interp::Params ok;
  auto stream = sz_interp::compress<float>(data, Dims(16), ok);
  auto bad = stream;
  bad[0] ^= 0xff;
  EXPECT_THROW(sz_interp::decompress<float>(bad), StreamError);
  EXPECT_THROW(sz_interp::decompress<double>(stream), StreamError);
  // A hostile header shape is stream data: StreamError, not ParamError.
  for (std::uint8_t nd : {0, 4, 9}) {
    auto bad_nd = stream;
    bad_nd[5] = nd;
    EXPECT_THROW(sz_interp::decompress<float>(bad_nd), StreamError) << int(nd);
  }
  auto zero_dim = stream;
  std::fill_n(zero_dim.begin() + 8, 8, std::uint8_t{0});
  EXPECT_THROW(sz_interp::decompress<float>(zero_dim), StreamError);
}

class SzInterpSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(SzInterpSweep, BoundAlwaysRespected) {
  auto [bound, nd] = GetParam();
  Field<float> f = nd == 1   ? gen::hacc_velocity(1 << 12, 21)
                   : nd == 2 ? gen::cesm_temperature(Dims(48, 80), 21)
                             : gen::hurricane_cloud(Dims(10, 24, 24), 21);
  sz_interp::Params p;
  p.bound = bound;
  auto stream = sz_interp::compress<float>(f.span(), f.dims, p);
  auto out = sz_interp::decompress<float>(stream);
  expect_abs_bounded<float>(f.span(), out, bound);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SzInterpSweep,
    ::testing::Combine(::testing::Values(1e-6, 1e-4, 1e-2, 1.0),
                       ::testing::Values(1, 2, 3)));

}  // namespace
}  // namespace transpwr
