#include "isabela/isabela.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "data/generators.h"
#include "metrics/metrics.h"

namespace transpwr {
namespace {

void expect_rel_bounded(std::span<const float> orig,
                        std::span<const float> dec, double br) {
  auto stats = compute_error_stats(orig, dec);
  EXPECT_LE(stats.max_rel, br * (1 + 1e-12));
  EXPECT_EQ(stats.modified_zeros, 0u);
}

TEST(Isabela, SmoothPositiveField) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 16, 16), 1);
  isabela::Params p;
  p.rel_bound = 1e-2;
  auto stream = isabela::compress<float>(f.span(), f.dims, p);
  Dims dims;
  auto out = isabela::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, f.dims);
  expect_rel_bounded(f.span(), out, p.rel_bound);
}

TEST(Isabela, SignedData) {
  auto f = gen::hacc_velocity(1 << 14, 2);
  isabela::Params p;
  p.rel_bound = 1e-3;
  auto stream = isabela::compress<float>(f.span(), f.dims, p);
  auto out = isabela::decompress<float>(stream);
  expect_rel_bounded(f.span(), out, p.rel_bound);
}

TEST(Isabela, ZerosRestoredExactly) {
  auto f = gen::cesm_cloud_fraction(Dims(64, 64), 3);
  isabela::Params p;
  p.rel_bound = 1e-2;
  auto stream = isabela::compress<float>(f.span(), f.dims, p);
  auto out = isabela::decompress<float>(stream);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (f.values[i] == 0.0f) {
      ASSERT_EQ(out[i], 0.0f) << i;
    }
  }
  expect_rel_bounded(f.span(), out, p.rel_bound);
}

TEST(Isabela, InputSmallerThanWindow) {
  std::vector<float> data = {5.0f, 1.0f, -3.0f, 2.5f, 0.0f, 100.0f, -7.0f};
  isabela::Params p;
  p.rel_bound = 1e-3;
  p.window = 1024;
  auto stream = isabela::compress<float>(data, Dims(data.size()), p);
  auto out = isabela::decompress<float>(stream);
  expect_rel_bounded(data, out, p.rel_bound);
}

TEST(Isabela, NonMultipleWindowTail) {
  Rng rng(4);
  std::vector<float> data(1024 * 3 + 377);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 10.0 + 50.0);
  isabela::Params p;
  p.rel_bound = 1e-2;
  auto stream = isabela::compress<float>(data, Dims(data.size()), p);
  auto out = isabela::decompress<float>(stream);
  expect_rel_bounded(data, out, p.rel_bound);
}

TEST(Isabela, PermutationRestoresOrder) {
  // Data with distinctive pattern: reversal. Sorting scrambles it; the
  // permutation must restore positions exactly.
  std::vector<float> data(2048);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<float>(data.size() - i);
  isabela::Params p;
  p.rel_bound = 1e-4;
  auto stream = isabela::compress<float>(data, Dims(data.size()), p);
  auto out = isabela::decompress<float>(stream);
  for (std::size_t i = 1; i < out.size(); ++i)
    ASSERT_LT(out[i], out[i - 1]);  // strictly decreasing preserved
  expect_rel_bounded(data, out, p.rel_bound);
}

TEST(Isabela, SpikyDataStillBounded) {
  Rng rng(5);
  std::vector<float> data(4096);
  for (auto& v : data)
    v = static_cast<float>(std::pow(10.0, rng.uniform(-5, 5)) *
                           (rng.uniform() < 0.3 ? -1 : 1));
  isabela::Params p;
  p.rel_bound = 1e-2;
  auto stream = isabela::compress<float>(data, Dims(data.size()), p);
  auto out = isabela::decompress<float>(stream);
  expect_rel_bounded(data, out, p.rel_bound);
}

TEST(Isabela, IndexOverheadBoundsCompressionRatio) {
  // The permutation index costs ~10 bits/value at window 1024 — ISABELA's
  // documented ceiling. CR must stay modest even on trivially smooth data.
  std::vector<float> data(1 << 15);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1.0f + 1e-5f * static_cast<float>(i);
  isabela::Params p;
  p.rel_bound = 1e-2;
  auto stream = isabela::compress<float>(data, Dims(data.size()), p);
  double cr = compression_ratio(data.size() * 4, stream.size());
  EXPECT_LT(cr, 4.0) << "index overhead should cap ISABELA's CR";
  EXPECT_GT(cr, 1.0);
}

TEST(Isabela, WindowAndControlVariants) {
  auto f = gen::hurricane_cloud(Dims(6, 24, 24), 6);
  for (std::uint32_t window : {64u, 256u, 2048u}) {
    SCOPED_TRACE(window);
    isabela::Params p;
    p.rel_bound = 1e-2;
    p.window = window;
    p.control_every = window / 16;
    auto stream = isabela::compress<float>(f.span(), f.dims, p);
    auto out = isabela::decompress<float>(stream);
    expect_rel_bounded(f.span(), out, p.rel_bound);
  }
}


TEST(Isabela, CubicAndLinearFitsBothBounded) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 16, 16), 9);
  for (auto fit : {isabela::Fit::kLinear, isabela::Fit::kCubic}) {
    SCOPED_TRACE(static_cast<int>(fit));
    isabela::Params p;
    p.rel_bound = 1e-3;
    p.fit = fit;
    auto stream = isabela::compress<float>(f.span(), f.dims, p);
    auto out = isabela::decompress<float>(stream);
    expect_rel_bounded(f.span(), out, p.rel_bound);
  }
}

TEST(Isabela, FitChoiceIsSecondOrder) {
  // On a smooth sorted curve (Gaussian inverse-CDF) the two fits land
  // within a few percent of each other: the permutation index dominates
  // ISABELA's size, which is exactly the paper's point about its ceiling.
  Rng rng(10);
  std::vector<float> data(1 << 15);
  for (auto& v : data) v = static_cast<float>(rng.normal() * 100.0 + 1000.0);
  isabela::Params p;
  p.rel_bound = 1e-4;
  p.fit = isabela::Fit::kLinear;
  auto linear = isabela::compress<float>(data, Dims(data.size()), p);
  p.fit = isabela::Fit::kCubic;
  auto cubic = isabela::compress<float>(data, Dims(data.size()), p);
  double rel = static_cast<double>(cubic.size()) /
               static_cast<double>(linear.size());
  EXPECT_GT(rel, 0.9);
  EXPECT_LT(rel, 1.1);
  expect_rel_bounded(data, isabela::decompress<float>(cubic), p.rel_bound);
}

TEST(Isabela, InvalidParamsThrow) {
  std::vector<float> data(100, 1.0f);
  isabela::Params p;
  p.rel_bound = 0;
  EXPECT_THROW(isabela::compress<float>(data, Dims(100), p), ParamError);
  p.rel_bound = 1e-2;
  p.window = 4;
  EXPECT_THROW(isabela::compress<float>(data, Dims(100), p), ParamError);
  p.window = 1024;
  p.control_every = 1;
  EXPECT_THROW(isabela::compress<float>(data, Dims(100), p), ParamError);
  p.control_every = 2048;
  EXPECT_THROW(isabela::compress<float>(data, Dims(100), p), ParamError);
}

TEST(Isabela, CorruptStreamThrows) {
  std::vector<float> data(200, 3.0f);
  isabela::Params p;
  auto stream = isabela::compress<float>(data, Dims(200), p);
  auto bad = stream;
  bad[0] ^= 0xff;
  EXPECT_THROW(isabela::decompress<float>(bad), StreamError);
  EXPECT_THROW(isabela::decompress<double>(stream), StreamError);
  // A hostile header shape is stream data: StreamError, not ParamError.
  for (std::uint8_t nd : {0, 4, 9}) {
    auto bad_nd = stream;
    bad_nd[5] = nd;
    EXPECT_THROW(isabela::decompress<float>(bad_nd), StreamError) << int(nd);
  }
  auto zero_dim = stream;
  std::fill_n(zero_dim.begin() + 8, 8, std::uint8_t{0});
  EXPECT_THROW(isabela::decompress<float>(zero_dim), StreamError);
}

TEST(Isabela, DoubleType) {
  Rng rng(8);
  std::vector<double> data(3000);
  for (auto& v : data) v = rng.normal() * 1e4 + 1e5;
  isabela::Params p;
  p.rel_bound = 1e-4;
  auto stream = isabela::compress<double>(data, Dims(data.size()), p);
  auto out = isabela::decompress<double>(stream);
  auto stats = compute_error_stats(std::span<const double>(data),
                                   std::span<const double>(out));
  EXPECT_LE(stats.max_rel, p.rel_bound * (1 + 1e-12));
}

}  // namespace
}  // namespace transpwr
