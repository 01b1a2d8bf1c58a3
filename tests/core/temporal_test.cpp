#include "core/temporal.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "data/generators.h"
#include "metrics/metrics.h"

namespace transpwr {
namespace {

void expect_bounded(std::span<const float> orig, std::span<const float> dec,
                    double br) {
  auto stats = compute_error_stats(orig, dec);
  ASSERT_LE(stats.max_rel, br);
  ASSERT_EQ(stats.modified_zeros, 0u);
}

TEST(Temporal, EverySnapshotStrictlyBounded) {
  const double br = 1e-2;
  TransformedParams p;
  p.rel_bound = br;
  TemporalCompressor enc(InnerCodec::kSz, p);
  TemporalDecompressor dec;

  auto snap = gen::nyx_dark_matter_density(Dims(16, 16, 16), 1);
  for (int t = 0; t < 6; ++t) {
    SCOPED_TRACE(t);
    auto stream = enc.compress_snapshot(snap.span(), snap.dims);
    Dims dims;
    auto out = dec.decompress_snapshot(stream, &dims);
    EXPECT_EQ(dims, snap.dims);
    expect_bounded(snap.span(), out, br);
    snap = gen::evolve(snap, 100 + static_cast<std::uint64_t>(t));
  }
  EXPECT_EQ(enc.snapshots_seen(), 6u);
}

TEST(Temporal, NoErrorAccumulationOverLongSequences) {
  // 20 steps: if the scheme accumulated error, late snapshots would
  // violate the bound.
  const double br = 1e-3;
  TransformedParams p;
  p.rel_bound = br;
  TemporalCompressor enc(InnerCodec::kSz, p);
  TemporalDecompressor dec;
  auto snap = gen::hurricane_cloud(Dims(8, 24, 24), 2);
  double worst = 0;
  for (int t = 0; t < 20; ++t) {
    auto out = dec.decompress_snapshot(
        enc.compress_snapshot(snap.span(), snap.dims));
    auto stats = compute_error_stats(snap.span(),
                                     std::span<const float>(out));
    worst = std::max(worst, stats.max_rel);
    ASSERT_EQ(stats.modified_zeros, 0u) << t;
    snap = gen::evolve(snap, 200 + static_cast<std::uint64_t>(t));
  }
  EXPECT_LE(worst, br);
}

TEST(Temporal, DeltasBeatKeyframesOnSlowEvolution) {
  const double br = 1e-3;
  TransformedParams p;
  p.rel_bound = br;
  TemporalCompressor enc(InnerCodec::kSz, p);

  auto snap = gen::nyx_dark_matter_density(Dims(20, 20, 20), 3);
  auto key_stream = enc.compress_snapshot(snap.span(), snap.dims);
  auto next = gen::evolve(snap, 42, /*step_fraction=*/0.005);
  auto delta_stream = enc.compress_snapshot(next.span(), next.dims);
  // The delta of a 0.5%-changed snapshot must be much cheaper than a fresh
  // keyframe of equal content.
  EXPECT_LT(delta_stream.size(), key_stream.size() / 2);
}

TEST(Temporal, SignFlipsBetweenSnapshotsHandled) {
  const double br = 1e-2;
  TransformedParams p;
  p.rel_bound = br;
  TemporalCompressor enc(InnerCodec::kSz, p);
  TemporalDecompressor dec;

  auto a = gen::nyx_velocity(Dims(12, 12, 12), 4);
  auto out_a = dec.decompress_snapshot(enc.compress_snapshot(a.span(),
                                                             a.dims));
  expect_bounded(a.span(), out_a, br);

  // Negate the field entirely: every sign flips, magnitudes identical.
  Field<float> b = a;
  for (auto& v : b.values) v = -v;
  auto out_b = dec.decompress_snapshot(enc.compress_snapshot(b.span(),
                                                             b.dims));
  expect_bounded(b.span(), out_b, br);
  for (std::size_t i = 0; i < out_b.size(); ++i)
    ASSERT_EQ(std::signbit(out_b[i]), std::signbit(b.values[i]));
}

TEST(Temporal, ZfpInnerCodecWorksToo) {
  const double br = 1e-2;
  TransformedParams p;
  p.rel_bound = br;
  TemporalCompressor enc(InnerCodec::kZfp, p);
  TemporalDecompressor dec;
  auto snap = gen::hurricane_wind(Dims(12, 16, 16), 5);
  for (int t = 0; t < 3; ++t) {
    auto out = dec.decompress_snapshot(
        enc.compress_snapshot(snap.span(), snap.dims));
    expect_bounded(snap.span(), out, br);
    snap = gen::evolve(snap, 300 + static_cast<std::uint64_t>(t));
  }
}

TEST(Temporal, GroupedZfpSnapshotsIgnoreTheThreadCount) {
  // 5 x 16 x 16 = 1280 blocks: the inner ZFP payload spans two groups.
  const double br = 1e-2;
  TransformedParams p1, p4;
  p1.rel_bound = p4.rel_bound = br;
  p1.threads = 1;
  p4.threads = 4;
  TemporalCompressor enc1(InnerCodec::kZfp, p1), enc4(InnerCodec::kZfp, p4);
  TemporalDecompressor dec;
  auto snap = gen::nyx_dark_matter_density(Dims(20, 64, 64), 9);
  for (int t = 0; t < 3; ++t) {
    SCOPED_TRACE(t);
    auto stream = enc1.compress_snapshot(snap.span(), snap.dims);
    EXPECT_EQ(enc4.compress_snapshot(snap.span(), snap.dims), stream);
    expect_bounded(snap.span(), dec.decompress_snapshot(stream), br);
    snap = gen::evolve(snap, 500 + static_cast<std::uint64_t>(t));
  }
}

TEST(Temporal, ResetStartsANewKeyframe) {
  TransformedParams p;
  p.rel_bound = 1e-2;
  TemporalCompressor enc(InnerCodec::kSz, p);
  TemporalDecompressor dec;
  auto snap = gen::cesm_cloud_fraction(Dims(32, 32), 6);
  enc.compress_snapshot(snap.span(), snap.dims);
  enc.reset();
  auto stream = enc.compress_snapshot(snap.span(), snap.dims);
  // A fresh decoder must accept it (i.e. it is a keyframe).
  TemporalDecompressor fresh;
  auto out = fresh.decompress_snapshot(stream);
  expect_bounded(snap.span(), out, 1e-2);
}

TEST(Temporal, Validation) {
  TransformedParams p;
  p.rel_bound = 1e-2;
  TemporalCompressor enc(InnerCodec::kSz, p);
  auto snap = gen::cesm_cloud_fraction(Dims(16, 16), 7);
  enc.compress_snapshot(snap.span(), snap.dims);
  std::vector<float> wrong(100, 1.0f);
  EXPECT_THROW(enc.compress_snapshot(wrong, Dims(100)), ParamError);

  // Delta stream into a fresh decoder must be rejected.
  auto next = gen::evolve(snap, 8);
  auto delta = enc.compress_snapshot(next.span(), next.dims);
  TemporalDecompressor fresh;
  EXPECT_THROW(fresh.decompress_snapshot(delta), StreamError);
}

TEST(Temporal, EvolveGeneratorProperties) {
  auto f = gen::hurricane_cloud(Dims(8, 24, 24), 9);  // many exact zeros
  auto g = gen::evolve(f, 1, 0.02);
  ASSERT_EQ(g.values.size(), f.values.size());
  std::size_t zeros_kept = 0;
  for (std::size_t i = 0; i < f.values.size(); ++i) {
    if (f.values[i] == 0.0f) {
      ASSERT_EQ(g.values[i], 0.0f);
      ++zeros_kept;
    } else {
      ASSERT_LE(std::abs(g.values[i] - f.values[i]),
                0.021 * std::abs(f.values[i]));
    }
  }
  EXPECT_GT(zeros_kept, 0u);
}

}  // namespace
}  // namespace transpwr
