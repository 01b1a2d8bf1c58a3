#include "core/temporal.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/bytestream.h"
#include "common/checksum.h"
#include "common/error.h"
#include "compat/golden_fields.h"
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

// Golden TMP1 sequences: temporal_{sz,zfp}_f32.v1 hold a keyframe and two
// delta snapshots of a signed, zero-bearing field, each snapshot a sized
// section. The encoder must reproduce them byte-for-byte (at 1 and 4
// threads) and the decoder must reconstruct them to the recorded checksum.
// Regenerate with TRANSPWR_REGEN_GOLDEN=1 after an intentional change.
std::vector<float> golden_snapshot(int t) {
  auto v = golden::paraboloid<float>(20, 36);
  for (auto& x : v) x *= 1.0f + 0.0078125f * static_cast<float>(t);
  return v;
}

std::vector<std::uint8_t> golden_sequence(InnerCodec codec,
                                          std::size_t threads) {
  TransformedParams p;
  p.rel_bound = 1e-3;
  p.threads = threads;
  TemporalCompressor enc(codec, p);
  ByteWriter out;
  for (int t = 0; t < 3; ++t)
    out.put_sized(enc.compress_snapshot(golden_snapshot(t), Dims(20, 36)));
  return out.take();
}

void check_golden(InnerCodec codec, const std::string& name,
                  std::uint64_t fnv) {
  const std::string path = std::string(TRANSPWR_GOLDEN_DIR) + "/" + name;
  auto stream = golden_sequence(codec, 1);
  EXPECT_EQ(golden_sequence(codec, 4), stream)
      << "stream bytes depend on the thread count";
  if (std::getenv("TRANSPWR_REGEN_GOLDEN")) {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(stream.data(), 1, stream.size(), f);
    std::fclose(f);
  }
  std::vector<std::uint8_t> committed;
  if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
    int c;
    while ((c = std::fgetc(f)) != EOF)
      committed.push_back(static_cast<std::uint8_t>(c));
    std::fclose(f);
  }
  ASSERT_FALSE(committed.empty()) << "missing golden stream " << path;
  EXPECT_EQ(stream, committed) << "encoder drifted from " << name;

  TemporalDecompressor dec;
  ByteReader in(committed);
  std::vector<std::uint8_t> decoded;
  for (int t = 0; t < 3; ++t) {
    Dims dims;
    auto out = dec.decompress_snapshot(in.get_sized(), &dims);
    EXPECT_EQ(dims, Dims(20, 36));
    expect_bounded(golden_snapshot(t), out, 1e-3);
    auto bytes = reinterpret_cast<const std::uint8_t*>(out.data());
    decoded.insert(decoded.end(), bytes, bytes + out.size() * sizeof(float));
  }
  EXPECT_EQ(in.remaining(), 0u);
  if (std::getenv("TRANSPWR_REGEN_GOLDEN"))
    std::printf("%s payload fnv: 0x%016llx\n", name.c_str(),
                static_cast<unsigned long long>(fnv1a64(decoded)));
  EXPECT_EQ(fnv1a64(decoded), fnv);
}

TEST(TemporalGolden, SzFloat) {
  check_golden(InnerCodec::kSz, "temporal_sz_f32.v1", 0x40eec5c189db8479ULL);
}

TEST(TemporalGolden, ZfpFloat) {
  check_golden(InnerCodec::kZfp, "temporal_zfp_f32.v1", 0x592d5ffdd58bfc7cULL);
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

// TMP1: magic(4) dtype codec delta signs base(8) zero_threshold(8), then
// the sized sign section and the sized inner stream.
std::uint32_t inner_magic(std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  in.get_bytes(24);
  in.get_sized();
  ByteReader inner(in.get_sized());
  return inner.get<std::uint32_t>();
}

TEST(Temporal, SzInterpInnerCodecCarriesAnInterpPayload) {
  const double br = 1e-2;
  TransformedParams p;
  p.rel_bound = br;
  TemporalCompressor enc(InnerCodec::kSzInterp, p);
  TemporalDecompressor dec;
  auto snap = gen::nyx_velocity(Dims(10, 12, 14), 11);
  for (int t = 0; t < 3; ++t) {
    SCOPED_TRACE(t);
    auto stream = enc.compress_snapshot(snap.span(), snap.dims);
    ASSERT_GT(stream.size(), 6u);
    EXPECT_EQ(stream[5], static_cast<std::uint8_t>(InnerCodec::kSzInterp));
    EXPECT_EQ(inner_magic(stream), 0x31495A53u) << "inner stream is not SZI1";
    Dims dims;
    expect_bounded(snap.span(), dec.decompress_snapshot(stream, &dims), br);
    EXPECT_EQ(dims, snap.dims);
    snap = gen::evolve(snap, 700 + static_cast<std::uint64_t>(t));
  }
}

TEST(Temporal, HostileHeadersAreStreamErrors) {
  TransformedParams p;
  p.rel_bound = 1e-2;
  TemporalCompressor enc(InnerCodec::kSz, p);
  auto snap = gen::nyx_velocity(Dims(8, 8, 8), 13);
  const auto key = enc.compress_snapshot(snap.span(), snap.dims);

  // The log base (offset 8) must be finite and > 1, as in TRT1.
  for (double base : {0.5, 1.0, -2.0, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(base);
    auto bad = key;
    std::memcpy(bad.data() + 8, &base, sizeof base);
    TemporalDecompressor dec;
    EXPECT_THROW(dec.decompress_snapshot(bad), StreamError);
  }
  // Codec byte (offset 5): 2 names SZ-interp, which this SZ payload is
  // not; anything above 2 names no codec at all.
  for (std::uint8_t codec : {2, 3, 99, 255}) {
    SCOPED_TRACE(int(codec));
    auto bad = key;
    bad[5] = codec;
    TemporalDecompressor dec;
    EXPECT_THROW(dec.decompress_snapshot(bad), StreamError);
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
