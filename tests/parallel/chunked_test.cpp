#include "parallel/chunked.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "data/generators.h"
#include "metrics/metrics.h"
#include "store/archive.h"

namespace transpwr {
namespace {

TEST(Chunked, BoundPreservedAcrossSlabs) {
  auto f = gen::nyx_dark_matter_density(Dims(24, 24, 24), 1);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  p.threads = 4;
  auto stream = chunked::compress<float>(f.span(), f.dims, p);
  Dims dims;
  auto out = chunked::decompress<float>(stream, &dims, 4);
  EXPECT_EQ(dims, f.dims);
  auto stats = compute_error_stats(f.span(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel, 1e-2);
  EXPECT_EQ(stats.modified_zeros, 0u);
}

TEST(Chunked, MatchesSingleChunkSemantics) {
  auto f = gen::cesm_flux(Dims(60, 80), 2);
  chunked::Params p;
  p.scheme = Scheme::kFpzip;
  p.compressor.bound = 1e-3;
  p.num_chunks = 1;
  p.threads = 1;
  auto one = chunked::decompress<float>(
      chunked::compress<float>(f.span(), f.dims, p));
  // fpzip output is deterministic truncation, so a direct (unchunked)
  // compressor must agree exactly with the 1-chunk container.
  auto direct_comp = make_compressor(Scheme::kFpzip);
  auto direct = direct_comp->decompress_f32(
      direct_comp->compress(f.span(), f.dims, p.compressor));
  EXPECT_EQ(one, direct);
}

TEST(Chunked, ChunkCountVariants) {
  auto f = gen::hurricane_wind(Dims(20, 24, 24), 3);
  for (std::size_t chunks : {1u, 2u, 5u, 20u, 100u}) {
    SCOPED_TRACE(chunks);
    chunked::Params p;
    p.scheme = Scheme::kSzT;
    p.compressor.bound = 1e-2;
    p.num_chunks = chunks;  // >rows gets clamped
    p.threads = 3;
    auto stream = chunked::compress<float>(f.span(), f.dims, p);
    auto out = chunked::decompress<float>(stream);
    auto stats = compute_error_stats(f.span(), std::span<const float>(out));
    EXPECT_LE(stats.max_rel, 1e-2);
  }
}

TEST(Chunked, AllDimensionalities) {
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  p.threads = 2;
  p.num_chunks = 3;
  auto f1 = gen::hacc_velocity(5000, 4);
  auto f2 = gen::cesm_cloud_fraction(Dims(50, 64), 5);
  auto f3 = gen::nyx_velocity(Dims(12, 16, 16), 6);
  for (const Field<float>* f : {&f1, &f2, &f3}) {
    SCOPED_TRACE(f->dims.to_string());
    auto stream = chunked::compress<float>(f->span(), f->dims, p);
    auto out = chunked::decompress<float>(stream);
    auto stats = compute_error_stats(f->span(), std::span<const float>(out));
    EXPECT_LE(stats.max_rel, 1e-2);
  }
}

TEST(Chunked, EverySchemeWorksUnderChunking) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 16, 16), 7);
  for (Scheme s : all_schemes()) {
    SCOPED_TRACE(scheme_name(s));
    chunked::Params p;
    p.scheme = s;
    p.compressor.bound = s == Scheme::kSzAbs ? 1.0 : 1e-2;
    p.threads = 2;
    p.num_chunks = 4;
    auto stream = chunked::compress<float>(f.span(), f.dims, p);
    auto out = chunked::decompress<float>(stream);
    EXPECT_EQ(out.size(), f.values.size());
  }
}

TEST(Chunked, DoubleType) {
  std::vector<double> data(4096);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = 1e5 + std::sin(0.01 * static_cast<double>(i));
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-6;
  p.num_chunks = 8;
  auto stream = chunked::compress<double>(data, Dims(4096), p);
  auto out = chunked::decompress<double>(stream);
  auto stats = compute_error_stats(std::span<const double>(data),
                                   std::span<const double>(out));
  EXPECT_LE(stats.max_rel, 1e-6);
}



// --- checksums and region-of-interest decode ---

TEST(Chunked, ChecksumCatchesSilentCorruption) {
  auto f = gen::nyx_dark_matter_density(Dims(16, 16, 16), 21);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  p.num_chunks = 4;
  auto stream = chunked::compress<float>(f.span(), f.dims, p);
  // Flip one bit deep inside the payload (past header and row table).
  auto bad = stream;
  bad[bad.size() / 2] ^= 0x10;
  EXPECT_THROW(chunked::decompress<float>(bad), StreamError);
}

TEST(Chunked, RoiMatchesFullDecode) {
  auto f = gen::hurricane_wind(Dims(24, 20, 20), 22);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  p.num_chunks = 6;  // 4 rows per slab
  auto stream = chunked::compress<float>(f.span(), f.dims, p);
  auto full = chunked::decompress<float>(stream);

  for (auto [b, e] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 24}, {0, 1}, {5, 9}, {3, 21}, {23, 24}}) {
    SCOPED_TRACE(b);
    Dims roi;
    auto rows = chunked::decompress_rows<float>(stream, b, e, &roi);
    EXPECT_EQ(roi[0], e - b);
    EXPECT_EQ(roi[1], 20u);
    ASSERT_EQ(rows.size(), (e - b) * 20 * 20);
    for (std::size_t i = 0; i < rows.size(); ++i)
      ASSERT_EQ(rows[i], full[b * 400 + i]) << i;
  }
}

// Pin the ROI edge semantics: the full range reproduces decompress()
// exactly, a single-row ROI works right at the last slab boundary (both
// the last row of the second-to-last slab and the first row of the last
// one), the empty range is a ParamError (not an empty result), and
// out-of-range rows throw before any slab is decoded.
TEST(Chunked, RoiEdgeCases) {
  auto f = gen::nyx_velocity(Dims(26, 6, 6), 31);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  p.num_chunks = 4;  // 26 rows split unevenly across 4 slabs
  p.threads = 2;
  auto stream = chunked::compress<float>(f.span(), f.dims, p);

  Dims full_dims;
  auto full = chunked::decompress<float>(stream, &full_dims);
  Dims roi_dims;
  auto all_rows = chunked::decompress_rows<float>(stream, 0, 26, &roi_dims);
  EXPECT_EQ(roi_dims, full_dims);
  EXPECT_EQ(all_rows, full);

  // Single-row ROIs straddling the last slab boundary. With 26 rows over 4
  // slabs the last slab starts at row ceil(26/4)*3 = 21; probe both sides
  // of every possible boundary row so the test stays correct even if the
  // split rule changes.
  const std::size_t row = 36;
  for (std::size_t b : {20u, 21u, 25u}) {
    SCOPED_TRACE(b);
    auto one = chunked::decompress_rows<float>(stream, b, b + 1, &roi_dims);
    EXPECT_EQ(roi_dims[0], 1u);
    ASSERT_EQ(one.size(), row);
    for (std::size_t i = 0; i < row; ++i)
      ASSERT_EQ(one[i], full[b * row + i]) << i;
  }

  EXPECT_THROW(chunked::decompress_rows<float>(stream, 0, 0), ParamError);
  EXPECT_THROW(chunked::decompress_rows<float>(stream, 26, 26), ParamError);
  EXPECT_THROW(chunked::decompress_rows<float>(stream, 25, 27), ParamError);
  EXPECT_THROW(chunked::decompress_rows<float>(stream, 26, 27), ParamError);
}

TEST(Chunked, RoiRejectsBadRange) {
  auto f = gen::cesm_flux(Dims(10, 8), 23);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  auto stream = chunked::compress<float>(f.span(), f.dims, p);
  EXPECT_THROW(chunked::decompress_rows<float>(stream, 3, 3), ParamError);
  EXPECT_THROW(chunked::decompress_rows<float>(stream, 0, 11), ParamError);
  EXPECT_THROW(chunked::decompress_rows<float>(stream, 5, 4), ParamError);
}

// The ROI allocation, not the whole field, is what the decode guard must
// admit: a 4 MiB field under a 1 MiB limit still serves a two-row read,
// exactly as ArchiveReader::read_rows does on the same slabs.
TEST(Chunked, RoiDecodeGuardChecksTheRoiNotTheField) {
  auto f = gen::nyx_velocity(Dims(256, 64, 64), 41);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  p.num_chunks = 8;
  auto stream = chunked::compress<float>(f.span(), f.dims, p);
  std::vector<std::uint8_t> bytes;
  {
    store::ArchiveWriter w(&bytes);
    store::DatasetOptions o;
    o.scheme = p.scheme;
    o.params = p.compressor;
    o.rows_per_chunk = 32;
    w.add_dataset<float>("f", f.span(), f.dims, o);
    w.finish();
  }
  store::ArchiveReader reader{std::span<const std::uint8_t>(bytes)};

  ScopedDecodeLimit limit(1u << 20);
  Dims roi;
  auto rows = chunked::decompress_rows<float>(stream, 3, 5, &roi);
  EXPECT_EQ(roi, Dims(2, 64, 64));
  EXPECT_EQ(rows, reader.read_rows<float>("f", 3, 5));
  EXPECT_THROW(chunked::decompress<float>(stream), StreamError);
}

// One slab engine under both containers: for the same field, scheme,
// params and slab plan, the archive stores exactly the CHK1 slab streams,
// and both ROI paths return identical values over the RoiEdgeCases ranges.
TEST(Chunked, ArchiveAndContainerShareTheSlabEngine) {
  auto f = gen::nyx_velocity(Dims(26, 6, 6), 31);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  p.num_chunks = 4;  // 7 rows per slab
  p.threads = 2;
  auto stream = chunked::compress<float>(f.span(), f.dims, p);
  std::vector<std::uint8_t> bytes;
  {
    store::ArchiveWriter w(&bytes);
    store::DatasetOptions o;
    o.scheme = p.scheme;
    o.params = p.compressor;
    o.rows_per_chunk = 7;
    o.threads = 2;
    w.add_dataset<float>("f", f.span(), f.dims, o);
    w.finish();
  }
  store::ArchiveReader reader{std::span<const std::uint8_t>(bytes)};

  // CHK1: 32-byte header, u32 slab count, u64 rows per slab, then every
  // slab as u64 FNV-1a + u64-sized stream.
  ByteReader in(stream);
  in.get_bytes(32);
  const auto slabs = in.get<std::uint32_t>();
  ASSERT_EQ(slabs, reader.dataset("f").chunks.size());
  in.get_bytes(8 * slabs);
  for (std::uint32_t i = 0; i < slabs; ++i) {
    SCOPED_TRACE(i);
    in.get<std::uint64_t>();
    auto slab = in.get_sized();
    EXPECT_EQ(reader.read_chunk_bytes("f", i),
              std::vector<std::uint8_t>(slab.begin(), slab.end()));
  }

  for (auto [b, e] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 26}, {20, 21}, {21, 22}, {25, 26}, {3, 21}}) {
    SCOPED_TRACE(b);
    Dims chunked_roi, archive_roi;
    EXPECT_EQ(chunked::decompress_rows<float>(stream, b, e, &chunked_roi),
              reader.read_rows<float>("f", b, e, &archive_roi));
    EXPECT_EQ(chunked_roi, archive_roi);
  }
  EXPECT_EQ(chunked::decompress<float>(stream), reader.load<float>("f"));
  for (auto [b, e] : std::vector<std::pair<std::size_t, std::size_t>>{
           {0, 0}, {26, 26}, {25, 27}, {26, 27}}) {
    EXPECT_THROW(chunked::decompress_rows<float>(stream, b, e), ParamError);
    EXPECT_THROW(reader.read_rows<float>("f", b, e), ParamError);
  }
}

// --- StreamingCompressor (in-situ accumulation) ---

TEST(Streaming, PlaneByPlaneMatchesChunked) {
  auto f = gen::hurricane_wind(Dims(20, 24, 24), 11);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;

  chunked::StreamingCompressor<float> sc(f.dims, p, /*rows_per_chunk=*/5);
  const std::size_t row = 24 * 24;
  for (std::size_t z = 0; z < 20; ++z)
    sc.append(std::span<const float>(f.values).subspan(z * row, row));
  EXPECT_EQ(sc.rows_remaining(), 0u);
  auto stream = sc.finish();

  Dims dims;
  auto out = chunked::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, f.dims);
  auto stats = compute_error_stats(f.span(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel, 1e-2);
}

TEST(Streaming, ArbitraryAppendGranularity) {
  auto f = gen::cesm_flux(Dims(33, 40), 12);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-3;
  chunked::StreamingCompressor<float> sc(f.dims, p, 8);
  // Feed rows in irregular batches: 1, 2, 7, 13, 10 rows.
  std::size_t fed = 0;
  for (std::size_t batch : {1u, 2u, 7u, 13u, 10u}) {
    sc.append(std::span<const float>(f.values).subspan(fed * 40, batch * 40));
    fed += batch;
  }
  ASSERT_EQ(fed, 33u);
  auto out = chunked::decompress<float>(sc.finish());
  auto stats = compute_error_stats(f.span(), std::span<const float>(out));
  EXPECT_LE(stats.max_rel, 1e-3);
}

TEST(Streaming, Validation) {
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  EXPECT_THROW(chunked::StreamingCompressor<float>(Dims(10, 10), p, 0),
               ParamError);
  EXPECT_THROW(chunked::StreamingCompressor<float>(Dims(10, 10), p, 11),
               ParamError);

  chunked::StreamingCompressor<float> sc(Dims(4, 4), p, 2);
  std::vector<float> partial_row(3, 1.0f);
  EXPECT_THROW(sc.append(partial_row), ParamError);  // not whole rows
  EXPECT_THROW(sc.finish(), ParamError);             // incomplete field
  std::vector<float> rows(16, 1.0f);
  sc.append(rows);
  std::vector<float> extra(4, 1.0f);
  EXPECT_THROW(sc.append(extra), ParamError);  // too many rows
  auto stream = sc.finish();
  EXPECT_THROW(sc.finish(), ParamError);  // double finish
  auto out = chunked::decompress<float>(stream);
  EXPECT_EQ(out.size(), 16u);
}

TEST(Chunked, CorruptStreamThrows) {
  auto f = gen::cesm_cloud_fraction(Dims(32, 32), 8);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  auto stream = chunked::compress<float>(f.span(), f.dims, p);
  auto bad = stream;
  bad[0] ^= 0xff;
  EXPECT_THROW(chunked::decompress<float>(bad), StreamError);
  EXPECT_THROW(chunked::decompress<double>(stream), StreamError);
  auto cut = stream;
  cut.resize(cut.size() - 10);
  EXPECT_THROW(chunked::decompress<float>(cut), StreamError);
}

}  // namespace
}  // namespace transpwr
