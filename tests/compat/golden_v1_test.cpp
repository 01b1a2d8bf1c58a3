// Backward compatibility: the committed v1 bitstreams under
// tests/data/golden/ were produced by the pre-blocked-entropy encoders
// (before the codes-format byte grew its `blocked` bit and lossless grew
// method 2). Every decoder must keep accepting them bit-exactly; the
// expected values are FNV-1a checksums of the decoded payload recorded when
// the streams were generated.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "common/types.h"
#include "compat/golden_fields.h"
#include "core/transformed.h"
#include "lossless/lossless.h"
#include "parallel/chunked.h"
#include "sz/interp.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

std::vector<std::uint8_t> load(const std::string& name) {
  const std::string path = std::string(TRANSPWR_GOLDEN_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) ADD_FAILURE() << "missing golden stream " << path;
  if (!f) return {};
  std::fseek(f, 0, SEEK_END);
  auto size = static_cast<std::size_t>(std::ftell(f));
  std::fseek(f, 0, SEEK_SET);
  std::vector<std::uint8_t> bytes(size);
  if (std::fread(bytes.data(), 1, size, f) != size) bytes.clear();
  std::fclose(f);
  return bytes;
}

template <typename T>
std::uint64_t payload_fnv(const std::vector<T>& v) {
  return fnv1a64({reinterpret_cast<const std::uint8_t*>(v.data()),
                  v.size() * sizeof(T)});
}

TEST(GoldenV1, SzAbsFloat) {
  auto stream = load("sz_abs_f32.v1");
  ASSERT_FALSE(stream.empty());
  Dims dims;
  auto out = sz::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, Dims(37, 21));
  EXPECT_EQ(payload_fnv(out), 0xae7cfbeca74f8113ULL);
}

TEST(GoldenV1, SzPwrBlockDouble) {
  auto stream = load("sz_pwr_f64.v1");
  ASSERT_FALSE(stream.empty());
  Dims dims;
  auto out = sz::decompress<double>(stream, &dims);
  EXPECT_EQ(dims, Dims(700));
  EXPECT_EQ(payload_fnv(out), 0xb310478236a4ef9eULL);
}

TEST(GoldenV1, SzAutoPredictorFloat) {
  auto stream = load("sz_auto_f32.v1");
  ASSERT_FALSE(stream.empty());
  Dims dims;
  auto out = sz::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, Dims(12, 10, 14));
  EXPECT_EQ(payload_fnv(out), 0x0d34a0fa70f7aaedULL);
}

TEST(GoldenV1, InterpFloat) {
  auto stream = load("interp_f32.v1");
  ASSERT_FALSE(stream.empty());
  Dims dims;
  auto out = sz_interp::decompress<float>(stream, &dims);
  EXPECT_EQ(dims, Dims(17, 9, 11));
  EXPECT_EQ(payload_fnv(out), 0xb9515b936a62cba4ULL);
}

TEST(GoldenV1, LosslessLz77Method1) {
  auto stream = load("lossless_lz77.v1");
  ASSERT_FALSE(stream.empty());
  EXPECT_EQ(stream[0], 1u) << "golden stream should carry method tag 1";
  auto out = lossless::decompress(stream);
  EXPECT_EQ(out.size(), 5000u);
  EXPECT_EQ(payload_fnv(out), 0x85321200e9f5e61eULL);
}

TEST(GoldenV1, SzTransformedFloat) {
  auto stream = load("szt_f32.v1");
  ASSERT_FALSE(stream.empty());
  Dims dims;
  auto out = transformed_decompress<float>(stream, &dims);
  EXPECT_EQ(dims, Dims(24, 18));
  EXPECT_EQ(payload_fnv(out), 0x99475ff3285960a5ULL);
}

// A ZFP_T stream whose inner ZFP payload spans two block groups (4160 2-D
// blocks), written as one serial bit stream (TFP1 layout byte 0) by the
// encoder that predates grouped payloads. Generated from
// golden::paraboloid<float>(257, 256) at rel_bound 1e-2.
TEST(GoldenV1, ZfpTransformedFloatSerialPayload) {
  auto stream = load("zfpt_f32.v1");
  ASSERT_FALSE(stream.empty());
  Dims dims;
  auto out = transformed_decompress<float>(stream, &dims);
  EXPECT_EQ(dims, Dims(257, 256));
  EXPECT_EQ(payload_fnv(out), 0xbfda88d7bd4e2887ULL);
}

// Fixed-rate ZFP (rate 2) over the same field. Fixed-rate streams carry no
// directory, so the current encoder must still reproduce the committed
// bytes exactly, at any thread count.
TEST(GoldenV1, ZfpFixedRateFloatBytesAreStable) {
  auto committed = load("zfp_rate_f32.v1");
  ASSERT_FALSE(committed.empty());
  auto data = golden::paraboloid<float>(257, 256);
  zfp::Params p;
  p.mode = zfp::Mode::kRate;
  p.rate = 2.0;
  EXPECT_EQ(zfp::compress<float>(data, Dims(257, 256), p), committed);
  Dims dims;
  auto out = zfp::decompress<float>(committed, &dims);
  EXPECT_EQ(dims, Dims(257, 256));
  EXPECT_EQ(payload_fnv(out), 0x87bc080c8423994cULL);
}

// A CHK1 chunked container of SZ_T slabs: golden::field<float> over
// 26x12x10 (seed 1313), rel_bound 1e-2, four slabs of 7/7/7/5 rows. It pins
// the container framing and the slab plan: chunked::compress must
// reproduce the bytes at any thread count, and StreamingCompressor fed the
// same field with the matching rows_per_chunk must emit the same container.
TEST(GoldenV1, ChunkedSzTFloatBytesAreStable) {
  auto committed = load("chunked_szt_f32.v1");
  ASSERT_FALSE(committed.empty());
  Dims dims;
  auto out = chunked::decompress<float>(committed, &dims);
  EXPECT_EQ(dims, Dims(26, 12, 10));
  EXPECT_EQ(payload_fnv(out), 0x2e34a55bb04d4f46ULL);

  const Dims field_dims(26, 12, 10);
  auto data = golden::field<float>(field_dims.count(), 1313);
  chunked::Params p;
  p.scheme = Scheme::kSzT;
  p.compressor.bound = 1e-2;
  p.num_chunks = 4;
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    p.threads = threads;
    EXPECT_EQ(chunked::compress<float>(data, field_dims, p), committed);
  }
  chunked::StreamingCompressor<float> sc(field_dims, p, /*rows_per_chunk=*/7);
  sc.append(data);
  EXPECT_EQ(sc.finish(), committed);
}

}  // namespace
}  // namespace transpwr
