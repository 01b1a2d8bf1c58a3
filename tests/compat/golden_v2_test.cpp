// Forward compatibility pin for the PR6 log-kernel format bump: float
// transformed streams now carry log-kernel version 1 (kernels::fast_log2 /
// fast_exp2) in the TRT1 header byte that was reserved through v1. The
// committed szt_f32.v2 stream pins both directions:
//   - the encoder must reproduce it byte-for-byte from the deterministic
//     golden field (the fast kernels are pure IEEE arithmetic, so this holds
//     across platforms and across the generic/native dispatch);
//   - the decoder must keep reconstructing it to the recorded checksum.
// Regenerate with TRANSPWR_REGEN_GOLDEN=1 (writes the stream and prints the
// payload FNV to paste below) after any intentional format change.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/bytestream.h"
#include "common/checksum.h"
#include "common/types.h"
#include "compat/golden_fields.h"
#include "core/transformed.h"

namespace transpwr {
namespace {

std::vector<std::uint8_t> load(const std::string& name) {
  const std::string path = std::string(TRANSPWR_GOLDEN_DIR) + "/" + name;
  std::FILE* f = std::fopen(path.c_str(), "rb");
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

TEST(GoldenV2, SzTransformedFloatFastLogKernel) {
  auto data = golden::field<float>(24 * 18, 424242);
  const Dims dims(24, 18);
  TransformedParams p;
  p.rel_bound = 1e-3;
  p.threads = 1;
  auto stream = transformed_compress<float>(data, dims, InnerCodec::kSz, p);
  // TRT1 layout: magic(4) dtype(1) codec(1) signs(1) log_kernel(1) — the
  // version byte must say "fast kernel" for freshly written float streams.
  ASSERT_GT(stream.size(), std::size_t{8});
  EXPECT_EQ(stream[7], 1u);

  if (std::getenv("TRANSPWR_REGEN_GOLDEN")) {
    const std::string path =
        std::string(TRANSPWR_GOLDEN_DIR) + "/szt_f32.v2";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(stream.data(), 1, stream.size(), f);
    std::fclose(f);
    Dims d;
    auto out = transformed_decompress<float>(stream, &d);
    std::printf("szt_f32.v2 payload fnv: 0x%016llx\n",
                static_cast<unsigned long long>(payload_fnv(out)));
    GTEST_SKIP() << "regenerated " << path;
  }

  auto committed = load("szt_f32.v2");
  ASSERT_FALSE(committed.empty())
      << "missing golden stream szt_f32.v2 (run with "
         "TRANSPWR_REGEN_GOLDEN=1 to create it)";
  EXPECT_EQ(stream, committed) << "encoder drifted from the committed v2 "
                                  "stream";

  Dims dims_out;
  auto out = transformed_decompress<float>(committed, &dims_out);
  EXPECT_EQ(dims_out, dims);
  EXPECT_EQ(payload_fnv(out), 0xed08a4347b9c8d9aULL);
}

// The ZFP block-group format addition: an inner ZFP payload of more than
// one 2^16-value group is written as a directory of group end offsets plus
// byte-aligned group substreams (TFP1 layout byte 1), so both encode and
// decode run the groups in parallel. zfpt_f32.v2 is golden v1's
// zfpt_f32.v1 field and parameters re-encoded in that layout. It pins:
//   - the encoder reproduces it byte-for-byte at 1 and 8 threads;
//   - the decoder reconstructs exactly the values of the serial v1 stream
//     (grouping changes the framing, never a value).
// Regenerate with TRANSPWR_REGEN_GOLDEN=1 after an intentional change.
TEST(GoldenV2, ZfpTransformedFloatGroupedPayload) {
  auto data = golden::paraboloid<float>(257, 256);
  const Dims dims(257, 256);
  TransformedParams p;
  p.rel_bound = 1e-2;
  p.threads = 1;
  auto stream = transformed_compress<float>(data, dims, InnerCodec::kZfp, p);
  p.threads = 8;
  EXPECT_EQ(transformed_compress<float>(data, dims, InnerCodec::kZfp, p),
            stream)
      << "stream bytes depend on the thread count";

  // TRT1: magic(4) dtype codec signs log_kernel base(8) zero_threshold(8),
  // then the sized sign section and the sized inner TFP1 stream, whose
  // byte 7 is the payload layout.
  ByteReader in(stream);
  in.get_bytes(24);
  in.get_sized();
  auto inner = in.get_sized();
  ASSERT_GT(inner.size(), std::size_t{7});
  EXPECT_EQ(inner[7], 1u) << "two-group payload should carry a directory";

  if (std::getenv("TRANSPWR_REGEN_GOLDEN")) {
    const std::string path =
        std::string(TRANSPWR_GOLDEN_DIR) + "/zfpt_f32.v2";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    std::fwrite(stream.data(), 1, stream.size(), f);
    std::fclose(f);
    GTEST_SKIP() << "regenerated " << path;
  }

  auto committed = load("zfpt_f32.v2");
  ASSERT_FALSE(committed.empty())
      << "missing golden stream zfpt_f32.v2 (run with "
         "TRANSPWR_REGEN_GOLDEN=1 to create it)";
  EXPECT_EQ(stream, committed) << "encoder drifted from the committed v2 "
                                  "stream";

  for (std::size_t threads : {1u, 8u}) {
    Dims dims_out;
    auto out = transformed_decompress<float>(committed, &dims_out, nullptr,
                                             threads);
    EXPECT_EQ(dims_out, dims);
    // The same checksum as the serial golden v1 stream.
    EXPECT_EQ(payload_fnv(out), 0xbfda88d7bd4e2887ULL)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace transpwr
