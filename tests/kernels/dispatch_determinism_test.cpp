// The kernel dispatch must never change produced bytes: for every codec
// whose hot path has a native variant, compressing under kGeneric and
// kNative yields byte-identical streams, and decoding one stream under
// either dispatch yields byte-identical payloads. This is the conformance
// gate ISSUE PR6 puts on the kernel layer — native kernels are
// restructurings of the same arithmetic, not approximations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/types.h"
#include "core/transformed.h"
#include "kernels/dispatch.h"
#include "lossless/blocked_huffman.h"
#include "sz/interp.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

// Field with every edge class the kernels special-case: negatives, exact
// zeros, denormals, huge magnitudes, and smooth structure for the
// predictors to latch onto.
std::vector<float> adversarial_field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> out(n);
  double v = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    v += (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) * 0.05;
    float f = static_cast<float>(v);
    switch (rng.below(29)) {
      case 0: f = 0.0f; break;
      case 1: f = -0.0f; break;
      case 2: f = std::numeric_limits<float>::denorm_min(); break;
      case 3: f = -std::numeric_limits<float>::denorm_min(); break;
      case 4: f = std::numeric_limits<float>::max() * 0.5f; break;
      case 5: f = -f; break;
      default: break;
    }
    out[i] = f;
  }
  return out;
}

template <typename Compress, typename Decompress>
void expect_dispatch_invariant(Compress&& compress, Decompress&& decompress) {
  std::vector<std::uint8_t> stream_g, stream_n;
  {
    kernels::ScopedDispatch d(kernels::Dispatch::kGeneric);
    stream_g = compress();
  }
  {
    kernels::ScopedDispatch d(kernels::Dispatch::kNative);
    stream_n = compress();
  }
  ASSERT_EQ(stream_g.size(), stream_n.size());
  EXPECT_EQ(0,
            std::memcmp(stream_g.data(), stream_n.data(), stream_g.size()));

  auto out_g = [&] {
    kernels::ScopedDispatch d(kernels::Dispatch::kGeneric);
    return decompress(stream_g);
  }();
  auto out_n = [&] {
    kernels::ScopedDispatch d(kernels::Dispatch::kNative);
    return decompress(stream_g);
  }();
  ASSERT_EQ(out_g.size(), out_n.size());
  EXPECT_EQ(0, std::memcmp(out_g.data(), out_n.data(),
                           out_g.size() * sizeof(out_g[0])));
}

TEST(DispatchDeterminism, SzAbs3D) {
  auto data = adversarial_field(24 * 18 * 20, 111);
  Dims dims(24, 18, 20);
  sz::Params p;
  p.mode = sz::Mode::kAbs;
  p.bound = 1e-3;
  p.threads = 1;
  expect_dispatch_invariant(
      [&] { return sz::compress<float>(data, dims, p); },
      [&](const std::vector<std::uint8_t>& s) {
        return sz::decompress<float>(s, nullptr, 1);
      });
}

TEST(DispatchDeterminism, SzPwrBlock2D) {
  auto data = adversarial_field(61 * 47, 222);
  Dims dims(61, 47);
  sz::Params p;
  p.mode = sz::Mode::kPwrBlock;
  p.bound = 1e-3;
  p.threads = 1;
  expect_dispatch_invariant(
      [&] { return sz::compress<float>(data, dims, p); },
      [&](const std::vector<std::uint8_t>& s) {
        return sz::decompress<float>(s, nullptr, 1);
      });
}

TEST(DispatchDeterminism, SzAutoPredictor3D) {
  auto data = adversarial_field(14 * 12 * 10, 333);
  Dims dims(14, 12, 10);
  sz::Params p;
  p.mode = sz::Mode::kAbs;
  p.predictor = sz::Predictor::kAuto;
  p.bound = 1e-3;
  p.threads = 1;
  expect_dispatch_invariant(
      [&] { return sz::compress<float>(data, dims, p); },
      [&](const std::vector<std::uint8_t>& s) {
        return sz::decompress<float>(s, nullptr, 1);
      });
}

TEST(DispatchDeterminism, SzAbs1DDouble) {
  auto dataf = adversarial_field(3001, 444);
  std::vector<double> data(dataf.begin(), dataf.end());
  Dims dims(3001);
  sz::Params p;
  p.bound = 1e-6;
  p.threads = 1;
  expect_dispatch_invariant(
      [&] { return sz::compress<double>(data, dims, p); },
      [&](const std::vector<std::uint8_t>& s) {
        return sz::decompress<double>(s, nullptr, 1);
      });
}

TEST(DispatchDeterminism, Interp3D) {
  auto data = adversarial_field(17 * 13 * 11, 555);
  Dims dims(17, 13, 11);
  sz_interp::Params p;
  p.bound = 1e-3;
  p.threads = 1;
  expect_dispatch_invariant(
      [&] { return sz_interp::compress<float>(data, dims, p); },
      [&](const std::vector<std::uint8_t>& s) {
        return sz_interp::decompress<float>(s, nullptr, 1);
      });
}

TEST(DispatchDeterminism, Zfp3D) {
  // ZFP rejects non-finite but handles the rest; strip nothing else.
  auto data = adversarial_field(19 * 15 * 9, 666);
  Dims dims(19, 15, 9);
  zfp::Params p;
  p.mode = zfp::Mode::kAccuracy;
  p.tolerance = 1e-3;
  expect_dispatch_invariant(
      [&] { return zfp::compress<float>(data, dims, p); },
      [&](const std::vector<std::uint8_t>& s) {
        return zfp::decompress<float>(s, nullptr);
      });
}

TEST(DispatchDeterminism, TransformedSzFloat) {
  // The full paper pipeline: log map (fast kernel), sz inner, sign bitmap,
  // zero sentinels.
  auto data = adversarial_field(24 * 18, 777);
  Dims dims(24, 18);
  TransformedParams p;
  p.rel_bound = 1e-3;
  p.threads = 1;
  expect_dispatch_invariant(
      [&] {
        return transformed_compress<float>(data, dims, InnerCodec::kSz, p);
      },
      [&](const std::vector<std::uint8_t>& s) {
        return transformed_decompress<float>(s, nullptr, 1);
      });
}

TEST(DispatchDeterminism, BlockedHuffmanPairDecode) {
  // Exercises the pair-table decode directly: skewed symbol distribution
  // (many short codes => most probes resolve two symbols).
  Rng rng(888);
  std::vector<std::uint32_t> symbols(200000);
  for (auto& s : symbols) {
    const std::uint64_t r = rng.below(100);
    s = r < 55 ? 0u : r < 80 ? 1u : r < 92 ? 2u
        : static_cast<std::uint32_t>(rng.below(60000));
  }
  expect_dispatch_invariant(
      [&] { return lossless::blocked_encode(symbols, 60000, 1); },
      [&](const std::vector<std::uint8_t>& s) {
        auto out = lossless::blocked_decode(s, 1);
        EXPECT_EQ(out, symbols);
        return out;
      });
}

}  // namespace
}  // namespace transpwr
