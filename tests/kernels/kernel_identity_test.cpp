// Bit-identity and accuracy contracts of the kernel layer (ISSUE PR6):
// generic and native dispatches must produce byte-identical results on
// every input class the codecs can feed them — denormals, signed zeros,
// NaN/Inf, FLT_MAX-scale magnitudes, values near the log singularity — and
// the scalar building blocks must meet the accuracy bounds the transform's
// error budget assumes.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "kernels/dispatch.h"
#include "kernels/fastmath.h"
#include "kernels/log_batch.h"
#include "kernels/lorenzo.h"
#include "kernels/simd.h"
#include "kernels/zfp_lift.h"

namespace transpwr {
namespace kernels {
namespace {

double rel_err(double got, double want) {
  if (want == 0.0) return std::abs(got);
  return std::abs(got - want) / std::abs(want);
}

// Inputs covering every edge class the forward transform can feed the log
// kernel (it passes |x| or a dummy 1.0, never <= 0 or non-finite).
std::vector<double> log_edge_inputs() {
  std::vector<double> in = {
      1.0,
      1.0 + 0x1p-52,            // one ulp above the zero of log
      1.0 - 0x1p-53,            // one ulp below
      0x1.6a09e667f3bcdp+0,     // the sqrt(2) split point
      0x1.6a09e667f3bccp+0,     // just below it
      2.0, 0.5, 4.0, 0x1p100, 0x1p-100,
      static_cast<double>(std::numeric_limits<float>::max()),
      static_cast<double>(std::numeric_limits<float>::min()),
      static_cast<double>(std::numeric_limits<float>::denorm_min()),
      std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      0x1.fffffffffffffp-1,     // largest double < 1
      3.0, 10.0, 1e-300, 1e300, 0.7071067811865476,
  };
  Rng rng(12345);
  for (int i = 0; i < 4000; ++i) {
    // Log-uniform over the full float exponent range plus a dense band
    // around 1 where the series does the work.
    double e = (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) * 250.0;
    in.push_back(std::exp2(e));
    double near1 =
        1.0 + (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) * 0.01;
    in.push_back(near1);
  }
  return in;
}

TEST(FastLog2, MatchesLibmWithinBudget) {
  for (double x : log_edge_inputs()) {
    const double got = fast_log2(x);
    const double want = std::log2(x);
    // Budget from the transform's Lemma 2 guard is ~6e-8 relative; the
    // kernel is contracted to a few 1e-16.
    EXPECT_LE(rel_err(got, want), 5e-15) << "x = " << x;
  }
}

TEST(FastLog2, ExactOnPowersOfTwoAndOne) {
  EXPECT_EQ(fast_log2(1.0), 0.0);
  for (int e = -1074; e <= 1023; e += 7)
    EXPECT_EQ(fast_log2(std::ldexp(1.0, e)), static_cast<double>(e)) << e;
}

TEST(FastExp2, MatchesLibmWithinBudget) {
  Rng rng(777);
  std::vector<double> in = {0.0, -0.0, 0.5, -0.5, 1.0 / 3.0, -149.5,
                            127.5, -1074.0, 1023.5, -1022.7};
  for (int i = 0; i < 4000; ++i)
    in.push_back((static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) *
                 2090.0);
  for (double v : in) {
    const double got = fast_exp2(v);
    const double want = std::exp2(v);
    if (!std::isfinite(want)) {  // overflow: both must saturate to +inf
      EXPECT_EQ(got, want) << v;
      continue;
    }
    if (want == 0.0 || want < std::numeric_limits<double>::min()) {
      // Underflow region: same limit behavior, up to one unit in the last
      // (denormal) place.
      EXPECT_NEAR(got, want, std::numeric_limits<double>::denorm_min() * 2)
          << v;
      continue;
    }
    EXPECT_LE(rel_err(got, want), 5e-15) << "v = " << v;
  }
}

TEST(FastExp2, ExactOnIntegersAndEdges) {
  for (int e = -1074; e <= 1023; e += 5)
    EXPECT_EQ(fast_exp2(static_cast<double>(e)), std::ldexp(1.0, e)) << e;
  EXPECT_EQ(fast_exp2(0.0), 1.0);
  EXPECT_TRUE(std::isnan(fast_exp2(std::numeric_limits<double>::quiet_NaN())));
  EXPECT_EQ(fast_exp2(std::numeric_limits<double>::infinity()),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(fast_exp2(-std::numeric_limits<double>::infinity()), 0.0);
  EXPECT_EQ(fast_exp2(-5000.0), 0.0);
  EXPECT_EQ(fast_exp2(5000.0), std::numeric_limits<double>::infinity());
}

TEST(LlroundExact, MatchesLibmOnQuantizerDomain) {
  std::vector<double> in = {0.0,  -0.0, 0.5,  -0.5, 1.5,  -1.5, 2.5,
                            -2.5, 0.49999999999999994,  // largest < 0.5
                            -0.49999999999999994, 1e15, -1e15,
                            2147483646.5, -2147483646.5};
  Rng rng(31);
  for (int i = 0; i < 10000; ++i) {
    double v = (static_cast<double>(rng.next() >> 12) * 0x1p-52 - 0.5) *
               0x1p33;
    in.push_back(v);
    in.push_back(std::floor(v) + 0.5);  // exact tie
  }
  for (double v : in)
    EXPECT_EQ(llround_exact(v), std::llround(v)) << v;
}

TEST(LogBatch, GenericAndNativeAreBitIdentical) {
  auto in = log_edge_inputs();
  // Odd length exercises the native loop's scalar tail.
  in.resize(in.size() - (in.size() % 4) + 3);
  for (double scale : {1.0, 1.0 / std::log2(10.0), 1.0 / std::log2(2.7)}) {
    std::vector<double> a(in.size()), b(in.size());
    {
      ScopedDispatch d(Dispatch::kGeneric);
      log2_scaled_batch(in.data(), a.data(), in.size(), scale);
    }
    {
      ScopedDispatch d(Dispatch::kNative);
      log2_scaled_batch(in.data(), b.data(), in.size(), scale);
    }
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));

    // exp batch over the log outputs (plus NaN/inf, which corrupt streams
    // can inject) must agree too.
    std::vector<double> ein = a;
    ein.push_back(std::numeric_limits<double>::quiet_NaN());
    ein.push_back(std::numeric_limits<double>::infinity());
    ein.push_back(-std::numeric_limits<double>::infinity());
    std::vector<double> ea(ein.size()), eb(ein.size());
    {
      ScopedDispatch d(Dispatch::kGeneric);
      exp2_scaled_batch(ein.data(), ea.data(), ein.size(), 1.0 / scale);
    }
    {
      ScopedDispatch d(Dispatch::kNative);
      exp2_scaled_batch(ein.data(), eb.data(), ein.size(), 1.0 / scale);
    }
    EXPECT_EQ(0, std::memcmp(ea.data(), eb.data(), ea.size() * sizeof(double)));
  }
}

// Assert the process is NOT running with FTZ/DAZ (flush-to-zero /
// denormals-are-zero): the guarantee math treats subnormal inputs as real
// values with real logs, and the build must not enable -ffast-math-style
// MXCSR modes behind the library's back. `volatile` keeps the compiler
// from folding the subnormal arithmetic at translation time, so these
// operations hit the FPU with whatever mode the process actually runs.
TEST(LogForwardF32Block, FtzDazAreOff) {
  volatile float nmin = std::numeric_limits<float>::min();
  volatile float quarter = nmin / 4.0f;  // subnormal unless FTZ flushes it
  EXPECT_GT(quarter, 0.0f) << "FTZ is enabled: subnormal results flush";
  EXPECT_LT(quarter, std::numeric_limits<float>::min());

  volatile float dmin = std::numeric_limits<float>::denorm_min();
  volatile float doubled = dmin + dmin;  // 2*denorm_min unless DAZ zeroes in
  EXPECT_EQ(doubled, 2.0f * std::numeric_limits<float>::denorm_min())
      << "DAZ is enabled: subnormal inputs read as zero";

  // With denormals live, the fused forward block must map float
  // denorm_min to its true log2 (-149), not to log2(0).
  const float in = std::numeric_limits<float>::denorm_min();
  float mapped = 0;
  std::uint64_t sign_word = 0, zero_word = 0;
  double max_abs_log = 0;
  LogFwdFlags flags;
  log_forward_f32_block(&in, &mapped, 1, 1.0, &sign_word, &zero_word,
                        &max_abs_log, &flags);
  EXPECT_EQ(mapped, -149.0f);
  EXPECT_EQ(zero_word, 0u);
  EXPECT_FALSE(flags.has_zeros);
}

// The fused float forward pass (the AVX2/AVX-512 fast path of
// log_forward) on every edge class: denormal ladders, +/-0 in both word
// positions, near-min-normal, FLT_MAX-adjacent, ulp neighbors of 1.
// Generic and native must agree bit-for-bit on mapped values, packed
// sign/zero words, the max|log| reduction, and the OR-ed flags.
TEST(LogForwardF32Block, GenericAndNativeBitIdenticalOnEdgeInputs) {
  std::vector<float> in;
  const float dmin = std::numeric_limits<float>::denorm_min();
  const float nmin = std::numeric_limits<float>::min();
  const float fmax = std::numeric_limits<float>::max();
  // Ulp ladders straddling the denormal/normal boundary, both signs.
  for (int k = -4; k <= 4; ++k) {
    float v = nmin;
    for (int i = 0; i < (k < 0 ? -k : k); ++i)
      v = std::nextafter(v, k < 0 ? 0.0f : 1.0f);
    in.push_back(v);
    in.push_back(-v);
  }
  for (int k = 1; k <= 4; ++k) {
    in.push_back(dmin * static_cast<float>(k));
    in.push_back(-dmin * static_cast<float>(k));
  }
  // Signed zeros scattered so both packed words carry zero bits.
  in.push_back(0.0f);
  in.push_back(-0.0f);
  // FLT_MAX-adjacent and near-1 ulp neighbors.
  for (int k = 0; k <= 4; ++k) {
    float v = fmax;
    for (int i = 0; i < k; ++i) v = std::nextafter(v, 0.0f);
    in.push_back(v);
    in.push_back(-v);
    in.push_back(std::nextafter(1.0f, 2.0f * static_cast<float>(k + 1)));
    in.push_back(std::nextafter(1.0f, 0.5f / static_cast<float>(k + 1)));
  }
  Rng rng(606);
  while (in.size() < 131)  // 2 whole words + a partial tail word
    in.push_back(static_cast<float>(rng.uniform(-1e3, 1e3)));
  in[64] = 0.0f;   // a zero in the second word
  in[130] = -0.0f; // and one in the partial tail

  const std::size_t n = in.size();
  const std::size_t words = (n + 63) / 64;
  for (double scale : {1.0, 1.0 / std::log2(10.0)}) {
    std::vector<float> ma(n), mb(n);
    std::vector<std::uint64_t> sa(words, ~0ull), sb(words, ~0ull);
    std::vector<std::uint64_t> za(words, ~0ull), zb(words, ~0ull);
    double la = 0, lb = 0;
    LogFwdFlags fa, fb;
    {
      ScopedDispatch d(Dispatch::kGeneric);
      log_forward_f32_block(in.data(), ma.data(), n, scale, sa.data(),
                            za.data(), &la, &fa);
    }
    {
      ScopedDispatch d(Dispatch::kNative);
      log_forward_f32_block(in.data(), mb.data(), n, scale, sb.data(),
                            zb.data(), &lb, &fb);
    }
    EXPECT_EQ(0, std::memcmp(ma.data(), mb.data(), n * sizeof(float)));
    EXPECT_EQ(sa, sb);
    EXPECT_EQ(za, zb);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(la),
              std::bit_cast<std::uint64_t>(lb));
    EXPECT_EQ(fa.any_negative, fb.any_negative);
    EXPECT_EQ(fa.has_zeros, fb.has_zeros);
    EXPECT_EQ(fa.non_finite, fb.non_finite);

    // Semantic spot checks on the shared result: zeros marked where
    // planted, bits beyond n clear in the tail word, signs where planted.
    EXPECT_TRUE(fa.has_zeros);
    EXPECT_TRUE(fa.any_negative);
    EXPECT_FALSE(fa.non_finite);
    EXPECT_NE(za[1] & 1u, 0u) << "zero at index 64 not packed";
    EXPECT_NE(za[2] & (1ull << (130 % 64)), 0u)
        << "zero at index 130 not packed";
    EXPECT_EQ(za[words - 1] >> (n % 64), 0u)
        << "tail word has bits set beyond n";
    EXPECT_EQ(sa[words - 1] >> (n % 64), 0u);
  }
}

// exp2 over inputs whose outputs land in the subnormal range: the
// reconstruction path for the smallest magnitudes the transform round
// trips. Identity across dispatches must hold down there too — a native
// path that flushed denormal outputs would break the smallest values'
// error bound silently.
TEST(LogBatch, Exp2DenormalRangeOutputsAreBitIdentical) {
  std::vector<double> in;
  Rng rng(808);
  for (int i = 0; i < 512; ++i) {
    in.push_back(rng.uniform(-1074.9, -1022.0));  // double-subnormal range
    in.push_back(rng.uniform(-150.0, -126.0));    // float-subnormal logs
  }
  in.push_back(-1074.0);  // exactly denorm_min
  in.push_back(-1074.5);  // below: rounds to 0 or denorm_min, same both ways
  in.push_back(-1023.0);
  std::vector<double> a(in.size()), b(in.size());
  {
    ScopedDispatch d(Dispatch::kGeneric);
    exp2_scaled_batch(in.data(), a.data(), in.size(), 1.0);
  }
  {
    ScopedDispatch d(Dispatch::kNative);
    exp2_scaled_batch(in.data(), b.data(), in.size(), 1.0);
  }
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  bool saw_subnormal = false;
  for (double v : a)
    if (v != 0.0 && v < std::numeric_limits<double>::min())
      saw_subnormal = true;
  EXPECT_TRUE(saw_subnormal)
      << "no output landed subnormal; the range above regressed";
}

// --- Fused inverse map -------------------------------------------------------
//
// exp2_inverse_f32_block has a scalar body and an AVX2 and an AVX-512 body;
// the native dispatch picks the widest the CPU has. Every body the host can
// run is checked here against the scalar one, and the scalar one against
// the loop log_inverse ran before the kernel existed.

using InverseBody = std::function<void(float*, std::size_t, double, double,
                                       const std::uint64_t*)>;

/// A SIMD body over the whole words of a block, the scalar body over the
/// rest — what the native dispatch does with that body.
InverseBody with_generic_tail(
    void (*words)(float*, std::size_t, double, double, const std::uint64_t*)) {
  return [words](float* io, std::size_t n, double scale, double thr,
                 const std::uint64_t* signs) {
    words(io, n / 64, scale, thr, signs);
    const std::size_t head = n / 64 * 64;
    ScopedDispatch d(Dispatch::kGeneric);
    exp2_inverse_f32_block(io + head, n - head, scale, thr,
                           signs ? signs + head / 64 : nullptr);
  };
}

std::vector<std::pair<std::string, InverseBody>> inverse_bodies() {
  std::vector<std::pair<std::string, InverseBody>> bodies;
  bodies.emplace_back("native", [](float* io, std::size_t n, double scale,
                                   double thr, const std::uint64_t* signs) {
    ScopedDispatch d(Dispatch::kNative);
    exp2_inverse_f32_block(io, n, scale, thr, signs);
  });
  if (detail::cpu_has_avx2())
    bodies.emplace_back("avx2",
                        with_generic_tail(detail::exp2_inverse_f32_words_avx2));
  if (detail::cpu_has_avx512())
    bodies.emplace_back(
        "avx512", with_generic_tail(detail::exp2_inverse_f32_words_avx512));
  return bodies;
}

/// The pre-kernel log_inverse loop: widen, exp2_scaled_batch, then the
/// zero test, the sign and the saturating narrow, one element at a time.
void reference_inverse(float* io, std::size_t n, double scale, double thr,
                       const std::uint64_t* signs) {
  for (std::size_t i = 0; i < n; ++i) {
    const double in = static_cast<double>(io[i]);
    double e = 0;
    {
      ScopedDispatch d(Dispatch::kGeneric);
      exp2_scaled_batch(&in, &e, 1, scale);
    }
    if (in <= thr) {
      io[i] = 0.0f;
      continue;
    }
    if (signs && ((signs[i / 64] >> (i % 64)) & 1)) e = -e;
    io[i] = narrow_to<float>(e);
  }
}

/// Run every body on copies of `in` and require the scalar body's bits.
void check_inverse_identity(const std::vector<float>& in, std::size_t offset,
                            double scale, double thr,
                            const std::vector<std::uint64_t>& signs,
                            const std::string& what) {
  SCOPED_TRACE(what);
  const std::size_t n = in.size() - offset;
  const std::uint64_t* sp = signs.empty() ? nullptr : signs.data();
  std::vector<float> want(in);
  {
    ScopedDispatch d(Dispatch::kGeneric);
    exp2_inverse_f32_block(want.data() + offset, n, scale, thr, sp);
  }
  std::vector<float> ref(in);
  reference_inverse(ref.data() + offset, n, scale, thr, sp);
  ASSERT_EQ(0, std::memcmp(ref.data(), want.data(), in.size() * 4))
      << "scalar body drifted from the pre-kernel loop";
  for (const auto& [name, body] : inverse_bodies()) {
    std::vector<float> got(in);
    body(got.data() + offset, n, scale, thr, sp);
    for (std::size_t i = 0; i < in.size(); ++i)
      ASSERT_EQ(std::bit_cast<std::uint32_t>(got[i]),
                std::bit_cast<std::uint32_t>(want[i]))
          << name << " at " << i << ", input " << in[i];
  }
}

TEST(Exp2InverseF32Block, EveryBodyBitIdenticalOnEdgeInputs) {
  const float inf = std::numeric_limits<float>::infinity();
  const float thr = -160.0f;
  // The edge classes, each placed so it lands in SIMD words and in the
  // scalar tail: NaN payloads of both signs, +/-inf, results that are
  // float-subnormal (about -149..-126), double-subnormal (below -1022),
  // above FLT_MAX (saturating), exactly at and one ulp around the zero
  // threshold, and signed zeros.
  std::vector<float> edge = {
      std::bit_cast<float>(0x7fc00001u), std::bit_cast<float>(0xffc12345u),
      std::bit_cast<float>(0x7f800001u),  // signalling NaN
      inf, -inf, 0.0f, -0.0f, 1.0f, -1.0f, 0.5f,
      -126.0f, -127.3f, -140.7f, -149.0f, -149.5f, -150.0f, -1050.0f,
      -1074.2f, -1100.0f, 127.0f, 127.9999f, 128.0f, 128.5f, 1e30f, 3e38f,
      thr, std::nextafter(thr, 0.0f), std::nextafter(thr, -inf),
  };
  Rng rng(1414);
  for (std::size_t n : {1u, 7u, 63u, 64u, 65u, 130u, 200u, 517u}) {
    std::vector<float> in(n + 1);
    for (std::size_t i = 0; i < in.size(); ++i)
      in[i] = i % 3 == 0 ? edge[(i / 3) % edge.size()]
                         : static_cast<float>(rng.uniform(-170.0, 130.0));
    // Sign words: every bit pattern class, including both word edges.
    std::vector<std::uint64_t> signs((n + 63) / 64);
    for (std::size_t w = 0; w < signs.size(); ++w)
      signs[w] = w % 3 == 0 ? 0x8000000000000001ull : rng.next();
    if (n % 64) signs.back() &= (std::uint64_t{1} << (n % 64)) - 1;
    for (double scale : {1.0, std::log2(10.0), std::log2(1.5)}) {
      // offset 1: io starts one float past the buffer, so no SIMD load
      // or store is aligned; the signs still start at io[0].
      check_inverse_identity(in, 1, scale, thr, signs,
                             "n = " + std::to_string(n));
      check_inverse_identity(in, 1, scale, thr, {},
                             "no signs, n = " + std::to_string(n));
    }
  }
}

TEST(Exp2InverseF32Block, EveryBodyBitIdenticalOnRandomBitPatterns) {
  // Every float bit pattern class at random — NaNs, infinities,
  // subnormals, huge magnitudes — as mapped values, at three bases.
  Rng rng(2718);
  std::vector<float> in(1u << 18);
  for (auto& v : in) v = std::bit_cast<float>(static_cast<std::uint32_t>(
                          rng.next() >> 32));
  std::vector<std::uint64_t> signs(in.size() / 64);
  for (auto& w : signs) w = rng.next();
  for (double base : {2.0, 10.0, 1.5}) {
    const double scale = std::log2(base);
    check_inverse_identity(in, 0, scale, -1e30, signs,
                           "base " + std::to_string(base));
  }
}

TEST(QuantizePoint, MatchesReferenceQuantizer) {
  // Reference: the historical inline quantizer, std::llround and all.
  auto reference = [](float orig, double pred, double eb,
                      std::int64_t radius) {
    const double v = static_cast<double>(orig);
    const double diff = v - pred;
    const double threshold =
        (static_cast<double>(radius) - 0.5) * 2.0 * eb;
    if (std::abs(diff) < threshold) {
      const std::int64_t q = std::llround(diff / (2.0 * eb));
      const float r = narrow_to<float>(pred + 2.0 * eb * static_cast<double>(q));
      if (std::abs(static_cast<double>(r) - v) <= eb)
        return QuantStep<float>{static_cast<std::uint32_t>(radius + q), r};
    }
    return QuantStep<float>{0, orig};
  };
  Rng rng(99);
  const double eb = 1e-4;
  const std::int64_t radius = 32768;
  const double two_eb = 2.0 * eb;
  const double threshold = (static_cast<double>(radius) - 0.5) * two_eb;
  std::vector<std::pair<float, double>> cases = {
      {0.0f, 0.0}, {-0.0f, 0.0}, {1.0f, 1.0 + eb}, {1.0f, 1.0 - 0.5 * eb},
      {std::numeric_limits<float>::max(), 0.0},
      {std::numeric_limits<float>::denorm_min(), 0.0},
      {1.0f, 1.0 + (static_cast<double>(radius) - 1.0) * two_eb},
      {1.0f, 1.0 + static_cast<double>(radius) * two_eb},
  };
  for (int i = 0; i < 20000; ++i) {
    float v = static_cast<float>(
        (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) * 4.0);
    double pred = static_cast<double>(v) +
                  (static_cast<double>(rng.next() >> 40) * 0x1p-24 - 0.5) *
                      20.0 * eb;
    cases.emplace_back(v, pred);
  }
  for (auto [v, pred] : cases) {
    auto got = quantize_point<float>(v, pred, eb, two_eb, threshold, radius);
    auto want = reference(v, pred, eb, radius);
    EXPECT_EQ(got.code, want.code) << v << " " << pred;
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.recon),
              std::bit_cast<std::uint32_t>(want.recon))
        << v << " " << pred;
  }
}

// Reference scalar lifts (copies of the codec's historical loops).
template <typename Int>
void ref_fwd_lift(Int* p, std::size_t s) {
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  x += w; x >>= 1; w -= x;
  z += y; z >>= 1; y -= z;
  x += z; x >>= 1; z -= x;
  w += y; w >>= 1; y -= w;
  w += y >> 1; y -= w >> 1;
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

template <typename Int>
void ref_inv_lift(Int* p, std::size_t s) {
  using U = std::make_unsigned_t<Int>;
  auto add = [](Int a, Int b) {
    return static_cast<Int>(static_cast<U>(a) + static_cast<U>(b));
  };
  auto sub = [](Int a, Int b) {
    return static_cast<Int>(static_cast<U>(a) - static_cast<U>(b));
  };
  auto shl1 = [](Int a) {
    return static_cast<Int>(static_cast<U>(a) << 1);
  };
  Int x = p[0 * s], y = p[1 * s], z = p[2 * s], w = p[3 * s];
  y = add(y, w >> 1); w = sub(w, y >> 1);
  y = add(y, w); w = shl1(w); w = sub(w, y);
  z = add(z, x); x = shl1(x); x = sub(x, z);
  y = add(y, z); z = shl1(z); z = sub(z, y);
  w = add(w, x); x = shl1(x); x = sub(x, w);
  p[0 * s] = x; p[1 * s] = y; p[2 * s] = z; p[3 * s] = w;
}

template <typename Int>
void ref_fwd_xform(Int* b, int nd) {
  switch (nd) {
    case 1: ref_fwd_lift(b, 1); break;
    case 2:
      for (int y = 0; y < 4; ++y) ref_fwd_lift(b + 4 * y, 1);
      for (int x = 0; x < 4; ++x) ref_fwd_lift(b + x, 4);
      break;
    default:
      for (int z = 0; z < 4; ++z)
        for (int y = 0; y < 4; ++y) ref_fwd_lift(b + 16 * z + 4 * y, 1);
      for (int z = 0; z < 4; ++z)
        for (int x = 0; x < 4; ++x) ref_fwd_lift(b + 16 * z + x, 4);
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) ref_fwd_lift(b + 4 * y + x, 16);
      break;
  }
}

template <typename Int>
void ref_inv_xform(Int* b, int nd) {
  switch (nd) {
    case 1: ref_inv_lift(b, 1); break;
    case 2:
      for (int x = 0; x < 4; ++x) ref_inv_lift(b + x, 4);
      for (int y = 0; y < 4; ++y) ref_inv_lift(b + 4 * y, 1);
      break;
    default:
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) ref_inv_lift(b + 4 * y + x, 16);
      for (int z = 0; z < 4; ++z)
        for (int x = 0; x < 4; ++x) ref_inv_lift(b + 16 * z + x, 4);
      for (int z = 0; z < 4; ++z)
        for (int y = 0; y < 4; ++y) ref_inv_lift(b + 16 * z + 4 * y, 1);
      break;
  }
}

TEST(ZfpLift, BlockXformMatchesScalarLifts) {
  // The encoder feeds the forward lift coefficients below 2^(intprec-2) in
  // magnitude (block-floating-point, see fwd_cast), so the forward check
  // runs on random values and on mixes of the edges of that range. The
  // inverse also sees arbitrary (corrupt-stream) coefficients and must be
  // wrap-defined on them, so it is checked on full-range blocks as well.
  constexpr std::int64_t kEdge = (std::int64_t{1} << 62) - 1;
  const std::int64_t edges[] = {kEdge, -kEdge, kEdge >> 1, -(kEdge >> 1),
                                0, 1, -1};
  Rng rng(4242);
  for (int nd = 1; nd <= 3; ++nd) {
    const unsigned bsize = 1u << (2 * nd);
    for (int rep = 0; rep < 250; ++rep) {
      std::vector<std::int64_t> a(bsize), b(bsize);
      for (unsigned i = 0; i < bsize; ++i) {
        if (rep < 150)
          a[i] = static_cast<std::int64_t>(rng.next() >> 3) -
                 (std::int64_t{1} << 60);
        else if (rep < 200)
          a[i] = rep < 175 ? edges[rng.next() % 2]
                           : edges[rng.next() % std::size(edges)];
        else
          a[i] = static_cast<std::int64_t>(rng.next());
        b[i] = a[i];
      }
      if (rep < 200) {
        ref_fwd_xform(a.data(), nd);
        zfp_fwd_xform_block(b.data(), nd);
        EXPECT_EQ(a, b) << "nd = " << nd << ", rep = " << rep;
      }

      // The transform is only invertible up to rounding, so the reference
      // is the scalar inverse, not the original block.
      ref_inv_xform(a.data(), nd);
      zfp_inv_xform_block(b.data(), nd);
      EXPECT_EQ(a, b) << "nd = " << nd << ", rep = " << rep;
    }
  }
}

TEST(ZfpLift, NegabinaryBatchMatchesScalar) {
  constexpr std::uint64_t nbmask = 0xaaaaaaaaaaaaaaaaULL;
  std::uint8_t perm[64];
  for (unsigned i = 0; i < 64; ++i) perm[i] = static_cast<std::uint8_t>(
      (i * 29) % 64);  // an arbitrary permutation
  Rng rng(9);
  std::vector<std::int64_t> in(64);
  for (auto& v : in) v = static_cast<std::int64_t>(rng.next());
  in[0] = 0;
  in[1] = std::numeric_limits<std::int64_t>::min();
  in[2] = std::numeric_limits<std::int64_t>::max();
  in[3] = -1;

  std::vector<std::uint64_t> got(64), want(64);
  zfp_int2uint_gather(in.data(), got.data(), perm, 64, nbmask);
  for (unsigned i = 0; i < 64; ++i)
    want[i] = (static_cast<std::uint64_t>(in[perm[i]]) + nbmask) ^ nbmask;
  EXPECT_EQ(got, want);

  std::vector<std::int64_t> back(64), back_want(64);
  zfp_uint2int_scatter(got.data(), back.data(), perm, 64, nbmask);
  for (unsigned i = 0; i < 64; ++i)
    back_want[perm[i]] =
        static_cast<std::int64_t>((got[i] ^ nbmask) - nbmask);
  EXPECT_EQ(back, back_want);
  EXPECT_EQ(back, in);  // round trip
}

}  // namespace
}  // namespace kernels
}  // namespace transpwr
