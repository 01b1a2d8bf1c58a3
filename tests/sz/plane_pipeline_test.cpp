// 3-D SZ codes its kAbs Lorenzo sweep plane-pipelined: planes run on
// several workers, each row waiting until the plane before it has finished
// that row. The bytes and the decoded values must not depend on how many
// workers run, on whether the caller is itself a pool worker (nested
// callers run the planes inline), or on the shape: few planes, rows too
// short for the four-row wavefront, too few rows for one wavefront block,
// or a single plane. The generic dispatch, which keeps the serial
// per-point sweep, is the reference for all of them. `ctest -L tsan` runs
// this under -DTRANSPWR_SANITIZE=thread to check the row handshake.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/transformed.h"
#include "data/io.h"
#include "kernels/dispatch.h"
#include "sz/sz.h"

namespace transpwr {
namespace {

const Dims kShapes[] = {
    Dims(24, 20, 19),  // many planes; rows left over after the blocks
    Dims(2, 30, 40),   // fewer planes than workers
    Dims(9, 3, 30),    // too few rows for one wavefront block
    Dims(9, 20, 3),    // rows shorter than the wavefront
    Dims(1, 25, 30),   // one plane
    Dims(5, 1, 1),     // one point per plane
};
constexpr std::size_t kThreadCounts[] = {1, 2, 3, 8};

/// A smooth walk with one spike per plane, so every plane holds outliers
/// (the spike, and usually its neighbors), and some negatives so SZ_T
/// carries a sign map.
template <typename T>
std::vector<T> spiky_field(const Dims& dims, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> data(dims.count());
  double v = 0.3;
  for (auto& x : data) {
    v += rng.normal() * 0.02;
    x = static_cast<T>(v);
  }
  const std::size_t plane = dims[1] * dims[2];
  for (std::size_t z = 0; z < dims[0]; ++z)
    data[z * plane + rng.below(plane)] = static_cast<T>(1e4);
  return data;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

/// body() on a pool worker, where nested parallel regions run inline.
template <typename R>
R on_pool_worker(const std::function<R()>& body) {
  auto done = std::make_shared<std::promise<R>>();
  auto result = done->get_future();
  global_pool().submit([done, &body] {
    try {
      done->set_value(body());
    } catch (...) {
      done->set_exception(std::current_exception());
    }
  });
  return result.get();
}

template <typename T>
void check_sz(const Dims& dims) {
  SCOPED_TRACE("dims " + dims.to_string());
  const auto data = spiky_field<T>(dims, 41 + dims.count());
  sz::Params p;
  p.bound = 1e-3;
  p.quant_intervals = 256;
  std::vector<std::uint8_t> ref;
  std::vector<T> ref_out;
  {
    kernels::ScopedDispatch d(kernels::Dispatch::kGeneric);
    ref = sz::compress<T>(data, dims, p);
    ref_out = sz::decompress<T>(ref, nullptr, 1);
  }
  kernels::ScopedDispatch d(kernels::Dispatch::kNative);
  for (std::size_t threads : kThreadCounts) {
    p.threads = threads;
    EXPECT_EQ(sz::compress<T>(data, dims, p), ref) << "threads=" << threads;
    EXPECT_TRUE(same_bits(sz::decompress<T>(ref, nullptr, threads), ref_out))
        << "threads=" << threads;
  }
  p.threads = 8;
  EXPECT_EQ(on_pool_worker<std::vector<std::uint8_t>>(
                [&] { return sz::compress<T>(data, dims, p); }),
            ref);
  EXPECT_TRUE(same_bits(on_pool_worker<std::vector<T>>([&] {
                          return sz::decompress<T>(ref, nullptr, 8);
                        }),
                        ref_out));
}

template <typename T>
void check_szt(const Dims& dims) {
  SCOPED_TRACE("dims " + dims.to_string());
  auto data = spiky_field<T>(dims, 43 + dims.count());
  TransformedParams tp;
  tp.rel_bound = 1e-3;
  tp.threads = 1;
  const auto ref =
      transformed_compress<T>(data, dims, InnerCodec::kSz, tp);
  const auto ref_out = transformed_decompress<T>(ref, nullptr, 1);
  for (std::size_t threads : kThreadCounts) {
    tp.threads = threads;
    EXPECT_EQ(transformed_compress<T>(data, dims, InnerCodec::kSz, tp), ref)
        << "threads=" << threads;
    EXPECT_TRUE(same_bits(
        transformed_decompress<T>(ref, nullptr, threads), ref_out))
        << "threads=" << threads;
  }
  EXPECT_TRUE(same_bits(on_pool_worker<std::vector<T>>([&] {
                          return transformed_decompress<T>(ref, nullptr, 8);
                        }),
                        ref_out));
}

TEST(SzPlanePipeline, FloatMatchesSerialSweepAtEveryThreadCount) {
  for (const Dims& dims : kShapes) check_sz<float>(dims);
}

TEST(SzPlanePipeline, DoubleMatchesSerialSweepAtEveryThreadCount) {
  for (const Dims& dims : kShapes) check_sz<double>(dims);
}

TEST(SzPlanePipeline, TransformedFloatIsThreadInvariant) {
  for (const Dims& dims : kShapes) check_szt<float>(dims);
}

TEST(SzPlanePipeline, TransformedDoubleIsThreadInvariant) {
  for (const Dims& dims : kShapes) check_szt<double>(dims);
}

// The committed corpus streams whose outlier section is one value short or
// one value long must be rejected however many workers decode them.
TEST(SzPlanePipeline, OutlierCountMismatchIsRejectedAtEveryThreadCount) {
  const std::filesystem::path dir = TRANSPWR_CORPUS_DIR;
  for (const char* name : {"sz_outliers_exhausted", "sz_trailing_outliers"}) {
    const auto stream =
        io::read_bytes((dir / (std::string(name) + ".bin")).string());
    for (std::size_t threads : kThreadCounts)
      EXPECT_THROW(sz::decompress<float>(stream, nullptr, threads),
                   StreamError)
          << name << " threads=" << threads;
  }
}

// Several callers at once, on and off the pool, each decoding a many-plane
// field with the pipeline fanned out.
TEST(SzPlanePipeline, ConcurrentCallersOnAndOffThePool) {
  const Dims dims(40, 24, 24);
  const auto data = spiky_field<float>(dims, 47);
  sz::Params p;
  p.bound = 1e-3;
  p.threads = 1;
  const auto ref = sz::compress<float>(data, dims, p);
  const auto ref_out = sz::decompress<float>(ref, nullptr, 1);
  std::atomic<int> mismatches{0};
  const auto body = [&] {
    sz::Params q = p;
    q.threads = 4;
    if (sz::compress<float>(data, dims, q) != ref) ++mismatches;
    if (!same_bits(sz::decompress<float>(ref, nullptr, 4), ref_out))
      ++mismatches;
  };
  std::vector<std::future<int>> workers;
  for (int i = 0; i < 2; ++i)
    workers.push_back(std::async(std::launch::async, [&] {
      return on_pool_worker<int>([&] {
        body();
        return 0;
      });
    }));
  std::thread plain(body);
  body();
  plain.join();
  for (auto& w : workers) w.get();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace transpwr
