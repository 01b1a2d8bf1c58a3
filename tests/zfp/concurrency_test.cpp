// Grouped ZFP from several caller threads at once. Plain threads fan their
// group loops out on the shared pool; tasks running on pool workers run
// their nested group loops inline. Every caller must reproduce the
// single-threaded bytes and values. `ctest -L tsan` runs this under
// -DTRANSPWR_SANITIZE=thread to check the group loops for data races.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/transformed.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

std::vector<float> signed_walk(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(n);
  double v = 0.5;
  for (auto& x : data) {
    v += rng.normal() * 0.01;
    x = static_cast<float>(v);
  }
  return data;
}

bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// Run `body` on `pool_callers` pool tasks, `thread_callers` plain threads
/// and the test thread, all at once; rethrows the first failure.
void run_mixed_callers(std::size_t pool_callers, std::size_t thread_callers,
                       const std::function<void()>& body) {
  std::vector<std::future<void>> pool_done;
  for (std::size_t i = 0; i < pool_callers; ++i) {
    auto done = std::make_shared<std::promise<void>>();
    pool_done.push_back(done->get_future());
    global_pool().submit([done, &body] {
      try {
        body();
        done->set_value();
      } catch (...) {
        done->set_exception(std::current_exception());
      }
    });
  }
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < thread_callers; ++i) threads.emplace_back(body);
  body();
  for (auto& t : threads) t.join();
  for (auto& f : pool_done) f.get();
}

TEST(ZfpConcurrency, GroupedTransformedCallersOnAndOffThePool) {
  const Dims dims(67, 1001);  // 4267 blocks: two groups, layout 1
  auto data = signed_walk(dims.count(), 31);
  TransformedParams tp;
  tp.rel_bound = 1e-3;
  tp.threads = 1;
  const auto ref = transformed_compress<float>(data, dims, InnerCodec::kZfp,
                                               tp);
  const auto ref_out = transformed_decompress<float>(ref, nullptr, 1);

  std::atomic<int> mismatches{0};
  run_mixed_callers(3, 3, [&] {
    for (int rep = 0; rep < 2; ++rep) {
      TransformedParams p = tp;
      p.threads = 0;
      auto stream = transformed_compress<float>(data, dims, InnerCodec::kZfp,
                                                p);
      if (stream != ref) ++mismatches;
      if (!same_bits(transformed_decompress<float>(stream, nullptr, 0),
                     ref_out))
        ++mismatches;
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ZfpConcurrency, FixedRateCallersOnAndOffThePool) {
  const Dims dims(65536 + 403);  // 16485 1-D blocks: two fixed-rate groups
  auto data = signed_walk(dims.count(), 37);
  zfp::Params zp;
  zp.mode = zfp::Mode::kRate;
  zp.rate = 5.0;
  zp.threads = 1;
  const auto ref = zfp::compress<float>(data, dims, zp);
  const auto ref_out = zfp::decompress<float>(ref, nullptr, 1);

  std::atomic<int> mismatches{0};
  run_mixed_callers(2, 2, [&] {
    zfp::Params p = zp;
    p.threads = 4;
    auto stream = zfp::compress<float>(data, dims, p);
    if (stream != ref) ++mismatches;
    if (!same_bits(zfp::decompress<float>(stream, nullptr, 4), ref_out))
      ++mismatches;
  });
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace transpwr
