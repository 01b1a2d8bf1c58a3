#include "parallel/slab.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.h"

namespace transpwr {
namespace {

std::vector<std::size_t> rows_of(const slab::Plan& plan) {
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if (i) {
      EXPECT_EQ(plan.row_begin(i), plan.row_begin(i - 1) + rows.back());
    }
    rows.push_back(plan.rows(i));
  }
  return rows;
}

TEST(SlabPlan, CountAndHeightPlans) {
  using R = std::vector<std::size_t>;
  EXPECT_EQ(rows_of(slab::Plan::of_count(26, 4)), (R{7, 7, 7, 5}));
  EXPECT_EQ(rows_of(slab::Plan::of_count(10, 100)), R(10, 1));  // clamped
  EXPECT_EQ(rows_of(slab::Plan::of_count(10, 0)), R{10});
  // ceil(9 / 4) = 3 rows per slab leaves only three slabs.
  EXPECT_EQ(rows_of(slab::Plan::of_count(9, 4)), (R{3, 3, 3}));
  EXPECT_EQ(rows_of(slab::Plan::of_rows(20, 8)), (R{8, 8, 4}));
  EXPECT_EQ(rows_of(slab::Plan::of_rows(20, 50)), R{20});
  EXPECT_EQ(slab::Plan::of_rows(20, 8).dims(2, Dims(20, 3, 5)), Dims(4, 3, 5));
}

TEST(SlabPlan, RowTableIsValidated) {
  const std::vector<std::uint64_t> good{7, 7, 7, 5};
  EXPECT_EQ(rows_of(slab::Plan::from_table(26, good, "t")),
            (std::vector<std::size_t>{7, 7, 7, 5}));
  for (const std::vector<std::uint64_t>& bad :
       {std::vector<std::uint64_t>{7, 0, 19}, {7, 7, 7}, {7, 7, 7, 6},
        {~std::uint64_t{0}, 27}, {}}) {
    EXPECT_THROW(slab::Plan::from_table(26, bad, "t"), StreamError);
  }
}

// At most `threads` work calls ever run at once, counting the caller.
TEST(SlabFanOut, BoundsJobsInFlight) {
  for (std::size_t threads : {1u, 2u, 3u}) {
    SCOPED_TRACE(threads);
    std::atomic<int> live{0}, peak{0};
    std::vector<std::size_t> emitted;
    slab::compress_in_order(
        24, threads,
        [&](std::size_t) {
          const int now = ++live;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
          --live;
        },
        [&](std::size_t i) { emitted.push_back(i); });
    EXPECT_LE(peak.load(), static_cast<int>(threads));
    EXPECT_EQ(emitted.size(), 24u);
  }
}

// threads == 1 never touches the pool: work and emit alternate on the
// calling thread. The work sleeps so that any pool helper would get to
// claim a slab.
TEST(SlabFanOut, OneThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  std::vector<std::pair<char, std::size_t>> calls;
  slab::compress_in_order(
      5, 1,
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        calls.push_back({'w', i});
      },
      [&](std::size_t i) { calls.push_back({'e', i}); });
  std::vector<std::pair<char, std::size_t>> want;
  for (std::size_t i = 0; i < 5; ++i) {
    want.push_back({'w', i});
    want.push_back({'e', i});
  }
  EXPECT_EQ(calls, want);
}

// Later slabs finish first (slab i sleeps longer the smaller i is), yet
// emit runs on the calling thread in slab order, each after its work.
TEST(SlabFanOut, EmitKeepsSlabOrder) {
  const std::size_t n = 12;
  const auto caller = std::this_thread::get_id();
  std::vector<std::atomic<bool>> worked(n);
  std::vector<std::size_t> emitted;
  slab::compress_in_order(
      n, 4,
      [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(n - i));
        worked[i] = true;
      },
      [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_TRUE(worked[i].load());
        emitted.push_back(i);
      });
  ASSERT_EQ(emitted.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(emitted[i], i);
}

// A failing slab stops the fan-out: the error reaches the caller, and
// nothing from the failed slab on is emitted.
TEST(SlabFanOut, FirstFailureIsRethrown) {
  for (std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    std::vector<std::size_t> emitted;
    EXPECT_THROW(slab::compress_in_order(
                     16, threads,
                     [&](std::size_t i) {
                       if (i == 5) throw std::runtime_error("slab 5");
                     },
                     [&](std::size_t i) { emitted.push_back(i); }),
                 std::runtime_error);
    ASSERT_LE(emitted.size(), 5u);
    for (std::size_t i = 0; i < emitted.size(); ++i) EXPECT_EQ(emitted[i], i);
  }
  EXPECT_THROW(slab::compress_in_order(
                   4, 2, [](std::size_t) {},
                   [](std::size_t i) {
                     if (i == 1) throw ParamError("emit 1");
                   }),
               ParamError);
}

}  // namespace
}  // namespace transpwr
