#include "testing/fuzz.h"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"

namespace transpwr {
namespace testing {
namespace {

TEST(FuzzTargets, CoverEverySchemeAndTheSubstrate) {
  auto targets = default_fuzz_targets(1);
  std::set<std::string> names;
  for (const auto& t : targets) {
    EXPECT_TRUE(names.insert(t.name).second) << "duplicate " << t.name;
    EXPECT_FALSE(t.corpus.empty()) << t.name << " has no seed corpus";
    EXPECT_TRUE(t.decode != nullptr) << t.name;
  }
  // Every registered scheme at both precisions, the temporal codec, the
  // lossless layers, the chunked / archive containers, and the serve wire
  // parsers.
  for (const char* required :
       {"SZ_ABS_f32", "SZ_ABS_f64", "SZ_PWR_f32", "SZ_PWR_f64", "SZ_T_f32",
        "SZ_T_f64", "ZFP_P_f32", "ZFP_P_f64", "ZFP_T_f32", "ZFP_T_f64",
        "FPZIP_f32", "FPZIP_f64", "ISABELA_f32", "ISABELA_f64", "SZI_T_f32",
        "SZI_T_f64", "temporal", "lossless", "lz77", "blocked_huffman",
        "rle", "chunked", "archive", "query", "net_frame"})
    EXPECT_TRUE(names.count(required)) << "missing target " << required;
}

TEST(FuzzMutator, IsDeterministicPerRngState) {
  std::vector<std::uint8_t> base(300);
  for (std::size_t i = 0; i < base.size(); ++i)
    base[i] = static_cast<std::uint8_t>(i);
  Rng a(99), b(99);
  for (int i = 0; i < 50; ++i)
    ASSERT_EQ(mutate_stream(base, a), mutate_stream(base, b)) << i;
}

// The bounded in-tree fuzz pass: a few hundred mutated decodes per target.
// The standalone `fuzz_decode` tool (and the sanitizer soak documented in
// docs/testing.md) runs the same engine for >= 10k iterations per target.
TEST(FuzzDecode, NoFindingsAtCtestBudget) {
  FuzzConfig config;
  config.iters_per_target = 300;
  FuzzReport report = run_fuzz(config);
  EXPECT_EQ(report.targets_run, 25u);
  EXPECT_EQ(report.decodes, report.targets_run * config.iters_per_target);
  // Every decode must land in one of the two clean buckets.
  EXPECT_EQ(report.clean_errors + report.clean_decodes, report.decodes);
  ASSERT_TRUE(report.ok()) << report.summary();
}

}  // namespace
}  // namespace testing
}  // namespace transpwr
