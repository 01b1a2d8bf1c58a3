#ifndef TRANSPWR_TESTING_GENERATORS_H
#define TRANSPWR_TESTING_GENERATORS_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/types.h"

namespace transpwr {
namespace testing {

/// Adversarial input families for the conformance harness. Each one is a
/// floating-point population that historically breaks pointwise-relative
/// compressors: subnormals, signed zeros, sign flips, constant slabs,
/// fields spanning the whole exponent range, and non-finite lacings.
enum class Family : std::uint8_t {
  kRandomSmooth = 0,   ///< correlated smooth field, mixed sign
  kDenormals,          ///< values straddling T's subnormal range
  kNearZero,           ///< tiny magnitudes around the smallest normal
  kSignedZeros,        ///< +0 / -0 mixed with small values
  kSignAlternating,    ///< smooth magnitude, sign flips every element
  kConstantSlabs,      ///< piecewise-constant runs (incl. all-identical)
  kExponentRamp,       ///< magnitudes sweeping the full exponent range
  kHeavyTail,          ///< log-normal heavy tail over many decades
  kSparseZeros,        ///< smooth field with scattered exact zeros
  kTinyValuesMix,      ///< per-point mix of subnormal / normal / zero
  kNanLaced,           ///< smooth field with scattered quiet NaNs
  kInfLaced,           ///< smooth field with scattered +/-infinity
};

const char* family_name(Family f);
Family family_from_name(const std::string& name);

/// Every family, finite ones first.
std::span<const Family> all_families();

/// The families whose values are all finite.
std::span<const Family> finite_families();

bool family_is_finite(Family f);

/// Deterministic adversarial field: the same (family, n, seed, T) always
/// produces the same values, so every conformance failure is replayable
/// from its seed alone.
template <typename T>
std::vector<T> make_field(Family family, std::size_t n, std::uint64_t seed);

/// The shape a harness gives an n-point field: `variant` cycles through
/// 1-D, 2-D (rows of 16) and 3-D (planes of 8 x 8), truncating n to whole
/// rows or planes; fields under 64 points stay 1-D.
Dims shape_for(std::size_t n, std::size_t variant);

/// The root seed a harness run should use: TRANSPWR_SEED when set in the
/// environment (checked parse via common/env.h; malformed values warn once
/// and fall back), else `fallback`. Every harness prints the seed it
/// actually used in its report, so a CI log line is enough to replay a
/// failing hunt locally: TRANSPWR_SEED=<seed> <same command>.
std::uint64_t effective_seed(std::uint64_t fallback);

}  // namespace testing
}  // namespace transpwr

#endif  // TRANSPWR_TESTING_GENERATORS_H
