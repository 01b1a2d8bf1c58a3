#include "testing/generators.h"

#include <array>
#include <cmath>
#include <limits>

#include "common/env.h"
#include "common/error.h"
#include "common/rng.h"

namespace transpwr {
namespace testing {
namespace {

constexpr std::array<Family, 12> kAllFamilies = {
    Family::kRandomSmooth,  Family::kDenormals,    Family::kNearZero,
    Family::kSignedZeros,   Family::kSignAlternating,
    Family::kConstantSlabs, Family::kExponentRamp, Family::kHeavyTail,
    Family::kSparseZeros,   Family::kTinyValuesMix,
    Family::kNanLaced,      Family::kInfLaced};

constexpr std::size_t kNumFinite = 10;  // kAllFamilies[0..9]

/// Smooth correlated walk: an AR(1) process over a few decades of
/// magnitude, the "friendly" baseline the adversarial families perturb.
template <typename T>
std::vector<T> smooth(std::size_t n, Rng& rng, double scale) {
  std::vector<T> out(n);
  double v = rng.uniform(-1.0, 1.0) * scale;
  for (std::size_t i = 0; i < n; ++i) {
    v = 0.95 * v + 0.05 * scale * rng.normal();
    out[i] = static_cast<T>(v);
  }
  return out;
}

/// Magnitude 2^e * m with m in [1, 2), cast-safe for T by construction.
template <typename T>
T pow2_value(int e, double mantissa, bool negative) {
  double v = std::ldexp(mantissa, e);
  if (negative) v = -v;
  return static_cast<T>(v);
}

/// Exponent range that T can represent, subnormals included.
template <typename T>
void exponent_range(int* lo, int* hi) {
  *lo = std::numeric_limits<T>::min_exponent -
        std::numeric_limits<T>::digits;  // smallest subnormal
  *hi = std::numeric_limits<T>::max_exponent - 2;  // 2^hi * m stays finite
}

}  // namespace

const char* family_name(Family f) {
  switch (f) {
    case Family::kRandomSmooth:
      return "random_smooth";
    case Family::kDenormals:
      return "denormals";
    case Family::kNearZero:
      return "near_zero";
    case Family::kSignedZeros:
      return "signed_zeros";
    case Family::kSignAlternating:
      return "sign_alternating";
    case Family::kConstantSlabs:
      return "constant_slabs";
    case Family::kExponentRamp:
      return "exponent_ramp";
    case Family::kHeavyTail:
      return "heavy_tail";
    case Family::kSparseZeros:
      return "sparse_zeros";
    case Family::kTinyValuesMix:
      return "tiny_values_mix";
    case Family::kNanLaced:
      return "nan_laced";
    case Family::kInfLaced:
      return "inf_laced";
  }
  return "unknown";
}

Family family_from_name(const std::string& name) {
  for (Family f : kAllFamilies)
    if (name == family_name(f)) return f;
  throw ParamError("unknown adversarial family: " + name);
}

std::span<const Family> all_families() { return kAllFamilies; }

std::span<const Family> finite_families() {
  return {kAllFamilies.data(), kNumFinite};
}

bool family_is_finite(Family f) {
  return f != Family::kNanLaced && f != Family::kInfLaced;
}

template <typename T>
std::vector<T> make_field(Family family, std::size_t n, std::uint64_t seed) {
  // Fold the family into the seed so two families never share a stream.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(family));
  int e_lo = 0, e_hi = 0;
  exponent_range<T>(&e_lo, &e_hi);
  const int e_min_normal = std::numeric_limits<T>::min_exponent - 1;

  switch (family) {
    case Family::kRandomSmooth:
      return smooth<T>(n, rng, 100.0);

    case Family::kDenormals: {
      // Everything at or below the normal/subnormal boundary.
      std::vector<T> out(n);
      for (auto& v : out) {
        int e = e_lo + static_cast<int>(rng.below(
                           static_cast<std::uint64_t>(e_min_normal - e_lo + 2)));
        v = pow2_value<T>(e, 1.0 + rng.uniform(), rng.below(2) == 0);
      }
      return out;
    }

    case Family::kNearZero: {
      // A tight band around the smallest normal magnitude.
      std::vector<T> out(n);
      for (auto& v : out) {
        int e = e_min_normal - 2 + static_cast<int>(rng.below(5));
        v = pow2_value<T>(e, 1.0 + rng.uniform(), rng.below(2) == 0);
      }
      return out;
    }

    case Family::kSignedZeros: {
      auto out = smooth<T>(n, rng, 1.0);
      for (auto& v : out) {
        std::uint64_t roll = rng.below(4);
        if (roll == 0) v = T{0};
        if (roll == 1) v = -T{0};
      }
      return out;
    }

    case Family::kSignAlternating: {
      auto out = smooth<T>(n, rng, 10.0);
      for (std::size_t i = 0; i < n; ++i) {
        T m = out[i] < T{0} ? static_cast<T>(-out[i]) : out[i];
        out[i] = (i & 1) ? static_cast<T>(-m) : m;
      }
      return out;
    }

    case Family::kConstantSlabs: {
      std::vector<T> out(n);
      std::size_t i = 0;
      while (i < n) {
        std::size_t run = 1 + rng.below(n);  // occasionally the whole field
        T v = static_cast<T>(rng.uniform(-1e3, 1e3));
        for (; run && i < n; --run, ++i) out[i] = v;
      }
      return out;
    }

    case Family::kExponentRamp: {
      // Deterministic sweep across every representable binade, subnormals
      // through near-overflow, with a random mantissa per point.
      std::vector<T> out(n);
      const int span = e_hi - e_lo + 1;
      for (std::size_t i = 0; i < n; ++i) {
        int e = e_lo + static_cast<int>(i % static_cast<std::size_t>(span));
        out[i] = pow2_value<T>(e, 1.0 + rng.uniform(), rng.below(2) == 0);
      }
      return out;
    }

    case Family::kHeavyTail: {
      std::vector<T> out(n);
      const int half = (e_hi - e_lo) / 4;
      for (auto& v : out) {
        int e = static_cast<int>(rng.normal() * half / 3.0);
        e = std::max(e_lo, std::min(e_hi, e));
        v = pow2_value<T>(e, 1.0 + rng.uniform(), rng.below(2) == 0);
      }
      return out;
    }

    case Family::kSparseZeros: {
      auto out = smooth<T>(n, rng, 50.0);
      for (auto& v : out)
        if (rng.below(16) == 0) v = T{0};
      return out;
    }

    case Family::kTinyValuesMix: {
      std::vector<T> out(n);
      for (auto& v : out) {
        switch (rng.below(4)) {
          case 0:
            v = T{0};
            break;
          case 1: {  // subnormal
            int e = e_lo + static_cast<int>(rng.below(
                               static_cast<std::uint64_t>(
                                   e_min_normal - e_lo)));
            v = pow2_value<T>(e, 1.0 + rng.uniform(), rng.below(2) == 0);
            break;
          }
          case 2:  // around 1
            v = static_cast<T>(rng.uniform(-2.0, 2.0));
            break;
          default:  // large
            v = pow2_value<T>(e_hi - static_cast<int>(rng.below(8)),
                              1.0 + rng.uniform(), rng.below(2) == 0);
        }
      }
      return out;
    }

    case Family::kNanLaced: {
      auto out = smooth<T>(n, rng, 10.0);
      for (auto& v : out)
        if (rng.below(8) == 0) v = std::numeric_limits<T>::quiet_NaN();
      if (!out.empty()) out[0] = std::numeric_limits<T>::quiet_NaN();
      return out;
    }

    case Family::kInfLaced: {
      auto out = smooth<T>(n, rng, 10.0);
      for (auto& v : out)
        if (rng.below(8) == 0)
          v = rng.below(2) ? std::numeric_limits<T>::infinity()
                           : -std::numeric_limits<T>::infinity();
      if (!out.empty()) out[0] = std::numeric_limits<T>::infinity();
      return out;
    }
  }
  throw ParamError("make_field: unknown family");
}

template std::vector<float> make_field<float>(Family, std::size_t,
                                              std::uint64_t);
template std::vector<double> make_field<double>(Family, std::size_t,
                                                std::uint64_t);

Dims shape_for(std::size_t n, std::size_t variant) {
  Dims d;
  if (variant % 3 == 0 || n < 64) {
    d.nd = 1;
    d.d[0] = n;
  } else if (variant % 3 == 1) {
    d.nd = 2;
    d.d[0] = n / 16;
    d.d[1] = 16;
  } else {
    d.nd = 3;
    d.d[0] = n / 64;
    d.d[1] = 8;
    d.d[2] = 8;
  }
  return d;
}

std::uint64_t effective_seed(std::uint64_t fallback) {
  env::U64Range any;
  any.min = 0;
  return env::checked_u64("TRANSPWR_SEED", any).value_or(fallback);
}

}  // namespace testing
}  // namespace transpwr
