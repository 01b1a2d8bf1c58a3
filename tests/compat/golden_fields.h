#ifndef TRANSPWR_TESTS_COMPAT_GOLDEN_FIELDS_H
#define TRANSPWR_TESTS_COMPAT_GOLDEN_FIELDS_H

// Deterministic inputs behind the committed golden v1 bitstreams in
// tests/data/golden/. The generator that produced the goldens and the
// compatibility test replaying them both include this header, so the
// checksums in golden_v1_test.cpp stay meaningful: if these functions
// change, the goldens must be regenerated (see tests/data/golden/README.md).

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace transpwr {
namespace golden {

/// Smooth-ish positive field: random walk with occasional exact zeros, the
/// shape SZ-family codecs were built for. Values are derived purely from
/// integer RNG draws so every platform generates identical bits.
template <typename T>
std::vector<T> field(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> out(n);
  double v = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    v += (static_cast<double>(rng.next() >> 40) * 0x1.0p-24 - 0.5) * 0.05;
    out[i] = rng.below(97) == 0 ? T(0) : static_cast<T>(v);
  }
  return out;
}

/// Smooth signed 2-D field on an integer lattice: a paraboloid shifted
/// below zero, so it has a negative disc, exact zeros where the lattice
/// meets the level set, and positive values elsewhere. Every value is an
/// integer over 2^12, exact in float and double on every platform.
template <typename T>
std::vector<T> paraboloid(std::size_t ny, std::size_t nx) {
  std::vector<T> out(ny * nx);
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x) {
      const auto dy = static_cast<long long>(y) -
                      static_cast<long long>(ny / 3);
      const auto dx = static_cast<long long>(x) -
                      static_cast<long long>(nx / 2);
      out[y * nx + x] =
          static_cast<T>(static_cast<double>(dx * dx + dy * dy - 2500) *
                         0x1.0p-12);
    }
  return out;
}

/// Compressible byte stream (few distinct values, long matches).
inline std::vector<std::uint8_t> bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (std::size_t i = 0; i < n; ++i)
    out[i] = static_cast<std::uint8_t>(rng.below(7) * 17);
  return out;
}

}  // namespace golden
}  // namespace transpwr

#endif  // TRANSPWR_TESTS_COMPAT_GOLDEN_FIELDS_H
