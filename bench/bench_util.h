#ifndef TRANSPWR_BENCH_BENCH_UTIL_H
#define TRANSPWR_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/timer.h"
#include "core/compressor.h"
#include "data/field.h"
#include "metrics/metrics.h"

namespace transpwr {
namespace bench {

/// One compress+decompress measurement of a scheme on a field.
struct Measurement {
  double ratio = 0;          ///< original bytes / compressed bytes
  double compress_mbs = 0;   ///< MB/s of original data through compress
  double decompress_mbs = 0;
  double bit_rate = 0;       ///< bits per value
  ErrorStats stats;
  std::size_t compressed_bytes = 0;
};

inline Measurement measure(Scheme scheme, const Field<float>& f,
                           const CompressorParams& params) {
  auto comp = make_compressor(scheme);
  Timer tc;
  auto stream = comp->compress(f.span(), f.dims, params);
  double cs = tc.seconds();
  Timer td;
  auto out = comp->decompress_f32(stream);
  double ds = td.seconds();

  Measurement m;
  m.compressed_bytes = stream.size();
  m.ratio = compression_ratio(f.bytes(), stream.size());
  m.bit_rate = bit_rate(stream.size(), f.values.size());
  double mb = static_cast<double>(f.bytes()) / (1024.0 * 1024.0);
  m.compress_mbs = cs > 0 ? mb / cs : 0;
  m.decompress_mbs = ds > 0 ? mb / ds : 0;
  m.stats = compute_error_stats(f.span(), out);
  return m;
}

/// Bisection search for the pointwise-relative bound at which `scheme`
/// reaches compression ratio `target` on `f` (the iso-CR comparisons of
/// Figs. 4-5). Returns the bound; `achieved` gets the realized ratio.
inline double bound_for_ratio(Scheme scheme, const Field<float>& f,
                              double target, double* achieved = nullptr,
                              double lo = 1e-6, double hi = 0.9) {
  auto ratio_at = [&](double b) {
    CompressorParams p;
    p.bound = b;
    auto comp = make_compressor(scheme);
    auto stream = comp->compress(f.span(), f.dims, p);
    return compression_ratio(f.bytes(), stream.size());
  };
  for (int it = 0; it < 22; ++it) {
    double mid = std::sqrt(lo * hi);  // geometric bisection over decades
    if (ratio_at(mid) < target)
      lo = mid;
    else
      hi = mid;
  }
  double bound = std::sqrt(lo * hi);
  if (achieved) *achieved = ratio_at(bound);
  return bound;
}

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

inline const char* fmt_pct(double fraction, char* buf, std::size_t n) {
  if (fraction >= 1.0)
    std::snprintf(buf, n, "100%%");
  else
    std::snprintf(buf, n, "%.4f%%", 100.0 * fraction);
  return buf;
}

}  // namespace bench
}  // namespace transpwr

#endif  // TRANSPWR_BENCH_BENCH_UTIL_H
