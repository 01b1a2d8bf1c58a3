#include "testing/conformance.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>

#include "common/error.h"
#include "parallel/chunked.h"
#include "testing/oracle.h"

namespace transpwr {
namespace testing {
namespace {

struct CaseContext {
  Scheme scheme;
  Family family;
  double bound;
  std::uint64_t seed;
  const char* precision;
  ConformanceReport* report;
};

void add_violation(const CaseContext& c, const std::string& kind,
                   const std::string& detail, std::size_t index = 0) {
  Violation v;
  v.scheme = scheme_name(c.scheme);
  v.family = family_name(c.family);
  v.kind = kind;
  std::ostringstream os;
  os << detail << " [" << c.precision << ", bound=" << c.bound
     << ", seed=" << c.seed << "]";
  v.detail = os.str();
  v.bound = c.bound;
  v.index = index;
  c.report->violations.push_back(v);
}

/// Pointwise value checks for one finished round trip, judged against the
/// shared oracle (testing/oracle.h) the hunter uses too.
template <typename T>
void check_values(const CaseContext& c, std::span<const T> in,
                  std::span<const T> out) {
  const bool finite_family = family_is_finite(c.family);

  std::size_t reported = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double x = static_cast<double>(in[i]);
    const double y = static_cast<double>(out[i]);
    c.report->points_checked++;
    if (reported >= 3) break;  // one case, a few representative points

    if (!std::isfinite(x)) {
      if (!preserves_nonfinite(c.scheme)) continue;
      const bool ok = std::isnan(x) ? std::isnan(y) : x == y;
      if (!ok) {
        std::ostringstream os;
        os << "non-finite input " << x << " became " << y << " at " << i;
        add_violation(c, "nonfinite_not_preserved", os.str(), i);
        reported++;
      }
      continue;
    }

    if (finite_family && !std::isfinite(y)) {
      std::ostringstream os;
      os << "finite input " << x << " decoded to non-finite " << y << " at "
         << i;
      add_violation(c, "nonfinite_output", os.str(), i);
      reported++;
      continue;
    }

    const double err = std::abs(y - x);
    const Envelope env = point_envelope<T>(c.scheme, c.bound, x);
    switch (env.cls) {
      case PointClass::kUnchecked:
        break;
      case PointClass::kExact:
        if (y != x) {
          std::ostringstream os;
          os << "exact zero decoded to " << y << " at " << i;
          add_violation(c, "zero_not_exact", os.str(), i);
          reported++;
        }
        break;
      case PointClass::kBounded:
        if (!(err <= env.allowed)) {
          std::ostringstream os;
          if (guarantee_of(c.scheme) == Guarantee::kAbsolute)
            os << "|" << y << " - " << x << "| = " << err << " > " << c.bound
               << " at " << i;
          else
            os << "rel err " << err / std::abs(x) << " > " << c.bound
               << " (x=" << x << ", x'=" << y << ") at " << i;
          add_violation(c,
                        guarantee_of(c.scheme) == Guarantee::kAbsolute
                            ? "abs_bound"
                            : "rel_bound",
                        os.str(), i);
          reported++;
        }
        break;
    }
  }
}

/// One compress/decompress round trip with all invariant checks.
template <typename T>
void run_case(const CaseContext& c, std::span<const T> data, Dims dims) {
  auto comp = make_compressor(c.scheme);
  CompressorParams params;
  params.bound = c.bound;
  c.report->cases_run++;

  std::vector<std::uint8_t> stream;
  try {
    stream = comp->compress(data, dims, params);
  } catch (const Error& e) {
    if (!family_is_finite(c.family)) {
      // A clean refusal of NaN/Inf input is a valid contract.
      c.report->clean_rejections++;
      return;
    }
    add_violation(c, "compress_error",
                  std::string("compress threw: ") + e.what());
    return;
  } catch (const std::exception& e) {
    add_violation(c, "compress_exception",
                  std::string("compress threw non-transpwr ") + e.what());
    return;
  }

  if (stream.empty()) {
    add_violation(c, "empty_stream", "compress produced no bytes");
    return;
  }
  // Size sanity: a lossy compressor must not blow the input up by more
  // than a small factor plus header slack.
  const std::size_t ceiling = 4096 + 8 * data.size() * sizeof(T);
  if (stream.size() > ceiling) {
    std::ostringstream os;
    os << "stream is " << stream.size() << " bytes for "
       << data.size() * sizeof(T) << " input bytes";
    add_violation(c, "stream_too_large", os.str());
  }

  Dims got;
  std::vector<T> out;
  try {
    if constexpr (std::is_same_v<T, float>)
      out = comp->decompress_f32(stream, &got);
    else
      out = comp->decompress_f64(stream, &got);
  } catch (const std::exception& e) {
    add_violation(c, "decompress_error",
                  std::string("own stream failed to decode: ") + e.what());
    return;
  }

  if (!(got == dims)) {
    add_violation(c, "dims_mismatch", "decoded dims differ from input dims");
    return;
  }
  if (out.size() != data.size()) {
    std::ostringstream os;
    os << "decoded " << out.size() << " elements, expected " << data.size();
    add_violation(c, "size_mismatch", os.str());
    return;
  }
  check_values<T>(c, data, out);
}

/// Serial-vs-parallel determinism of the chunked container: the stream and
/// the reconstruction must be byte-identical however many threads ran.
void check_parallel_identity(Scheme scheme, double bound,
                             std::uint64_t seed, ConformanceReport* report) {
  CaseContext c{scheme, Family::kRandomSmooth, bound, seed, "float32",
                report};
  auto data = make_field<float>(Family::kRandomSmooth, 1024, seed);
  Dims dims;
  dims.nd = 2;
  dims.d[0] = 64;
  dims.d[1] = 16;

  chunked::Params p;
  p.scheme = scheme;
  p.compressor.bound = bound;
  p.num_chunks = 4;
  report->cases_run++;
  try {
    p.threads = 1;
    auto serial = chunked::compress<float>(data, dims, p);
    p.threads = 4;
    auto parallel = chunked::compress<float>(data, dims, p);
    if (serial != parallel) {
      add_violation(c, "parallel_divergence",
                    "chunked streams differ between 1 and 4 threads");
      return;
    }
    auto out1 = chunked::decompress<float>(serial, nullptr, 1);
    auto out4 = chunked::decompress<float>(serial, nullptr, 4);
    if (out1.size() != out4.size() ||
        std::memcmp(out1.data(), out4.data(),
                    out1.size() * sizeof(float)) != 0) {
      add_violation(c, "parallel_divergence",
                    "chunked reconstruction differs between 1 and 4 threads");
      return;
    }
    report->points_checked += out1.size();
  } catch (const std::exception& e) {
    add_violation(c, "parallel_error",
                  std::string("chunked round trip threw: ") + e.what());
  }
}

/// Degenerate and tiny shapes every scheme must survive.
template <typename T>
void check_degenerate(Scheme scheme, double bound, std::uint64_t seed,
                      ConformanceReport* report) {
  static constexpr std::size_t kShapes[][4] = {
      // nd, d0, d1, d2
      {1, 1, 0, 0}, {1, 2, 0, 0}, {1, 3, 0, 0},  {1, 7, 0, 0},
      {2, 1, 1, 0}, {2, 1, 7, 0}, {2, 5, 3, 0},  {3, 1, 1, 1},
      {3, 4, 4, 4}, {3, 2, 1, 3},
  };
  for (const auto& s : kShapes) {
    Dims dims;
    dims.nd = static_cast<int>(s[0]);
    for (int i = 0; i < dims.nd; ++i) dims.d[static_cast<std::size_t>(i)] = s[i + 1];
    const std::size_t n = dims.count();
    CaseContext c{scheme, Family::kRandomSmooth, bound, seed,
                  sizeof(T) == 4 ? "float32" : "float64", report};
    auto data = make_field<T>(Family::kRandomSmooth, n, seed + n);
    run_case<T>(c, data, dims);
  }
}

}  // namespace

std::string ConformanceReport::table() const {
  std::ostringstream os;
  os << "conformance: " << cases_run << " cases, " << points_checked
     << " points checked, " << clean_rejections << " clean rejections, "
     << violations.size() << " violations (seed=" << effective_seed << ")\n";
  if (violations.empty()) return os.str();

  std::map<std::string, std::size_t> counts;
  for (const auto& v : violations) counts[v.scheme + " / " + v.kind]++;
  os << "  violations by scheme/kind:\n";
  for (const auto& [key, count] : counts)
    os << "    " << key << ": " << count << "\n";
  os << "  first findings:\n";
  for (std::size_t i = 0; i < std::min<std::size_t>(violations.size(), 10);
       ++i) {
    const auto& v = violations[i];
    os << "    [" << v.scheme << " / " << v.family << " / " << v.kind
       << "] " << v.detail << "\n";
  }
  return os.str();
}

ConformanceReport run_conformance(const ConformanceConfig& config) {
  ConformanceReport report;
  // TRANSPWR_SEED (checked env) overrides the built-in constant, so a CI
  // log's seed line is all that is needed to replay a failing sweep.
  const std::uint64_t base_seed = effective_seed(config.seed);
  report.effective_seed = base_seed;

  std::vector<Scheme> schemes = config.schemes;
  if (schemes.empty())
    schemes.assign(all_schemes().begin(), all_schemes().end());
  std::vector<Family> families = config.families;
  if (families.empty())
    families.assign(all_families().begin(), all_families().end());

  const std::size_t n = std::max<std::size_t>(config.max_points, 64);

  for (std::size_t iter = 0; iter < std::max<std::size_t>(config.iters, 1);
       ++iter) {
    std::size_t variant = iter;
    for (Scheme scheme : schemes) {
      for (Family family : families) {
        for (double bound : config.bounds) {
          const std::uint64_t seed =
              base_seed + 1000003 * iter +
              17 * static_cast<std::uint64_t>(family);
          Dims dims = shape_for(n, variant++);
          {
            CaseContext c{scheme, family, bound, seed, "float32", &report};
            auto data = make_field<float>(family, dims.count(), seed);
            run_case<float>(c, data, dims);
          }
          if (config.check_double) {
            CaseContext c{scheme, family, bound, seed, "float64", &report};
            auto data = make_field<double>(family, dims.count(), seed);
            run_case<double>(c, data, dims);
          }
        }
      }
      if (config.check_degenerate_dims)
        check_degenerate<float>(scheme, config.bounds.front(),
                                base_seed + iter, &report);
      if (config.check_parallel_identity)
        check_parallel_identity(scheme, config.bounds.front(),
                                base_seed + iter, &report);
    }
  }
  return report;
}

}  // namespace testing
}  // namespace transpwr
