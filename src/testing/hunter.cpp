#include "testing/hunter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <sstream>

#include "common/bytestream.h"
#include "common/error.h"
#include "common/rng.h"
#include "core/log_transform.h"
#include "kernels/dispatch.h"
#include "obs/obs.h"
#include "testing/generators.h"
#include "testing/oracle.h"

namespace transpwr {
namespace testing {
namespace {

constexpr std::array<EdgeFamily, 6> kAllEdgeFamilies = {
    EdgeFamily::kDenormalBoundary,    EdgeFamily::kLogSingularity,
    EdgeFamily::kMaxMagnitude,        EdgeFamily::kExtremeDynamicRange,
    EdgeFamily::kUlpNeighbors,        EdgeFamily::kZeroSentinelStress};

constexpr std::uint32_t kReproMagic = 0x31524854u;  // "THR1" little-endian
constexpr std::uint64_t kReproMaxValues = 1u << 22;

/// Walk |k| ulps from v toward +/-infinity. Never called where the walk
/// could leave the finite range (callers clamp their anchors).
template <typename T>
T walk_ulps(T v, std::int64_t k) {
  const T to = k >= 0 ? std::numeric_limits<T>::infinity()
                      : -std::numeric_limits<T>::infinity();
  for (std::int64_t i = k < 0 ? -k : k; i > 0; --i) v = std::nextafter(v, to);
  return v;
}

template <typename T>
T pow2_value(int e, double mantissa, bool negative) {
  double v = std::ldexp(mantissa, e);
  if (negative) v = -v;
  return static_cast<T>(v);
}

std::string triple_key(const std::string& scheme, const char* precision,
                       double bound) {
  std::ostringstream os;
  os << scheme << "/" << precision << "/bound=" << bound;
  return os.str();
}

// --- round-trip engine -------------------------------------------------------

template <typename T>
struct TripOutcome {
  bool param_rejected = false;  ///< compress refused with ParamError
  std::string reject_msg;
  std::string error_kind;  ///< nonempty when the round trip itself failed
  std::string error_detail;
  std::vector<T> out;
};

template <typename T>
TripOutcome<T> round_trip(Scheme scheme, double bound, std::span<const T> data,
                          Dims dims) {
  TripOutcome<T> o;
  auto comp = make_compressor(scheme);
  CompressorParams params;
  params.bound = bound;

  std::vector<std::uint8_t> stream;
  try {
    stream = comp->compress(data, dims, params);
  } catch (const ParamError& e) {
    // The one legal refusal: a bound this precision cannot honor must be
    // rejected up front, never silently violated.
    o.param_rejected = true;
    o.reject_msg = e.what();
    return o;
  } catch (const std::exception& e) {
    o.error_kind = "compress_error";
    o.error_detail = std::string("compress threw: ") + e.what();
    return o;
  }
  if (stream.empty()) {
    o.error_kind = "empty_stream";
    o.error_detail = "compress produced no bytes";
    return o;
  }

  Dims got;
  try {
    if constexpr (std::is_same_v<T, float>)
      o.out = comp->decompress_f32(stream, &got);
    else
      o.out = comp->decompress_f64(stream, &got);
  } catch (const std::exception& e) {
    o.error_kind = "decompress_error";
    o.error_detail = std::string("own stream failed to decode: ") + e.what();
    return o;
  }
  if (!(got == dims)) {
    o.error_kind = "dims_mismatch";
    o.error_detail = "decoded dims differ from input dims";
    return o;
  }
  if (o.out.size() != data.size()) {
    std::ostringstream os;
    os << "decoded " << o.out.size() << " elements, expected " << data.size();
    o.error_kind = "size_mismatch";
    o.error_detail = os.str();
  }
  return o;
}

struct PointViol {
  std::size_t index = 0;
  std::string kind;
  std::string detail;
};

/// Judge every point of a finished round trip against the shared oracle and
/// fold margins into the worst-observed ledger. Returns the first violating
/// point, if any.
template <typename T>
std::optional<PointViol> scan_points(Scheme scheme, double bound,
                                     std::span<const T> in,
                                     std::span<const T> out,
                                     const std::string& key,
                                     const char* family_name_str,
                                     std::map<std::string, WorstMargin>* ledger,
                                     HunterReport* report) {
  std::optional<PointViol> first;
  WorstMargin& wm = (*ledger)[key];
  if (wm.key.empty()) wm.key = key;

  for (std::size_t i = 0; i < in.size(); ++i) {
    const double x = static_cast<double>(in[i]);
    const double y = static_cast<double>(out[i]);
    report->points_checked++;

    if (!std::isfinite(y)) {
      if (!first) {
        std::ostringstream os;
        os << "finite input " << x << " decoded to non-finite " << y
           << " at " << i;
        first = PointViol{i, "nonfinite_output", os.str()};
      }
      if (std::isfinite(wm.margin)) {
        wm.margin = std::numeric_limits<double>::infinity();
        wm.input = x;
        wm.output = y;
        wm.family = family_name_str;
      }
      continue;
    }

    const Envelope env = point_envelope<T>(scheme, bound, x);
    switch (env.cls) {
      case PointClass::kUnchecked:
        break;
      case PointClass::kExact:
        if (y != x) {
          if (!first) {
            std::ostringstream os;
            os << "exact zero decoded to " << y << " at " << i;
            first = PointViol{i, "zero_not_exact", os.str()};
          }
          wm.margin = std::numeric_limits<double>::infinity();
          wm.input = x;
          wm.output = y;
          wm.family = family_name_str;
        }
        break;
      case PointClass::kBounded: {
        const double err = std::abs(y - x);
        const double margin = env.allowed > 0
                                  ? err / env.allowed
                                  : (err > 0 ? std::numeric_limits<
                                                   double>::infinity()
                                             : 0.0);
        if (margin > wm.margin) {
          wm.margin = margin;
          wm.input = x;
          wm.output = y;
          wm.family = family_name_str;
        }
        if (!(err <= env.allowed) && !first) {
          std::ostringstream os;
          if (guarantee_of(scheme) == Guarantee::kAbsolute)
            os << "|" << y << " - " << x << "| = " << err << " > " << bound
               << " at " << i;
          else
            os << "rel err " << err / std::abs(x) << " > " << bound
               << " (x=" << x << ", x'=" << y
               << ", allowed=" << env.allowed << ") at " << i;
          first = PointViol{i, guarantee_of(scheme) == Guarantee::kAbsolute
                                   ? "abs_bound"
                                   : "rel_bound",
                            os.str()};
        }
        break;
      }
    }
  }
  return first;
}

/// Minimization predicate: does a 1-D round trip of `field` still violate?
/// A ParamError refusal is NOT a violation (clean rejection is the
/// contract); any other failure or oracle breach is.
template <typename T>
bool field_violates_1d(Scheme scheme, double bound, std::span<const T> field) {
  if (field.empty()) return false;
  Dims dims(field.size());
  auto trip = round_trip<T>(scheme, bound, field, dims);
  if (trip.param_rejected) return false;
  if (!trip.error_kind.empty()) return true;
  for (std::size_t i = 0; i < field.size(); ++i) {
    const double x = static_cast<double>(field[i]);
    const double y = static_cast<double>(trip.out[i]);
    if (!std::isfinite(y)) return true;
    const Envelope env = point_envelope<T>(scheme, bound, x);
    if (env.cls == PointClass::kExact && y != x) return true;
    if (env.cls == PointClass::kBounded && !(std::abs(y - x) <= env.allowed))
      return true;
  }
  return false;
}

void record_rejection(const std::string& key, const std::string& msg,
                      std::set<std::string>* seen, HunterReport* report) {
  report->clean_rejections++;
  if (seen->insert(key).second) report->rejections.emplace_back(key, msg);
}

template <typename T>
void run_hunter_case(const HunterConfig& config, Scheme scheme,
                     EdgeFamily family, double bound, std::uint64_t seed,
                     std::size_t variant,
                     std::map<std::string, WorstMargin>* ledger,
                     std::set<std::string>* rejected,
                     HunterReport* report) {
  const char* precision = sizeof(T) == 4 ? "float32" : "float64";
  const std::string key = triple_key(scheme_name(scheme), precision, bound);

  auto data = make_edge_field<T>(family, config.max_points, seed);
  Dims dims = shape_for(data.size(), variant);

  report->cases_run++;
  obs::counter_add("hunter.cases");

  auto trip = round_trip<T>(scheme, bound, std::span<const T>(data), dims);
  if (trip.param_rejected) {
    record_rejection(key, trip.reject_msg, rejected, report);
    return;
  }

  std::optional<PointViol> viol;
  if (!trip.error_kind.empty()) {
    viol = PointViol{0, trip.error_kind, trip.error_detail};
  } else {
    viol = scan_points<T>(scheme, bound, data, trip.out, key,
                          edge_family_name(family), ledger, report);
  }
  if (!viol) return;

  obs::counter_add("hunter.violations");
  HunterViolation v;
  v.scheme = scheme_name(scheme);
  v.family = edge_family_name(family);
  v.precision = precision;
  v.kind = viol->kind;
  v.bound = bound;
  v.seed = seed;
  v.index = viol->index;
  {
    std::ostringstream os;
    os << viol->detail << " [" << precision << ", bound=" << bound
       << ", seed=" << seed << ", shape=" << dims.to_string() << "]";
    v.detail = os.str();
  }

  if (config.minimize) {
    // Reproducers are 1-D; only minimize when the violation survives
    // flattening (block codecs can be shape-sensitive).
    auto pred = [&](std::span<const T> f) {
      return field_violates_1d<T>(scheme, bound, f);
    };
    if (field_violates_1d<T>(scheme, bound, std::span<const T>(data))) {
      auto minimized = minimize_field<T>(
          data, std::function<bool(std::span<const T>)>(pred),
          config.minimize_budget);
      v.reproducer.assign(minimized.begin(), minimized.end());
    }
  }
  report->violations.push_back(std::move(v));
}

// --- ULP audit of the log transform itself -----------------------------------

/// Perturb one mapped value by exactly +/- b'_a — the worst any conforming
/// absolute-bound inner codec can legally return — rounded to T without
/// ever leaving the legal band.
template <typename T>
T worst_legal(T mapped, double ba, bool up) {
  const double m = static_cast<double>(mapped);
  const double target = up ? m + ba : m - ba;
  T t = static_cast<T>(target);
  // Rounding to T may overshoot the band by up to half an ulp; step back.
  while (std::abs(static_cast<double>(t) - m) > ba)
    t = std::nextafter(t, mapped);
  return t;
}

template <typename T>
void run_audit_case(const HunterConfig& config, EdgeFamily family,
                    double bound, double base, kernels::Dispatch disp,
                    std::uint64_t seed,
                    std::map<std::string, WorstMargin>* ledger,
                    std::set<std::string>* rejected, HunterReport* report) {
  const char* precision = sizeof(T) == 4 ? "float32" : "float64";
  std::ostringstream name;
  name << "log_transform[b" << base << "," << kernels::name(disp) << "]";
  const std::string key = triple_key(name.str(), precision, bound);

  auto data = make_edge_field<T>(family, config.max_points, seed);
  report->audits_run++;
  obs::counter_add("hunter.audits");

  kernels::ScopedDispatch sd(disp);
  TransformResult<T> tr;
  try {
    tr = log_forward<T>(std::span<const T>(data), bound, base);
  } catch (const ParamError& e) {
    record_rejection(key, e.what(), rejected, report);
    return;
  } catch (const std::exception& e) {
    HunterViolation v;
    v.scheme = name.str();
    v.family = edge_family_name(family);
    v.precision = precision;
    v.kind = "audit_forward_error";
    v.detail = std::string("log_forward threw: ") + e.what();
    v.bound = bound;
    v.seed = seed;
    obs::counter_add("hunter.violations");
    report->violations.push_back(std::move(v));
    return;
  }

  const double ba = tr.adjusted_abs_bound;
  std::vector<T> perturbed = tr.mapped;
  for (std::size_t i = 0; i < perturbed.size(); ++i) {
    // Zeros sit at the sentinel; pushing them *up* (toward the zero
    // threshold) is the adversarial direction. Nonzero points alternate.
    const bool up = data[i] == T{0} ? true : (i & 1) == 0;
    perturbed[i] = worst_legal<T>(perturbed[i], ba, up);
  }

  std::vector<T> rec;
  try {
    rec = log_inverse<T>(std::span<const T>(perturbed), tr.negative, base,
                         tr.zero_threshold);
  } catch (const std::exception& e) {
    HunterViolation v;
    v.scheme = name.str();
    v.family = edge_family_name(family);
    v.precision = precision;
    v.kind = "audit_inverse_error";
    v.detail = std::string("log_inverse threw: ") + e.what();
    v.bound = bound;
    v.seed = seed;
    obs::counter_add("hunter.violations");
    report->violations.push_back(std::move(v));
    return;
  }

  // Judged by the same envelope the transformed schemes advertise.
  auto viol = scan_points<T>(Scheme::kSzT, bound, std::span<const T>(data),
                             std::span<const T>(rec), key,
                             edge_family_name(family), ledger, report);
  if (!viol) return;

  obs::counter_add("hunter.violations");
  HunterViolation v;
  v.scheme = name.str();
  v.family = edge_family_name(family);
  v.precision = precision;
  v.kind = "audit_" + viol->kind;
  v.bound = bound;
  v.seed = seed;
  v.index = viol->index;
  {
    std::ostringstream os;
    os << viol->detail << " after +/-b'_a=" << ba << " perturbation ["
       << precision << ", base=" << base << ", " << kernels::name(disp)
       << ", bound=" << bound << ", seed=" << seed << "]";
    v.detail = os.str();
  }
  report->violations.push_back(std::move(v));
}

}  // namespace

// --- edge families -----------------------------------------------------------

const char* edge_family_name(EdgeFamily f) {
  switch (f) {
    case EdgeFamily::kDenormalBoundary:
      return "denormal_boundary";
    case EdgeFamily::kLogSingularity:
      return "log_singularity";
    case EdgeFamily::kMaxMagnitude:
      return "max_magnitude";
    case EdgeFamily::kExtremeDynamicRange:
      return "extreme_dynamic_range";
    case EdgeFamily::kUlpNeighbors:
      return "ulp_neighbors";
    case EdgeFamily::kZeroSentinelStress:
      return "zero_sentinel_stress";
  }
  return "unknown";
}

EdgeFamily edge_family_from_name(const std::string& name) {
  for (EdgeFamily f : kAllEdgeFamilies)
    if (name == edge_family_name(f)) return f;
  throw ParamError("unknown edge family: " + name);
}

std::span<const EdgeFamily> all_edge_families() { return kAllEdgeFamilies; }

template <typename T>
std::vector<T> make_edge_field(EdgeFamily family, std::size_t n,
                               std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL +
          0x517cc1b727220a95ULL * (static_cast<std::uint64_t>(family) + 1));
  const T dmin = std::numeric_limits<T>::denorm_min();
  const T nmin = std::numeric_limits<T>::min();
  const T tmax = std::numeric_limits<T>::max();
  const int e_lo =
      std::numeric_limits<T>::min_exponent - std::numeric_limits<T>::digits;
  const int e_hi = std::numeric_limits<T>::max_exponent - 2;
  const int e_min_normal = std::numeric_limits<T>::min_exponent - 1;
  std::vector<T> out(n);

  switch (family) {
    case EdgeFamily::kDenormalBoundary: {
      // Ulp ladders straddling the subnormal/normal line, where the log
      // domain is steepest and reconstruction underflow bites first.
      const T anchors[4] = {dmin, static_cast<T>(nmin / 2), nmin,
                            static_cast<T>(nmin * 2)};
      for (auto& v : out) {
        T a = anchors[rng.below(4)];
        T m = walk_ulps<T>(a, static_cast<std::int64_t>(rng.below(8)) - 4);
        if (m == T{0}) m = dmin;  // stay nonzero; zeros live in other families
        v = rng.below(2) ? static_cast<T>(-m) : m;
      }
      break;
    }

    case EdgeFamily::kLogSingularity: {
      // +/- tiny magnitudes densely sign-alternating around zero, with
      // exact zeros (both signs) interleaved: worst case for the sign
      // bitmap and the zero sentinel at once.
      for (std::size_t i = 0; i < n; ++i) {
        if (i % 8 == 7) {
          out[i] = rng.below(2) ? static_cast<T>(-0.0) : T{0};
          continue;
        }
        int e = e_lo + static_cast<int>(
                           rng.below(static_cast<std::uint64_t>(
                               e_min_normal - e_lo + 11)));
        bool neg = (i & 1) != 0;
        if (rng.below(8) == 0) neg = !neg;
        out[i] = pow2_value<T>(e, 1.0 + rng.uniform(), neg);
      }
      break;
    }

    case EdgeFamily::kMaxMagnitude: {
      // FLT_MAX / DBL_MAX-adjacent: x * (1 + bound) overflows in exact
      // arithmetic, so reconstruction must saturate, not blow up.
      for (auto& v : out) {
        T m;
        switch (rng.below(4)) {
          case 0:
            m = walk_ulps<T>(tmax, -static_cast<std::int64_t>(rng.below(8)));
            break;
          case 1:
            m = static_cast<T>(tmax / 2);
            break;
          case 2:
            m = pow2_value<T>(e_hi - static_cast<int>(rng.below(4)),
                              1.0 + rng.uniform(), false);
            break;
          default:  // a few moderate values so the field is not all-huge
            m = static_cast<T>(1.0 + rng.uniform());
        }
        v = rng.below(2) ? static_cast<T>(-m) : m;
      }
      break;
    }

    case EdgeFamily::kExtremeDynamicRange: {
      // denorm_min .. near-max in one mixed-sign field: max |log x| is as
      // large as T allows, so Lemma 2's round-off guard is at its biggest.
      for (auto& v : out) {
        int e = e_lo + static_cast<int>(rng.below(
                           static_cast<std::uint64_t>(e_hi - e_lo + 1)));
        v = pow2_value<T>(e, 1.0 + rng.uniform(), rng.below(2) == 0);
      }
      if (n >= 2) {  // pin the extremes so every field truly spans the range
        out[0] = walk_ulps<T>(tmax, -1);
        out[1] = static_cast<T>(-dmin);
      }
      break;
    }

    case EdgeFamily::kUlpNeighbors: {
      // Ladders around 1, powers of two, and sqrt(2): where log rounding
      // crosses binade boundaries and quantizer bins straddle exact logs.
      for (auto& v : out) {
        T a;
        switch (rng.below(4)) {
          case 0:
            a = T{1};
            break;
          case 1:
            a = pow2_value<T>(static_cast<int>(rng.below(25)) - 12, 1.0,
                              false);
            break;
          case 2:
            a = static_cast<T>(std::sqrt(2.0));
            break;
          default:
            a = static_cast<T>(1.5);
        }
        T m = walk_ulps<T>(a, static_cast<std::int64_t>(rng.below(9)) - 4);
        v = rng.below(4) == 0 ? static_cast<T>(-m) : m;
      }
      break;
    }

    case EdgeFamily::kZeroSentinelStress: {
      // Exact zeros (both signs) interleaved with the smallest denormals:
      // the sentinel, the zero threshold, and real data all within a few
      // b'_a of each other in the log domain.
      for (auto& v : out) {
        switch (rng.below(4)) {
          case 0:
            v = T{0};
            break;
          case 1:
            v = static_cast<T>(-0.0);
            break;
          case 2: {
            T m = static_cast<T>(dmin * static_cast<T>(1 + rng.below(4)));
            v = rng.below(2) ? static_cast<T>(-m) : m;
            break;
          }
          default:
            v = pow2_value<T>(e_min_normal + static_cast<int>(rng.below(4)),
                              1.0 + rng.uniform(), rng.below(2) == 0);
        }
      }
      break;
    }
  }
  return out;
}

template std::vector<float> make_edge_field<float>(EdgeFamily, std::size_t,
                                                   std::uint64_t);
template std::vector<double> make_edge_field<double>(EdgeFamily, std::size_t,
                                                     std::uint64_t);

// --- minimization ------------------------------------------------------------

template <typename T>
std::vector<T> minimize_field(
    std::vector<T> field,
    const std::function<bool(std::span<const T>)>& still_violates,
    std::size_t budget) {
  std::size_t used = 0;
  auto check = [&](const std::vector<T>& f) {
    if (f.empty() || used >= budget) return false;
    ++used;
    try {
      return still_violates(std::span<const T>(f));
    } catch (...) {
      return false;
    }
  };

  // Phase 1: ddmin chunk removal, halving granularity until single
  // elements no longer come out.
  std::size_t granularity = 2;
  while (field.size() > 1 && used < budget) {
    const std::size_t chunk =
        std::max<std::size_t>(1, field.size() / granularity);
    bool removed_any = false;
    std::size_t start = 0;
    while (start < field.size() && used < budget) {
      const std::size_t stop = std::min(start + chunk, field.size());
      std::vector<T> candidate;
      candidate.reserve(field.size() - (stop - start));
      candidate.insert(candidate.end(), field.begin(),
                       field.begin() + static_cast<std::ptrdiff_t>(start));
      candidate.insert(candidate.end(),
                       field.begin() + static_cast<std::ptrdiff_t>(stop),
                       field.end());
      if (check(candidate)) {
        field = std::move(candidate);
        removed_any = true;  // keep start: the next chunk slid into place
      } else {
        start = stop;
      }
    }
    if (!removed_any) {
      if (chunk == 1) break;
      granularity *= 2;
    }
  }

  // Phase 2: simplify surviving elements toward 0 and 1 — a reproducer of
  // three "boring" values and one weird one points straight at the cause.
  for (std::size_t i = 0; i < field.size() && used < budget; ++i) {
    for (T cand : {T{0}, T{1}}) {
      if (field[i] == cand) continue;
      std::vector<T> trial = field;
      trial[i] = cand;
      if (check(trial)) {
        field[i] = cand;
        break;
      }
    }
  }
  return field;
}

template std::vector<float> minimize_field<float>(
    std::vector<float>, const std::function<bool(std::span<const float>)>&,
    std::size_t);
template std::vector<double> minimize_field<double>(
    std::vector<double>, const std::function<bool(std::span<const double>)>&,
    std::size_t);

// --- reproducers -------------------------------------------------------------

std::vector<std::uint8_t> encode_reproducer(const Reproducer& r) {
  ByteWriter w;
  w.put<std::uint32_t>(kReproMagic);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(r.scheme));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(r.dtype));
  w.put<double>(r.bound);
  w.put<std::uint64_t>(r.values.size());
  for (double v : r.values) w.put<double>(v);
  return w.take();
}

Reproducer decode_reproducer(std::span<const std::uint8_t> bytes) {
  ByteReader rd(bytes);
  if (rd.get<std::uint32_t>() != kReproMagic)
    throw StreamError("reproducer: bad magic (want THR1)");
  Reproducer r;
  const auto scheme = rd.get<std::uint8_t>();
  const auto dtype = rd.get<std::uint8_t>();
  if (scheme > static_cast<std::uint8_t>(Scheme::kSziT))
    throw StreamError("reproducer: unknown scheme id " +
                      std::to_string(scheme));
  if (dtype > 1)
    throw StreamError("reproducer: unknown dtype id " + std::to_string(dtype));
  r.scheme = static_cast<Scheme>(scheme);
  r.dtype = static_cast<DataType>(dtype);
  r.bound = rd.get<double>();
  if (!(std::isfinite(r.bound) && r.bound > 0))
    throw StreamError("reproducer: bound must be finite and positive");
  const std::uint64_t n = rd.get<std::uint64_t>();
  if (n == 0 || n > kReproMaxValues)
    throw StreamError("reproducer: element count " + std::to_string(n) +
                      " out of range");
  if (rd.remaining() != n * sizeof(double))
    throw StreamError("reproducer: payload size mismatch");
  r.values.resize(static_cast<std::size_t>(n));
  for (auto& v : r.values) v = rd.get<double>();
  return r;
}

namespace {

template <typename T>
std::string replay_typed(const Reproducer& r) {
  std::vector<T> data(r.values.size());
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<T>(r.values[i]);
  Dims dims(data.size());
  auto trip = round_trip<T>(r.scheme, r.bound, std::span<const T>(data), dims);
  // A clean ParamError refusal is a valid fix for a once-violating bound.
  if (trip.param_rejected) return "";
  if (!trip.error_kind.empty())
    return trip.error_kind + ": " + trip.error_detail;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const double x = static_cast<double>(data[i]);
    const double y = static_cast<double>(trip.out[i]);
    std::ostringstream os;
    if (!std::isfinite(y)) {
      os << "finite input " << x << " decoded to non-finite " << y << " at "
         << i;
      return os.str();
    }
    const Envelope env = point_envelope<T>(r.scheme, r.bound, x);
    if (env.cls == PointClass::kExact && y != x) {
      os << "exact zero decoded to " << y << " at " << i;
      return os.str();
    }
    if (env.cls == PointClass::kBounded &&
        !(std::abs(y - x) <= env.allowed)) {
      os << "error " << std::abs(y - x) << " > allowed " << env.allowed
         << " (x=" << x << ", x'=" << y << ") at " << i;
      return os.str();
    }
  }
  return "";
}

}  // namespace

std::string replay_reproducer(const Reproducer& r) {
  if (r.values.empty()) return "";
  return r.dtype == DataType::kFloat32 ? replay_typed<float>(r)
                                       : replay_typed<double>(r);
}

// --- the hunt ----------------------------------------------------------------

std::string HunterReport::table() const {
  std::ostringstream os;
  os << "hunter: " << cases_run << " cases, " << points_checked
     << " points checked, " << audits_run << " ulp audits, "
     << clean_rejections << " clean rejections, " << violations.size()
     << " violations (seed=" << effective_seed << ")\n";

  if (!worst.empty()) {
    std::vector<WorstMargin> by_margin = worst;
    std::sort(by_margin.begin(), by_margin.end(),
              [](const WorstMargin& a, const WorstMargin& b) {
                return a.margin > b.margin;
              });
    os << "  worst margins (observed error / advertised envelope; > 1 "
          "violates):\n";
    for (std::size_t i = 0;
         i < std::min<std::size_t>(by_margin.size(), 12); ++i) {
      const auto& w = by_margin[i];
      os << "    " << w.key << ": " << w.margin << " at x=" << w.input
         << " -> " << w.output << " [" << w.family << "]\n";
    }
  }

  if (!rejections.empty()) {
    os << "  clean rejections (" << rejections.size() << " distinct triples, "
       << "first " << std::min<std::size_t>(rejections.size(), 8) << "):\n";
    for (std::size_t i = 0;
         i < std::min<std::size_t>(rejections.size(), 8); ++i)
      os << "    " << rejections[i].first << ": " << rejections[i].second
         << "\n";
  }

  if (!violations.empty()) {
    std::map<std::string, std::size_t> counts;
    for (const auto& v : violations) counts[v.scheme + " / " + v.kind]++;
    os << "  violations by scheme/kind:\n";
    for (const auto& [key, count] : counts)
      os << "    " << key << ": " << count << "\n";
    os << "  first findings:\n";
    for (std::size_t i = 0;
         i < std::min<std::size_t>(violations.size(), 10); ++i) {
      const auto& v = violations[i];
      os << "    [" << v.scheme << " / " << v.family << " / " << v.kind
         << "] " << v.detail;
      if (!v.reproducer.empty())
        os << " (minimized to " << v.reproducer.size() << " elements)";
      os << "\n";
    }
  }
  return os.str();
}

HunterReport run_hunt(const HunterConfig& config) {
  HunterReport report;
  const std::uint64_t base_seed = effective_seed(config.seed);
  report.effective_seed = base_seed;

  std::vector<Scheme> schemes = config.schemes;
  if (schemes.empty())
    schemes.assign(all_schemes().begin(), all_schemes().end());
  std::vector<EdgeFamily> families = config.families;
  if (families.empty())
    families.assign(all_edge_families().begin(), all_edge_families().end());

  std::map<std::string, WorstMargin> ledger;
  std::set<std::string> rejected;

  std::size_t variant = 0;
  for (std::size_t iter = 0; iter < std::max<std::size_t>(config.iters, 1);
       ++iter) {
    for (Scheme scheme : schemes) {
      for (EdgeFamily family : families) {
        std::size_t bound_idx = 0;
        for (double bound : config.bounds) {
          const std::uint64_t seed =
              base_seed + 1000003 * iter +
              17 * static_cast<std::uint64_t>(family) + 8191 * bound_idx++;
          run_hunter_case<float>(config, scheme, family, bound, seed,
                                 variant, &ledger, &rejected, &report);
          if (config.check_double)
            run_hunter_case<double>(config, scheme, family, bound, seed,
                                    variant, &ledger, &rejected, &report);
          variant++;
        }
      }
    }
  }

  if (config.ulp_audit) {
    static constexpr double kBases[] = {2.0, 10.0};
    static constexpr kernels::Dispatch kDispatches[] = {
        kernels::Dispatch::kGeneric, kernels::Dispatch::kNative};
    for (EdgeFamily family : families) {
      std::size_t bound_idx = 0;
      for (double bound : config.bounds) {
        const std::uint64_t seed =
            (base_seed ^ 0xa0d17ULL) +
            131 * static_cast<std::uint64_t>(family) + 8191 * bound_idx++;
        for (double base : kBases) {
          for (kernels::Dispatch disp : kDispatches) {
            run_audit_case<float>(config, family, bound, base, disp, seed,
                                  &ledger, &rejected, &report);
            if (config.check_double)
              run_audit_case<double>(config, family, bound, base, disp, seed,
                                     &ledger, &rejected, &report);
          }
        }
      }
    }
  }

  report.worst.reserve(ledger.size());
  for (auto& [key, wm] : ledger) report.worst.push_back(wm);
  obs::counter_add("hunter.points", report.points_checked);
  return report;
}

}  // namespace testing
}  // namespace transpwr
