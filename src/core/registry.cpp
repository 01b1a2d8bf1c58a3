#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.h"
#include "core/compressor.h"
#include "core/transformed.h"
#include "fpzip/fpzip.h"
#include "isabela/isabela.h"
#include "obs/obs.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

constexpr std::array<Scheme, 8> kAllSchemes = {
    Scheme::kSzAbs, Scheme::kSzPwr, Scheme::kSzT,     Scheme::kZfpP,
    Scheme::kZfpT,  Scheme::kFpzip, Scheme::kIsabela, Scheme::kSziT};

/// ZFP_P: an explicit -p wins; otherwise a bound-derived heuristic close to
/// the paper's hand tuning. Does not strictly respect the relative bound by
/// design.
std::uint32_t zfp_p_precision(const CompressorParams& p) {
  if (p.zfp_precision) return p.zfp_precision;
  int bits = static_cast<int>(std::ceil(std::log2(1.0 / p.bound)));
  return static_cast<std::uint32_t>(std::max(4, bits + 16));
}

/// Inner codec of the paper's SZ_T / ZFP_T wrapper schemes.
InnerCodec inner_codec(Scheme scheme) {
  return scheme == Scheme::kSzT    ? InnerCodec::kSz
         : scheme == Scheme::kSziT ? InnerCodec::kSzInterp
                                   : InnerCodec::kZfp;
}

template <typename T>
std::vector<std::uint8_t> encode(Scheme scheme, std::span<const T> d,
                                 Dims dims, const CompressorParams& p) {
  switch (scheme) {
    case Scheme::kSzAbs:
    case Scheme::kSzPwr: {
      sz::Params sp;
      sp.mode = scheme == Scheme::kSzAbs ? sz::Mode::kAbs
                                         : sz::Mode::kPwrBlock;
      sp.bound = p.bound;
      sp.quant_intervals = p.quant_intervals;
      return sz::compress<T>(d, dims, sp);
    }
    case Scheme::kSzT:
    case Scheme::kZfpT:
    case Scheme::kSziT: {
      TransformedParams tp;
      tp.rel_bound = p.bound;
      tp.log_base = p.log_base;
      tp.quant_intervals = p.quant_intervals;
      return transformed_compress<T>(d, dims, inner_codec(scheme), tp);
    }
    case Scheme::kZfpP: {
      zfp::Params zp;
      zp.mode = zfp::Mode::kPrecision;
      zp.precision = zfp_p_precision(p);
      return zfp::compress<T>(d, dims, zp);
    }
    case Scheme::kFpzip: {
      fpzip::Params fp;
      fp.precision = p.fpzip_precision
                         ? p.fpzip_precision
                         : fpzip::precision_for_rel_bound<T>(p.bound);
      return fpzip::compress<T>(d, dims, fp);
    }
    case Scheme::kIsabela: {
      isabela::Params ip;
      ip.rel_bound = p.bound;
      return isabela::compress<T>(d, dims, ip);
    }
  }
  throw ParamError("make_compressor: unknown scheme");
}

template <typename T>
std::vector<T> decode(Scheme scheme, std::span<const std::uint8_t> s,
                      Dims* dims) {
  switch (scheme) {
    case Scheme::kSzAbs:
    case Scheme::kSzPwr:
      return sz::decompress<T>(s, dims);
    case Scheme::kSzT:
    case Scheme::kZfpT:
    case Scheme::kSziT:
      return transformed_decompress<T>(s, dims);
    case Scheme::kZfpP:
      return zfp::decompress<T>(s, dims);
    case Scheme::kFpzip:
      return fpzip::decompress<T>(s, dims);
    case Scheme::kIsabela:
      return isabela::decompress<T>(s, dims);
  }
  throw ParamError("make_compressor: unknown scheme");
}

/// Every registered scheme: roots a per-scheme span ("compress.SZ_T" /
/// "decompress.SZ_T") over each call and feeds the codec byte counters,
/// so the CLI and harness report uniformly.
class SchemeCompressor final : public Compressor {
 public:
  explicit SchemeCompressor(Scheme scheme)
      : scheme_(scheme),
        compress_label_(std::string("compress.") + scheme_name(scheme)),
        decompress_label_(std::string("decompress.") + scheme_name(scheme)) {}
  Scheme scheme() const override { return scheme_; }

  std::vector<std::uint8_t> compress(std::span<const float> d, Dims dims,
                                     const CompressorParams& p) override {
    return compress_as<float>(d, dims, p);
  }
  std::vector<std::uint8_t> compress(std::span<const double> d, Dims dims,
                                     const CompressorParams& p) override {
    return compress_as<double>(d, dims, p);
  }
  std::vector<float> decompress_f32(std::span<const std::uint8_t> s,
                                    Dims* dims) override {
    obs::Span span(decompress_label_);
    return decode<float>(scheme_, s, dims);
  }
  std::vector<double> decompress_f64(std::span<const std::uint8_t> s,
                                     Dims* dims) override {
    obs::Span span(decompress_label_);
    return decode<double>(scheme_, s, dims);
  }

 private:
  template <typename T>
  std::vector<std::uint8_t> compress_as(std::span<const T> d, Dims dims,
                                        const CompressorParams& p) {
    obs::Span span(compress_label_);
    auto out = encode<T>(scheme_, d, dims, p);
    obs::counter_add("codec.bytes_in", d.size_bytes());
    obs::counter_add("codec.bytes_out", out.size());
    return out;
  }

  Scheme scheme_;
  std::string compress_label_;
  std::string decompress_label_;
};

}  // namespace

const char* scheme_name(Scheme s) {
  switch (s) {
    case Scheme::kSzAbs:
      return "SZ_ABS";
    case Scheme::kSzPwr:
      return "SZ_PWR";
    case Scheme::kSzT:
      return "SZ_T";
    case Scheme::kZfpP:
      return "ZFP_P";
    case Scheme::kZfpT:
      return "ZFP_T";
    case Scheme::kFpzip:
      return "FPZIP";
    case Scheme::kIsabela:
      return "ISABELA";
    case Scheme::kSziT:
      return "SZI_T";
  }
  return "unknown";
}

Scheme scheme_from_name(const std::string& name) {
  for (Scheme s : kAllSchemes)
    if (name == scheme_name(s)) return s;
  throw ParamError("unknown scheme name: " + name);
}

std::unique_ptr<Compressor> make_compressor(Scheme scheme) {
  if (std::find(kAllSchemes.begin(), kAllSchemes.end(), scheme) ==
      kAllSchemes.end())
    throw ParamError("make_compressor: unknown scheme");
  return std::make_unique<SchemeCompressor>(scheme);
}

std::span<const Scheme> all_schemes() { return kAllSchemes; }

}  // namespace transpwr
