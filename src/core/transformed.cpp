// The paper's log-domain scheme (Algorithm 1) and its temporal extension:
// both wrap an absolute-error-bounded inner codec with the same log map,
// sign coding and inner-codec dispatch.
#include "core/transformed.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/error.h"
#include "core/temporal.h"
#include "lossless/lossless.h"
#include "lossless/rle.h"
#include "obs/obs.h"
#include "sz/interp.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace {

constexpr std::uint32_t kMagic = 0x31545254;          // "TRT1"
constexpr std::uint32_t kTemporalMagic = 0x31504D54;  // "TMP1"

template <typename T>
std::vector<std::uint8_t> inner_compress(InnerCodec codec,
                                         std::span<const T> data, Dims dims,
                                         double abs_bound,
                                         const TransformedParams& p) {
  switch (codec) {
    case InnerCodec::kSz: {
      sz::Params sp;
      sp.mode = sz::Mode::kAbs;
      sp.bound = abs_bound;
      sp.quant_intervals = p.quant_intervals;
      sp.threads = p.threads;
      return sz::compress<T>(data, dims, sp);
    }
    case InnerCodec::kSzInterp: {
      sz_interp::Params ip;
      ip.bound = abs_bound;
      ip.quant_intervals = p.quant_intervals;
      ip.threads = p.threads;
      return sz_interp::compress<T>(data, dims, ip);
    }
    case InnerCodec::kZfp: {
      zfp::Params zp;
      zp.mode = zfp::Mode::kAccuracy;
      zp.tolerance = abs_bound;
      zp.threads = p.threads;
      return zfp::compress<T>(data, dims, zp);
    }
  }
  throw ParamError("transformed: unknown inner codec");
}

/// `codec` comes from a stream header, so an unknown value is a
/// StreamError rather than a fall-through to some other codec.
template <typename T>
std::vector<T> inner_decompress(InnerCodec codec,
                                std::span<const std::uint8_t> stream,
                                Dims* dims, std::size_t threads) {
  switch (codec) {
    case InnerCodec::kSz:
      return sz::decompress<T>(stream, dims, threads);
    case InnerCodec::kSzInterp:
      return sz_interp::decompress<T>(stream, dims, threads);
    case InnerCodec::kZfp:
      return zfp::decompress<T>(stream, dims, threads);
  }
  throw StreamError("transformed: unknown inner codec byte");
}

/// Sign bitmap -> RLE -> lossless; empty when no value is negative. The
/// bytes do not depend on `threads`.
std::vector<std::uint8_t> encode_signs(const Bitmap& negative,
                                       std::size_t threads) {
  if (negative.empty()) return {};
  BitWriter bw;
  rle::encode_bits(negative, bw);
  auto raw = bw.take();
  return lossless::compress(raw, threads);
}

Bitmap decode_signs(bool has_signs, std::span<const std::uint8_t> bytes,
                    std::size_t threads) {
  if (!has_signs) return {};
  auto raw = lossless::decompress(bytes, threads);
  BitReader br(raw);
  return rle::decode_bits(br);
}

/// The base feeds the inverse exponential; encoders only ever write finite
/// bases > 1 (log_forward validates them).
void check_base(double base) {
  if (!(base > 1.0) || !std::isfinite(base))
    throw StreamError("transformed: bad log base in stream header");
}

// Extra absolute-bound margin for the temporal delta path: forming the
// float delta and re-adding the reconstructed delta each cost up to one
// ulp of the log-domain magnitudes involved (which include the zero
// sentinels).
double delta_guard(double max_abs_log, double zero_threshold) {
  double m = std::max(max_abs_log, std::abs(zero_threshold) + 1.0);
  return 3.0 * m * static_cast<double>(
                       std::numeric_limits<float>::epsilon());
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> transformed_compress(std::span<const T> data,
                                               Dims dims, InnerCodec codec,
                                               const TransformedParams& p) {
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("transformed: data size does not match dims");

  obs::Span root_span("transformed.compress");

  // --- preprocessing: log map + sign compression (Algorithm 1 lines 1-17).
  TransformResult<T> tr;
  std::vector<std::uint8_t> sign_bytes;
  {
    obs::Span pre_span("pre");
    {
      obs::Span log_span("log_map");
      tr = log_forward<T>(data, p.rel_bound, p.log_base, p.threads);
    }
    obs::Span signs_span("signs");
    sign_bytes = encode_signs(tr.negative, p.threads);
  }

  // --- inner absolute-error-bounded compression (line 18).
  std::vector<std::uint8_t> inner;
  {
    obs::Span inner_span("inner");
    inner = inner_compress<T>(codec, tr.mapped, dims, tr.adjusted_abs_bound,
                              p);
  }

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(codec));
  out.put(static_cast<std::uint8_t>(tr.negative.empty() ? 0 : 1));
  // The byte that was reserved (always 0) through v1 now records which log
  // kernel produced the mapped payload, so the decoder can exponentiate
  // with the exact inverse: 0 = libm LogKernel, 1 = kernels::fast_*.
  out.put(log_kernel_version<T>());
  out.put(p.log_base);
  out.put(tr.zero_threshold);
  out.put_sized(sign_bytes);
  out.put_sized(inner);
  return out.take();
}

template <typename T>
std::vector<T> transformed_decompress(std::span<const std::uint8_t> stream,
                                      Dims* dims_out, std::size_t threads) {
  obs::Span root_span("transformed.decompress");
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("transformed: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("transformed: stream data type does not match");
  auto codec = static_cast<InnerCodec>(in.get<std::uint8_t>());
  bool has_signs = in.get<std::uint8_t>() != 0;
  std::uint8_t log_kernel = in.get<std::uint8_t>();
  if (log_kernel > 1)
    throw StreamError("transformed: unknown log kernel version");
  double base = in.get<double>();
  double zero_threshold = in.get<double>();
  check_base(base);
  auto sign_bytes = in.get_sized();
  auto inner = in.get_sized();

  Dims dims;
  std::vector<T> mapped;
  {
    obs::Span inner_span("inner");
    mapped = inner_decompress<T>(codec, inner, &dims, threads);
  }
  if (dims_out) *dims_out = dims;

  // --- postprocessing: sign decompression + inverse map.
  obs::Span post_span("post");
  Bitmap negative;
  {
    obs::Span signs_span("signs");
    negative = decode_signs(has_signs, sign_bytes, threads);
  }
  // The inner codec's output buffer becomes the result: exponentiated in
  // place (signs applied in the same pass), no second field-sized
  // allocation.
  obs::Span log_span("log_map");
  log_inverse_inplace<T>(std::span<T>(mapped), negative, base,
                         zero_threshold, threads,
                         log_kernel == 1 ? LogExpPath::kFastKernel
                                         : LogExpPath::kLegacyLibm);
  return mapped;
}

template std::vector<std::uint8_t> transformed_compress<float>(
    std::span<const float>, Dims, InnerCodec, const TransformedParams&);
template std::vector<std::uint8_t> transformed_compress<double>(
    std::span<const double>, Dims, InnerCodec, const TransformedParams&);
template std::vector<float> transformed_decompress<float>(
    std::span<const std::uint8_t>, Dims*, std::size_t);
template std::vector<double> transformed_decompress<double>(
    std::span<const std::uint8_t>, Dims*, std::size_t);

// --- temporal extension (core/temporal.h) -----------------------------------

TemporalCompressor::TemporalCompressor(InnerCodec codec,
                                       TransformedParams params)
    : codec_(codec), params_(params) {}

void TemporalCompressor::reset() {
  prev_mapped_.clear();
  snapshots_ = 0;
}

std::vector<std::uint8_t> TemporalCompressor::compress_snapshot(
    std::span<const float> data, Dims dims) {
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("temporal: data size does not match dims");
  if (snapshots_ == 0) {
    dims_ = dims;
  } else if (!(dims == dims_)) {
    throw ParamError("temporal: snapshot shape changed mid-sequence");
  }

  auto tr = log_forward<float>(data, params_.rel_bound, params_.log_base,
                               params_.threads);
  const bool keyframe = snapshots_ == 0;

  double bound = tr.adjusted_abs_bound;
  std::vector<float> payload;
  if (keyframe) {
    payload = tr.mapped;
  } else {
    bound -= delta_guard(tr.max_abs_log, tr.zero_threshold);
    if (!(bound > 0))
      throw ParamError("temporal: bound too tight for the delta path");
    payload.resize(tr.mapped.size());
    for (std::size_t i = 0; i < payload.size(); ++i)
      payload[i] = static_cast<float>(static_cast<double>(tr.mapped[i]) -
                                      static_cast<double>(prev_mapped_[i]));
  }

  auto inner = inner_compress<float>(codec_, payload, dims, bound, params_);

  // Advance encoder state to the decoder's reconstruction.
  Dims got;
  auto recon = inner_decompress<float>(codec_, inner, &got, params_.threads);
  if (keyframe) {
    prev_mapped_ = std::move(recon);
  } else {
    for (std::size_t i = 0; i < recon.size(); ++i)
      prev_mapped_[i] = static_cast<float>(
          static_cast<double>(prev_mapped_[i]) +
          static_cast<double>(recon[i]));
  }
  ++snapshots_;

  ByteWriter out;
  out.put(kTemporalMagic);
  out.put(static_cast<std::uint8_t>(DataType::kFloat32));
  out.put(static_cast<std::uint8_t>(codec_));
  out.put(static_cast<std::uint8_t>(keyframe ? 0 : 1));
  out.put(static_cast<std::uint8_t>(tr.negative.empty() ? 0 : 1));
  out.put(params_.log_base);
  out.put(tr.zero_threshold);
  out.put_sized(encode_signs(tr.negative, params_.threads));
  out.put_sized(inner);
  return out.take();
}

void TemporalDecompressor::reset() {
  prev_mapped_.clear();
  snapshots_ = 0;
}

std::vector<float> TemporalDecompressor::decompress_snapshot(
    std::span<const std::uint8_t> stream, Dims* dims_out) {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kTemporalMagic)
    throw StreamError("temporal: bad magic");
  if (static_cast<DataType>(in.get<std::uint8_t>()) != DataType::kFloat32)
    throw StreamError("temporal: unsupported data type");
  auto codec = static_cast<InnerCodec>(in.get<std::uint8_t>());
  bool is_delta = in.get<std::uint8_t>() != 0;
  bool has_signs = in.get<std::uint8_t>() != 0;
  double base = in.get<double>();
  double zero_threshold = in.get<double>();
  check_base(base);
  auto sign_bytes = in.get_sized();
  auto inner = in.get_sized();

  if (is_delta && snapshots_ == 0)
    throw StreamError("temporal: delta stream before a keyframe");

  Dims dims;
  auto recon = inner_decompress<float>(codec, inner, &dims, 0);
  if (is_delta) {
    if (!(dims == dims_) || recon.size() != prev_mapped_.size())
      throw StreamError("temporal: delta shape mismatch");
    for (std::size_t i = 0; i < recon.size(); ++i)
      recon[i] = static_cast<float>(static_cast<double>(prev_mapped_[i]) +
                                    static_cast<double>(recon[i]));
  } else {
    dims_ = dims;
  }
  prev_mapped_ = recon;
  ++snapshots_;
  if (dims_out) *dims_out = dims;

  log_inverse_inplace<float>(std::span<float>(recon),
                             decode_signs(has_signs, sign_bytes, 0), base,
                             zero_threshold);
  return recon;
}

}  // namespace transpwr
