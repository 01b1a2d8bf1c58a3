#include "sz/interp.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/numeric.h"
#include "kernels/lorenzo.h"
#include "lossless/blocked_huffman.h"
#include "lossless/huffman.h"
#include "lossless/lossless.h"
#include "obs/obs.h"
#include "sz/outlier_coding.h"

namespace transpwr {
namespace sz_interp {
namespace {

constexpr std::uint32_t kMagic = 0x31495A53;  // "SZI1"

// Codes format byte (historically just the lz flag): bit 0 = LZ applied,
// bit 1 = blocked v2 entropy container. v1 writers only emitted 0/1.
constexpr std::uint8_t kCodesLz = 1;
constexpr std::uint8_t kCodesBlocked = 2;

void validate(const Params& p, const Dims& dims) {
  dims.validate();
  if (!(p.bound > 0)) throw ParamError("sz_interp: bound must be positive");
  if (p.quant_intervals < 4 ||
      (p.quant_intervals & (p.quant_intervals - 1)))
    throw ParamError("sz_interp: quant_intervals must be a power of two");
}

/// Unified 3-axis view: n[0..2] = {nz, ny, nx} with leading 1s for lower
/// dimensionalities; element index = (z*ny + y)*nx + x.
struct Grid {
  std::size_t n[3];
  explicit Grid(Dims d) {
    n[0] = d.nd == 3 ? d[0] : 1;
    n[1] = d.nd == 3 ? d[1] : d.nd == 2 ? d[0] : 1;
    n[2] = d[d.nd - 1];
  }
  std::size_t index(std::size_t z, std::size_t y, std::size_t x) const {
    return (z * n[1] + y) * n[2] + x;
  }
  std::size_t max_extent() const { return std::max({n[0], n[1], n[2]}); }
};

/// Interpolate along `axis` at coordinate `c` (which is ≡ s mod 2s) from
/// reconstructed points at c±s (and ±3s for the cubic).
template <typename T>
double predict_along(const std::vector<T>& recon, const Grid& g, int axis,
                     std::size_t z, std::size_t y, std::size_t x,
                     std::size_t s, bool cubic) {
  std::size_t coord[3] = {z, y, x};
  const std::size_t c = coord[axis];
  const std::size_t n_axis = g.n[axis];
  auto at = [&](std::size_t v) {
    std::size_t p[3] = {z, y, x};
    p[axis] = v;
    return static_cast<double>(recon[g.index(p[0], p[1], p[2])]);
  };
  double left = at(c - s);  // c >= s by construction
  if (c + s >= n_axis) return left;
  double right = at(c + s);
  if (cubic && c >= 3 * s && c + 3 * s < n_axis) {
    // 4-point cubic through -3, -1, +1, +3 evaluated at 0.
    return (-at(c - 3 * s) + 9.0 * left + 9.0 * right - at(c + 3 * s)) /
           16.0;
  }
  return 0.5 * (left + right);
}

/// Coarse-to-fine traversal shared by encoder and decoder. For every point,
/// in a deterministic order, calls visit(element_index, predicted_value);
/// the visitor must store the reconstructed value into `recon` before the
/// traversal needs it again.
template <typename T, typename Visit>
void traverse(const Grid& g, std::vector<T>& recon, bool cubic,
              Visit&& visit) {
  // Seed: the origin, predicted as 0.
  visit(g.index(0, 0, 0), 0.0);

  std::size_t s0 = 1;
  while (2 * s0 < g.max_extent()) s0 *= 2;

  for (std::size_t s = s0; s >= 1; s /= 2) {
    for (int axis = 0; axis < 3; ++axis) {
      if (g.n[axis] <= s) continue;  // no new points along this axis
      // Step per axis: refined axes (before `axis`) advance by s, the
      // current axis visits odd multiples of s, later axes stay on the 2s
      // grid.
      std::size_t step[3];
      for (int a = 0; a < 3; ++a)
        step[a] = a < axis ? s : 2 * s;
      for (std::size_t z = (axis == 0 ? s : 0); z < g.n[0];
           z += (axis == 0 ? 2 * s : step[0]))
        for (std::size_t y = (axis == 1 ? s : 0); y < g.n[1];
             y += (axis == 1 ? 2 * s : step[1]))
          for (std::size_t x = (axis == 2 ? s : 0); x < g.n[2];
               x += (axis == 2 ? 2 * s : step[2])) {
            visit(g.index(z, y, x),
                  predict_along(recon, g, axis, z, y, x, s, cubic));
          }
    }
    if (s == 1) break;
  }
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params) {
  validate(params, dims);
  if (data.size() != dims.count())
    throw ParamError("sz_interp: data size does not match dims");
  obs::Span compress_span("sz_interp.compress");

  Grid g(dims);
  const std::uint32_t radius = params.quant_intervals / 2;
  const double eb = params.bound;
  const double threshold = (static_cast<double>(radius) - 0.5) * 2.0 * eb;

  std::vector<T> recon(data.size());
  std::vector<std::uint32_t> codes;
  codes.reserve(data.size());
  std::vector<T> outliers;

  // The quantizer step is the kernel-layer helper shared with sz — one
  // definition of the accept/outlier arithmetic for both codecs.
  const double two_eb = 2.0 * eb;
  const auto radius_i = static_cast<std::int64_t>(radius);
  traverse<T>(g, recon, params.cubic, [&](std::size_t idx, double pred) {
    const auto qs = kernels::quantize_point<T>(data[idx], pred, eb, two_eb,
                                               threshold, radius_i);
    codes.push_back(qs.code);
    recon[idx] = qs.recon;
    if (qs.code == 0) outliers.push_back(data[idx]);
  });

  std::vector<std::uint8_t> coded = lossless::blocked_encode(
      codes, params.quant_intervals, params.threads);
  std::uint8_t codes_format = kCodesBlocked;
  if (sz_detail::maybe_lz(coded, params.lz_stage, params.threads))
    codes_format |= kCodesLz;

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(dims.nd));
  out.put(codes_format);
  out.put(static_cast<std::uint8_t>(params.cubic ? 1 : 0));
  for (int i = 0; i < 3; ++i)
    out.put(static_cast<std::uint64_t>(dims.d[static_cast<std::size_t>(i)]));
  out.put(eb);
  out.put(params.quant_intervals);
  out.put_sized(coded);
  out.put_sized(lossless::compress(sz_detail::encode_outliers(outliers),
                                   params.threads));
  return out.take();
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out, std::size_t threads) {
  obs::Span decompress_span("sz_interp.decompress");
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("sz_interp: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("sz_interp: stream data type does not match");
  int nd = in.get<std::uint8_t>();
  std::uint8_t codes_format = in.get<std::uint8_t>();
  if (codes_format > (kCodesLz | kCodesBlocked))
    throw StreamError("sz_interp: unknown codes format byte");
  const bool lz_applied = codes_format & kCodesLz;
  const bool blocked = codes_format & kCodesBlocked;
  bool cubic = in.get<std::uint8_t>() != 0;
  const Dims dims = read_dims(nd, in, "sz_interp");
  const std::size_t n = dims.count();
  check_decode_alloc(n, sizeof(T), "sz_interp");
  double eb = in.get<double>();
  std::uint32_t intervals = in.get<std::uint32_t>();
  if (dims_out) *dims_out = dims;

  auto coded_span = in.get_sized();
  std::vector<std::uint8_t> coded_store;
  if (lz_applied) {
    coded_store = lossless::decompress(coded_span, threads);
    coded_span = coded_store;
  }
  auto outlier_bytes = lossless::decompress(in.get_sized(), threads);
  std::vector<T> outliers = sz_detail::decode_outliers<T>(outlier_bytes);

  // One Huffman bit minimum per point bounds the plausible element count.
  if (n > coded_span.size() * 8)
    throw StreamError("sz_interp: dims exceed coded stream capacity");
  std::vector<std::uint32_t> decoded_codes;
  BitReader br(coded_span);
  HuffmanCoder huff;
  if (blocked) {
    decoded_codes = lossless::blocked_decode(coded_span, threads);
    if (decoded_codes.size() != n)
      throw StreamError("sz_interp: blocked code count does not match dims");
  } else {
    huff.read_table(br);
  }
  const std::uint32_t radius = intervals / 2;

  Grid g(dims);
  std::vector<T> recon(n);
  std::size_t outlier_next = 0;
  std::size_t code_next = 0;  // codes were appended in traversal order
  traverse<T>(g, recon, cubic, [&](std::size_t idx, double pred) {
    std::uint32_t code = blocked ? decoded_codes[code_next++] : huff.decode(br);
    if (code == 0) {
      if (outlier_next >= outliers.size())
        throw StreamError("sz_interp: outlier stream exhausted");
      recon[idx] = outliers[outlier_next++];
      return;
    }
    recon[idx] = kernels::dequantize_point<T>(
        pred, 2.0 * eb,
        static_cast<std::int64_t>(code) - static_cast<std::int64_t>(radius));
  });
  if (outlier_next != outliers.size())
    throw StreamError("sz_interp: trailing outliers in stream");
  return recon;
}

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   Dims, const Params&);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    Dims, const Params&);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>,
                                              Dims*, std::size_t);
template std::vector<double> decompress<double>(std::span<const std::uint8_t>,
                                                Dims*, std::size_t);

}  // namespace sz_interp
}  // namespace transpwr
