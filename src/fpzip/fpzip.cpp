#include "fpzip/fpzip.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <cmath>
#include <cstring>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/numeric.h"
#include "lossless/huffman.h"
#include "lossless/range_coder.h"
#include "obs/obs.h"

namespace transpwr {
namespace fpzip {
namespace {

constexpr std::uint32_t kMagic = 0x315A5046;  // "FPZ1"

template <typename T>
struct Traits;
template <>
struct Traits<float> {
  using Bits = std::uint32_t;
  static constexpr int total_bits = 32;
  static constexpr int mantissa_bits = 23;
  static constexpr int header_bits = 9;  // sign + exponent
};
template <>
struct Traits<double> {
  using Bits = std::uint64_t;
  static constexpr int total_bits = 64;
  static constexpr int mantissa_bits = 52;
  static constexpr int header_bits = 12;
};

// Monotonic map from IEEE bits to unsigned integers: negative values are
// complemented, positive values get the sign bit set, so integer order
// matches float order.
template <typename T>
typename Traits<T>::Bits float_to_ordered(T v) {
  using Bits = typename Traits<T>::Bits;
  Bits b;
  std::memcpy(&b, &v, sizeof(T));
  constexpr Bits sign = Bits{1} << (Traits<T>::total_bits - 1);
  return (b & sign) ? ~b : (b | sign);
}

template <typename T>
T ordered_to_float(typename Traits<T>::Bits u) {
  using Bits = typename Traits<T>::Bits;
  constexpr Bits sign = Bits{1} << (Traits<T>::total_bits - 1);
  Bits b = (u & sign) ? (u & ~sign) : ~u;
  T v;
  std::memcpy(&v, &b, sizeof(T));
  return v;
}

/// Number of low mantissa bits zeroed at precision `p`.
template <typename T>
int dropped_bits(std::uint32_t p) {
  int keep_mantissa =
      std::clamp<int>(static_cast<int>(p) - Traits<T>::header_bits, 0,
                      Traits<T>::mantissa_bits);
  return Traits<T>::mantissa_bits - keep_mantissa;
}

/// Truncate the mantissa toward zero so only `p` leading bits of the IEEE
/// representation survive.
template <typename T>
T truncate_to_precision(T v, std::uint32_t p) {
  using Bits = typename Traits<T>::Bits;
  int drop = dropped_bits<T>(p);
  if (drop == 0) return v;
  Bits b;
  std::memcpy(&b, &v, sizeof(T));
  b &= ~((Bits{1} << drop) - 1);
  T out;
  std::memcpy(&out, &b, sizeof(T));
  return out;
}

/// Ordered-integer representation of a *truncated* value, shifted down by
/// the known-determined low bits. Truncated positives map to integers with
/// `drop` low zeros and truncated negatives to `drop` low ones, so the
/// shifted value is still injective and order-preserving — and residuals
/// save `drop` bits each.
template <typename T>
typename Traits<T>::Bits ordered_shifted(T v, int drop) {
  return float_to_ordered(v) >> drop;
}

template <typename T>
T from_ordered_shifted(typename Traits<T>::Bits u, int drop) {
  using Bits = typename Traits<T>::Bits;
  Bits full = u << drop;
  constexpr Bits sign = Bits{1} << (Traits<T>::total_bits - 1);
  // Mapped negatives have their top bit clear; their dropped low bits were
  // all ones.
  if (drop > 0 && !(full & sign)) full |= (Bits{1} << drop) - 1;
  return ordered_to_float<T>(full);
}

struct Geometry {
  Dims dims;
  std::size_t stride_y = 0, stride_z = 0;
  explicit Geometry(Dims d) : dims(d) {
    if (d.nd == 2) {
      stride_y = d[1];
    } else if (d.nd == 3) {
      stride_y = d[2];
      stride_z = d[1] * d[2];
    }
  }
};

/// Lorenzo prediction over previously decoded floats (exact on both sides —
/// the coding of residuals below is lossless).
template <typename T>
T lorenzo_predict(const T* r, const Geometry& g, std::size_t z, std::size_t y,
                  std::size_t x, std::size_t idx) {
  auto at = [&](std::size_t i) { return static_cast<double>(r[i]); };
  double pred;
  switch (g.dims.nd) {
    case 1:
      pred = x > 0 ? at(idx - 1) : 0.0;
      break;
    case 2: {
      double a = x > 0 ? at(idx - 1) : 0.0;
      double b = y > 0 ? at(idx - g.stride_y) : 0.0;
      double ab = (x > 0 && y > 0) ? at(idx - g.stride_y - 1) : 0.0;
      pred = a + b - ab;
      break;
    }
    default: {
      double c100 = z > 0 ? at(idx - g.stride_z) : 0.0;
      double c010 = y > 0 ? at(idx - g.stride_y) : 0.0;
      double c001 = x > 0 ? at(idx - 1) : 0.0;
      double c110 = (z > 0 && y > 0) ? at(idx - g.stride_z - g.stride_y) : 0.0;
      double c101 = (z > 0 && x > 0) ? at(idx - g.stride_z - 1) : 0.0;
      double c011 = (y > 0 && x > 0) ? at(idx - g.stride_y - 1) : 0.0;
      double c111 = (z > 0 && y > 0 && x > 0)
                        ? at(idx - g.stride_z - g.stride_y - 1)
                        : 0.0;
      pred = c100 + c010 + c001 - c110 - c101 - c011 + c111;
      break;
    }
  }
  if (!std::isfinite(pred)) pred = 0.0;
  // The neighbor sum can overflow T's range even when finite in double
  // (e.g. two values near max); saturate instead of an undefined cast.
  return narrow_to<T>(pred);
}

template <typename T>
void validate(const Params& p) {
  if (p.precision < static_cast<std::uint32_t>(Traits<T>::header_bits) ||
      p.precision > static_cast<std::uint32_t>(Traits<T>::total_bits))
    throw ParamError("fpzip: precision out of range for data type");
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params) {
  validate<T>(params);
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("fpzip: data size does not match dims");
  obs::Span compress_span("fpzip.compress");

  using Bits = typename Traits<T>::Bits;
  Geometry g(dims);
  const std::size_t n = data.size();

  // Pass 1: truncate, predict, collect zigzagged residuals + classes.
  std::vector<T> recon(n);
  std::vector<Bits> resid(n);
  std::vector<std::uint32_t> cls(n);
  const std::size_t nz = dims.nd == 3 ? dims[0] : 1;
  const std::size_t ny = dims.nd >= 2 ? dims[dims.nd - 2] : 1;
  const std::size_t nx = dims[dims.nd - 1];
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        T trunc = truncate_to_precision(data[idx], params.precision);
        T pred = truncate_to_precision(
            lorenzo_predict(recon.data(), g, z, y, x, idx), params.precision);
        const int drop = dropped_bits<T>(params.precision);
        Bits a = ordered_shifted(trunc, drop);
        Bits b = ordered_shifted(pred, drop);
        // Signed difference in the ordered-integer domain, zigzag mapped.
        Bits diff = a - b;  // modular
        using SBits = std::make_signed_t<Bits>;
        auto s = static_cast<SBits>(diff);
        Bits zz = (static_cast<Bits>(s) << 1) ^
                  static_cast<Bits>(s >> (Traits<T>::total_bits - 1));
        resid[idx] = zz;
        cls[idx] = zz == 0 ? 0 : static_cast<std::uint32_t>(
                                     std::bit_width(zz));
        recon[idx] = trunc;
      }

  // Pass 2: entropy-code magnitude classes + raw significand bits. With
  // the range-coder stage, classes go through an adaptive model while the
  // uniformly distributed significand bits stay in a plain bit stream.
  std::vector<std::uint8_t> class_payload;
  BitWriter bw;
  if (params.entropy == Entropy::kHuffman) {
    HuffmanCoder huff;
    huff.build_from(cls, Traits<T>::total_bits + 1);
    huff.write_table(bw);
    for (std::size_t i = 0; i < n; ++i) {
      huff.encode(cls[i], bw);
      if (cls[i] > 1)
        bw.write_bits(static_cast<std::uint64_t>(
                          resid[i] & ((Bits{1} << (cls[i] - 1)) - 1)),
                      cls[i] - 1);
    }
  } else {
    RangeEncoder enc;
    AdaptiveModel model(Traits<T>::total_bits + 1);
    for (std::size_t i = 0; i < n; ++i) {
      model.encode(enc, cls[i]);
      if (cls[i] > 1)
        bw.write_bits(static_cast<std::uint64_t>(
                          resid[i] & ((Bits{1} << (cls[i] - 1)) - 1)),
                      cls[i] - 1);
    }
    class_payload = enc.finish();
  }
  auto payload = bw.take();

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(dims.nd));
  out.put(static_cast<std::uint8_t>(params.entropy));
  out.put(params.precision);
  for (int i = 0; i < 3; ++i)
    out.put(static_cast<std::uint64_t>(dims.d[static_cast<std::size_t>(i)]));
  out.put_sized(class_payload);
  out.put_sized(payload);
  return out.take();
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out) {
  obs::Span decompress_span("fpzip.decompress");
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic) throw StreamError("fpzip: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("fpzip: stream data type does not match");
  int nd = in.get<std::uint8_t>();
  std::uint8_t entropy_byte = in.get<std::uint8_t>();
  if (entropy_byte > static_cast<std::uint8_t>(Entropy::kRange))
    throw StreamError("fpzip: unknown entropy byte");
  auto entropy = static_cast<Entropy>(entropy_byte);
  std::uint32_t precision = in.get<std::uint32_t>();
  const Dims dims = read_dims(nd, in, "fpzip");
  const std::size_t n = dims.count();
  check_decode_alloc(n, sizeof(T), "fpzip");
  if (dims_out) *dims_out = dims;

  using Bits = typename Traits<T>::Bits;
  Geometry g(dims);
  auto class_payload = in.get_sized();
  auto payload = in.get_sized();
  BitReader br(payload);
  HuffmanCoder huff;
  std::unique_ptr<RangeDecoder> range_dec;
  std::unique_ptr<AdaptiveModel> range_model;
  if (entropy == Entropy::kHuffman) {
    // One Huffman-coded class per element, at least a bit each; the range
    // coder has no such floor, so only the decode limit bounds that path.
    if (n > payload.size() * 8)
      throw StreamError("fpzip: dims exceed payload capacity");
    huff.read_table(br);
  } else {
    range_dec = std::make_unique<RangeDecoder>(class_payload);
    range_model = std::make_unique<AdaptiveModel>(Traits<T>::total_bits + 1);
  }

  std::vector<T> recon(n);
  const std::size_t nz = dims.nd == 3 ? dims[0] : 1;
  const std::size_t ny = dims.nd >= 2 ? dims[dims.nd - 2] : 1;
  const std::size_t nx = dims[dims.nd - 1];
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        std::uint32_t c = entropy == Entropy::kHuffman
                              ? huff.decode(br)
                              : range_model->decode(*range_dec);
        // A corrupt Huffman table can hand back symbols past the class
        // alphabet, whose shifts below would exceed the word width.
        if (c > static_cast<std::uint32_t>(Traits<T>::total_bits))
          throw StreamError("fpzip: residual class out of range");
        Bits zz = 0;
        if (c == 1) {
          zz = 1;
        } else if (c > 1) {
          Bits low = static_cast<Bits>(br.read_bits(c - 1));
          zz = (Bits{1} << (c - 1)) | low;
        }
        using SBits = std::make_signed_t<Bits>;
        auto s = static_cast<SBits>((zz >> 1) ^ (~(zz & 1) + 1));
        const int drop = dropped_bits<T>(precision);
        T pred = truncate_to_precision(
            lorenzo_predict(recon.data(), g, z, y, x, idx), precision);
        Bits b = ordered_shifted(pred, drop) + static_cast<Bits>(s);
        recon[idx] = from_ordered_shifted<T>(b, drop);
      }
  return recon;
}

template <typename T>
std::uint32_t precision_for_rel_bound(double rel_bound) {
  if (!(rel_bound > 0)) throw ParamError("fpzip: rel bound must be positive");
  // max rel error at precision p is 2^-(p - header_bits); find smallest p.
  int m = static_cast<int>(std::ceil(std::log2(1.0 / rel_bound)));
  m = std::clamp(m, 0, Traits<T>::mantissa_bits);
  return static_cast<std::uint32_t>(Traits<T>::header_bits + m);
}

template <typename T>
double max_rel_error_for_precision(std::uint32_t p) {
  int keep = std::clamp<int>(static_cast<int>(p) - Traits<T>::header_bits, 0,
                             Traits<T>::mantissa_bits);
  if (keep >= Traits<T>::mantissa_bits) return 0.0;
  return std::ldexp(1.0, -keep);
}

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   Dims, const Params&);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    Dims, const Params&);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>,
                                              Dims*);
template std::vector<double> decompress<double>(std::span<const std::uint8_t>,
                                                Dims*);
template std::uint32_t precision_for_rel_bound<float>(double);
template std::uint32_t precision_for_rel_bound<double>(double);
template double max_rel_error_for_precision<float>(std::uint32_t);
template double max_rel_error_for_precision<double>(std::uint32_t);

}  // namespace fpzip
}  // namespace transpwr
