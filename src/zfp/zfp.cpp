#include "zfp/zfp.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/numeric.h"
#include "common/parallel.h"
#include "kernels/dispatch.h"
#include "kernels/zfp_lift.h"
#include "obs/obs.h"

namespace transpwr {
namespace zfp {
namespace {

constexpr std::uint32_t kMagic = 0x31504654;  // "TFP1"
constexpr int kEmaxBits = 12;                 // biased block exponent width
constexpr int kEmaxBias = 2048;
template <typename T>
struct Traits;
template <>
struct Traits<float> {
  using Int = std::int32_t;
  using UInt = std::uint32_t;
  static constexpr int intprec = 32;
  static constexpr UInt nbmask = 0xaaaaaaaaU;
};
template <>
struct Traits<double> {
  using Int = std::int64_t;
  using UInt = std::uint64_t;
  static constexpr int intprec = 64;
  static constexpr UInt nbmask = 0xaaaaaaaaaaaaaaaaULL;
};

// Extra bit planes kept beyond the tolerance exponent to absorb transform
// rounding; 2*(d+1) is the ZFP heuristic, +1 for clean-room safety margin.
int precision_slack(int nd) { return 2 * (nd + 1) + 1; }

// --- lifted transform (ZFP's non-orthogonal 4-point lift) -----------------

template <typename Int>
void fwd_xform(Int* b, int nd) {
  // The kernel-layer block transform is the same exact integer arithmetic
  // restructured into lane-parallel passes, so both dispatches produce
  // identical coefficients (and therefore identical streams).
  if (kernels::active() == kernels::Dispatch::kNative) {
    kernels::zfp_fwd_xform_block(b, nd);
    return;
  }
  using kernels::zfp_fwd_lift4;
  switch (nd) {
    case 1:
      zfp_fwd_lift4(b, 1);
      break;
    case 2:
      for (int y = 0; y < 4; ++y) zfp_fwd_lift4(b + 4 * y, 1);
      for (int x = 0; x < 4; ++x) zfp_fwd_lift4(b + x, 4);
      break;
    default:
      for (int z = 0; z < 4; ++z)
        for (int y = 0; y < 4; ++y) zfp_fwd_lift4(b + 16 * z + 4 * y, 1);
      for (int z = 0; z < 4; ++z)
        for (int x = 0; x < 4; ++x) zfp_fwd_lift4(b + 16 * z + x, 4);
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) zfp_fwd_lift4(b + 4 * y + x, 16);
      break;
  }
}

template <typename Int>
void inv_xform(Int* b, int nd) {
  if (kernels::active() == kernels::Dispatch::kNative) {
    kernels::zfp_inv_xform_block(b, nd);
    return;
  }
  using kernels::zfp_inv_lift4;
  switch (nd) {
    case 1:
      zfp_inv_lift4(b, 1);
      break;
    case 2:
      for (int x = 0; x < 4; ++x) zfp_inv_lift4(b + x, 4);
      for (int y = 0; y < 4; ++y) zfp_inv_lift4(b + 4 * y, 1);
      break;
    default:
      for (int y = 0; y < 4; ++y)
        for (int x = 0; x < 4; ++x) zfp_inv_lift4(b + 4 * y + x, 16);
      for (int z = 0; z < 4; ++z)
        for (int x = 0; x < 4; ++x) zfp_inv_lift4(b + 16 * z + x, 4);
      for (int z = 0; z < 4; ++z)
        for (int y = 0; y < 4; ++y) zfp_inv_lift4(b + 16 * z + 4 * y, 1);
      break;
  }
}

// --- total-sequency coefficient ordering -----------------------------------

struct PermTables {
  std::array<std::uint8_t, 4> p1;
  std::array<std::uint8_t, 16> p2;
  std::array<std::uint8_t, 64> p3;
  PermTables() {
    auto make = [](auto& perm, int nd) {
      std::vector<int> idx(perm.size());
      std::iota(idx.begin(), idx.end(), 0);
      auto degree = [nd](int i) {
        int d = 0;
        for (int k = 0; k < nd; ++k) {
          d += i & 3;
          i >>= 2;
        }
        return d;
      };
      std::stable_sort(idx.begin(), idx.end(), [&](int a, int b) {
        return degree(a) < degree(b);
      });
      for (std::size_t i = 0; i < perm.size(); ++i)
        perm[i] = static_cast<std::uint8_t>(idx[i]);
    };
    make(p1, 1);
    make(p2, 2);
    make(p3, 3);
  }
  const std::uint8_t* get(int nd) const {
    return nd == 1 ? p1.data() : nd == 2 ? p2.data() : p3.data();
  }
};

const std::uint8_t* perm(int nd) {
  static const PermTables t;
  return t.get(nd);
}

// --- negabinary ------------------------------------------------------------

template <typename T>
typename Traits<T>::UInt int2uint(typename Traits<T>::Int x) {
  using UInt = typename Traits<T>::UInt;
  return (static_cast<UInt>(x) + Traits<T>::nbmask) ^ Traits<T>::nbmask;
}

template <typename T>
typename Traits<T>::Int uint2int(typename Traits<T>::UInt u) {
  using Int = typename Traits<T>::Int;
  return static_cast<Int>((u ^ Traits<T>::nbmask) - Traits<T>::nbmask);
}

// --- embedded bit-plane coding ----------------------------------------------

// Encode one bit plane (low `size` bits of x) given the running significant
// prefix length n and the remaining per-block bit budget; mirrors ZFP's
// encode_ints inner loops. The accuracy/precision modes pass an effectively
// unlimited budget; the fixed-rate mode caps it.
inline void encode_plane(BitWriter& bw, std::uint64_t x, unsigned& n,
                         unsigned size, std::int64_t& bits) {
  unsigned m = static_cast<unsigned>(
      std::min<std::int64_t>(n, std::max<std::int64_t>(0, bits)));
  bits -= m;
  bw.write_bits(x, m);
  x = m < 64 ? x >> m : 0;
  if (m < n) return;  // budget exhausted mid-prefix
  for (; n < size && bits && (--bits, bw.write_bit(x != 0), x != 0);
       x >>= 1, n++)
    for (; n < size - 1 && bits && (--bits, bw.write_bit(x & 1), !(x & 1));
         x >>= 1, n++) {
    }
}

inline std::uint64_t decode_plane(BitReader& br, unsigned& n, unsigned size,
                                  std::int64_t& bits) {
  unsigned m = static_cast<unsigned>(
      std::min<std::int64_t>(n, std::max<std::int64_t>(0, bits)));
  bits -= m;
  std::uint64_t x = br.read_bits(m);
  if (m < n) return x;
  for (; n < size && bits && (--bits, br.read_bit());
       x += std::uint64_t{1} << n++)
    for (; n < size - 1 && bits && (--bits, !br.read_bit()); n++) {
    }
  return x;
}

constexpr std::int64_t kUnlimitedBits = std::int64_t{1} << 60;

// --- block gather / scatter --------------------------------------------------

struct BlockGrid {
  Dims dims;
  std::size_t nbx = 1, nby = 1, nbz = 1;
  std::size_t nx = 1, ny = 1, nz = 1;

  explicit BlockGrid(Dims d) : dims(d) {
    nx = d[d.nd - 1];
    ny = d.nd >= 2 ? d[d.nd - 2] : 1;
    nz = d.nd == 3 ? d[0] : 1;
    nbx = (nx + 3) / 4;
    nby = d.nd >= 2 ? (ny + 3) / 4 : 1;
    nbz = d.nd == 3 ? (nz + 3) / 4 : 1;
  }
  std::size_t num_blocks() const { return nbx * nby * nbz; }
};

template <typename T>
void gather(const T* data, const BlockGrid& g, std::size_t bz, std::size_t by,
            std::size_t bx, int nd, T* block) {
  for (std::size_t z = 0; z < (nd == 3 ? 4u : 1u); ++z)
    for (std::size_t y = 0; y < (nd >= 2 ? 4u : 1u); ++y)
      for (std::size_t x = 0; x < 4u; ++x) {
        // Clamp-replicate at partial-block edges.
        std::size_t sz = std::min(bz * 4 + z, g.nz - 1);
        std::size_t sy = std::min(by * 4 + y, g.ny - 1);
        std::size_t sx = std::min(bx * 4 + x, g.nx - 1);
        std::size_t src = (sz * g.ny + sy) * g.nx + sx;
        block[(z * (nd >= 2 ? 4 : 1) + y) * 4 + x] = data[src];
      }
}

template <typename T>
void scatter(const T* block, const BlockGrid& g, std::size_t bz,
             std::size_t by, std::size_t bx, int nd, T* data) {
  for (std::size_t z = 0; z < (nd == 3 ? 4u : 1u); ++z)
    for (std::size_t y = 0; y < (nd >= 2 ? 4u : 1u); ++y)
      for (std::size_t x = 0; x < 4u; ++x) {
        std::size_t dz = bz * 4 + z, dy = by * 4 + y, dx = bx * 4 + x;
        if (dz >= g.nz || dy >= g.ny || dx >= g.nx) continue;
        std::size_t dst = (dz * g.ny + dy) * g.nx + dx;
        data[dst] = block[(z * (nd >= 2 ? 4 : 1) + y) * 4 + x];
      }
}

// Block exponent e such that |x| < 2^e for every x in the block; INT_MIN for
// an all-zero block.
template <typename T>
int block_emax(const T* block, unsigned size) {
  double m = 0;
  for (unsigned i = 0; i < size; ++i) {
    double a = std::abs(static_cast<double>(block[i]));
    // NaN/Inf cannot be block-floating-point scaled (the double->Int cast
    // below would be undefined); reject instead of encoding garbage.
    if (!std::isfinite(a))
      throw ParamError("zfp: non-finite value in input");
    m = std::max(m, a);
  }
  if (m == 0) return std::numeric_limits<int>::min();
  int e = 0;
  std::frexp(m, &e);  // m = f * 2^e, f in [0.5, 1) => |x| <= m < 2^e
  return e;
}

// 2^e when it is a normal double, else 0. Multiplying by a normal power of
// two is one correctly rounded operation — exactly what std::ldexp
// computes — so block scaling can use a product instead of a libm call per
// value. The exponents outside the normal range (blocks of doubles below
// ~2^-960, corrupt exponent fields) keep std::ldexp.
inline double pow2_if_normal(int e) {
  if (e < -1022 || e > 1023) return 0;
  return std::bit_cast<double>(static_cast<std::uint64_t>(e + 1023) << 52);
}

/// The per-stream coding parameters every block shares.
struct CodingCtx {
  Mode mode;
  int minexp;
  std::uint32_t precision;
  int slack;
  int nd;
  unsigned bsize;
  bool fixed_rate;
  std::size_t rate_bits;

  CodingCtx(Mode m, double tolerance, std::uint32_t prec, double rate,
            int dims_nd)
      : mode(m),
        minexp(m == Mode::kAccuracy
                   ? static_cast<int>(std::floor(std::log2(tolerance)))
                   : std::numeric_limits<int>::min() / 2),
        precision(prec),
        slack(precision_slack(dims_nd)),
        nd(dims_nd),
        bsize(1u << (2 * dims_nd)),
        fixed_rate(m == Mode::kRate),
        rate_bits(fixed_rate ? block_bits_for_rate(rate, dims_nd) : 0) {}

  /// Bit planes coded for a block with exponent `emax`.
  int max_precision(int emax, int intprec) const {
    switch (mode) {
      case Mode::kAccuracy:
        return std::min(intprec, std::max(1, emax - minexp + slack));
      case Mode::kPrecision:
        // Clamp before the signed cast: a corrupt header (or a huge
        // requested precision) can carry a value whose int conversion is
        // negative.
        return static_cast<int>(std::min<std::uint32_t>(
            precision, static_cast<std::uint32_t>(intprec)));
      default:
        return intprec;  // kRate: the budget is the only limit
    }
  }
};

/// Encode one gathered block (flag, exponent, bit planes, rate padding).
template <typename T>
void encode_one_block(BitWriter& bw, const CodingCtx& ctx, const T* vals) {
  using Int = typename Traits<T>::Int;
  using UInt = typename Traits<T>::UInt;
  constexpr int intprec = Traits<T>::intprec;

  const int emax = block_emax(vals, ctx.bsize);
  const std::size_t block_start = bw.bit_count();
  std::int64_t budget = ctx.fixed_rate
                            ? static_cast<std::int64_t>(ctx.rate_bits)
                            : kUnlimitedBits;

  // Skippable block: reconstructing all-zero keeps |x| < 2^emax <=
  // 2^minexp <= tolerance.
  if (emax == std::numeric_limits<int>::min() ||
      (ctx.mode == Mode::kAccuracy && emax <= ctx.minexp)) {
    bw.write_bit(false);
  } else {
    bw.write_bit(true);
    bw.write_bits(static_cast<std::uint64_t>(emax + kEmaxBias), kEmaxBits);
    budget -= 1 + kEmaxBits;
    const unsigned kmin =
        static_cast<unsigned>(intprec - ctx.max_precision(emax, intprec));

    // Block-floating-point: scale by 2^(intprec-2-emax) and round toward
    // zero (cast), guaranteeing |q| < 2^(intprec-2).
    Int ints[64];
    const int e = intprec - 2 - emax;
    const double scale = pow2_if_normal(e);
    for (unsigned i = 0; i < ctx.bsize; ++i) {
      const auto v = static_cast<double>(vals[i]);
      ints[i] = static_cast<Int>(scale != 0 ? v * scale : std::ldexp(v, e));
    }

    fwd_xform(ints, ctx.nd);

    UInt uints[64];
    const std::uint8_t* pm = perm(ctx.nd);
    if (kernels::active() == kernels::Dispatch::kNative)
      kernels::zfp_int2uint_gather(ints, uints, pm, ctx.bsize,
                                   Traits<T>::nbmask);
    else
      for (unsigned i = 0; i < ctx.bsize; ++i)
        uints[i] = int2uint<T>(ints[pm[i]]);

    unsigned n = 0;
    for (int k = intprec; budget > 0 && static_cast<unsigned>(k--) > kmin;) {
      std::uint64_t plane = 0;
      for (unsigned i = 0; i < ctx.bsize; ++i)
        plane |= static_cast<std::uint64_t>((uints[i] >> k) & 1u) << i;
      encode_plane(bw, plane, n, ctx.bsize, budget);
    }
  }
  if (ctx.fixed_rate) {
    // Zero-pad so every block occupies exactly rate_bits.
    std::size_t used = bw.bit_count() - block_start;
    for (std::size_t pad = ctx.rate_bits - used; pad > 0;) {
      unsigned chunk = pad > 64 ? 64u : static_cast<unsigned>(pad);
      bw.write_bits(0, chunk);
      pad -= chunk;
    }
  }
}

/// Decode one block payload (flag, exponent, bit planes, rate padding) and
/// reconstruct its 4^nd values into `vals`.
template <typename T>
void decode_one_block(BitReader& br, const CodingCtx& ctx, T* vals) {
  using Int = typename Traits<T>::Int;
  using UInt = typename Traits<T>::UInt;
  constexpr int intprec = Traits<T>::intprec;

  const std::size_t block_start = br.bit_pos();
  std::int64_t budget = ctx.fixed_rate
                            ? static_cast<std::int64_t>(ctx.rate_bits)
                            : kUnlimitedBits;
  auto skip_padding = [&] {
    if (!ctx.fixed_rate) return;
    br.skip_bits(ctx.rate_bits - (br.bit_pos() - block_start));
  };

  if (!br.read_bit()) {  // skipped block
    std::fill(vals, vals + ctx.bsize, T{0});
    skip_padding();
    return;
  }
  int emax = static_cast<int>(br.read_bits(kEmaxBits)) - kEmaxBias;
  budget -= 1 + kEmaxBits;
  const unsigned kmin =
      static_cast<unsigned>(intprec - ctx.max_precision(emax, intprec));

  UInt uints[64];
  std::fill_n(uints, ctx.bsize, UInt{0});
  unsigned n = 0;
  for (int k = intprec; budget > 0 && static_cast<unsigned>(k--) > kmin;) {
    std::uint64_t plane = decode_plane(br, n, ctx.bsize, budget);
    for (unsigned i = 0; plane; ++i, plane >>= 1)
      uints[i] |= static_cast<UInt>(plane & 1u) << k;
  }
  skip_padding();

  // The sequency permutation writes every one of the bsize entries.
  Int ints[64];
  const std::uint8_t* pm = perm(ctx.nd);
  if (kernels::active() == kernels::Dispatch::kNative)
    kernels::zfp_uint2int_scatter(uints, ints, pm, ctx.bsize,
                                  Traits<T>::nbmask);
  else
    for (unsigned i = 0; i < ctx.bsize; ++i)
      ints[pm[i]] = uint2int<T>(uints[i]);
  inv_xform(ints, ctx.nd);
  // Saturating cast: a corrupt exponent field can put the rescaled
  // coefficient far outside T's finite range.
  const int e = emax - (intprec - 2);
  const double scale = pow2_if_normal(e);
  for (unsigned i = 0; i < ctx.bsize; ++i) {
    const auto v = static_cast<double>(ints[i]);
    vals[i] = narrow_to<T>(scale != 0 ? v * scale : std::ldexp(v, e));
  }
}

// --- block groups -------------------------------------------------------------

/// Blocks are coded in groups of kGroupValues values (1024 3-D, 4096 2-D or
/// 16384 1-D blocks, in raster block order). The group size depends on the
/// dimensionality only, so the bytes never depend on the thread count.
constexpr std::size_t kGroupValues = std::size_t{1} << 16;

std::size_t group_blocks(int nd) { return kGroupValues >> (2 * nd); }

/// Header byte 7: how the payload is laid out.
constexpr std::uint8_t kLayoutSerial = 0;   ///< one bit stream
constexpr std::uint8_t kLayoutGrouped = 1;  ///< group directory + substreams

/// Code blocks [first, last) of the raster block order.
template <typename T>
void encode_blocks(const T* data, const BlockGrid& g, const CodingCtx& ctx,
                   std::size_t first, std::size_t last, BitWriter& bw) {
  T vals[64];
  for (std::size_t b = first; b < last; ++b) {
    const std::size_t bx = b % g.nbx, by = b / g.nbx % g.nby,
                      bz = b / (g.nbx * g.nby);
    gather(data, g, bz, by, bx, ctx.nd, vals);
    encode_one_block(bw, ctx, vals);
  }
}

template <typename T>
void decode_blocks(BitReader& br, const BlockGrid& g, const CodingCtx& ctx,
                   std::size_t first, std::size_t last, T* out) {
  T vals[64];
  for (std::size_t b = first; b < last; ++b) {
    const std::size_t bx = b % g.nbx, by = b / g.nbx % g.nby,
                      bz = b / (g.nbx * g.nby);
    decode_one_block(br, ctx, vals);
    scatter(vals, g, bz, by, bx, ctx.nd, out);
  }
}

// --- stream header --------------------------------------------------------------

struct Header {
  Mode mode = Mode::kAccuracy;
  std::uint8_t layout = kLayoutSerial;
  Dims dims;
  std::size_t count = 0;  ///< dims.count(), overflow-checked
  double tolerance = 0;
  std::uint32_t precision = 0;
  double rate = 0;
};

template <typename T>
Header read_header(ByteReader& in) {
  if (in.get<std::uint32_t>() != kMagic) throw StreamError("zfp: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("zfp: stream data type does not match requested type");
  Header h;
  const int nd = in.get<std::uint8_t>();
  std::uint8_t mode_byte = in.get<std::uint8_t>();
  if (mode_byte > static_cast<std::uint8_t>(Mode::kRate))
    throw StreamError("zfp: unknown mode byte");
  h.mode = static_cast<Mode>(mode_byte);
  h.layout = in.get<std::uint8_t>();
  if (h.layout > kLayoutGrouped)
    throw StreamError("zfp: unknown payload layout byte");
  // Fixed-rate blocks sit at implicit offsets; they never need a directory.
  if (h.layout == kLayoutGrouped && h.mode == Mode::kRate)
    throw StreamError("zfp: fixed-rate stream with a group directory");
  h.dims = read_dims(nd, in, "zfp");
  h.count = h.dims.count();
  h.tolerance = in.get<double>();
  h.precision = in.get<std::uint32_t>();
  h.rate = in.get<double>();
  // Header floats feed log2/llround below; NaN or non-positive values would
  // make the int conversions undefined.
  if (h.mode == Mode::kAccuracy &&
      !(h.tolerance > 0 && std::isfinite(h.tolerance)))
    throw StreamError("zfp: bad tolerance in stream header");
  if (h.mode == Mode::kRate && (!(h.rate >= 1.0) || h.rate > 8.0 * sizeof(T)))
    throw StreamError("zfp: bad rate in stream header");
  return h;
}

template <typename T>
void validate(const Params& p, const Dims& dims) {
  dims.validate();
  if (p.mode == Mode::kAccuracy && !(p.tolerance > 0))
    throw ParamError("zfp: tolerance must be positive");
  if (p.mode == Mode::kPrecision && p.precision == 0)
    throw ParamError("zfp: precision must be >= 1");
  if (p.mode == Mode::kRate &&
      (!(p.rate >= 1.0) || p.rate > 8.0 * sizeof(T)))
    throw ParamError("zfp: rate must be in [1, bits-per-value]");
}

}  // namespace

std::size_t block_bits_for_rate(double rate, int nd) {
  if (nd < 1 || nd > 3) throw ParamError("zfp: nd must be 1..3");
  auto bsize = static_cast<double>(1u << (2 * nd));
  auto bits = static_cast<std::size_t>(std::llround(rate * bsize));
  // A coded block needs at least the flag + exponent header.
  return std::max<std::size_t>(bits, 1 + kEmaxBits + 3);
}

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params) {
  validate<T>(params, dims);
  if (data.size() != dims.count())
    throw ParamError("zfp: data size does not match dims");
  obs::Span compress_span("zfp.compress");

  const CodingCtx ctx(params.mode, params.tolerance, params.precision,
                      params.rate, dims.nd);
  const BlockGrid g(dims);
  const std::size_t nblocks = g.num_blocks();
  const std::size_t per_group = group_blocks(dims.nd);
  const std::size_t ngroups = (nblocks + per_group - 1) / per_group;

  // Every allocation stays on this thread: memory a pool worker allocates
  // stays resident in its own malloc arena after it is freed. Groups are
  // coded in waves of a few per worker into scratch buffers reserved here
  // once, at a whole group's fixed-rate size or, for the variable-rate
  // modes, its raw size (only pathological blocks exceed it), and copied
  // out at their coded size after each wave. So compress commits one wave
  // of scratch beyond its coded output, not the size of the input.
  ParallelOptions opts;
  opts.max_threads = params.threads;
  opts.grain = 1;
  const std::size_t wave =
      std::min(ngroups, 4 * parallel_task_count(ngroups, opts));
  const std::size_t max_blocks = std::min(per_group, nblocks);
  std::vector<std::vector<std::uint8_t>> scratch(wave);
  for (auto& buf : scratch)
    buf.reserve(ctx.fixed_rate ? (max_blocks * ctx.rate_bits + 7) / 8
                               : max_blocks * ctx.bsize * sizeof(T));
  std::vector<std::vector<std::uint8_t>> groups(ngroups);
  for (std::size_t first = 0; first < ngroups; first += wave) {
    const std::size_t count = std::min(wave, ngroups - first);
    std::vector<BitWriter> writers;
    writers.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
      writers.emplace_back(std::move(scratch[i]));
    parallel_for(
        count,
        [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t k = first + i;
            encode_blocks(data.data(), g, ctx, k * per_group,
                          std::min(nblocks, (k + 1) * per_group), writers[i]);
          }
        },
        opts);
    for (std::size_t i = 0; i < count; ++i) {
      scratch[i] = writers[i].take();
      groups[first + i].assign(scratch[i].begin(), scratch[i].end());
    }
  }
  scratch.clear();

  // A fixed-rate group spans per_group * rate_bits bits, a multiple of 8,
  // so the substreams concatenate into exactly the serial bit stream; a
  // single group is the serial stream. Only variable-rate streams with
  // several groups need the directory.
  const std::uint8_t layout =
      ctx.fixed_rate || ngroups == 1 ? kLayoutSerial : kLayoutGrouped;
  std::vector<std::uint64_t> ends(ngroups);
  std::uint64_t payload_size = 0;
  for (std::size_t k = 0; k < ngroups; ++k)
    ends[k] = payload_size += groups[k].size();

  ByteWriter out;
  // 52-byte header, sized directory (when present), sized payload.
  out.reserve(52 + 8 + 8 * ngroups + 8 + payload_size);
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(dims.nd));
  out.put(static_cast<std::uint8_t>(params.mode));
  out.put(layout);
  for (int i = 0; i < 3; ++i)
    out.put(static_cast<std::uint64_t>(dims.d[static_cast<std::size_t>(i)]));
  out.put(params.tolerance);
  out.put(params.precision);
  out.put(params.rate);
  if (layout == kLayoutGrouped) {
    out.put(static_cast<std::uint64_t>(8 * ngroups));
    for (std::uint64_t end : ends) out.put(end);
  }
  out.put(payload_size);
  // Each group buffer is freed as soon as it is appended.
  for (auto& bytes : groups) out.put_bytes(std::exchange(bytes, {}));
  return out.take();
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out, std::size_t threads) {
  obs::Span decompress_span("zfp.decompress");
  ByteReader in(stream);
  const Header h = read_header<T>(in);
  check_decode_alloc(h.count, sizeof(T), "zfp");
  if (dims_out) *dims_out = h.dims;

  const CodingCtx ctx(h.mode, h.tolerance, h.precision, h.rate, h.dims.nd);
  const BlockGrid g(h.dims);
  const std::size_t nblocks = g.num_blocks();
  // A serial variable-rate payload is one group holding every block.
  const std::size_t per_group =
      h.layout == kLayoutSerial && !ctx.fixed_rate ? nblocks
                                                   : group_blocks(h.dims.nd);
  const std::size_t ngroups = (nblocks + per_group - 1) / per_group;

  std::span<const std::uint8_t> dir;
  if (h.layout == kLayoutGrouped) {
    dir = in.get_sized();
    if (dir.size() % 8 != 0)
      throw StreamError("zfp: group directory is not a whole number of u64");
    if (dir.size() / 8 != ngroups)
      throw StreamError("zfp: group directory count does not match dims");
  }
  auto payload = in.get_sized();
  // Every block costs at least its skip flag, one bit, so inflated dims
  // cannot be honest against a short payload.
  if (nblocks > payload.size() * 8 + 1)
    throw StreamError("zfp: dims exceed payload capacity");

  // ends[k] is the byte offset one past group k's substream.
  std::vector<std::size_t> ends(ngroups);
  if (h.layout == kLayoutGrouped) {
    for (std::size_t k = 0; k < ngroups; ++k) {
      std::uint64_t end = 0;
      std::memcpy(&end, dir.data() + 8 * k, 8);
      if (k > 0 && end < ends[k - 1])
        throw StreamError("zfp: group directory offsets are not monotone");
      if (end > payload.size())
        throw StreamError("zfp: group directory offset past the payload");
      ends[k] = static_cast<std::size_t>(end);
    }
    if (ends.back() != payload.size())
      throw StreamError("zfp: group directory does not cover the payload");
  } else if (ctx.fixed_rate) {
    // Implicit offsets: group k starts at bit k * per_group * rate_bits,
    // a byte boundary.
    for (std::size_t k = 0; k < ngroups; ++k)
      ends[k] = std::min(payload.size(),
                         (std::min(nblocks, (k + 1) * per_group) *
                              ctx.rate_bits + 7) / 8);
  } else {
    ends[0] = payload.size();
  }

  std::vector<T> out(h.count, T{0});
  ParallelOptions opts;
  opts.max_threads = threads;
  opts.grain = 1;
  parallel_for(
      ngroups,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          const std::size_t first = k == 0 ? 0 : ends[k - 1];
          BitReader br(payload.subspan(first, ends[k] - first));
          decode_blocks(br, g, ctx, k * per_group,
                        std::min(nblocks, (k + 1) * per_group), out.data());
        }
      },
      opts);
  return out;
}

template <typename T>
std::vector<T> decode_block_at(std::span<const std::uint8_t> stream,
                               std::size_t bz, std::size_t by,
                               std::size_t bx) {
  ByteReader in(stream);
  const Header h = read_header<T>(in);
  if (h.mode != Mode::kRate)
    throw ParamError("zfp: random access requires a fixed-rate stream");

  const BlockGrid g(h.dims);
  if (bz >= g.nbz || by >= g.nby || bx >= g.nbx)
    throw ParamError("zfp: block coordinates out of range");

  const CodingCtx ctx(h.mode, h.tolerance, h.precision, h.rate, h.dims.nd);
  auto payload = in.get_sized();
  BitReader br(payload);
  std::size_t block_index = (bz * g.nby + by) * g.nbx + bx;
  br.skip_bits(block_index * ctx.rate_bits);

  std::vector<T> vals(ctx.bsize);
  decode_one_block(br, ctx, vals.data());
  return vals;
}

std::vector<double> transform_block_for_analysis(
    std::span<const double> values, int nd) {
  if (nd < 1 || nd > 3) throw ParamError("zfp: nd must be 1..3");
  const unsigned bsize = 1u << (2 * nd);
  if (values.size() != bsize)
    throw ParamError("zfp: analysis block must hold 4^nd values");

  using Int = Traits<double>::Int;
  constexpr int intprec = Traits<double>::intprec;
  std::array<double, 64> vals{};
  std::copy(values.begin(), values.end(), vals.begin());
  int emax = block_emax(vals.data(), bsize);
  if (emax == std::numeric_limits<int>::min())
    return std::vector<double>(bsize, 0.0);

  std::array<Int, 64> ints{};
  for (unsigned i = 0; i < bsize; ++i)
    ints[i] = static_cast<Int>(std::ldexp(vals[i], intprec - 2 - emax));
  fwd_xform(ints.data(), nd);

  const std::uint8_t* pm = perm(nd);
  std::vector<double> coeffs(bsize);
  for (unsigned i = 0; i < bsize; ++i)
    coeffs[i] =
        std::ldexp(static_cast<double>(ints[pm[i]]), emax - (intprec - 2));
  return coeffs;
}

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   Dims, const Params&);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    Dims, const Params&);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>,
                                              Dims*, std::size_t);
template std::vector<double> decompress<double>(std::span<const std::uint8_t>,
                                                Dims*, std::size_t);

template std::vector<float> decode_block_at<float>(
    std::span<const std::uint8_t>, std::size_t, std::size_t, std::size_t);
template std::vector<double> decode_block_at<double>(
    std::span<const std::uint8_t>, std::size_t, std::size_t, std::size_t);

}  // namespace zfp
}  // namespace transpwr
