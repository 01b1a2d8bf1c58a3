#include "sz/sz.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <thread>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/numeric.h"
#include "common/parallel.h"
#include "kernels/dispatch.h"
#include "kernels/lorenzo.h"
#include "lossless/blocked_huffman.h"
#include "lossless/huffman.h"
#include "lossless/lossless.h"
#include "obs/obs.h"
#include "sz/outlier_coding.h"

namespace transpwr {
namespace sz {
namespace {

constexpr std::uint32_t kMagic = 0x315A5354;  // "TSZ1"
constexpr std::int16_t kAllZeroBlock = std::numeric_limits<std::int16_t>::min();

// The header byte that historically only said "LZ applied" is now a codes
// format byte: bit 0 = LZ applied, bit 1 = blocked v2 entropy container.
// v1 writers only ever emitted 0/1, so old streams parse unchanged.
constexpr std::uint8_t kCodesLz = 1;
constexpr std::uint8_t kCodesBlocked = 2;

std::uint32_t default_block_edge(int nd) {
  switch (nd) {
    case 1:
      return 32;
    case 2:
      return 12;
    default:
      return 8;
  }
}

void validate(const Params& p, const Dims& dims) {
  dims.validate();
  if (!(p.bound > 0)) throw ParamError("sz: bound must be positive");
  if (p.quant_intervals < 4 || (p.quant_intervals & (p.quant_intervals - 1)))
    throw ParamError("sz: quant_intervals must be a power of two >= 4");
}

/// Geometry shared by the encode and decode passes: strides, and the
/// per-point block id used by the PWR mode.
struct Geometry {
  Dims dims;
  std::size_t stride_y = 0, stride_z = 0;  // element strides
  std::uint32_t edge = 1;
  std::size_t nbx = 1, nby = 1, nbz = 1;

  explicit Geometry(Dims d, std::uint32_t block_edge) : dims(d) {
    if (d.nd == 1) {
      stride_y = stride_z = 0;
    } else if (d.nd == 2) {
      stride_y = d[1];  // row stride for [ny][nx]
    } else {
      stride_y = d[2];
      stride_z = d[1] * d[2];
    }
    edge = block_edge;
    if (edge) {
      if (d.nd == 1) {
        nbx = (d[0] + edge - 1) / edge;
      } else if (d.nd == 2) {
        nby = (d[0] + edge - 1) / edge;
        nbx = (d[1] + edge - 1) / edge;
      } else {
        nbz = (d[0] + edge - 1) / edge;
        nby = (d[1] + edge - 1) / edge;
        nbx = (d[2] + edge - 1) / edge;
      }
    }
  }

  std::size_t num_blocks() const { return nbx * nby * nbz; }

  std::size_t block_of(std::size_t z, std::size_t y, std::size_t x) const {
    if (dims.nd == 1) return x / edge;
    if (dims.nd == 2) return (y / edge) * nbx + x / edge;
    return ((z / edge) * nby + y / edge) * nbx + x / edge;
  }
};

/// Lorenzo predictor over the reconstructed-value buffer; the stencil
/// itself lives in the kernel layer (shared with interp and the native
/// run kernels). Out-of-range neighbors contribute 0.
template <typename T>
double lorenzo_predict(const T* r, const Geometry& g, std::size_t z,
                       std::size_t y, std::size_t x, std::size_t idx) {
  return kernels::lorenzo_predict(r, g.dims.nd, g.stride_y, g.stride_z, z, y,
                                  x, idx);
}

/// Per-block exponent of the minimum nonzero |x| (PWR mode). Blocks with no
/// nonzero value get the kAllZeroBlock sentinel.
template <typename T>
std::vector<std::int16_t> block_exponents(std::span<const T> data,
                                          const Geometry& g) {
  std::vector<double> min_nonzero(g.num_blocks(),
                                  std::numeric_limits<double>::infinity());
  const std::size_t nz = g.dims.nd == 3 ? g.dims[0] : 1;
  const std::size_t ny = g.dims.nd >= 2 ? g.dims[g.dims.nd - 2] : 1;
  const std::size_t nx = g.dims[g.dims.nd - 1];
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        double a = std::abs(static_cast<double>(data[idx]));
        if (a > 0) {
          std::size_t b = g.block_of(z, y, x);
          min_nonzero[b] = std::min(min_nonzero[b], a);
        }
      }
  std::vector<std::int16_t> exps(g.num_blocks());
  for (std::size_t b = 0; b < exps.size(); ++b) {
    if (!std::isfinite(min_nonzero[b])) {
      exps[b] = kAllZeroBlock;
    } else {
      int e = 0;
      std::frexp(min_nonzero[b], &e);
      // min = m * 2^e with m in [0.5, 1) => floor(log2 min) = e - 1.
      exps[b] = static_cast<std::int16_t>(
          std::clamp(e - 1, -16000, 16000));
    }
  }
  return exps;
}

double block_bound(double rel_bound, std::int16_t exp) {
  if (exp == kAllZeroBlock) return std::ldexp(rel_bound, -200);
  return std::ldexp(rel_bound, exp);
}

std::uint32_t default_regression_edge(int nd) {
  switch (nd) {
    case 1:
      return 128;
    case 2:
      return 12;
    default:
      return 6;
  }
}

/// Hybrid-predictor plan (Predictor::kAuto): per regression-grid block, a
/// choice bit and, for regression blocks, the nd+1 fitted plane
/// coefficients (intercept, then one slope per axis, x fastest).
template <typename T>
struct RegPlan {
  std::vector<std::uint8_t> use_reg;   // 1 per block
  std::vector<T> coeffs;               // (nd+1) per regression block
  std::vector<std::size_t> coeff_off;  // per block; SIZE_MAX if Lorenzo

  bool regression_for(std::size_t block) const {
    return !use_reg.empty() && use_reg[block] != 0;
  }
  double predict(std::size_t block, int nd, std::size_t lz, std::size_t ly,
                 std::size_t lx) const {
    const T* c = coeffs.data() + coeff_off[block];
    double p = static_cast<double>(c[0]) +
               static_cast<double>(c[1]) * static_cast<double>(lx);
    if (nd >= 2) p += static_cast<double>(c[2]) * static_cast<double>(ly);
    if (nd == 3) p += static_cast<double>(c[3]) * static_cast<double>(lz);
    return p;
  }

  /// Rebuild coeff_off from use_reg (after deserialization).
  void index(int nd) {
    coeff_off.assign(use_reg.size(), SIZE_MAX);
    std::size_t off = 0;
    for (std::size_t b = 0; b < use_reg.size(); ++b)
      if (use_reg[b]) {
        coeff_off[b] = off;
        off += static_cast<std::size_t>(nd) + 1;
      }
  }
};

/// Least-squares plane fit per block plus a sampled cost comparison against
/// the Lorenzo predictor (both estimated on original values, as SZ 2.x
/// does). Regression must beat Lorenzo by a margin covering its coefficient
/// storage cost.
template <typename T>
RegPlan<T> build_regression_plan(std::span<const T> data, const Geometry& g) {
  const int nd = g.dims.nd;
  const std::size_t nz = nd == 3 ? g.dims[0] : 1;
  const std::size_t ny = nd >= 2 ? g.dims[nd - 2] : 1;
  const std::size_t nx = g.dims[nd - 1];
  const std::size_t nblocks = g.num_blocks();

  struct Acc {
    double sum_v = 0, sum_vx = 0, sum_vy = 0, sum_vz = 0;
    double n = 0;
    double ex = 0, ey = 0, ez = 0;  // block extents (set later)
  };
  std::vector<Acc> acc(nblocks);

  // Pass 1: moments for the fit. Local coordinates restart inside each
  // block; a regular grid makes the axes uncorrelated, so each slope only
  // needs its own axis moments.
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        std::size_t b = g.block_of(z, y, x);
        double v = static_cast<double>(data[idx]);
        Acc& a = acc[b];
        a.sum_v += v;
        a.sum_vx += v * static_cast<double>(x % g.edge);
        a.sum_vy += v * static_cast<double>(y % g.edge);
        a.sum_vz += v * static_cast<double>(z % g.edge);
        a.n += 1;
      }
  // Block extents (edge, clipped at the domain boundary).
  for (std::size_t bz = 0; bz < g.nbz; ++bz)
    for (std::size_t by = 0; by < g.nby; ++by)
      for (std::size_t bx = 0; bx < g.nbx; ++bx) {
        std::size_t b = (bz * g.nby + by) * g.nbx + bx;
        acc[b].ex = static_cast<double>(
            std::min<std::size_t>(g.edge, nx - bx * g.edge));
        acc[b].ey = nd >= 2 ? static_cast<double>(std::min<std::size_t>(
                                  g.edge, ny - by * g.edge))
                            : 1.0;
        acc[b].ez = nd == 3 ? static_cast<double>(std::min<std::size_t>(
                                  g.edge, nz - bz * g.edge))
                            : 1.0;
      }

  // Closed-form slopes: b1 = cov(v, lx) / var(lx) with
  // var(lx) = (ex^2 - 1) / 12 per point over a full axis.
  auto fit = [&](const Acc& a, double coeffs_out[4]) {
    double mean_x = (a.ex - 1) / 2, mean_y = (a.ey - 1) / 2,
           mean_z = (a.ez - 1) / 2;
    double var_x = (a.ex * a.ex - 1) / 12.0;
    double var_y = (a.ey * a.ey - 1) / 12.0;
    double var_z = (a.ez * a.ez - 1) / 12.0;
    double mean_v = a.sum_v / a.n;
    double b1 = var_x > 0 ? (a.sum_vx / a.n - mean_v * mean_x) / var_x : 0;
    double b2 = var_y > 0 ? (a.sum_vy / a.n - mean_v * mean_y) / var_y : 0;
    double b3 = var_z > 0 ? (a.sum_vz / a.n - mean_v * mean_z) / var_z : 0;
    coeffs_out[0] = mean_v - b1 * mean_x - b2 * mean_y - b3 * mean_z;
    coeffs_out[1] = b1;
    coeffs_out[2] = b2;
    coeffs_out[3] = b3;
  };

  std::vector<double> fitted(nblocks * 4);
  for (std::size_t b = 0; b < nblocks; ++b)
    fit(acc[b], fitted.data() + 4 * b);

  // Pass 2: compare sampled absolute prediction errors. Lorenzo is
  // estimated on original values (its compression-time accuracy is close
  // for bounded errors).
  std::vector<double> err_reg(nblocks, 0), err_lor(nblocks, 0);
  idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        std::size_t b = g.block_of(z, y, x);
        double v = static_cast<double>(data[idx]);
        const double* c = fitted.data() + 4 * b;
        double rp = c[0] + c[1] * static_cast<double>(x % g.edge) +
                    c[2] * static_cast<double>(y % g.edge) +
                    c[3] * static_cast<double>(z % g.edge);
        err_reg[b] += std::abs(v - rp);
        err_lor[b] += std::abs(v - lorenzo_predict(data.data(), g, z, y, x,
                                                   idx));
      }

  RegPlan<T> plan;
  plan.use_reg.resize(nblocks);
  // In-sample regression error flatters the fit, and regression pays for
  // its stored coefficients, so require a decisive win over Lorenzo.
  for (std::size_t b = 0; b < nblocks; ++b)
    plan.use_reg[b] =
        std::isfinite(err_reg[b]) && err_reg[b] < 0.5 * err_lor[b] ? 1 : 0;
  plan.coeff_off.assign(nblocks, SIZE_MAX);
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (!plan.use_reg[b]) continue;
    plan.coeff_off[b] = plan.coeffs.size();
    const double* c = fitted.data() + 4 * b;
    plan.coeffs.push_back(static_cast<T>(c[0]));
    plan.coeffs.push_back(static_cast<T>(c[1]));
    if (nd >= 2) plan.coeffs.push_back(static_cast<T>(c[2]));
    if (nd == 3) plan.coeffs.push_back(static_cast<T>(c[3]));
  }
  return plan;
}

/// Interior rows advanced together by the 3-D wavefront sweeps. Four lanes
/// cover the quantizer's div+round+narrow latency chain on current cores;
/// wider fronts spill the sliding stencil state out of registers.
constexpr int kWavefrontRows = 4;

/// Row-progress handshake of the plane-pipelined 3-D sweeps. Point (z, y, x)
/// reads plane z - 1 only at rows y - 1 and y, so plane z can start row y
/// as soon as plane z - 1 has finished rows [0, y]. run() hands planes out
/// in order (parallel_for with grain 1 takes blocks from one counter), and
/// a worker only ever waits on a plane that a running task took earlier,
/// so the waits cannot deadlock. A nested pool-worker caller, or
/// threads == 1, runs the planes inline in order and never waits.
class PlanePipeline {
 public:
  explicit PlanePipeline(std::size_t nz) : done_(nz) {}

  /// Block until plane z - 1 has finished its first `rows` rows: a short
  /// spin, then yields.
  void wait(std::size_t z, std::size_t rows) const {
    if (z == 0) return;
    const std::atomic<std::size_t>& done = done_[z - 1].rows;
    for (unsigned spins = 0; done.load(std::memory_order_acquire) < rows;
         ++spins) {
      if (failed_.load(std::memory_order_relaxed)) throw Aborted{};
      if (spins >= kSpins) std::this_thread::yield();
    }
  }

  /// Plane z has finished its first `rows` rows.
  void publish(std::size_t z, std::size_t rows) {
    done_[z].rows.store(rows, std::memory_order_release);
  }

  /// plane(z) for every z, on at most `threads` workers (0 => default); a
  /// single task runs all planes in order. A plane that throws releases
  /// the planes waiting on it, and its exception is the one rethrown.
  void run(std::size_t threads,
           const std::function<void(std::size_t)>& plane) {
    ParallelOptions opts;
    opts.max_threads = threads;
    opts.grain = 1;
    std::mutex mu;
    std::exception_ptr error;
    try {
      parallel_for(
          done_.size(),
          [&](std::size_t b, std::size_t e) {
            try {
              for (std::size_t z = b; z < e; ++z) plane(z);
            } catch (const Aborted&) {
              throw;
            } catch (...) {
              {
                std::lock_guard lk(mu);
                if (!error) error = std::current_exception();
              }
              failed_.store(true, std::memory_order_relaxed);
              throw;
            }
          },
          opts);
    } catch (...) {
      if (error) std::rethrow_exception(error);
      throw;
    }
  }

 private:
  struct Aborted {};
  struct alignas(64) Progress {
    std::atomic<std::size_t> rows{0};
  };
  static constexpr unsigned kSpins = 256;

  std::vector<Progress> done_;
  std::atomic<bool> failed_{false};
};

/// The row schedule both 3-D kAbs sweeps share, run plane-pipelined.
/// boundary_row(z, y) takes the rows with a reduced stencil (every row of
/// plane 0, row 0 of the others), block(z, y) takes rows
/// [y, y + kWavefrontRows) when rows are at least that long, and row(z, y)
/// takes the rest one at a time.
template <typename BoundaryRow, typename Block, typename Row>
void sweep_planes(const Geometry& g, std::size_t threads,
                  const BoundaryRow& boundary_row, const Block& block,
                  const Row& row) {
  const std::size_t ny = g.dims[1];
  const bool blocks = g.dims[2] >= kWavefrontRows;
  PlanePipeline pipe(g.dims[0]);
  pipe.run(threads, [&](std::size_t z) {
    std::size_t y = 0;
    const auto advance = [&](std::size_t rows, const auto& sweep) {
      pipe.wait(z, y + rows);
      sweep(z, y);
      y += rows;
      pipe.publish(z, y);
    };
    while (y < (z == 0 ? ny : 1)) advance(1, boundary_row);
    while (blocks && y + kWavefrontRows <= ny) advance(kWavefrontRows, block);
    while (y < ny) advance(1, row);
  });
}

/// Native-dispatch kAbs encode of a 3-D field, plane-pipelined. Boundary
/// rows keep the checked per-point path; the other rows advance
/// kWavefrontRows at a time in a staggered front (lorenzo_quant_wavefront3:
/// lane l trails lane l - 1 by one column, so W reconstructed-value
/// recurrences are in flight instead of one), and leftover rows run x == 0
/// per point plus the interior run kernel. Every point evaluates the same
/// expressions as the generic sweep in an order that respects every data
/// dependency, so codes and recon are bit-identical to it for every thread
/// count.
template <typename T>
void encode_planes(std::span<const T> data, const Geometry& g, double eb,
                   std::uint32_t radius, std::uint32_t* codes, T* recon,
                   std::size_t threads) {
  const std::size_t nx = g.dims[2];
  const double two_eb = 2.0 * eb;
  const double threshold = (static_cast<double>(radius) - 0.5) * 2.0 * eb;
  const auto radius_i = static_cast<std::int64_t>(radius);
  const auto row_at = [&](std::size_t z, std::size_t y) {
    return z * g.stride_z + y * g.stride_y;
  };
  const auto point = [&](std::size_t z, std::size_t y, std::size_t x) {
    const std::size_t i = row_at(z, y) + x;
    const double pred = kernels::lorenzo_predict(recon, 3, g.stride_y,
                                                 g.stride_z, z, y, x, i);
    const auto qs = kernels::quantize_point<T>(data[i], pred, eb, two_eb,
                                               threshold, radius_i);
    codes[i] = qs.code;
    recon[i] = qs.recon;
  };
  sweep_planes(
      g, threads,
      [&](std::size_t z, std::size_t y) {
        for (std::size_t x = 0; x < nx; ++x) point(z, y, x);
      },
      [&](std::size_t z, std::size_t y) {
        kernels::lorenzo_quant_wavefront3<T, kWavefrontRows>(
            data.data(), recon, codes, row_at(z, y), nx, g.stride_y,
            g.stride_z, eb, two_eb, threshold, radius_i);
      },
      [&](std::size_t z, std::size_t y) {
        point(z, y, 0);
        if (nx > 1)
          kernels::lorenzo_quant_run<3>(data.data(), recon, codes,
                                        row_at(z, y) + 1, nx - 1, g.stride_y,
                                        g.stride_z, eb, two_eb, threshold,
                                        radius_i);
      });
}

/// Decode mirror of encode_planes. Each row's outliers start at the number
/// of zero codes before it in raster order, counted in parallel up front;
/// a count that disagrees with the outlier section is rejected before the
/// sweep starts, so no row reads past its share of the stream.
template <typename T>
void decode_planes(const std::uint32_t* codes, const Geometry& g, double eb,
                   std::uint32_t radius, const std::vector<T>& outliers,
                   T* recon, std::size_t threads) {
  const std::size_t ny = g.dims[1], nx = g.dims[2];
  const std::size_t rows = g.dims[0] * ny;
  const double two_eb = 2.0 * eb;
  const auto radius_i = static_cast<std::int64_t>(radius);

  std::vector<std::size_t> row_start(rows + 1, 0);
  ParallelOptions count_opts;
  count_opts.max_threads = threads;
  count_opts.grain = std::max<std::size_t>(1, (std::size_t{1} << 16) / nx);
  parallel_for(
      rows,
      [&](std::size_t b, std::size_t e) {
        for (std::size_t r = b; r < e; ++r)
          row_start[r + 1] = static_cast<std::size_t>(
              std::count(codes + r * nx, codes + (r + 1) * nx, 0u));
      },
      count_opts);
  for (std::size_t r = 0; r < rows; ++r) row_start[r + 1] += row_start[r];
  if (row_start.back() > outliers.size())
    throw StreamError("sz: outlier stream exhausted");
  if (row_start.back() < outliers.size())
    throw StreamError("sz: trailing outliers in stream");

  const auto row_at = [&](std::size_t z, std::size_t y) {
    return z * g.stride_z + y * g.stride_y;
  };
  const auto point = [&](std::size_t z, std::size_t y, std::size_t x,
                         std::size_t& next) {
    const std::size_t i = row_at(z, y) + x;
    const std::uint32_t code = codes[i];
    if (code == 0) {
      recon[i] = outliers[next++];
      return;
    }
    const double pred = kernels::lorenzo_predict(recon, 3, g.stride_y,
                                                 g.stride_z, z, y, x, i);
    recon[i] = kernels::dequantize_point<T>(
        pred, two_eb, static_cast<std::int64_t>(code) - radius_i);
  };
  sweep_planes(
      g, threads,
      [&](std::size_t z, std::size_t y) {
        std::size_t next = row_start[z * ny + y];
        for (std::size_t x = 0; x < nx; ++x) point(z, y, x, next);
      },
      [&](std::size_t z, std::size_t y) {
        std::size_t next[kWavefrontRows];
        std::copy_n(row_start.begin() + static_cast<std::ptrdiff_t>(z * ny + y),
                    kWavefrontRows, next);
        kernels::lorenzo_recon_wavefront3<T, kWavefrontRows>(
            codes, recon, outliers.data(), outliers.size(), next,
            row_at(z, y), nx, g.stride_y, g.stride_z, two_eb, radius_i);
      },
      [&](std::size_t z, std::size_t y) {
        std::size_t next = row_start[z * ny + y];
        point(z, y, 0, next);
        if (nx > 1)
          kernels::lorenzo_recon_run<3>(codes, recon, outliers.data(),
                                        outliers.size(), next,
                                        row_at(z, y) + 1, nx - 1, g.stride_y,
                                        g.stride_z, two_eb, radius_i);
      });
}

/// Native-dispatch encode sweep for the pure-Lorenzo path. Rows are cut
/// into constant-bound runs (whole row in kAbs mode, block-edge-aligned
/// segments in PWR mode) whose interior points run the branch-free kernel
/// with hoisted bound constants and sliding stencil loads; x == 0 and
/// reduced-stencil boundary rows (first row of a plane, first plane) keep
/// the checked per-point path. Every point evaluates the same expressions
/// as the generic sweep, so codes and recon are bit-identical. Outlier
/// VALUES are not pushed here — the caller gathers codes[i] == 0 positions
/// afterwards, which preserves the raster emission order. kAbs 3-D fields
/// go to encode_planes.
template <typename T>
void encode_sweep_tiled(std::span<const T> data, const Geometry& g, Mode mode,
                        double bound, const std::vector<std::int16_t>& exps,
                        std::uint32_t radius, std::uint32_t* codes, T* recon,
                        std::size_t threads) {
  const int nd = g.dims.nd;
  const std::size_t nz = nd == 3 ? g.dims[0] : 1;
  const std::size_t ny = nd >= 2 ? g.dims[nd - 2] : 1;
  const std::size_t nx = g.dims[nd - 1];
  const bool pwr = mode == Mode::kPwrBlock;
  const double rad2 = (static_cast<double>(radius) - 0.5) * 2.0;
  const auto radius_i = static_cast<std::int64_t>(radius);

  if (nd == 3 && !pwr) {
    encode_planes<T>(data, g, bound, radius, codes, recon, threads);
    return;
  }

  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y, idx += nx) {
      const bool boundary_row = (nd >= 2 && y == 0) || (nd == 3 && z == 0);
      std::size_t x = 0;
      while (x < nx) {
        const std::size_t xe =
            pwr ? std::min(nx, (x / g.edge + 1) * g.edge) : nx;
        const double eb =
            pwr ? block_bound(bound, exps[g.block_of(z, y, x)]) : bound;
        const double two_eb = 2.0 * eb;
        const double threshold = rad2 * eb;
        std::size_t xs = x;
        const std::size_t run_start =
            boundary_row ? xe : std::max<std::size_t>(xs, 1);
        for (; xs < run_start; ++xs) {
          const std::size_t i = idx + xs;
          const double pred = kernels::lorenzo_predict(
              recon, nd, g.stride_y, g.stride_z, z, y, xs, i);
          const auto qs = kernels::quantize_point<T>(data[i], pred, eb,
                                                     two_eb, threshold,
                                                     radius_i);
          codes[i] = qs.code;
          recon[i] = qs.recon;
        }
        if (xs < xe) {
          const std::size_t i0 = idx + xs;
          const std::size_t len = xe - xs;
          if (nd == 1)
            kernels::lorenzo_quant_run<1>(data.data(), recon, codes, i0, len,
                                          g.stride_y, g.stride_z, eb, two_eb,
                                          threshold, radius_i);
          else if (nd == 2)
            kernels::lorenzo_quant_run<2>(data.data(), recon, codes, i0, len,
                                          g.stride_y, g.stride_z, eb, two_eb,
                                          threshold, radius_i);
          else
            kernels::lorenzo_quant_run<3>(data.data(), recon, codes, i0, len,
                                          g.stride_y, g.stride_z, eb, two_eb,
                                          threshold, radius_i);
        }
        x = xe;
      }
    }
}

/// Decode mirror of encode_sweep_tiled for the fields decode_planes does
/// not take (1-D, 2-D, PWR mode). Returns the number of outliers consumed
/// (the caller checks the stream is fully drained).
template <typename T>
std::size_t decode_sweep_tiled(const std::uint32_t* codes, const Geometry& g,
                               Mode mode, double bound,
                               const std::vector<std::int16_t>& exps,
                               std::uint32_t radius,
                               const std::vector<T>& outliers, T* recon) {
  const int nd = g.dims.nd;
  const std::size_t nz = nd == 3 ? g.dims[0] : 1;
  const std::size_t ny = nd >= 2 ? g.dims[nd - 2] : 1;
  const std::size_t nx = g.dims[nd - 1];
  const bool pwr = mode == Mode::kPwrBlock;
  const auto radius_i = static_cast<std::int64_t>(radius);
  std::size_t outlier_next = 0;
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y, idx += nx) {
      const bool boundary_row = (nd >= 2 && y == 0) || (nd == 3 && z == 0);
      std::size_t x = 0;
      while (x < nx) {
        const std::size_t xe =
            pwr ? std::min(nx, (x / g.edge + 1) * g.edge) : nx;
        const double eb =
            pwr ? block_bound(bound, exps[g.block_of(z, y, x)]) : bound;
        const double two_eb = 2.0 * eb;
        std::size_t xs = x;
        const std::size_t run_start =
            boundary_row ? xe : std::max<std::size_t>(xs, 1);
        for (; xs < run_start; ++xs) {
          const std::size_t i = idx + xs;
          const std::uint32_t code = codes[i];
          if (code == 0) {
            if (outlier_next >= outliers.size())
              throw StreamError("sz: outlier stream exhausted");
            recon[i] = outliers[outlier_next++];
            continue;
          }
          const double pred = kernels::lorenzo_predict(
              recon, nd, g.stride_y, g.stride_z, z, y, xs, i);
          recon[i] = kernels::dequantize_point<T>(
              pred, two_eb, static_cast<std::int64_t>(code) - radius_i);
        }
        if (xs < xe) {
          const std::size_t i0 = idx + xs;
          const std::size_t len = xe - xs;
          if (nd == 1)
            kernels::lorenzo_recon_run<1>(codes, recon, outliers.data(),
                                          outliers.size(), outlier_next, i0,
                                          len, g.stride_y, g.stride_z, two_eb,
                                          radius_i);
          else if (nd == 2)
            kernels::lorenzo_recon_run<2>(codes, recon, outliers.data(),
                                          outliers.size(), outlier_next, i0,
                                          len, g.stride_y, g.stride_z, two_eb,
                                          radius_i);
          else
            kernels::lorenzo_recon_run<3>(codes, recon, outliers.data(),
                                          outliers.size(), outlier_next, i0,
                                          len, g.stride_y, g.stride_z, two_eb,
                                          radius_i);
        }
        x = xe;
      }
    }
  return outlier_next;
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params) {
  validate(params, dims);
  if (data.size() != dims.count())
    throw ParamError("sz: data size does not match dims");
  obs::Span compress_span("sz.compress");

  Params p = params;
  if (p.mode == Mode::kPwrBlock && p.block_edge == 0)
    p.block_edge = default_block_edge(dims.nd);
  Geometry g(dims, p.mode == Mode::kPwrBlock ? p.block_edge : 1);

  std::vector<std::int16_t> exps;
  if (p.mode == Mode::kPwrBlock) exps = block_exponents<T>(data, g);

  const bool hybrid = p.predictor == Predictor::kAuto;
  Geometry rg(dims, hybrid ? default_regression_edge(dims.nd) : 1);
  RegPlan<T> reg;
  if (hybrid) reg = build_regression_plan<T>(data, rg);

  const std::uint32_t radius = p.quant_intervals / 2;
  std::vector<std::uint32_t> codes(data.size());
  std::vector<T> outliers;
  std::vector<T> recon(data.size());

  const std::size_t nz = dims.nd == 3 ? dims[0] : 1;
  const std::size_t ny = dims.nd >= 2 ? dims[dims.nd - 2] : 1;
  const std::size_t nx = dims[dims.nd - 1];

  {
  obs::Span predict_span("predict");
  if (!hybrid && kernels::active() == kernels::Dispatch::kNative) {
    encode_sweep_tiled<T>(data, g, p.mode, p.bound, exps, radius,
                          codes.data(), recon.data(), p.threads);
    // The sweep only marks outliers; gather their values in the same raster
    // order the per-point path pushes them.
    for (std::size_t i = 0; i < codes.size(); ++i)
      if (codes[i] == 0) outliers.push_back(data[i]);
  } else {
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        const double eb = p.mode == Mode::kPwrBlock
                              ? block_bound(p.bound, exps[g.block_of(z, y, x)])
                              : p.bound;
        double pred;
        std::size_t rb = 0;
        if (hybrid && (rb = rg.block_of(z, y, x), reg.regression_for(rb)))
          pred = reg.predict(rb, dims.nd, z % rg.edge, y % rg.edge,
                             x % rg.edge);
        else
          pred = lorenzo_predict(recon.data(), g, z, y, x, idx);
        const auto qs = kernels::quantize_point<T>(
            data[idx], pred, eb, 2.0 * eb,
            (static_cast<double>(radius) - 0.5) * 2.0 * eb,
            static_cast<std::int64_t>(radius));
        codes[idx] = qs.code;
        recon[idx] = qs.recon;
        if (qs.code == 0) outliers.push_back(data[idx]);
      }
  }
  }
  obs::counter_add("sz.outliers", outliers.size());

  // Entropy stage: block-parallel Huffman over the quantization codes (the
  // v2 container), then optionally LZ over the coded bytes.
  std::vector<std::uint8_t> coded;
  std::uint8_t codes_format = kCodesBlocked;
  {
    obs::Span entropy_span("entropy_encode");
    coded = lossless::blocked_encode(codes, p.quant_intervals, p.threads);
    if (sz_detail::maybe_lz(coded, p.lz_stage, p.threads))
      codes_format |= kCodesLz;
  }

  ByteWriter out;
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(dims.nd));
  out.put(static_cast<std::uint8_t>(p.mode));
  out.put(codes_format);
  out.put(static_cast<std::uint8_t>(p.predictor));
  for (int i = 0; i < 3; ++i)
    out.put(static_cast<std::uint64_t>(dims.d[static_cast<std::size_t>(i)]));
  out.put(p.bound);
  out.put(p.quant_intervals);
  out.put(p.block_edge);

  if (hybrid) {
    out.put(static_cast<std::uint32_t>(rg.edge));
    out.put_sized(lossless::compress(reg.use_reg, p.threads));
    out.put_sized(lossless::compress(
        {reinterpret_cast<const std::uint8_t*>(reg.coeffs.data()),
         reg.coeffs.size() * sizeof(T)},
        p.threads));
  }

  if (p.mode == Mode::kPwrBlock) {
    auto exp_bytes = lossless::compress(
        {reinterpret_cast<const std::uint8_t*>(exps.data()),
         exps.size() * sizeof(std::int16_t)},
        p.threads);
    out.put_sized(exp_bytes);
  }
  out.put_sized(coded);
  out.put_sized(
      lossless::compress(sz_detail::encode_outliers(outliers), p.threads));
  return out.take();
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out, std::size_t threads) {
  obs::Span decompress_span("sz.decompress");
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("sz: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("sz: stream data type does not match requested type");
  int nd = in.get<std::uint8_t>();
  std::uint8_t mode_byte = in.get<std::uint8_t>();
  if (mode_byte > static_cast<std::uint8_t>(Mode::kPwrBlock))
    throw StreamError("sz: unknown mode byte");
  auto mode = static_cast<Mode>(mode_byte);
  std::uint8_t codes_format = in.get<std::uint8_t>();
  if (codes_format > (kCodesLz | kCodesBlocked))
    throw StreamError("sz: unknown codes format byte");
  const bool lz_applied = codes_format & kCodesLz;
  const bool blocked = codes_format & kCodesBlocked;
  std::uint8_t pred_byte = in.get<std::uint8_t>();
  if (pred_byte > static_cast<std::uint8_t>(Predictor::kAuto))
    throw StreamError("sz: unknown predictor byte");
  auto predictor = static_cast<Predictor>(pred_byte);
  const Dims dims = read_dims(nd, in, "sz");
  const std::size_t n = dims.count();
  check_decode_alloc(n, sizeof(T), "sz");
  double bound = in.get<double>();
  std::uint32_t intervals = in.get<std::uint32_t>();
  std::uint32_t block_edge = in.get<std::uint32_t>();
  if (mode == Mode::kPwrBlock && block_edge == 0)
    throw StreamError("sz: zero block edge in PWR mode");
  if (dims_out) *dims_out = dims;

  Geometry g(dims, mode == Mode::kPwrBlock ? block_edge : 1);

  const bool hybrid = predictor == Predictor::kAuto;
  std::uint32_t reg_edge = 1;
  RegPlan<T> reg;
  if (hybrid) {
    reg_edge = in.get<std::uint32_t>();
    if (reg_edge == 0) throw StreamError("sz: bad regression edge");
    reg.use_reg = lossless::decompress(in.get_sized(), threads);
    auto coeff_bytes = lossless::decompress(in.get_sized(), threads);
    if (coeff_bytes.size() % sizeof(T) != 0)
      throw StreamError("sz: regression coefficient size mismatch");
    reg.coeffs.resize(coeff_bytes.size() / sizeof(T));
    // An empty table (no regression blocks) has no data pointer to copy to.
    if (!coeff_bytes.empty())
      std::memcpy(reg.coeffs.data(), coeff_bytes.data(), coeff_bytes.size());
    reg.index(nd);
    // The choice bitmap decides how many coefficient tuples predict() will
    // dereference; a corrupt bitmap must not point past the stored table.
    std::size_t reg_blocks = 0;
    for (auto u : reg.use_reg)
      if (u) ++reg_blocks;
    if (reg_blocks * (static_cast<std::size_t>(nd) + 1) > reg.coeffs.size())
      throw StreamError("sz: regression plan references missing coefficients");
  }
  Geometry rg(dims, hybrid ? reg_edge : 1);
  if (hybrid && reg.use_reg.size() != rg.num_blocks())
    throw StreamError("sz: regression plan size mismatch");
  std::vector<std::int16_t> exps;
  if (mode == Mode::kPwrBlock) {
    auto exp_bytes = lossless::decompress(in.get_sized(), threads);
    if (exp_bytes.size() != g.num_blocks() * sizeof(std::int16_t))
      throw StreamError("sz: block exponent section size mismatch");
    exps.resize(g.num_blocks());
    std::memcpy(exps.data(), exp_bytes.data(), exp_bytes.size());
  }

  auto coded_span = in.get_sized();
  std::vector<std::uint8_t> coded_store;
  if (lz_applied) {
    coded_store = lossless::decompress(coded_span, threads);
    coded_span = coded_store;
  }
  auto outlier_bytes = lossless::decompress(in.get_sized(), threads);
  std::vector<T> outliers = sz_detail::decode_outliers<T>(outlier_bytes);

  // Every point costs at least one Huffman bit, so the element count is
  // bounded by the coded section; reject inflated dims before the big
  // reconstruction allocation.
  if (n > coded_span.size() * 8)
    throw StreamError("sz: dims exceed coded stream capacity");
  BitReader br(coded_span);
  HuffmanCoder huff;
  std::vector<std::uint32_t> decoded_codes;
  {
    obs::Span entropy_span("entropy_decode");
    if (blocked) {
      // v2: fan the entropy blocks out in parallel up front; the
      // reconstruction sweep below then reads plain indices.
      decoded_codes = lossless::blocked_decode(coded_span, threads);
      if (decoded_codes.size() != n)
        throw StreamError("sz: blocked code count does not match dims");
    } else {
      huff.read_table(br);
    }
  }

  obs::Span recon_span("reconstruct");
  const std::uint32_t radius = intervals / 2;
  std::vector<T> recon(n);
  const std::size_t nz = dims.nd == 3 ? dims[0] : 1;
  const std::size_t ny = dims.nd >= 2 ? dims[dims.nd - 2] : 1;
  const std::size_t nx = dims[dims.nd - 1];
  std::size_t outlier_next = 0;
  if (!hybrid && blocked &&
      kernels::active() == kernels::Dispatch::kNative) {
    if (nd == 3 && mode == Mode::kAbs) {
      decode_planes<T>(decoded_codes.data(), g, bound, radius, outliers,
                       recon.data(), threads);
      outlier_next = outliers.size();
    } else {
      outlier_next = decode_sweep_tiled<T>(decoded_codes.data(), g, mode,
                                           bound, exps, radius, outliers,
                                           recon.data());
    }
  } else {
  std::size_t idx = 0;
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x, ++idx) {
        std::uint32_t code = blocked ? decoded_codes[idx] : huff.decode(br);
        if (code == 0) {
          if (outlier_next >= outliers.size())
            throw StreamError("sz: outlier stream exhausted");
          recon[idx] = outliers[outlier_next++];
          continue;
        }
        const double eb = mode == Mode::kPwrBlock
                              ? block_bound(bound, exps[g.block_of(z, y, x)])
                              : bound;
        double pred;
        std::size_t rb = 0;
        if (hybrid && (rb = rg.block_of(z, y, x), reg.regression_for(rb)))
          pred = reg.predict(rb, dims.nd, z % rg.edge, y % rg.edge,
                             x % rg.edge);
        else
          pred = lorenzo_predict(recon.data(), g, z, y, x, idx);
        recon[idx] = kernels::dequantize_point<T>(
            pred, 2.0 * eb,
            static_cast<std::int64_t>(code) -
                static_cast<std::int64_t>(radius));
      }
  }
  if (outlier_next != outliers.size())
    throw StreamError("sz: trailing outliers in stream");
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

}  // namespace sz

namespace sz_detail {

bool maybe_lz(std::vector<std::uint8_t>& coded, bool enabled,
              std::size_t threads) {
  if (!enabled || coded.size() <= 64) return false;
  std::uint32_t hist[256] = {};
  const std::size_t step = std::max<std::size_t>(1, coded.size() / 8192);
  std::size_t samples = 0;
  for (std::size_t i = 0; i < coded.size(); i += step, ++samples)
    ++hist[coded[i]];
  double entropy = 0;
  for (std::uint32_t h : hist)
    if (h) {
      double f = static_cast<double>(h) / static_cast<double>(samples);
      entropy -= f * std::log2(f);
    }
  if (entropy >= 7.2) return false;
  auto squeezed = lossless::compress(coded, threads);
  if (squeezed.size() >= coded.size()) return false;
  coded = std::move(squeezed);
  return true;
}

}  // namespace sz_detail
}  // namespace transpwr
