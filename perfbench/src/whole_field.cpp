// whole_field: the paper's single-snapshot path. make_compressor(SZ_T |
// ZFP_T)->compress then decompress_f32 at br = 1e-3 and default threads,
// on a NYX dark-matter density cube (positive, heavy tail, exact zeros)
// and a HACC particle velocity (1-D, about half negative). The traced run
// times the layers underneath from outside: the log map, the exp2 kernel,
// the inner SZ / ZFP codecs on the mapped field, and SZ_T at one thread.
#include <algorithm>
#include <string>
#include <vector>

#include "core/compressor.h"
#include "core/log_transform.h"
#include "core/transformed.h"
#include "data/generators.h"
#include "harness.h"
#include "kernels/log_batch.h"
#include "sz/sz.h"
#include "zfp/zfp.h"

namespace perfbench {

namespace {

using transpwr::Dims;
using transpwr::Field;
using transpwr::Scheme;

constexpr Scheme kSchemes[] = {Scheme::kSzT, Scheme::kZfpT};

std::vector<Field<float>> make_inputs(const Options& opts) {
  const Dims nyx = opts.tiny ? Dims(64, 16, 16) : Dims(192, 160, 160);
  const std::size_t particles = opts.tiny ? (1u << 15) : (1u << 22);
  std::vector<Field<float>> in;
  in.push_back(transpwr::gen::nyx_dark_matter_density(
      nyx, derive_seed(opts.seed, 1)));
  in.push_back(
      transpwr::gen::hacc_velocity(particles, derive_seed(opts.seed, 2)));
  return in;
}

/// Round-trip the first 1/64 of every input through every scheme so pool
/// threads exist and allocator arenas are warm before timing starts.
void warm_up(const std::vector<Field<float>>& inputs) {
  for (const auto& f : inputs) {
    Dims d = f.dims;
    d.d[0] = std::max<std::size_t>(1, d[0] / 64);
    auto head = f.span().subspan(0, d.count());
    for (Scheme s : kSchemes) {
      auto comp = transpwr::make_compressor(s);
      auto stream = comp->compress(head, d, transpwr::CompressorParams{});
      auto back = comp->decompress_f32(stream);
      if (back.size() != head.size())
        throw transpwr::StreamError("warm-up round trip lost elements");
    }
  }
}

/// One end-to-end pass: every input through every scheme.
struct PassResult {
  double compress_s = 0;
  double decompress_s = 0;
  double in_bytes = 0;
  double out_bytes = 0;
  // Per (input, scheme) wall times.
  std::vector<double> compress_walls;
  std::vector<double> decompress_walls;
};

PassResult end_to_end_pass(WorkloadContext& ctx,
                           const std::vector<Field<float>>& inputs) {
  PassResult r;
  Trace::Span pass(ctx.trace, "e2e");
  transpwr::CompressorParams params;
  params.bound = kRelBound;
  for (const auto& f : inputs) {
    for (Scheme s : kSchemes) {
      auto comp = transpwr::make_compressor(s);
      const std::string name = transpwr::scheme_name(s);
      bool ok = false;
      double c = 0, d = 0;
      try {
        std::vector<std::uint8_t> stream;
        {
          Trace::Span span(ctx.trace, name + ".compress");
          stream = comp->compress(f.span(), f.dims, params);
          c = span.stop();
        }
        std::vector<float> back;
        {
          Trace::Span span(ctx.trace, name + ".decompress");
          back = comp->decompress_f32(stream);
          d = span.stop();
        }
        ok = within_bound(f.span(), back, kRelBound);
        r.out_bytes += static_cast<double>(stream.size());
      } catch (const std::exception&) {
        ok = false;
      }
      ctx.tally.record(ok);
      r.compress_s += c;
      r.decompress_s += d;
      r.in_bytes += static_cast<double>(f.bytes());
      r.compress_walls.push_back(c);
      r.decompress_walls.push_back(d);
    }
  }
  return r;
}

/// Per-layer times of one traced pass, summed over the inputs.
struct LayerTimes {
  double log_fwd = 0, log_fwd_t1 = 0, log_inv = 0, log_inv_t1 = 0;
  double exp2_s = 0, exp2_elems = 0;
  double sz_c = 0, sz_d = 0, zfp_c = 0, zfp_d = 0;
  double szt_c_t1 = 0, szt_d_t1 = 0;
};

LayerTimes layer_pass(WorkloadContext& ctx,
                      const std::vector<Field<float>>& inputs) {
  LayerTimes t;
  Trace::Span pass(ctx.trace, "layers");
  for (const auto& f : inputs) {
    transpwr::TransformResult<float> tr;
    {
      Trace::Span s(ctx.trace, "core.log_forward");
      tr = transpwr::log_forward<float>(f.span(), kRelBound, 2.0, 0);
      t.log_fwd += s.stop();
    }
    {
      Trace::Span s(ctx.trace, "core.log_forward_t1");
      auto one = transpwr::log_forward<float>(f.span(), kRelBound, 2.0, 1);
      t.log_fwd_t1 += s.stop();
    }
    {
      Trace::Span s(ctx.trace, "core.log_inverse");
      auto back = transpwr::log_inverse<float>(tr.mapped, tr.negative, 2.0,
                                               tr.zero_threshold, 0);
      t.log_inv += s.stop();
    }
    {
      Trace::Span s(ctx.trace, "core.log_inverse_t1");
      auto back = transpwr::log_inverse<float>(tr.mapped, tr.negative, 2.0,
                                               tr.zero_threshold, 1);
      t.log_inv_t1 += s.stop();
    }
    {
      // The exp2 kernel over the same float field the pipeline maps, one
      // cache-sized block at a time (widening to the kernel's double
      // operands is not timed).
      Trace::Span s(ctx.trace, "kernels.exp2_scaled_batch");
      constexpr std::size_t kBlock = 1 << 14;
      std::vector<double> in(kBlock), out(kBlock);
      double busy = 0;
      for (std::size_t b = 0; b < tr.mapped.size(); b += kBlock) {
        const std::size_t n = std::min(kBlock, tr.mapped.size() - b);
        std::copy_n(tr.mapped.begin() + static_cast<std::ptrdiff_t>(b), n,
                    in.begin());
        const auto t0 = Clock::now();
        transpwr::kernels::exp2_scaled_batch(in.data(), out.data(), n, 1.0);
        busy += seconds_between(t0, Clock::now());
      }
      s.stop();
      t.exp2_s += busy;
      t.exp2_elems += static_cast<double>(tr.mapped.size());
    }
    {
      transpwr::sz::Params sp;
      sp.mode = transpwr::sz::Mode::kAbs;
      sp.bound = tr.adjusted_abs_bound;
      std::vector<std::uint8_t> stream;
      {
        Trace::Span s(ctx.trace, "sz.compress");
        stream = transpwr::sz::compress<float>(tr.mapped, f.dims, sp);
        t.sz_c += s.stop();
      }
      Trace::Span s(ctx.trace, "sz.decompress");
      auto back = transpwr::sz::decompress<float>(stream);
      t.sz_d += s.stop();
    }
    {
      transpwr::zfp::Params zp;
      zp.mode = transpwr::zfp::Mode::kAccuracy;
      zp.tolerance = tr.adjusted_abs_bound;
      std::vector<std::uint8_t> stream;
      {
        Trace::Span s(ctx.trace, "zfp.compress");
        stream = transpwr::zfp::compress<float>(tr.mapped, f.dims, zp);
        t.zfp_c += s.stop();
      }
      Trace::Span s(ctx.trace, "zfp.decompress");
      auto back = transpwr::zfp::decompress<float>(stream);
      t.zfp_d += s.stop();
    }
    {
      transpwr::TransformedParams tp;
      tp.rel_bound = kRelBound;
      tp.threads = 1;
      std::vector<std::uint8_t> stream;
      {
        Trace::Span s(ctx.trace, "szt.compress_t1");
        stream = transpwr::transformed_compress<float>(
            f.span(), f.dims, transpwr::InnerCodec::kSz, tp);
        t.szt_c_t1 += s.stop();
      }
      std::vector<float> back;
      {
        Trace::Span s(ctx.trace, "szt.decompress_t1");
        back = transpwr::transformed_decompress<float>(stream, nullptr,
                                                       nullptr, 1);
        t.szt_d_t1 += s.stop();
      }
      ctx.tally.record(within_bound(f.span(), back, kRelBound));
    }
  }
  return t;
}

}  // namespace

void run_whole_field(WorkloadContext& ctx) {
  const Options& opts = ctx.opts;

  // --- set-up, repeated so setup_s is a median.
  std::vector<Field<float>> inputs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    inputs = make_inputs(opts);
    warm_up(inputs);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  double in_bytes = 0, elems = 0;
  for (const auto& f : inputs) {
    in_bytes += static_cast<double>(f.bytes());
    elems += static_cast<double>(f.values.size());
    ctx.meta.emplace_back("input." + f.name,
                          f.dims.to_string() + " f32, " +
                              std::to_string(f.bytes()) + " bytes");
  }
  ctx.meta.emplace_back("input_bytes", std::to_string(
                                           static_cast<long long>(in_bytes)));
  ctx.meta.emplace_back("input_elements",
                        std::to_string(static_cast<long long>(elems)));

  if (!opts.trace) {
    std::vector<std::vector<double>> c_walls, d_walls;
    std::vector<double> ratio;
    double pass_bytes = 0;
    repeat_for(opts.seconds, 3, [&](std::size_t) {
      PassResult r = end_to_end_pass(ctx, inputs);
      c_walls.push_back(r.compress_walls);
      d_walls.push_back(r.decompress_walls);
      pass_bytes = r.in_bytes;
      ratio.push_back(r.out_bytes > 0 ? r.in_bytes / r.out_bytes : 0);
    });
    ctx.meta.emplace_back("ops.compress_s", op_medians(c_walls));
    ctx.meta.emplace_back("ops.decompress_s", op_medians(d_walls));
    ctx.meta.emplace_back("passes", std::to_string(c_walls.size()));
    ctx.values["setup_s"] = median(setup_s);
    ctx.values["compress_mbs"] = pass_bytes / sum_of_op_medians(c_walls) / kMB;
    ctx.values["decompress_mbs"] =
        pass_bytes / sum_of_op_medians(d_walls) / kMB;
    ctx.values["ratio"] = median(ratio);
    // A read is one whole-field decompress; its latency is its median
    // across passes, and the quantiles run over the workload's reads.
    const std::vector<double> read_s = per_op_medians(d_walls);
    ctx.values["read_p50_ms"] = quantile(read_s, 0.50) * 1e3;
    ctx.values["read_p99_ms"] = quantile(read_s, 0.99) * 1e3;
    ctx.values["peak_rss_mb"] = peak_rss_mib();
    return;
  }

  // --- traced run: passes alternate obs recording off/on (the difference
  // is the tracing overhead); every pass also times the layers.
  std::vector<double> e2e_plain, e2e_traced;
  std::vector<double> log_fwd, log_fwd_t1, log_inv, log_inv_t1, exp2;
  std::vector<double> sz_c, sz_d, zfp_c, zfp_d, glue_c, glue_d;
  std::vector<double> szt_c_t1, szt_d_t1, speedup, outliers;
  repeat_for(opts.seconds, 2, [&](std::size_t rep) {
    Trace::Span rep_span(ctx.trace, "whole_field.pass");
    const bool recording = rep % 2 == 1;
    obs::set_enabled(recording);
    const std::uint64_t outliers_before =
        obs_counter(obs::snapshot(), "sz.outliers");
    PassResult r = end_to_end_pass(ctx, inputs);
    const double e2e = r.compress_s + r.decompress_s;
    if (recording) {
      e2e_traced.push_back(e2e);
      outliers.push_back(static_cast<double>(
          obs_counter(obs::snapshot(), "sz.outliers") - outliers_before));
    } else {
      e2e_plain.push_back(e2e);
    }
    obs::set_enabled(false);

    LayerTimes t = layer_pass(ctx, inputs);
    log_fwd.push_back(t.log_fwd);
    log_fwd_t1.push_back(t.log_fwd_t1);
    log_inv.push_back(t.log_inv);
    log_inv_t1.push_back(t.log_inv_t1);
    exp2.push_back(t.exp2_elems / t.exp2_s / 1e6);
    sz_c.push_back(t.sz_c);
    sz_d.push_back(t.sz_d);
    zfp_c.push_back(t.zfp_c);
    zfp_d.push_back(t.zfp_d);
    szt_c_t1.push_back(t.szt_c_t1);
    szt_d_t1.push_back(t.szt_d_t1);
    // Walls are ordered (input, scheme) with SZ_T first per input.
    double szt_d_tn = 0;
    for (std::size_t i = 0; i < r.decompress_walls.size(); i += 2)
      szt_d_tn += r.decompress_walls[i];
    speedup.push_back(t.szt_d_t1 / szt_d_tn);
    // What the Compressor call costs beyond the log map and the inner
    // codec: sign bitmap, stream headers, extra copies.
    glue_c.push_back(r.compress_s - 2 * t.log_fwd - t.sz_c - t.zfp_c);
    glue_d.push_back(r.decompress_s - 2 * t.log_inv - t.sz_d - t.zfp_d);
  });

  ctx.values["core.log_forward_s"] = median(log_fwd);
  ctx.values["core.log_forward_t1_s"] = median(log_fwd_t1);
  ctx.values["core.log_inverse_s"] = median(log_inv);
  ctx.values["core.log_inverse_t1_s"] = median(log_inv_t1);
  ctx.values["kernels.exp2_melems"] = median(exp2);
  ctx.values["sz.compress_s"] = median(sz_c);
  ctx.values["sz.decompress_s"] = median(sz_d);
  ctx.values["zfp.compress_s"] = median(zfp_c);
  ctx.values["zfp.decompress_s"] = median(zfp_d);
  ctx.values["core.glue_compress_s"] = median(glue_c);
  ctx.values["core.glue_decompress_s"] = median(glue_d);
  ctx.values["szt.compress_t1_s"] = median(szt_c_t1);
  ctx.values["szt.decompress_t1_s"] = median(szt_d_t1);
  ctx.values["szt.decompress_speedup"] = median(speedup);
  ctx.values["sz.outliers"] = median(outliers);
  ctx.values["trace.overhead_frac"] =
      median(e2e_traced) / median(e2e_plain) - 1.0;
}

}  // namespace perfbench
