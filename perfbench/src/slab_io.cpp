// slab_io: dump and restore at slab parallelism through both slab
// engines. First chunked::compress / chunked::decompress (the CLI
// `compress` path), then ArchiveWriter::add_dataset (64 chunks, summaries
// on) + finish() to a file, and a cold ArchiveReader open + load of every
// dataset with the chunk cache cleared. The inputs mix scheme, sign, zeros,
// dimensionality and dtype so a change to one engine, kernel or dtype moves
// its own share only.
#include <cstdio>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/compressor.h"
#include "data/generators.h"
#include "harness.h"
#include "parallel/chunked.h"
#include "store/archive.h"
#include "store/chunk_cache.h"

namespace perfbench {

namespace {

using transpwr::Dims;
using transpwr::Scheme;

struct Input {
  std::string name;
  Scheme scheme;
  Dims dims;
  std::vector<float> f32;   // empty for the f64 input
  std::vector<double> f64;  // empty for f32 inputs

  bool is_f64() const { return !f64.empty(); }
  std::size_t bytes() const {
    return is_f64() ? f64.size() * sizeof(double) : f32.size() * sizeof(float);
  }
};

template <typename T>
std::span<const T> data_of(const Input& in) {
  if constexpr (std::is_same_v<T, float>)
    return in.f32;
  else
    return in.f64;
}

/// Call `fn.template operator()<T>()` with the input's element type.
template <typename Fn>
auto with_dtype(const Input& in, Fn&& fn) {
  if (in.is_f64()) return fn.template operator()<double>();
  return fn.template operator()<float>();
}

std::vector<Input> make_inputs(const Options& opts) {
  const Dims nyx = opts.tiny ? Dims(64, 16, 16) : Dims(192, 160, 160);
  const std::size_t cesm_rows = opts.tiny ? 128 : 896;
  const std::size_t cesm_cols = opts.tiny ? 128 : 1800;
  std::vector<Input> in;
  auto density = transpwr::gen::nyx_dark_matter_density(
      nyx, derive_seed(opts.seed, 11));
  auto velocity = transpwr::gen::nyx_velocity(nyx,
                                              derive_seed(opts.seed, 12));
  auto precip = transpwr::gen::cesm_precipitation(
      Dims(cesm_rows, cesm_cols), derive_seed(opts.seed, 13));
  Input d64{"density_f64", Scheme::kSzT, density.dims, {}, {}};
  d64.f64.assign(density.values.begin(), density.values.end());
  in.push_back({"density", Scheme::kSzT, density.dims,
                std::move(density.values), {}});
  in.push_back({"velocity_x", Scheme::kZfpT, velocity.dims,
                std::move(velocity.values), {}});
  in.push_back({"precipitation", Scheme::kSzT, precip.dims,
                std::move(precip.values), {}});
  in.push_back(std::move(d64));
  return in;
}

transpwr::chunked::Params chunked_params(const Input& in) {
  transpwr::chunked::Params p;
  p.scheme = in.scheme;
  p.compressor.bound = kRelBound;
  return p;
}

transpwr::store::DatasetOptions dataset_options(const Input& in) {
  transpwr::store::DatasetOptions o;
  o.scheme = in.scheme;
  o.params.bound = kRelBound;
  o.rows_per_chunk = (in.dims[0] + 63) / 64;  // 64 chunks
  o.summaries = true;
  return o;
}

struct PassResult {
  double chunked_c = 0, chunked_d = 0;
  double add = 0, finish = 0, open = 0, load_f32 = 0, load_f64 = 0;
  double verify = 0;
  double in_bytes = 0, out_bytes = 0;
  std::uint64_t bytes_written = 0;
  std::vector<double> read_ms;  // one per restored field, both engines
  // Every timed op in pass order, for per-op medians across passes.
  std::vector<double> compress_ops, decompress_ops;

  double compress_s() const { return chunked_c + add + finish; }
  double decompress_s() const { return chunked_d + open + load_f32 + load_f64; }
};

PassResult pass(WorkloadContext& ctx, const std::vector<Input>& inputs,
                const std::string& path) {
  PassResult r;
  Trace& trace = ctx.trace;
  // Engine 1: the chunked container.
  {
    Trace::Span engine(trace, "chunked");
    for (const auto& in : inputs) {
      with_dtype(in, [&]<typename T>() {
        bool ok = false;
        try {
          std::vector<std::uint8_t> stream;
          {
            Trace::Span s(trace, "parallel.chunked_compress");
            stream = transpwr::chunked::compress<T>(data_of<T>(in), in.dims,
                                                    chunked_params(in));
            r.compress_ops.push_back(s.stop());
            r.chunked_c += r.compress_ops.back();
          }
          Trace::Span s(trace, "parallel.chunked_decompress");
          auto back = transpwr::chunked::decompress<T>(stream);
          const double d = s.stop();
          r.decompress_ops.push_back(d);
          r.chunked_d += d;
          r.read_ms.push_back(d * 1e3);
          r.out_bytes += static_cast<double>(stream.size());
          ok = within_bound(data_of<T>(in), back, kRelBound);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "slab_io: chunked %s: %s\n", in.name.c_str(),
                       e.what());
        }
        ctx.tally.record(ok);
      });
      r.in_bytes += static_cast<double>(in.bytes());
    }
  }
  // Engine 2: the TPAR archive, written to a file and read back cold.
  {
    Trace::Span engine(trace, "archive");
    bool written = false;
    try {
      transpwr::store::ArchiveWriter w(path);
      for (const auto& in : inputs) {
        with_dtype(in, [&]<typename T>() {
          Trace::Span s(trace, "store.add_dataset");
          w.add_dataset<T>(in.name, data_of<T>(in), in.dims,
                           dataset_options(in));
          r.compress_ops.push_back(s.stop());
          r.add += r.compress_ops.back();
        });
      }
      Trace::Span s(trace, "store.finish");
      w.finish();
      r.finish = s.stop();
      r.compress_ops.push_back(r.finish);
      r.bytes_written = w.bytes_written();
      written = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "slab_io: archive write: %s\n", e.what());
    }
    if (!written) {
      for (std::size_t i = 0; i < inputs.size(); ++i) ctx.tally.record(false);
      return r;
    }
    transpwr::store::ChunkCache::instance().clear();
    try {
      Trace::Span so(trace, "store.open");
      transpwr::store::ArchiveReader reader(path);
      r.open = so.stop();
      r.decompress_ops.push_back(r.open);
      for (const auto& in : inputs) {
        with_dtype(in, [&]<typename T>() {
          bool ok = false;
          try {
            Trace::Span s(trace, in.is_f64() ? "store.load_cold_f64"
                                             : "store.load_cold");
            auto back = reader.load<T>(in.name);
            const double d = s.stop();
            r.decompress_ops.push_back(d);
            (in.is_f64() ? r.load_f64 : r.load_f32) += d;
            r.read_ms.push_back(d * 1e3);
            r.out_bytes += static_cast<double>(
                reader.dataset(in.name).compressed_bytes());
            ok = within_bound(data_of<T>(in), back, kRelBound);
          } catch (const std::exception& e) {
            std::fprintf(stderr, "slab_io: load %s: %s\n", in.name.c_str(),
                         e.what());
          }
          ctx.tally.record(ok);
        });
      }
      if (trace.enabled()) {
        Trace::Span s(trace, "store.verify");
        reader.verify();
        r.verify = s.stop();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "slab_io: archive read: %s\n", e.what());
      ctx.tally.record(false);
    }
  }
  std::remove(path.c_str());
  return r;
}

/// Codec time of the chunked engine's slabs when each runs alone on one
/// thread: the same slab plan as chunked::compress, each slab through
/// make_compressor on a pool worker (where nested regions run inline).
struct SlabCodec {
  double compress = 0;
  double decompress = 0;
};

SlabCodec slab_codec_pass(WorkloadContext& ctx,
                          const std::vector<Input>& inputs) {
  SlabCodec sc;
  Trace::Span all(ctx.trace, "slab.codec");
  const std::size_t slabs = transpwr::default_threads();
  for (const auto& in : inputs) {
    with_dtype(in, [&]<typename T>() {
      const std::size_t rows = in.dims[0];
      const std::size_t per = (rows + slabs - 1) / slabs;
      const std::size_t row_elems = in.dims.count() / rows;
      auto all_data = data_of<T>(in);
      for (std::size_t b = 0; b < rows; b += per) {
        Dims d = in.dims;
        d.d[0] = std::min(per, rows - b);
        auto part = all_data.subspan(b * row_elems, d.count());
        run_on_pool_worker([&] {
          auto comp = transpwr::make_compressor(in.scheme);
          transpwr::CompressorParams p;
          p.bound = kRelBound;
          auto t0 = Clock::now();
          auto stream = comp->compress(part, d, p);
          auto t1 = Clock::now();
          std::vector<T> back;
          if constexpr (std::is_same_v<T, float>)
            back = comp->decompress_f32(stream);
          else
            back = comp->decompress_f64(stream);
          auto t2 = Clock::now();
          sc.compress += seconds_between(t0, t1);
          sc.decompress += seconds_between(t1, t2);
          ctx.tally.record(within_bound(part, std::span<const T>(back),
                                        kRelBound));
        });
      }
    });
  }
  return sc;
}

}  // namespace

void run_slab_io(WorkloadContext& ctx) {
  const Options& opts = ctx.opts;
  const std::string path = opts.workdir + "/slab_io.tpar";

  std::vector<Input> inputs;
  std::vector<double> setup_s;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = Clock::now();
    inputs = make_inputs(opts);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  double in_bytes = 0, elems = 0;
  for (const auto& in : inputs) {
    in_bytes += static_cast<double>(in.bytes());
    elems += static_cast<double>(in.dims.count());
    ctx.meta.emplace_back("input." + in.name,
                          in.dims.to_string() +
                              (in.is_f64() ? " f64 " : " f32 ") +
                              transpwr::scheme_name(in.scheme) + ", " +
                              std::to_string(in.bytes()) + " bytes");
  }
  ctx.meta.emplace_back("input_bytes", std::to_string(
                                           static_cast<long long>(in_bytes)));
  ctx.meta.emplace_back("input_elements",
                        std::to_string(static_cast<long long>(elems)));

  if (!opts.trace) {
    std::vector<std::vector<double>> c_ops, d_ops;
    std::vector<std::vector<double>> reads;
    std::vector<double> ratio;
    repeat_for(opts.seconds, 3, [&](std::size_t) {
      PassResult r = pass(ctx, inputs, path);
      c_ops.push_back(r.compress_ops);
      d_ops.push_back(r.decompress_ops);
      // Both engines consume every input once.
      ratio.push_back(r.out_bytes > 0 ? 2 * r.in_bytes / r.out_bytes : 0);
      reads.push_back(r.read_ms);
    });
    ctx.meta.emplace_back("ops.compress_s", op_medians(c_ops));
    ctx.meta.emplace_back("ops.decompress_s", op_medians(d_ops));
    ctx.meta.emplace_back("passes", std::to_string(c_ops.size()));
    ctx.values["setup_s"] = median(setup_s);
    ctx.values["compress_mbs"] = 2 * in_bytes / sum_of_op_medians(c_ops) / kMB;
    ctx.values["decompress_mbs"] =
        2 * in_bytes / sum_of_op_medians(d_ops) / kMB;
    ctx.values["ratio"] = median(ratio);
    // A read's latency is its median across passes; the quantiles run
    // over the workload's reads.
    const std::vector<double> read_ms = per_op_medians(reads);
    ctx.values["read_p50_ms"] = quantile(read_ms, 0.50);
    ctx.values["read_p99_ms"] = quantile(read_ms, 0.99);
    ctx.values["peak_rss_mb"] = peak_rss_mib();
    return;
  }

  const double threads = static_cast<double>(transpwr::default_threads());
  std::vector<double> e2e_plain, e2e_traced;
  std::vector<double> cc, cd, add, fin, open, load, load64, verify;
  std::vector<double> codec_c, codec_d, eff_c, eff_d;
  std::vector<double> chunks_written, bytes_written, summary_chunks, slabs;
  repeat_for(opts.seconds, 2, [&](std::size_t rep) {
    Trace::Span rep_span(ctx.trace, "slab_io.pass");
    const bool recording = rep % 2 == 1;
    obs::set_enabled(recording);
    const obs::Snapshot before = obs::snapshot();
    PassResult r = pass(ctx, inputs, path);
    const obs::Snapshot after = obs::snapshot();
    obs::set_enabled(false);
    const double e2e = r.compress_s() + r.decompress_s();
    if (recording) {
      e2e_traced.push_back(e2e);
      auto delta = [&](const char* name) {
        return static_cast<double>(obs_counter(after, name) -
                                   obs_counter(before, name));
      };
      chunks_written.push_back(delta("archive.chunks_written"));
      summary_chunks.push_back(delta("archive.summary_chunks"));
      slabs.push_back(delta("chunked.slabs"));
    } else {
      e2e_plain.push_back(e2e);
    }
    cc.push_back(r.chunked_c);
    cd.push_back(r.chunked_d);
    add.push_back(r.add);
    fin.push_back(r.finish);
    open.push_back(r.open);
    load.push_back(r.load_f32);
    load64.push_back(r.load_f64);
    verify.push_back(r.verify);
    bytes_written.push_back(static_cast<double>(r.bytes_written));

    SlabCodec sc = slab_codec_pass(ctx, inputs);
    codec_c.push_back(sc.compress);
    codec_d.push_back(sc.decompress);
    eff_c.push_back(sc.compress / (r.chunked_c * threads));
    eff_d.push_back(sc.decompress / (r.chunked_d * threads));
  });

  ctx.values["parallel.chunked_compress_s"] = median(cc);
  ctx.values["parallel.chunked_decompress_s"] = median(cd);
  ctx.values["store.add_dataset_s"] = median(add);
  ctx.values["store.finish_s"] = median(fin);
  ctx.values["store.open_s"] = median(open);
  ctx.values["store.load_cold_s"] = median(load);
  ctx.values["store.load_cold_f64_s"] = median(load64);
  ctx.values["store.verify_s"] = median(verify);
  ctx.values["slab.codec_compress_sum_s"] = median(codec_c);
  ctx.values["slab.codec_decompress_sum_s"] = median(codec_d);
  ctx.values["parallel.compress_efficiency"] = median(eff_c);
  ctx.values["parallel.decompress_efficiency"] = median(eff_d);
  ctx.values["store.chunks_written"] = median(chunks_written);
  ctx.values["store.bytes_written"] = median(bytes_written);
  ctx.values["store.summary_chunks"] = median(summary_chunks);
  ctx.values["chunked.slabs"] = median(slabs);
  ctx.values["trace.overhead_frac"] =
      median(e2e_traced) / median(e2e_plain) - 1.0;
}

}  // namespace perfbench
