#include "cli/cli.h"

#include <csignal>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/env.h"
#include "common/error.h"
#include "common/timer.h"
#include "data/generators.h"
#include "data/io.h"
#include "core/temporal.h"
#include "metrics/metrics.h"
#include "obs/obs.h"
#include "parallel/chunked.h"
#include "parallel/slab.h"
#include "query/query.h"
#include "query/query_json.h"
#include "server/server.h"
#include "store/archive.h"
#include "store/archive_json.h"

namespace transpwr {
namespace cli {
namespace {

double parse_double(const std::string& s, const char* what) {
  double v;
  try {
    std::size_t pos = 0;
    v = std::stod(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
  } catch (const std::exception&) {
    throw ParamError(std::string("invalid ") + what + ": " + s);
  }
  // std::stod happily parses "nan" and "inf"; a non-finite bound or base
  // would silently poison every compressor downstream, so reject it here
  // at the boundary.
  if (!std::isfinite(v))
    throw ParamError(std::string("invalid ") + what + ": " + s +
                     " (must be finite)");
  return v;
}

std::uint64_t parse_u64(const std::string& s, const char* what) {
  // env::parse_u64 is the strict full-string parser the server already
  // uses for the same B:E row syntax: no leading whitespace, no signs
  // (std::stoull wraps "-1" to 2^64-1), no trailing junk, overflow checked.
  auto v = env::parse_u64(s);
  if (!v) throw ParamError(std::string("invalid ") + what + ": " + s);
  return *v;
}

template <typename T>
std::vector<T> load_field(const std::string& path, const Dims& dims) {
  // checked_count rejects dims whose product overflows; the second guard
  // keeps count * sizeof(T) from wrapping the comparison below.
  const std::size_t count = checked_count(dims, "cli");
  if (count > std::numeric_limits<std::size_t>::max() / sizeof(T))
    throw ParamError("dims " + dims.to_string() + " overflow the byte size");
  auto bytes = io::read_bytes(path);
  if (bytes.size() != count * sizeof(T))
    throw ParamError("input size (" + std::to_string(bytes.size()) +
                     " bytes) does not match dims " + dims.to_string());
  std::vector<T> data(count);
  std::memcpy(data.data(), bytes.data(), bytes.size());
  return data;
}

Field<float> generate(const Args& a) {
  const Dims d = a.dims.value();
  if (a.workload == "hacc") return gen::hacc_velocity(d.count(), a.seed);
  if (a.workload == "cesm") {
    return a.field == "flux" ? gen::cesm_flux(d, a.seed)
                             : gen::cesm_cloud_fraction(d, a.seed);
  }
  if (a.workload == "nyx") {
    return a.field == "velocity" ? gen::nyx_velocity(d, a.seed)
                                 : gen::nyx_dark_matter_density(d, a.seed);
  }
  if (a.workload == "hurricane") {
    return a.field == "cloud" ? gen::hurricane_cloud(d, a.seed)
                              : gen::hurricane_wind(d, a.seed);
  }
  throw ParamError("unknown workload: " + a.workload +
                   " (expected hacc|cesm|nyx|hurricane)");
}

template <typename T>
int do_compress(const Args& a) {
  Dims dims = a.dims.value();
  auto data = load_field<T>(a.input, dims);
  chunked::Params p;
  p.scheme = a.scheme;
  p.compressor.bound = a.bound;
  p.compressor.log_base = a.log_base;
  p.threads = a.threads;
  p.num_chunks = a.chunks;
  Timer t;
  auto stream = chunked::compress<T>(data, dims, p);
  double secs = t.seconds();
  io::write_bytes(a.output, stream);
  double mb = static_cast<double>(data.size() * sizeof(T)) / (1 << 20);
  std::printf("%s: %s %s -> %zu bytes, ratio %.3f, %.1f MB/s\n",
              scheme_name(a.scheme), dims.to_string().c_str(),
              a.dtype == DataType::kFloat32 ? "f32" : "f64", stream.size(),
              compression_ratio(data.size() * sizeof(T), stream.size()),
              secs > 0 ? mb / secs : 0.0);
  return 0;
}

template <typename T>
int do_decompress(const Args& a) {
  auto stream = io::read_bytes(a.input);
  Dims dims;
  Timer t;
  auto data = chunked::decompress<T>(stream, &dims, a.threads);
  double secs = t.seconds();
  io::write_bytes(a.output,
                  {reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size() * sizeof(T)});
  double mb = static_cast<double>(data.size() * sizeof(T)) / (1 << 20);
  std::printf("decompressed %s -> %zu values (%s), %.1f MB/s\n",
              a.input.c_str(), data.size(), dims.to_string().c_str(),
              secs > 0 ? mb / secs : 0.0);
  return 0;
}

int do_info(const Args& a) {
  auto stream = io::read_bytes(a.input);
  ByteReader in(stream);
  auto magic = in.get<std::uint32_t>();
  if (magic == 0x31525354) {  // series container
    auto count = in.get<std::uint32_t>();
    std::printf("container: transpwr series v1\n");
    std::printf("snapshots: %u\n", count);
    std::printf("size:      %zu bytes\n", stream.size());
    return 0;
  }
  if (magic != 0x314B4843) {
    std::printf("%s: not a transpwr container\n", a.input.c_str());
    return 1;
  }
  const chunked::Header h = chunked::read_header(stream);
  std::printf("container: transpwr chunked v1\n");
  std::printf("scheme:    %s\n", scheme_name(h.scheme));
  std::printf("dtype:     %s\n",
              h.dtype == DataType::kFloat32 ? "float32" : "float64");
  std::printf("dims:      %s (%zu values)\n", h.dims.to_string().c_str(),
              h.dims.count());
  std::printf("slabs:     %zu\n", h.plan.size());
  std::printf("size:      %zu bytes (ratio %.3f vs raw)\n", stream.size(),
              compression_ratio(h.dims.count() * size_of(h.dtype),
                                stream.size()));
  return 0;
}

int do_gen(const Args& a) {
  auto f = generate(a);
  io::write_floats(a.output, f.span());
  std::printf("wrote %s: %s/%s %s (%zu values)\n", a.output.c_str(),
              a.workload.c_str(), f.name.c_str(),
              f.dims.to_string().c_str(), f.values.size());
  return 0;
}

template <typename T>
int do_eval(const Args& a) {
  Dims dims = a.dims.value();
  auto orig = load_field<T>(a.input, dims);
  auto dec = load_field<T>(a.output, dims);
  auto stats = compute_error_stats(std::span<const T>(orig),
                                   std::span<const T>(dec));
  std::printf("points:          %zu\n", stats.count);
  std::printf("max abs error:   %.6e\n", stats.max_abs);
  std::printf("max rel error:   %.6e\n", stats.max_rel);
  std::printf("avg rel error:   %.6e\n", stats.avg_rel);
  std::printf("PSNR:            %.2f dB\n", stats.psnr);
  std::printf("rel-err PSNR:    %.2f dB\n", stats.rel_psnr);
  std::printf("modified zeros:  %zu\n", stats.modified_zeros);
  std::printf("bounded at %g:   %.4f%%\n", a.bound,
              100.0 * stats.fraction_bounded(a.bound));
  return 0;
}


// --- TPAR archive subcommands ------------------------------------------------

/// Dataset name for an input file: the file stem ("/a/b/vx.bin" -> "vx").
std::string dataset_name_for(const std::string& path) {
  std::size_t slash = path.find_last_of('/');
  std::string base =
      slash == std::string::npos ? path : path.substr(slash + 1);
  std::size_t dot = base.find_last_of('.');
  if (dot != std::string::npos && dot > 0) base = base.substr(0, dot);
  if (base.empty()) throw ParamError("cannot derive a dataset name from " +
                                     path + "; rename the input");
  return base;
}

template <typename T>
int do_archive_create(const Args& a) {
  Dims dims = a.dims.value();
  store::DatasetOptions opts;
  opts.scheme = a.scheme;
  opts.params.bound = a.bound;
  opts.params.log_base = a.log_base;
  opts.threads = a.threads;
  if (a.chunks)
    opts.rows_per_chunk = slab::Plan::of_count(dims[0], a.chunks).rows(0);

  Timer t;
  std::size_t raw = 0;
  store::ArchiveWriter writer(a.output);
  for (const auto& path : a.inputs) {
    auto data = load_field<T>(path, dims);
    raw += data.size() * sizeof(T);
    writer.add_dataset<T>(dataset_name_for(path), data, dims, opts);
  }
  writer.finish();
  double secs = t.seconds();
  double mb = static_cast<double>(raw) / (1 << 20);
  std::printf("archive %s: %zu dataset(s), %s %s -> %llu bytes, "
              "ratio %.3f, %.1f MB/s\n",
              a.output.c_str(), a.inputs.size(), dims.to_string().c_str(),
              a.dtype == DataType::kFloat32 ? "f32" : "f64",
              static_cast<unsigned long long>(writer.bytes_written()),
              compression_ratio(raw, writer.bytes_written()),
              secs > 0 ? mb / secs : 0.0);
  return 0;
}

int do_archive_ls(const Args& a) {
  store::ArchiveReader reader(a.input);
  if (a.json) {
    std::printf("%s\n", store::archive_ls_json(a.input, reader).c_str());
    return 0;
  }
  std::printf("%-20s | %-7s | %-4s | %-16s | %6s | %12s | %7s\n", "dataset",
              "scheme", "type", "dims", "chunks", "bytes", "ratio");
  for (const auto& ds : reader.datasets()) {
    std::uint64_t compressed = ds.compressed_bytes();
    std::uint64_t raw = ds.dims.count() * size_of(ds.dtype);
    std::printf("%-20s | %-7s | %-4s | %-16s | %6zu | %12llu | %7.3f\n",
                ds.name.c_str(), scheme_name(ds.scheme),
                ds.dtype == DataType::kFloat32 ? "f32" : "f64",
                ds.dims.to_string().c_str(), ds.chunks.size(),
                static_cast<unsigned long long>(compressed),
                compression_ratio(raw, compressed));
  }
  std::printf("%zu dataset(s), %s transport\n", reader.datasets().size(),
              reader.mapped() ? "mmap" : "buffered");
  return 0;
}

template <typename T>
int do_archive_extract(const Args& a) {
  store::ArchiveReader reader(a.input);
  std::string name = a.dataset;
  if (name.empty()) {
    if (reader.datasets().size() != 1)
      throw ParamError("archive has " +
                       std::to_string(reader.datasets().size()) +
                       " datasets; pick one with --dataset NAME");
    name = reader.datasets().front().name;
  }
  Timer t;
  Dims dims;
  std::vector<T> data =
      a.rows ? reader.read_rows<T>(name, a.rows->first, a.rows->second,
                                   &dims, a.threads)
             : reader.load<T>(name, &dims, a.threads);
  double secs = t.seconds();
  io::write_bytes(a.output,
                  {reinterpret_cast<const std::uint8_t*>(data.data()),
                   data.size() * sizeof(T)});
  double mb = static_cast<double>(data.size() * sizeof(T)) / (1 << 20);
  std::printf("extracted %s%s -> %zu values (%s), %.1f MB/s\n", name.c_str(),
              a.rows ? " (row range)" : "", data.size(),
              dims.to_string().c_str(), secs > 0 ? mb / secs : 0.0);
  return 0;
}

int do_archive_verify(const Args& a) {
  store::ArchiveReader reader(a.input);
  reader.verify();
  if (a.json) {
    std::printf("%s\n", store::archive_verify_json(a.input, reader).c_str());
    return 0;
  }
  std::size_t chunks = 0;
  std::uint64_t bytes = 0;
  for (const auto& ds : reader.datasets()) {
    chunks += ds.chunks.size();
    bytes += ds.compressed_bytes();
  }
  std::printf("%s: ok — %zu dataset(s), %zu chunk(s), %llu payload bytes, "
              "all checksums match\n",
              a.input.c_str(), reader.datasets().size(), chunks,
              static_cast<unsigned long long>(bytes));
  return 0;
}

int do_archive(const Args& a) {
  if (a.archive_cmd == "create")
    return a.dtype == DataType::kFloat32 ? do_archive_create<float>(a)
                                         : do_archive_create<double>(a);
  if (a.archive_cmd == "ls") return do_archive_ls(a);
  if (a.archive_cmd == "extract")
    return a.dtype == DataType::kFloat32 ? do_archive_extract<float>(a)
                                         : do_archive_extract<double>(a);
  if (a.archive_cmd == "verify") return do_archive_verify(a);
  throw ParamError("unknown archive subcommand: " + a.archive_cmd);
}

// --- serve -------------------------------------------------------------------

/// Default ports when neither the flag nor the env knob picks one.
constexpr std::uint16_t kDefaultTprqPort = 7411;
constexpr std::uint16_t kDefaultHttpPort = 7412;

/// The live server, published so the signal handlers can reach it.
/// Server::request_stop is async-signal-safe by contract (one atomic
/// exchange + one self-pipe write), which is the whole reason SIGINT can
/// trigger a graceful drain instead of an abrupt exit.
std::atomic<server::Server*> g_serving{nullptr};

void serve_signal(int) {
  if (auto* s = g_serving.load(std::memory_order_acquire)) s->request_stop();
}

int do_serve(const Args& a) {
  // Serving always records: /statsz is only useful when the registry is
  // live, and recording never changes served bytes.
  obs::ScopedRecording rec;

  server::ServerOptions opts;
  opts.dir = a.input;
  opts.port = a.port ? *a.port
                     : env::checked_port("TRANSPWR_SERVE_PORT")
                           .value_or(kDefaultTprqPort);
  opts.http_port = a.http_port ? *a.http_port
                               : env::checked_port("TRANSPWR_SERVE_HTTP_PORT")
                                     .value_or(kDefaultHttpPort);
  opts.enable_http = !a.no_http;
  opts.loopback_only = !a.bind_all;
  opts.decode_threads = a.threads ? a.threads : 1;

  server::Server srv(opts);
  srv.start();

  g_serving.store(&srv, std::memory_order_release);
  struct sigaction sa {};
  sa.sa_handler = serve_signal;
  struct sigaction old_int {}, old_term {};
  ::sigaction(SIGINT, &sa, &old_int);
  ::sigaction(SIGTERM, &sa, &old_term);

  std::printf("serving %s\n", opts.dir.c_str());
  std::printf("  tprq1: %s:%u\n", a.bind_all ? "0.0.0.0" : "127.0.0.1",
              static_cast<unsigned>(srv.port()));
  if (opts.enable_http)
    std::printf("  http:  %s:%u\n", a.bind_all ? "0.0.0.0" : "127.0.0.1",
                static_cast<unsigned>(srv.http_port()));
  std::fflush(stdout);

  srv.wait();   // until SIGINT/SIGTERM or a kShutdown request
  srv.stop();   // drain in-flight connections, join accept threads

  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  g_serving.store(nullptr, std::memory_order_release);

  std::printf("drained: %llu tprq1 request(s), %llu http request(s)\n",
              static_cast<unsigned long long>(
                  obs::counter_value("server.requests")),
              static_cast<unsigned long long>(
                  obs::counter_value("server.http_requests")));
  return 0;
}

constexpr std::uint32_t kSeriesMagic = 0x31525354;  // "TSR1"

int do_series(const Args& a) {
  if (a.scheme != Scheme::kSzT && a.scheme != Scheme::kZfpT)
    throw ParamError("series supports SZ_T or ZFP_T only");
  Dims dims = a.dims.value();
  TransformedParams tp;
  tp.rel_bound = a.bound;
  tp.log_base = a.log_base;
  TemporalCompressor enc(
      a.scheme == Scheme::kSzT ? InnerCodec::kSz : InnerCodec::kZfp, tp);

  ByteWriter out;
  out.put(kSeriesMagic);
  out.put(static_cast<std::uint32_t>(a.inputs.size()));
  std::size_t raw = 0;
  for (const auto& path : a.inputs) {
    auto data = load_field<float>(path, dims);
    raw += data.size() * sizeof(float);
    out.put_sized(enc.compress_snapshot(data, dims));
  }
  auto bytes = out.take();
  io::write_bytes(a.output, bytes);
  std::printf("series: %zu snapshots of %s -> %zu bytes (ratio %.3f)\n",
              a.inputs.size(), dims.to_string().c_str(), bytes.size(),
              compression_ratio(raw, bytes.size()));
  return 0;
}

int do_unseries(const Args& a) {
  auto bytes = io::read_bytes(a.input);
  ByteReader in(bytes);
  if (in.get<std::uint32_t>() != kSeriesMagic)
    throw ParamError(a.input + ": not a transpwr series container");
  auto count = in.get<std::uint32_t>();
  TemporalDecompressor dec;
  for (std::uint32_t t = 0; t < count; ++t) {
    Dims dims;
    auto snap = dec.decompress_snapshot(in.get_sized(), &dims);
    char name[32];
    std::snprintf(name, sizeof name, "_%03u.bin", t);
    io::write_floats(a.output + name, snap);
  }
  std::printf("unseries: wrote %u snapshots to %s_###.bin\n", count,
              a.output.c_str());
  return 0;
}

/// Resolve --dataset, defaulting to the archive's only dataset (the same
/// convention as archive extract).
std::string pick_dataset(const Args& a, const store::ArchiveReader& reader) {
  if (!a.dataset.empty()) return a.dataset;
  if (reader.datasets().size() != 1)
    throw ParamError("archive has " +
                     std::to_string(reader.datasets().size()) +
                     " datasets; pick one with --dataset NAME");
  return reader.datasets().front().name;
}

int do_query(const Args& a) {
  store::ArchiveReader reader(a.input);
  const std::string name = pick_dataset(a, reader);
  query::Executor ex(reader, name);
  query::RowRange range = ex.full_range();
  if (a.rows) range = {a.rows->first, a.rows->second};

  if (a.query_cmd == "summary") {
    if (a.json) {
      std::printf("%s\n", query::summary_json(ex).c_str());
      return 0;
    }
    const auto& ds = ex.dataset();
    if (!ds.has_summaries()) {
      std::printf("%s: no summary blocks (v%u archive); queries fall back "
                  "to full scans\n",
                  name.c_str(), reader.version());
      return 0;
    }
    std::printf("%-5s | %-13s | %12s | %12s | %12s | %8s\n", "chunk", "rows",
                "min", "max", "mean", "finite");
    std::uint64_t row = 0;
    for (std::size_t c = 0; c < ds.summaries.size(); ++c) {
      const auto& s = ds.summaries[c];
      std::printf("%-5zu | %6llu:%-6llu | %12.5g | %12.5g | %12.5g | %8llu\n",
                  c, static_cast<unsigned long long>(row),
                  static_cast<unsigned long long>(row + ds.chunks[c].rows),
                  s.min, s.max,
                  s.finite ? s.sum / static_cast<double>(s.finite) : 0.0,
                  static_cast<unsigned long long>(s.finite));
      row += ds.chunks[c].rows;
    }
    return 0;
  }
  if (a.query_cmd == "chunks") {
    const auto p = query::parse_predicate(a.where);
    auto r = ex.find_chunks(p);
    if (a.json) {
      std::printf("%s\n", query::chunks_json(ex, p, r).c_str());
      return 0;
    }
    for (const auto& m : r.matches)
      std::printf("chunk %llu rows %llu:%llu\n",
                  static_cast<unsigned long long>(m.chunk),
                  static_cast<unsigned long long>(m.row_begin),
                  static_cast<unsigned long long>(m.row_end));
    std::printf("%zu of %llu chunk(s) match %s:%g (%llu pruned, %llu "
                "decoded)\n",
                r.matches.size(),
                static_cast<unsigned long long>(r.chunks_total),
                query::cmp_name(p.cmp), p.threshold,
                static_cast<unsigned long long>(r.chunks_pruned),
                static_cast<unsigned long long>(r.chunks_decoded));
    return 0;
  }
  if (a.query_cmd == "agg") {
    auto agg = ex.aggregate(range);
    if (a.json) {
      std::printf("%s\n", query::aggregate_json(ex, range, agg).c_str());
      return 0;
    }
    std::printf("rows %llu:%llu  count %llu  finite %llu  nan %llu  "
                "min %.17g  max %.17g  mean %.17g  sum %.17g  "
                "(%llu pruned, %llu decoded)\n",
                static_cast<unsigned long long>(range.begin),
                static_cast<unsigned long long>(range.end),
                static_cast<unsigned long long>(agg.count),
                static_cast<unsigned long long>(agg.finite),
                static_cast<unsigned long long>(agg.nan), agg.min, agg.max,
                agg.mean(), agg.sum,
                static_cast<unsigned long long>(agg.chunks_pruned),
                static_cast<unsigned long long>(agg.chunks_decoded));
    return 0;
  }
  if (a.query_cmd == "count") {
    const auto p = query::parse_predicate(a.where);
    auto r = ex.count_where(p, range);
    if (a.json) {
      std::printf("%s\n", query::count_json(ex, p, range, r).c_str());
      return 0;
    }
    std::printf("%llu of %llu value(s) match %s:%g (%llu pruned, %llu "
                "decoded)\n",
                static_cast<unsigned long long>(r.matching),
                static_cast<unsigned long long>(r.total),
                query::cmp_name(p.cmp), p.threshold,
                static_cast<unsigned long long>(r.chunks_pruned),
                static_cast<unsigned long long>(r.chunks_decoded));
    return 0;
  }
  // preview (parse_args already validated the subcommand)
  auto pv = ex.preview(a.points, range);
  if (a.json) {
    std::printf("%s\n", query::preview_json(ex, range, pv).c_str());
    return 0;
  }
  for (std::size_t i = 0; i < pv.rows.size(); ++i)
    std::printf("%llu %.17g\n",
                static_cast<unsigned long long>(pv.rows[i]), pv.values[i]);
  std::fprintf(stderr, "preview: %zu point(s), stride %llu, %llu chunk(s) "
               "decoded\n",
               pv.rows.size(), static_cast<unsigned long long>(pv.stride),
               static_cast<unsigned long long>(pv.chunks_decoded));
  return 0;
}

}  // namespace

const char* usage() {
  return
      "transpwr — pointwise relative-error-bounded lossy compression\n"
      "\n"
      "usage:\n"
      "  transpwr compress   -d DIMS [-s SCHEME] [-b BOUND] [-t f32|f64]\n"
      "                      [--base B] [--threads N] [--chunks N] IN OUT\n"
      "  transpwr decompress [-t f32|f64] [--threads N] IN OUT\n"
      "  transpwr info       IN\n"
      "  transpwr gen        -w hacc|cesm|nyx|hurricane -d DIMS\n"
      "                      [--field NAME] [--seed N] -o OUT\n"
      "  transpwr eval       -d DIMS [-b BOUND] [-t f32|f64] ORIG DECOMP\n"
      "  transpwr series     -d DIMS [-b BOUND] [-s SZ_T|ZFP_T] -o OUT\n"
      "                      SNAP1 SNAP2 ...\n"
      "  transpwr unseries   IN -o OUTPREFIX\n"
      "  transpwr archive    create -d DIMS [-s SCHEME] [-b BOUND]\n"
      "                      [-t f32|f64] [--chunks N] [--threads N]\n"
      "                      -o OUT IN1 IN2 ...\n"
      "  transpwr archive    ls [--json] ARCHIVE\n"
      "  transpwr archive    extract [--dataset NAME] [--rows BEGIN:END]\n"
      "                      [--threads N] ARCHIVE OUT\n"
      "  transpwr archive    verify [--json] ARCHIVE\n"
      "  transpwr query      summary|chunks|agg|count|preview\n"
      "                      [--dataset NAME] [--where CMP:T]\n"
      "                      [--rows BEGIN:END] [--points N] [--json]\n"
      "                      ARCHIVE\n"
      "  transpwr serve      [--port N] [--http-port N] [--no-http]\n"
      "                      [--bind-all] [--threads N] DIR\n"
      "\n"
      "query answers from the per-chunk summary blocks a v2 archive\n"
      "carries, decoding only chunks a summary cannot decide; CMP is one\n"
      "of gt ge lt le (e.g. --where gt:1.5). v1 archives fall back to\n"
      "full scans.\n"
      "\n"
      "serve answers the TPRQ1 binary protocol (default port 7411; env\n"
      "TRANSPWR_SERVE_PORT) plus an HTTP/JSON facade (default 7412; env\n"
      "TRANSPWR_SERVE_HTTP_PORT); SIGINT/SIGTERM drain gracefully. See\n"
      "docs/server.md.\n"
      "\n"
      "Every command also accepts:\n"
      "  --stats            dump per-stage span times and counters to stderr\n"
      "  --stats-json PATH  write the same stats as transpwr-stats-v1 JSON\n"
      "\n"
      "DIMS is Z x Y x X slowest-first, e.g. 512x512x512, 1800x3600, 1000000.\n"
      "SCHEME is one of SZ_T ZFP_T FPZIP SZ_PWR ZFP_P ISABELA SZ_ABS\n"
      "(default SZ_T). BOUND is the pointwise relative error bound\n"
      "(absolute for SZ_ABS), default 1e-3.\n";
}

Dims parse_dims(const std::string& text) {
  std::vector<std::size_t> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t sep = text.find('x', start);
    std::string tok = text.substr(
        start, sep == std::string::npos ? std::string::npos : sep - start);
    if (tok.empty()) throw ParamError("invalid dims: " + text);
    parts.push_back(static_cast<std::size_t>(parse_u64(tok, "dims")));
    if (sep == std::string::npos) break;
    start = sep + 1;
  }
  Dims d;
  switch (parts.size()) {
    case 1:
      d = Dims(parts[0]);
      break;
    case 2:
      d = Dims(parts[0], parts[1]);
      break;
    case 3:
      d = Dims(parts[0], parts[1], parts[2]);
      break;
    default:
      throw ParamError("dims must have 1-3 components: " + text);
  }
  d.validate();
  return d;
}

Args parse_args(const std::vector<std::string>& argv) {
  if (argv.empty()) throw ParamError("missing command");
  Args a;
  a.command = argv[0];
  if (a.command != "compress" && a.command != "decompress" &&
      a.command != "info" && a.command != "gen" && a.command != "eval" &&
      a.command != "series" && a.command != "unseries" &&
      a.command != "archive" && a.command != "query" && a.command != "serve")
    throw ParamError("unknown command: " + a.command);

  std::vector<std::string> positional;
  for (std::size_t i = 1; i < argv.size(); ++i) {
    const std::string& arg = argv[i];
    auto next = [&]() -> const std::string& {
      if (++i >= argv.size())
        throw ParamError("missing value after " + arg);
      return argv[i];
    };
    if (arg == "-s" || arg == "--scheme") {
      a.scheme = scheme_from_name(next());
    } else if (arg == "-b" || arg == "--bound") {
      a.bound = parse_double(next(), "bound");
    } else if (arg == "-d" || arg == "--dims") {
      a.dims = parse_dims(next());
    } else if (arg == "-t" || arg == "--type") {
      const std::string& t = next();
      if (t == "f32")
        a.dtype = DataType::kFloat32;
      else if (t == "f64")
        a.dtype = DataType::kFloat64;
      else
        throw ParamError("type must be f32 or f64, got " + t);
    } else if (arg == "--base") {
      a.log_base = parse_double(next(), "base");
    } else if (arg == "--threads") {
      a.threads = static_cast<std::size_t>(parse_u64(next(), "threads"));
    } else if (arg == "--chunks") {
      a.chunks = static_cast<std::size_t>(parse_u64(next(), "chunks"));
    } else if (arg == "--dataset") {
      a.dataset = next();
    } else if (arg == "--rows") {
      const std::string& spec = next();
      std::size_t sep = spec.find(':');
      if (sep == std::string::npos || sep == 0 || sep + 1 == spec.size())
        throw ParamError("--rows expects BEGIN:END, got " + spec);
      a.rows = {static_cast<std::size_t>(
                    parse_u64(spec.substr(0, sep), "rows begin")),
                static_cast<std::size_t>(
                    parse_u64(spec.substr(sep + 1), "rows end"))};
    } else if (arg == "-w" || arg == "--workload") {
      a.workload = next();
    } else if (arg == "--field") {
      a.field = next();
    } else if (arg == "--seed") {
      a.seed = parse_u64(next(), "seed");
    } else if (arg == "-o" || arg == "--output") {
      a.output = next();
    } else if (arg == "--stats") {
      a.stats = true;
    } else if (arg == "--stats-json") {
      a.stats_json = next();
    } else if (arg == "--json") {
      a.json = true;
    } else if (arg == "--port") {
      auto v = parse_u64(next(), "port");
      if (v < 1 || v > 65535) throw ParamError("--port must be in 1-65535");
      a.port = static_cast<std::uint16_t>(v);
    } else if (arg == "--http-port") {
      auto v = parse_u64(next(), "http-port");
      if (v < 1 || v > 65535)
        throw ParamError("--http-port must be in 1-65535");
      a.http_port = static_cast<std::uint16_t>(v);
    } else if (arg == "--where") {
      a.where = next();
    } else if (arg == "--points") {
      a.points = parse_u64(next(), "points");
      if (a.points == 0) throw ParamError("--points must be positive");
    } else if (arg == "--no-http") {
      a.no_http = true;
    } else if (arg == "--bind-all") {
      a.bind_all = true;
    } else if (!arg.empty() && arg[0] == '-') {
      throw ParamError("unknown option: " + arg);
    } else {
      positional.push_back(arg);
    }
  }

  if (a.command == "compress" || a.command == "eval") {
    if (positional.size() != 2)
      throw ParamError(a.command + " needs two file arguments");
    a.input = positional[0];
    a.output = positional[1];
    if (!a.dims) throw ParamError(a.command + " requires -d DIMS");
  } else if (a.command == "decompress") {
    if (positional.size() != 2)
      throw ParamError("decompress needs two file arguments");
    a.input = positional[0];
    a.output = positional[1];
  } else if (a.command == "info") {
    if (positional.size() != 1)
      throw ParamError("info needs one file argument");
    a.input = positional[0];
  } else if (a.command == "series") {
    if (positional.empty()) throw ParamError("series needs snapshot files");
    a.inputs = positional;
    if (a.output.empty()) throw ParamError("series requires -o OUT");
    if (!a.dims) throw ParamError("series requires -d DIMS");
  } else if (a.command == "unseries") {
    if (positional.size() != 1)
      throw ParamError("unseries needs one input file");
    a.input = positional[0];
    if (a.output.empty()) throw ParamError("unseries requires -o OUTPREFIX");
  } else if (a.command == "archive") {
    if (positional.empty())
      throw ParamError("archive needs a subcommand: create|ls|extract|verify");
    a.archive_cmd = positional[0];
    positional.erase(positional.begin());
    if (a.archive_cmd == "create") {
      if (positional.empty())
        throw ParamError("archive create needs input files");
      a.inputs = positional;
      if (a.output.empty()) throw ParamError("archive create requires -o OUT");
      if (!a.dims) throw ParamError("archive create requires -d DIMS");
    } else if (a.archive_cmd == "ls" || a.archive_cmd == "verify") {
      if (positional.size() != 1)
        throw ParamError("archive " + a.archive_cmd +
                         " needs one archive file");
      a.input = positional[0];
    } else if (a.archive_cmd == "extract") {
      if (positional.size() != 2)
        throw ParamError("archive extract needs ARCHIVE and OUT arguments");
      a.input = positional[0];
      a.output = positional[1];
    } else {
      throw ParamError("unknown archive subcommand: " + a.archive_cmd);
    }
  } else if (a.command == "query") {
    if (positional.empty())
      throw ParamError(
          "query needs a subcommand: summary|chunks|agg|count|preview");
    a.query_cmd = positional[0];
    positional.erase(positional.begin());
    if (a.query_cmd != "summary" && a.query_cmd != "chunks" &&
        a.query_cmd != "agg" && a.query_cmd != "count" &&
        a.query_cmd != "preview")
      throw ParamError("unknown query subcommand: " + a.query_cmd);
    if (positional.size() != 1)
      throw ParamError("query " + a.query_cmd + " needs one archive file");
    a.input = positional[0];
    if ((a.query_cmd == "chunks" || a.query_cmd == "count") &&
        a.where.empty())
      throw ParamError("query " + a.query_cmd +
                       " requires --where CMP:THRESHOLD (gt/ge/lt/le)");
    // Fail a malformed predicate at the command line, before the archive
    // is ever opened.
    if (!a.where.empty()) query::parse_predicate(a.where);
  } else if (a.command == "serve") {
    if (positional.size() != 1)
      throw ParamError("serve needs one archive directory");
    a.input = positional[0];
  } else {  // gen
    if (!positional.empty() && a.output.empty()) a.output = positional[0];
    if (a.output.empty()) throw ParamError("gen requires -o OUT");
    if (a.workload.empty()) throw ParamError("gen requires -w WORKLOAD");
    if (!a.dims) throw ParamError("gen requires -d DIMS");
  }
  if (!(a.bound > 0)) throw ParamError("bound must be positive");
  return a;
}

namespace {

int dispatch(const Args& a) {
  if (a.command == "compress")
    return a.dtype == DataType::kFloat32 ? do_compress<float>(a)
                                         : do_compress<double>(a);
  if (a.command == "decompress")
    return a.dtype == DataType::kFloat32 ? do_decompress<float>(a)
                                         : do_decompress<double>(a);
  if (a.command == "info") return do_info(a);
  if (a.command == "gen") return do_gen(a);
  if (a.command == "eval")
    return a.dtype == DataType::kFloat32 ? do_eval<float>(a)
                                         : do_eval<double>(a);
  if (a.command == "series") return do_series(a);
  if (a.command == "unseries") return do_unseries(a);
  if (a.command == "archive") return do_archive(a);
  if (a.command == "query") return do_query(a);
  if (a.command == "serve") return do_serve(a);
  throw ParamError("unknown command: " + a.command);
}

}  // namespace

int run(const Args& a) {
  const bool want_stats = a.stats || !a.stats_json.empty();
  if (!want_stats) return dispatch(a);

  // Record the whole command; recording never changes compressed bytes.
  obs::ScopedRecording rec;
  obs::reset();
  Timer wall;
  int rc = dispatch(a);
  obs::gauge_set("cli.wall_s", wall.seconds());

  std::vector<std::pair<std::string, std::string>> meta = {
      {"command", a.command},
      {"scheme", scheme_name(a.scheme)},
  };
  if (a.stats) obs::print_stats(stderr);
  if (!a.stats_json.empty()) obs::write_stats_json(a.stats_json, meta);
  return rc;
}

int main_entry(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  try {
    return run(parse_args(args));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n\n%s", e.what(), usage());
    return 2;
  }
}

}  // namespace cli
}  // namespace transpwr
