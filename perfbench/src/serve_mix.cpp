// serve_mix: an in-process Server on loopback serving one archive of NYX
// density (64 chunks), with the decoded-chunk cache pinned to about a
// quarter of the decoded size so hits and misses both occur. An open-loop
// load generator replays a seeded request mix at a fixed offered rate:
// ~70% TPRQ1 read_rows (1-32 rows), 10% query_aggregate over random ranges,
// 10% query_count with random thresholds, 10% HTTP GET .../rows raw, with
// row offsets drawn from a Zipf-skewed hot set of chunks. Every latency is
// timed from when the request was due, not from when it was sent.
//
// Every served payload is compared bit for bit with the local decode of the
// same rows, and every query answer with the local query::Executor answer.
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "data/generators.h"
#include "harness.h"
#include "net/client.h"
#include "net/socket.h"
#include "query/query.h"
#include "server/server.h"
#include "store/archive.h"
#include "store/chunk_cache.h"

namespace perfbench {

namespace {

using transpwr::Dims;

// Fixed load-generator settings. The measured rate keeps the server well
// below saturation, so queueing does not amplify machine noise into p99.
// kSloMs is the p99 latency limit of the read_rps_at_slo ladder, derived
// once from seed 1 (see README.md) and fixed.
constexpr double kFixedRate = 50;   // offered req/s of the measured phase
constexpr double kSloMs = 100;      // p99 limit for the rate ladder
constexpr double kLadderBase = 50;  // ladder rate k = base * 2^(k/4)
constexpr double kDeadlineS = 10;   // per-request deadline
constexpr std::size_t kChunks = 64;
constexpr std::size_t kTemplates = 8192;
constexpr std::uint64_t kHotSetSeed = 0x5eed;
const char* const kArchive = "nyx.tpar";
const char* const kDataset = "density";

enum class Kind : std::uint8_t { kRows, kAgg, kCount, kHttpRows };

struct Request {
  Kind kind = Kind::kRows;
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  double threshold = 0;  // kCount: count values > threshold
};

/// The local answers every served result must equal.
struct Expected {
  std::vector<float> field;  // full local decode
  std::size_t row_elems = 0;
  std::vector<transpwr::query::Aggregate> agg;     // per template
  std::vector<transpwr::query::CountResult> count;  // per template
};

Dims served_dims(const Options& opts) {
  return opts.tiny ? Dims(64, 16, 16) : Dims(256, 128, 128);
}

/// Seeded request templates: kind mix, Zipf-skewed hot chunks, ranges.
std::vector<Request> make_templates(const Options& opts, Dims dims,
                                    const std::vector<float>& field) {
  const std::size_t rows = dims[0];
  const std::size_t rows_per_chunk = rows / kChunks;
  // Zipf(1.1) over chunk ranks. A fixed permutation scatters the hot set
  // over the dataset; it does not follow --seed, so every seed sees the
  // same working-set shape and the seed only draws the requests.
  std::vector<std::size_t> perm(kChunks);
  for (std::size_t i = 0; i < kChunks; ++i) perm[i] = i;
  std::shuffle(perm.begin(), perm.end(), std::mt19937_64(kHotSetSeed));
  std::mt19937_64 rng(derive_seed(opts.seed, 31));
  std::vector<double> cdf(kChunks);
  double acc = 0;
  for (std::size_t k = 0; k < kChunks; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), 1.1);
    cdf[k] = acc;
  }
  std::uniform_real_distribution<double> u01(0, 1);
  auto hot_row = [&] {
    const double x = u01(rng) * acc;
    const std::size_t rank = static_cast<std::size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin());
    const std::size_t chunk = perm[std::min(rank, kChunks - 1)];
    return chunk * rows_per_chunk + rng() % rows_per_chunk;
  };
  std::vector<Request> out(kTemplates);
  for (auto& r : out) {
    const double k = u01(rng);
    r.kind = k < 0.7   ? Kind::kRows
             : k < 0.8 ? Kind::kAgg
             : k < 0.9 ? Kind::kCount
                       : Kind::kHttpRows;
    const std::size_t max_len = r.kind == Kind::kAgg ? rows / 2 : 32;
    r.begin = hot_row();
    r.end = std::min<std::uint64_t>(rows, r.begin + 1 + rng() % max_len);
    if (r.kind == Kind::kCount)
      r.threshold = static_cast<double>(field[rng() % field.size()]);
  }
  return out;
}

template <typename A>
bool same_aggregate(const A& a, const transpwr::query::Aggregate& b) {
  return a.min == b.min && a.max == b.max && a.sum == b.sum &&
         a.count == b.count && a.finite == b.finite && a.nan == b.nan &&
         a.pos_inf == b.pos_inf && a.neg_inf == b.neg_inf;
}

bool same_rows(const Expected& exp, const Request& r, const void* bytes,
               std::size_t size) {
  const std::size_t n = (r.end - r.begin) * exp.row_elems;
  return size == n * sizeof(float) &&
         std::memcmp(bytes, exp.field.data() + r.begin * exp.row_elems,
                     size) == 0;
}

/// One HTTP GET on a fresh connection (the facade closes after each
/// response); returns true when the raw body equals the local rows.
bool http_rows(std::uint16_t port, const Request& r, const Expected& exp,
               Clock::time_point deadline) {
  auto sock = transpwr::net::Socket::connect("127.0.0.1", port);
  sock.send_all("GET /archives/" + std::string(kArchive) + "/datasets/" +
                kDataset + "/rows?range=" + std::to_string(r.begin) + ":" +
                std::to_string(r.end) +
                "&encoding=raw HTTP/1.1\r\nHost: perfbench\r\n\r\n");
  std::string resp;
  std::uint8_t buf[1 << 16];
  while (true) {
    const double left = seconds_between(Clock::now(), deadline);
    if (left <= 0) return false;
    const std::size_t n =
        sock.recv_some(buf, static_cast<int>(left * 1e3) + 1);
    if (n == 0) break;
    resp.append(reinterpret_cast<const char*>(buf), n);
  }
  if (resp.compare(0, 12, "HTTP/1.1 200") != 0) return false;
  const std::size_t head = resp.find("\r\n\r\n");
  if (head == std::string::npos) return false;
  return same_rows(exp, r, resp.data() + head + 4, resp.size() - head - 4);
}

/// Per-request samples of one open-loop phase.
struct PhaseResult {
  std::vector<double> latency_ms;  // due -> done, every request
  std::vector<double> service_ms[4];  // send -> done, by Kind
  std::vector<double> late_ms;     // due -> send
  std::size_t backlog_max = 0;     // due but unsent, one sender
  std::size_t end_backlog = 0;     // due but unsent when the schedule ended
  std::size_t failed = 0;
  std::size_t completed = 0;
};

/// The server plus the persistent client connections of the generator.
struct Rig {
  std::unique_ptr<transpwr::server::Server> server;
  std::vector<std::unique_ptr<transpwr::net::Client>> clients;
};

/// Open-loop phase: request i is due at t0 + i / rate and uses template
/// (first + i) % kTemplates. TPRQ1 requests are dealt round-robin to the
/// persistent clients, HTTP requests go to one HTTP sender thread. A
/// watchdog aborts the process if any request outlives its deadline, so a
/// stuck server can never hang the benchmark.
PhaseResult run_phase(Rig& rig, const std::vector<Request>& templates,
                      const Expected& exp, double rate, double seconds,
                      std::size_t first, Tally& tally) {
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(rate * seconds)));
  const std::size_t senders = rig.clients.size() + 1;  // + HTTP sender
  std::vector<std::vector<std::size_t>> queue(senders);
  std::size_t rr = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = templates[(first + i) % templates.size()];
    if (r.kind == Kind::kHttpRows)
      queue[senders - 1].push_back(i);
    else
      queue[rr++ % rig.clients.size()].push_back(i);
  }
  const auto t0 = Clock::now() + std::chrono::milliseconds(20);
  auto due = [&](std::size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(static_cast<double>(i) /
                                                  rate));
  };

  struct SenderOut {
    PhaseResult part;
    std::atomic<std::int64_t> inflight_since{0};  // ns since t0; 0 = idle
  };
  std::vector<SenderOut> outs(senders);
  std::atomic<std::size_t> finished{0};

  auto sender = [&](std::size_t s) {
    SenderOut& out = outs[s];
    const auto& mine = queue[s];
    for (std::size_t k = 0; k < mine.size(); ++k) {
      const std::size_t i = mine[k];
      const Request& r = templates[(first + i) % templates.size()];
      const auto due_at = due(i);
      std::this_thread::sleep_until(due_at);
      const auto start = Clock::now();
      // Backlog: my requests already due but not yet sent.
      std::size_t due_now = k;
      while (due_now < mine.size() && due(mine[due_now]) <= start) ++due_now;
      out.part.backlog_max = std::max(out.part.backlog_max, due_now - k);
      out.inflight_since.store(
          std::max<std::int64_t>(
              1, std::chrono::duration_cast<std::chrono::nanoseconds>(
                     start - t0)
                     .count()),
          std::memory_order_relaxed);
      bool ok = false;
      try {
        switch (r.kind) {
          case Kind::kRows: {
            auto p = rig.clients[s]->read_rows(kArchive, kDataset, r.begin,
                                               r.end);
            ok = same_rows(exp, r, p.bytes.data(), p.bytes.size());
            break;
          }
          case Kind::kAgg: {
            auto a = rig.clients[s]->query_aggregate(kArchive, kDataset,
                                                     r.begin, r.end);
            ok = same_aggregate(a, exp.agg[(first + i) % templates.size()]);
            break;
          }
          case Kind::kCount: {
            auto c = rig.clients[s]->query_count(
                kArchive, kDataset, transpwr::net::QueryCmp::kGt,
                r.threshold, r.begin, r.end);
            const auto& want = exp.count[(first + i) % templates.size()];
            ok = c.matching == want.matching && c.total == want.total;
            break;
          }
          case Kind::kHttpRows:
            ok = http_rows(rig.server->http_port(), r, exp,
                           due_at + std::chrono::seconds(
                                        static_cast<int>(kDeadlineS)));
            break;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve_mix: request failed: %s\n", e.what());
      }
      const auto done = Clock::now();
      out.inflight_since.store(0, std::memory_order_relaxed);
      const double latency = seconds_between(due_at, done);
      if (latency > kDeadlineS) ok = false;
      if (!ok) ++out.part.failed;
      tally.record(ok);
      ++out.part.completed;
      out.part.latency_ms.push_back(latency * 1e3);
      out.part.late_ms.push_back(seconds_between(due_at, start) * 1e3);
      out.part.service_ms[static_cast<int>(r.kind)].push_back(
          seconds_between(start, done) * 1e3);
    }
    finished.fetch_add(1);
  };

  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < senders; ++s) threads.emplace_back(sender, s);
  // Watchdog: the client API blocks without a timeout, so a request that
  // outlives its deadline ends the run instead of hanging it.
  while (finished.load() < senders) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now() - t0)
                            .count();
    for (const auto& o : outs) {
      const std::int64_t since = o.inflight_since.load();
      if (since > 0 && (now_ns - since) * 1e-9 > 2 * kDeadlineS) {
        std::fprintf(stderr,
                     "serve_mix: a request exceeded its deadline twice "
                     "over; aborting the run\n");
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  }
  for (auto& t : threads) t.join();

  PhaseResult all;
  for (auto& o : outs) {
    auto& p = o.part;
    all.latency_ms.insert(all.latency_ms.end(), p.latency_ms.begin(),
                          p.latency_ms.end());
    all.late_ms.insert(all.late_ms.end(), p.late_ms.begin(), p.late_ms.end());
    for (int k = 0; k < 4; ++k)
      all.service_ms[k].insert(all.service_ms[k].end(),
                               p.service_ms[k].begin(),
                               p.service_ms[k].end());
    all.backlog_max = std::max(all.backlog_max, p.backlog_max);
    all.failed += p.failed;
    all.completed += p.completed;
  }
  // Backlog when the schedule ended: requests (all due by then) that were
  // sent only after the last one fell due.
  for (std::size_t s = 0; s < senders; ++s) {
    const auto& mine = queue[s];
    const auto& late = outs[s].part.late_ms;
    for (std::size_t k = 0; k < mine.size(); ++k) {
      const double sent_s =
          static_cast<double>(mine[k]) / rate + late[k] * 1e-3;
      if (sent_s > static_cast<double>(n - 1) / rate) ++all.end_backlog;
    }
  }
  return all;
}

/// Write `field` as the served dataset (SZ_T, kChunks chunks, summaries
/// on) to `path`; returns the write seconds and the archive size.
std::pair<double, std::uint64_t> write_archive(const std::string& path,
                                               const std::vector<float>& field,
                                               Dims dims) {
  const auto t0 = Clock::now();
  transpwr::store::ArchiveWriter w(path);
  transpwr::store::DatasetOptions o;
  o.scheme = transpwr::Scheme::kSzT;
  o.params.bound = kRelBound;
  o.rows_per_chunk = dims[0] / kChunks;
  o.summaries = true;
  w.add_dataset<float>(kDataset, field, dims, o);
  w.finish();
  return {seconds_between(t0, Clock::now()), w.bytes_written()};
}

/// One full set-up: generate the field, write the served archive, start the
/// server, connect the generator, warm up. The generated field is left in
/// `*field`.
Rig set_up(const Options& opts, const std::string& dir,
           std::vector<float>* field) {
  const Dims dims = served_dims(opts);
  *field = transpwr::gen::nyx_dark_matter_density(
               dims, derive_seed(opts.seed, 21))
               .values;
  write_archive(dir + "/" + kArchive, *field, dims);
  Rig rig;
  transpwr::server::ServerOptions so;
  so.dir = dir;
  rig.server = std::make_unique<transpwr::server::Server>(so);
  rig.server->start();
  // Each TPRQ1 connection holds a pool worker for its lifetime, so keep
  // the persistent connections (plus the HTTP sender's one) below the
  // pool's worker count; never more senders than cores.
  const std::size_t pool = transpwr::global_pool().size();
  const std::size_t cores = std::max(2u, std::thread::hardware_concurrency());
  const std::size_t tprq = std::max<std::size_t>(
      1, std::min(cores - 1, pool > 2 ? pool - 2 : 1));
  for (std::size_t i = 0; i < tprq; ++i) {
    rig.clients.push_back(std::make_unique<transpwr::net::Client>(
        "127.0.0.1", rig.server->port()));
    rig.clients.back()->ping();
  }
  auto sock = transpwr::net::Socket::connect("127.0.0.1",
                                             rig.server->http_port());
  sock.send_all("GET /healthz HTTP/1.1\r\nHost: perfbench\r\n\r\n");
  std::uint8_t buf[1024];
  while (sock.recv_some(buf, 5000) > 0) {
  }
  return rig;
}

void tear_down(Rig& rig) {
  rig.clients.clear();
  if (rig.server) rig.server->stop();
  rig.server.reset();
}

/// Local answers for every template, from a local reader and executor.
Expected make_expected(const std::string& path,
                       const std::vector<Request>& templates,
                       std::vector<float> field, std::size_t row_elems) {
  Expected exp;
  exp.field = std::move(field);
  exp.row_elems = row_elems;
  exp.agg.resize(templates.size());
  exp.count.resize(templates.size());
  transpwr::store::ArchiveReader reader(path);
  transpwr::query::Executor ex(reader, kDataset);
  for (std::size_t i = 0; i < templates.size(); ++i) {
    const Request& r = templates[i];
    if (r.kind == Kind::kAgg) exp.agg[i] = ex.aggregate({r.begin, r.end});
    if (r.kind == Kind::kCount)
      exp.count[i] = ex.count_where(
          {transpwr::query::Cmp::kGt, r.threshold}, {r.begin, r.end});
  }
  return exp;
}

double ladder_rate(int k) { return kLadderBase * std::pow(2.0, k / 4.0); }

}  // namespace

void run_serve_mix(WorkloadContext& ctx) {
  const Options& opts = ctx.opts;
  const std::string dir = opts.workdir + "/serve_mix";
  ::mkdir(dir.c_str(), 0755);
  const Dims dims = served_dims(opts);
  const std::size_t decoded_bytes = dims.count() * sizeof(float);
  const std::string path = dir + "/" + kArchive;

  // --- set-up, repeated so setup_s is a median.
  Rig rig;
  std::vector<double> setup_s;
  std::vector<float> field;
  for (int rep = 0; rep < 3; ++rep) {
    tear_down(rig);
    const auto t0 = Clock::now();
    rig = set_up(opts, dir, &field);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // Publish and cold-load rates of the served dataset: write it to a
  // second archive and load it back with the cache cleared, several times.
  std::vector<double> write_rate, load_rate, ratio;
  const std::string publish = opts.workdir + "/serve_publish.tpar";
  for (int rep = 0; rep < (opts.tiny ? 2 : 15); ++rep) {
    auto [write_s, size] = write_archive(publish, field, dims);
    write_rate.push_back(static_cast<double>(decoded_bytes) / write_s / kMB);
    ratio.push_back(static_cast<double>(decoded_bytes) /
                    static_cast<double>(size));
    transpwr::store::ChunkCache::instance().clear();
    const auto t0 = Clock::now();
    transpwr::store::ArchiveReader reader(publish);
    auto back = reader.load<float>(kDataset);
    load_rate.push_back(static_cast<double>(decoded_bytes) /
                        seconds_between(t0, Clock::now()) / kMB);
    ctx.tally.record(within_bound(field, back, kRelBound));
  }
  std::remove(publish.c_str());

  // The reference every served result is compared with: a local cold
  // decode of the served archive, checked against the generated field.
  transpwr::store::ChunkCache::instance().clear();
  std::vector<float> reference =
      transpwr::store::ArchiveReader(path).load<float>(kDataset);
  ctx.tally.record(within_bound(field, reference, kRelBound));
  const std::size_t row_elems = dims.count() / dims[0];
  const auto templates = make_templates(opts, dims, reference);
  const Expected exp =
      make_expected(path, templates, std::move(reference), row_elems);
  ctx.meta.emplace_back("input.density",
                        dims.to_string() + " f32 SZ_T, " +
                            std::to_string(decoded_bytes) + " bytes, " +
                            std::to_string(kChunks) + " chunks");
  ctx.meta.emplace_back("input_bytes", std::to_string(decoded_bytes));
  ctx.meta.emplace_back("input_elements", std::to_string(dims.count()));
  ctx.meta.emplace_back("serve.tprq_connections",
                        std::to_string(rig.clients.size()));
  ctx.meta.emplace_back("serve.pool_workers",
                        std::to_string(transpwr::global_pool().size()));
  ctx.meta.emplace_back("serve.fixed_rate", std::to_string(kFixedRate));
  ctx.meta.emplace_back("serve.slo_p99_ms", std::to_string(kSloMs));

  // Pin the cache to a quarter of the decoded dataset (this also clears it,
  // so the measured phase starts cold).
  transpwr::store::ScopedCacheCapacity cap(decoded_bytes / 4);

  const double rep_s = opts.tiny ? 0.5 : 2.5;
  std::size_t cursor = 0;  // template offset, advanced phase to phase

  if (!opts.trace) {
    // Prime the cache at the measured rate, then measure.
    run_phase(rig, templates, exp, kFixedRate, rep_s / 2, cursor, ctx.tally);
    cursor += static_cast<std::size_t>(kFixedRate * rep_s / 2);
    // Latency quantiles pool every measured phase, so p99 has at least
    // ten samples beyond it.
    std::vector<double> latency_ms;
    repeat_for(opts.seconds, 3, [&](std::size_t) {
      PhaseResult r =
          run_phase(rig, templates, exp, kFixedRate, rep_s, cursor, ctx.tally);
      cursor += r.completed;
      latency_ms.insert(latency_ms.end(), r.latency_ms.begin(),
                        r.latency_ms.end());
    });
    tear_down(rig);
    ctx.values["setup_s"] = median(setup_s);
    ctx.values["compress_mbs"] = median(write_rate);
    ctx.values["decompress_mbs"] = median(load_rate);
    ctx.values["ratio"] = median(ratio);
    ctx.values["read_p50_ms"] = quantile(latency_ms, 0.50);
    ctx.values["read_p99_ms"] = quantile(latency_ms, 0.99);
    ctx.values["peak_rss_mb"] = peak_rss_mib();
    return;
  }

  // --- traced run. Measured phases alternate obs recording off/on; the
  // recording ones also feed the server-side spans and counters.
  run_phase(rig, templates, exp, kFixedRate, rep_s / 2, cursor, ctx.tally);
  cursor += static_cast<std::size_t>(kFixedRate * rep_s / 2);
  std::vector<double> p50_plain, p50_traced;
  std::vector<double> svc[4], late;
  double backlog_max = 0;
  double client_rows_s = 0, client_rows_n = 0;
  std::uint64_t hits = 0, misses = 0, pruned = 0, decoded = 0, requests = 0;
  double op_rows_s = 0, op_rows_n = 0;
  std::size_t phase_first = cursor, phase_count = 0;
  repeat_for(opts.seconds * 0.5, 2, [&](std::size_t rep) {
    const bool recording = rep % 2 == 1;
    Trace::Span span(ctx.trace,
                     recording ? "serve.phase_recorded" : "serve.phase");
    obs::set_enabled(recording);
    const obs::Snapshot before = obs::snapshot();
    phase_first = cursor;
    PhaseResult r =
        run_phase(rig, templates, exp, kFixedRate, rep_s, cursor, ctx.tally);
    const obs::Snapshot after = obs::snapshot();
    obs::set_enabled(false);
    phase_count = r.completed;
    cursor += r.completed;
    (recording ? p50_traced : p50_plain)
        .push_back(quantile(r.latency_ms, 0.50));
    for (int k = 0; k < 4; ++k)
      svc[k].insert(svc[k].end(), r.service_ms[k].begin(),
                    r.service_ms[k].end());
    late.insert(late.end(), r.late_ms.begin(), r.late_ms.end());
    backlog_max = std::max(backlog_max, static_cast<double>(r.backlog_max));
    if (recording) {
      auto delta = [&](const char* name) {
        return obs_counter(after, name) - obs_counter(before, name);
      };
      hits += delta("archive.cache_hits");
      misses += delta("archive.cache_misses");
      pruned += delta("query.chunks_pruned");
      decoded += delta("query.chunks_decoded");
      requests += r.completed;
      const auto a = obs_span(after, "server.op_read_rows");
      const auto b = obs_span(before, "server.op_read_rows");
      op_rows_s += a.seconds - b.seconds;
      op_rows_n += static_cast<double>(a.count - b.count);
      for (double v : r.service_ms[static_cast<int>(Kind::kRows)]) {
        client_rows_s += v;
        client_rows_n += 1;
      }
    }
  });

  // Replay the last phase's request sequence directly against the store
  // and the query executor (closed loop, same cache budget, cold start).
  std::vector<double> local_rows, local_agg;
  {
    Trace::Span span(ctx.trace, "serve.local_replay");
    transpwr::store::ChunkCache::instance().clear();
    transpwr::store::ArchiveReader reader(path);
    transpwr::query::Executor ex(reader, kDataset);
    for (std::size_t i = 0; i < phase_count; ++i) {
      const std::size_t t = (phase_first + i) % templates.size();
      const Request& r = templates[t];
      const auto t0 = Clock::now();
      bool ok = false;
      if (r.kind == Kind::kRows || r.kind == Kind::kHttpRows) {
        auto rows = reader.read_rows<float>(kDataset, r.begin, r.end);
        local_rows.push_back(seconds_between(t0, Clock::now()) * 1e3);
        ok = same_rows(exp, r, rows.data(), rows.size() * sizeof(float));
      } else if (r.kind == Kind::kAgg) {
        auto a = ex.aggregate({r.begin, r.end});
        local_agg.push_back(seconds_between(t0, Clock::now()) * 1e3);
        ok = same_aggregate(a, exp.agg[t]);
      } else {
        auto c = ex.count_where({transpwr::query::Cmp::kGt, r.threshold},
                                {r.begin, r.end});
        ok = c.matching == exp.count[t].matching;
      }
      ctx.tally.record(ok);
    }
  }

  // Rate ladder: climb k = base * 2^(k/4) four rungs at a time until a
  // rung breaks the SLO or builds a backlog, then single rungs from the
  // last one that held. A rung passes when its p99 (from due time) is
  // under kSloMs, nothing failed, and the generator kept up.
  double rps_at_slo = 0;
  {
    Trace::Span span(ctx.trace, "serve.ladder");
    const double rung_s = opts.tiny ? 0.3 : 1.0;
    auto passes = [&](int k) {
      PhaseResult r = run_phase(rig, templates, exp, ladder_rate(k), rung_s,
                                cursor, ctx.tally);
      cursor += r.completed;
      const bool ok = r.failed == 0 &&
                      quantile(r.latency_ms, 0.99) <= kSloMs &&
                      r.end_backlog <= rig.clients.size() + 1;
      std::fprintf(stderr, "serve_mix: ladder %.0f req/s p99 %.2f ms %s\n",
                   ladder_rate(k), quantile(r.latency_ms, 0.99),
                   ok ? "pass" : "fail");
      return ok;
    };
    int best = -1;
    int k = 0;
    while (k <= 40 && passes(k)) {
      best = k;
      k += 4;
    }
    if (best >= 0) {
      for (int f = best + 1; f < best + 4 && f <= 40 && passes(f); ++f)
        best = f;
      rps_at_slo = ladder_rate(best);
    }
  }
  tear_down(rig);

  auto& v = ctx.values;
  const auto& rows_svc = svc[static_cast<int>(Kind::kRows)];
  v["net.read_rows_p50_ms"] = quantile(rows_svc, 0.50);
  v["net.read_rows_p99_ms"] = quantile(rows_svc, 0.99);
  v["net.query_agg_p99_ms"] = quantile(svc[static_cast<int>(Kind::kAgg)], 0.99);
  v["net.query_count_p99_ms"] =
      quantile(svc[static_cast<int>(Kind::kCount)], 0.99);
  v["http.rows_p99_ms"] = quantile(svc[static_cast<int>(Kind::kHttpRows)], 0.99);
  v["store.read_rows_p50_ms"] = quantile(local_rows, 0.50);
  v["store.read_rows_p99_ms"] = quantile(local_rows, 0.99);
  v["query.aggregate_p50_ms"] = quantile(local_agg, 0.50);
  v["server.overhead_p50_ms"] =
      v["net.read_rows_p50_ms"] - v["store.read_rows_p50_ms"];
  v["server.wait_mean_ms"] =
      (client_rows_n > 0 ? client_rows_s / client_rows_n : 0) -
      (op_rows_n > 0 ? op_rows_s / op_rows_n * 1e3 : 0);
  v["store.cache_hit_ratio"] =
      hits + misses ? static_cast<double>(hits) /
                          static_cast<double>(hits + misses)
                    : 0;
  v["store.chunks_decoded_per_req"] =
      requests ? static_cast<double>(misses) / static_cast<double>(requests)
               : 0;
  v["query.pruned_ratio"] =
      pruned + decoded ? static_cast<double>(pruned) /
                             static_cast<double>(pruned + decoded)
                       : 0;
  v["loadgen.late_p99_ms"] = quantile(late, 0.99);
  v["loadgen.backlog_max"] = backlog_max;
  v["read_rps_at_slo"] = rps_at_slo;
  v["trace.overhead_frac"] = median(p50_traced) / median(p50_plain) - 1.0;
}

}  // namespace perfbench
