#include "server/server.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include <cmath>

#include "common/bytestream.h"
#include "common/env.h"
#include "common/parallel.h"
#include "net/frame_io.h"
#include "obs/obs.h"
#include "query/query.h"
#include "query/query_json.h"
#include "store/archive_json.h"

namespace transpwr {
namespace server {
namespace {

constexpr int kDefaultIdleTimeoutMs = 30000;
constexpr std::size_t kMaxPingEcho = 64;

// --- request core ------------------------------------------------------------
// The typed ops both codecs answer through; `list` and `stat` are the
// registry's own list() and open(). Every refusal on either protocol is
// built by refuse(), the one place `server.errors` is counted.

/// A class of refusal: the TPRQ1 error code and the HTTP status (with its
/// reason phrase) it is answered with.
struct ErrClass {
  net::ErrCode code;
  int status;
  const char* reason;
};

namespace errclass {
constexpr ErrClass kBadRequest{net::ErrCode::kBadRequest, 400, "Bad Request"};
constexpr ErrClass kHeadTooLarge{net::ErrCode::kBadRequest, 431,
                                 "Request Header Fields Too Large"};
constexpr ErrClass kBadOp{net::ErrCode::kBadOp, 405, "Method Not Allowed"};
constexpr ErrClass kNotFound{net::ErrCode::kNotFound, 404, "Not Found"};
constexpr ErrClass kBadState{net::ErrCode::kBadState, 502, "Bad Gateway"};
constexpr ErrClass kInternal{net::ErrCode::kInternal, 500,
                             "Internal Server Error"};
constexpr ErrClass kDraining{net::ErrCode::kShuttingDown, 503,
                             "Service Unavailable"};
}  // namespace errclass

struct Refusal {
  ErrClass cls;
  std::string message;
};

/// Refuse one request; counts it in `server.errors`.
Refusal refuse(const ErrClass& cls, std::string message) {
  obs::counter_add("server.errors");
  return {cls, std::move(message)};
}

/// The one exception -> error class mapping. Call from inside a catch
/// block; anything not derived from std::exception propagates.
Refusal refuse_current() {
  try {
    throw;
  } catch (const NotFoundError& e) {
    return refuse(errclass::kNotFound, e.what());
  } catch (const ParamError& e) {
    return refuse(errclass::kBadRequest, e.what());
  } catch (const StreamError& e) {
    return refuse(errclass::kBadState, e.what());
  } catch (const std::exception& e) {
    return refuse(errclass::kInternal, e.what());
  }
}

/// The archive and dataset a request names, resolved once: registry open,
/// then the dataset lookup. Holds the reader for the whole request, so a
/// concurrent re-open of a rewritten file cannot pull it away.
struct Target {
  std::shared_ptr<store::ArchiveReader> reader;
  const store::DatasetInfo* ds = nullptr;
};

Target resolve(ArchiveRegistry& registry, const std::string& archive,
               const std::string& dataset) {
  Target t{registry.open(archive)};
  for (const auto& ds : t.reader->datasets())
    if (ds.name == dataset) {
      t.ds = &ds;
      return t;
    }
  // Not ArchiveReader::dataset: its ParamError would read as a bad
  // request, but the name was well-formed — the dataset just isn't there.
  throw NotFoundError("serve: no such dataset: " + dataset);
}

/// Decoded rows, in the dataset's element type, and a byte view of them.
struct Rows {
  DataType dtype = DataType::kFloat32;
  Dims dims;
  std::vector<float> f32;
  std::vector<double> f64;

  std::span<const std::uint8_t> bytes() const {
    if (dtype == DataType::kFloat32)
      return {reinterpret_cast<const std::uint8_t*>(f32.data()),
              f32.size() * sizeof(float)};
    return {reinterpret_cast<const std::uint8_t*>(f64.data()),
            f64.size() * sizeof(double)};
  }
};

/// Rows `range` of the target, or the whole dataset (kLoad, through
/// ArchiveReader::load so its `archive.load` span stays) when `range` is
/// empty. The one float/double dispatch for row payloads.
Rows read_rows(const Target& t, std::optional<query::RowRange> range,
               std::size_t threads) {
  Rows out;
  auto read = [&](auto& data) {
    using T = typename std::decay_t<decltype(data)>::value_type;
    out.dtype = data_type_of<T>();
    data = range ? t.reader->read_rows<T>(
                       t.ds->name, static_cast<std::size_t>(range->begin),
                       static_cast<std::size_t>(range->end), &out.dims,
                       threads)
                 : t.reader->load<T>(t.ds->name, &out.dims, threads);
  };
  if (t.ds->dtype == DataType::kFloat32)
    read(out.f32);
  else
    read(out.f64);
  return out;
}

/// One chunk's raw compressed stream; NotFound past the last chunk.
std::vector<std::uint8_t> chunk_bytes(const Target& t, std::uint64_t chunk) {
  if (chunk >= t.ds->chunks.size())
    throw NotFoundError("serve: chunk " + std::to_string(chunk) +
                        " out of range for " + t.ds->name);
  return t.reader->read_chunk_bytes(t.ds->name,
                                    static_cast<std::size_t>(chunk));
}

/// Eager checksum scan of one archive: {datasets, chunks, payload bytes}.
std::array<std::uint64_t, 3> verify(ArchiveRegistry& registry,
                                    const std::string& archive) {
  auto reader = registry.open(archive);
  reader->verify();
  std::array<std::uint64_t, 3> totals{reader->datasets().size(), 0, 0};
  for (const auto& ds : reader->datasets()) {
    totals[1] += ds.chunks.size();
    totals[2] += ds.compressed_bytes();
  }
  return totals;
}

// --- TPRQ1 codec helpers -----------------------------------------------------

/// Span path for one binary op, indexed by op number — string literals so
/// a disabled span stays allocation-free.
const char* op_span(std::uint16_t op) {
  static constexpr const char* kSpans[] = {
      "server.op_unknown",     "server.op_ping",   "server.op_list",
      "server.op_stat",        "server.op_load",   "server.op_read_rows",
      "server.op_chunk_bytes", "server.op_verify", "server.op_shutdown",
      "server.op_query"};
  return net::known_op(op) ? kSpans[op] : kSpans[0];
}

/// u8 nd + 3 x u64 dims, as in kStat entries and row payloads.
void put_shape(ByteWriter& out, const Dims& dims) {
  out.put<std::uint8_t>(static_cast<std::uint8_t>(dims.nd));
  for (std::uint64_t d : dims.d) out.put(d);
}

std::vector<std::uint8_t> tprq_refusal(std::uint16_t op, std::uint32_t seq,
                                       const Refusal& r) {
  return net::encode_error(op, seq, r.cls.code, r.message);
}

void require_drained(ByteReader& in, net::Op op) {
  if (in.remaining() != 0)
    throw ParamError(std::string("serve: trailing bytes in ") +
                     net::op_name(op) + " request body");
}

/// Validate the wire form of a query predicate (u8 cmp + f64 threshold).
query::Predicate wire_predicate(std::uint8_t cmp, double threshold) {
  if (cmp < static_cast<std::uint8_t>(net::QueryCmp::kGt) ||
      cmp > static_cast<std::uint8_t>(net::QueryCmp::kLe))
    throw ParamError("serve: bad query comparison byte");
  if (!std::isfinite(threshold))
    throw ParamError("serve: query threshold must be finite");
  return {static_cast<query::Cmp>(cmp), threshold};
}

// --- HTTP codec helpers ------------------------------------------------------

std::string http_refusal(const Refusal& r) {
  std::vector<std::pair<std::string, std::string>> extra;
  if (r.cls.status == 405) extra.emplace_back("Allow", "GET, HEAD");
  return net::http_response(r.cls.status, r.cls.reason, "text/plain",
                            r.message + "\n", extra);
}

/// "B:E" -> [B, E). Throws ParamError on anything else.
query::RowRange parse_row_range(const std::string& text) {
  std::size_t colon = text.find(':');
  if (colon == std::string::npos)
    throw ParamError("serve: range must be BEGIN:END");
  auto b = env::parse_u64(std::string_view(text).substr(0, colon));
  auto e = env::parse_u64(std::string_view(text).substr(colon + 1));
  if (!b || !e || *b >= *e)
    throw ParamError("serve: range must be BEGIN:END with BEGIN < END");
  return {*b, *e};
}

/// Split an HTTP path into its non-empty segments.
std::vector<std::string> path_segments(const std::string& path) {
  std::vector<std::string> segs;
  std::size_t pos = 1;  // paths always start with '/'
  while (pos <= path.size()) {
    std::size_t slash = path.find('/', pos);
    if (slash == std::string::npos) slash = path.size();
    if (slash > pos) segs.push_back(path.substr(pos, slash - pos));
    pos = slash + 1;
  }
  return segs;
}

}  // namespace

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), registry_(opts_.dir) {
  if (opts_.max_frame != 0) {
    max_frame_ = std::max(opts_.max_frame, net::kMinMaxFrame);
  } else {
    max_frame_ = static_cast<std::size_t>(
        env::checked_size_bytes("TRANSPWR_SERVE_MAX_FRAME",
                                {/*min=*/net::kMinMaxFrame,
                                 /*max=*/std::uint64_t{1} << 30,
                                 /*clamp=*/true})
            .value_or(net::kDefaultMaxFrame));
  }
  if (opts_.idle_timeout_ms != 0) {
    idle_timeout_ms_ = opts_.idle_timeout_ms;  // < 0: block forever
  } else {
    idle_timeout_ms_ = static_cast<int>(
        env::checked_duration_ms("TRANSPWR_SERVE_IDLE_TIMEOUT_MS",
                                 {/*min=*/1, /*max=*/86400000,
                                  /*clamp=*/true})
            .value_or(kDefaultIdleTimeoutMs));
  }
}

Server::~Server() {
  if (started_.load(std::memory_order_acquire)) stop();
}

void Server::start() {
  if (started_.exchange(true, std::memory_order_acq_rel))
    throw ParamError("serve: start() called twice");
  // Bind both ports before spawning either accept thread, so a taken
  // HTTP port fails start() cleanly with no thread to unwind.
  tprq_listener_ = net::Listener(opts_.port, opts_.loopback_only);
  tprq_port_ = tprq_listener_.port();
  if (opts_.enable_http) {
    http_listener_ = net::Listener(opts_.http_port, opts_.loopback_only);
    http_port_ = http_listener_.port();
  }
  tprq_accept_ = std::thread([this] { accept_loop(tprq_listener_, false); });
  if (opts_.enable_http)
    http_accept_ = std::thread([this] { accept_loop(http_listener_, true); });
}

void Server::request_stop() {
  // Async-signal-safe on purpose (the CLI wires SIGINT/SIGTERM here):
  // one atomic exchange plus one self-pipe write, no locks. The wake
  // byte is never consumed, so every poll on the pipe — accept loops and
  // connections idle between requests — wakes from now on.
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  wake_.wake();
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stopping_.load(std::memory_order_acquire))
    stop_requested_.wait_for(lock, std::chrono::milliseconds(100));
}

void Server::stop() {
  request_stop();
  if (!started_.load(std::memory_order_acquire)) return;
  if (!joined_.exchange(true, std::memory_order_acq_rel)) {
    if (tprq_accept_.joinable()) tprq_accept_.join();
    if (http_accept_.joinable()) http_accept_.join();
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    drained_.wait(lock, [this] { return active_ == 0; });
  }
  tprq_listener_.close();
  http_listener_.close();
  registry_.clear();
}

void Server::accept_loop(net::Listener& listener, bool http) {
  while (!stopping()) {
    net::Socket sock;
    try {
      sock = listener.accept(wake_.read_fd());
    } catch (const Error&) {
      if (stopping()) break;
      continue;  // transient accept failure (e.g. peer reset in backlog)
    }
    if (!sock.valid() || stopping()) break;  // woken: draining
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++active_;
      obs::gauge_set("server.active", static_cast<double>(active_));
    }
    obs::counter_add(http ? "server.http_connections" : "server.connections");
    // ThreadPool tasks are copyable std::functions; Socket is move-only,
    // so the connection rides in a shared_ptr.
    auto shared = std::make_shared<net::Socket>(std::move(sock));
    global_pool().submit([this, shared, http] {
      try {
        if (http)
          handle_http_connection(std::move(*shared));
        else
          handle_tprq_connection(std::move(*shared));
      } catch (...) {
        // A connection failure never takes down the server.
      }
      std::lock_guard<std::mutex> lock(mu_);
      --active_;
      obs::gauge_set("server.active", static_cast<double>(active_));
      if (active_ == 0) drained_.notify_all();
    });
  }
}


// --- TPRQ1 codec -------------------------------------------------------------

void Server::handle_tprq_connection(net::Socket sock) {
  while (true) {
    net::Frame req;
    try {
      if (!net::read_frame(sock, max_frame_, idle_timeout_ms_,
                           wake_.read_fd(), &req))
        break;  // clean hangup between frames
    } catch (const net::NetError&) {
      break;  // idle timeout, shutdown wake, or mid-frame hangup
    } catch (const StreamError& e) {
      // The peer sent bytes that do not frame; the stream can no longer
      // be delimited, so answer best-effort and drop the connection.
      const Refusal r = refuse(errclass::kBadRequest, e.what());
      try {
        net::write_frame(sock, tprq_refusal(0, 0, r));
      } catch (...) {
      }
      break;
    }
    obs::counter_add("server.requests");
    obs::counter_add("server.bytes_in",
                     net::kLenPrefix + net::kFrameOverhead + req.body.size());
    std::vector<std::uint8_t> resp = answer_tprq(req);
    obs::counter_add("server.bytes_out", resp.size());
    try {
      net::write_frame(sock, resp);
    } catch (const Error&) {
      break;
    }
    if (stopping()) break;  // kShutdown acknowledged (or drain began)
  }
  sock.close();
}

std::vector<std::uint8_t> Server::answer_tprq(const net::Frame& req) {
  if (stopping() &&
      req.op != static_cast<std::uint16_t>(net::Op::kShutdown))
    return tprq_refusal(req.op, req.seq,
                        refuse(errclass::kDraining, "server is draining"));
  obs::Span span(op_span(req.op));
  if (!net::known_op(req.op))
    return tprq_refusal(
        req.op, req.seq,
        refuse(errclass::kBadOp, "unknown op " + std::to_string(req.op)));
  const auto op = static_cast<net::Op>(req.op);
  ByteReader in(req.body);
  ByteWriter out;
  try {
    switch (op) {
      case net::Op::kPing: {
        if (req.body.size() > kMaxPingEcho)
          throw ParamError("serve: ping echo payload too large");
        out.put_bytes(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(net::kMagic),
            sizeof net::kMagic));
        out.put_bytes(req.body);
        break;
      }
      case net::Op::kList: {
        require_drained(in, op);
        auto names = registry_.list();
        out.put<std::uint32_t>(static_cast<std::uint32_t>(names.size()));
        for (const auto& n : names) net::put_string(out, n);
        break;
      }
      case net::Op::kStat: {
        auto archive = net::get_string(in);
        require_drained(in, op);
        auto reader = registry_.open(archive);
        const auto& dir = reader->datasets();
        out.put<std::uint32_t>(static_cast<std::uint32_t>(dir.size()));
        for (const auto& ds : dir) {
          net::put_string(out, ds.name);
          out.put<std::uint8_t>(static_cast<std::uint8_t>(ds.dtype));
          out.put<std::uint8_t>(static_cast<std::uint8_t>(ds.scheme));
          put_shape(out, ds.dims);
          for (double v : {ds.bound, ds.log_base}) out.put(v);
          for (std::uint64_t v : {std::uint64_t{ds.chunks.size()},
                                  ds.compressed_bytes()})
            out.put(v);
        }
        break;
      }
      case net::Op::kLoad:
      case net::Op::kReadRows: {
        // Payload: u8 dtype, u8 nd, 3 x u64 dims, u64-sized raw
        // little-endian element bytes.
        auto archive = net::get_string(in);
        auto dataset = net::get_string(in);
        std::optional<query::RowRange> range;
        if (op == net::Op::kReadRows)  // braces read begin, then end
          range = query::RowRange{in.get<std::uint64_t>(),
                                  in.get<std::uint64_t>()};
        require_drained(in, op);
        const Rows rows = read_rows(resolve(registry_, archive, dataset),
                                    range, opts_.decode_threads);
        out.put<std::uint8_t>(static_cast<std::uint8_t>(rows.dtype));
        put_shape(out, rows.dims);
        out.put_sized(rows.bytes());
        break;
      }
      case net::Op::kChunkBytes: {
        auto archive = net::get_string(in);
        auto dataset = net::get_string(in);
        auto chunk = in.get<std::uint64_t>();
        require_drained(in, op);
        out.put_sized(
            chunk_bytes(resolve(registry_, archive, dataset), chunk));
        break;
      }
      case net::Op::kVerify: {
        auto archive = net::get_string(in);
        require_drained(in, op);
        for (std::uint64_t v : verify(registry_, archive)) out.put(v);
        break;
      }
      case net::Op::kQuery: {
        auto archive = net::get_string(in);
        auto dataset = net::get_string(in);
        auto kind_byte = in.get<std::uint8_t>();
        auto cmp_byte = in.get<std::uint8_t>();
        auto threshold = in.get<double>();
        auto row_begin = in.get<std::uint64_t>();
        auto row_end = in.get<std::uint64_t>();
        auto points = in.get<std::uint64_t>();
        require_drained(in, op);
        if (kind_byte < static_cast<std::uint8_t>(net::QueryKind::kChunks) ||
            kind_byte > static_cast<std::uint8_t>(net::QueryKind::kPreview))
          throw ParamError("serve: bad query kind byte");
        const Target t = resolve(registry_, archive, dataset);
        query::Executor ex(*t.reader, t.ds->name);
        const query::RowRange range{row_begin, row_end};
        switch (static_cast<net::QueryKind>(kind_byte)) {
          case net::QueryKind::kChunks: {
            auto r = ex.find_chunks(wire_predicate(cmp_byte, threshold));
            for (std::uint64_t v :
                 {r.chunks_total, r.chunks_pruned, r.chunks_decoded})
              out.put(v);
            out.put<std::uint32_t>(
                static_cast<std::uint32_t>(r.matches.size()));
            for (const auto& m : r.matches)
              for (std::uint64_t v : {m.chunk, m.row_begin, m.row_end})
                out.put(v);
            break;
          }
          case net::QueryKind::kAgg: {
            auto a = ex.aggregate(range);
            for (double v : {a.min, a.max, a.sum}) out.put(v);
            for (std::uint64_t v : {a.count, a.finite, a.nan, a.pos_inf,
                                    a.neg_inf, a.chunks_pruned,
                                    a.chunks_decoded})
              out.put(v);
            break;
          }
          case net::QueryKind::kCount: {
            auto r =
                ex.count_where(wire_predicate(cmp_byte, threshold), range);
            for (std::uint64_t v :
                 {r.matching, r.total, r.chunks_pruned, r.chunks_decoded})
              out.put(v);
            break;
          }
          case net::QueryKind::kPreview: {
            auto pv = ex.preview(points, range);
            for (std::uint64_t v : {pv.stride, pv.chunks_decoded}) out.put(v);
            out.put<std::uint32_t>(
                static_cast<std::uint32_t>(pv.rows.size()));
            for (std::size_t i = 0; i < pv.rows.size(); ++i) {
              out.put<std::uint64_t>(pv.rows[i]);
              out.put<double>(pv.values[i]);
            }
            break;
          }
        }
        break;
      }
      case net::Op::kShutdown: {
        require_drained(in, op);
        // Acknowledge first (the caller's write happens after we return),
        // then begin the drain; the connection loop exits after sending.
        request_stop();
        break;
      }
    }
  } catch (...) {
    return tprq_refusal(req.op, req.seq, refuse_current());
  }
  return net::encode_frame(req.op, 0, req.seq, out.take());
}

// --- HTTP codec --------------------------------------------------------------

void Server::handle_http_connection(net::Socket sock) {
  // One request per connection: accumulate the head (request line +
  // headers) up to the blank line, with the same hard caps the parser
  // enforces, then route and answer.
  std::string head;
  const std::size_t cap = net::kMaxRequestLine + net::kMaxHeaderBytes;
  std::size_t end = std::string::npos;
  std::size_t term = 0;
  while (end == std::string::npos) {
    std::uint8_t buf[4096];
    std::size_t n;
    try {
      n = sock.recv_some(buf, idle_timeout_ms_, wake_.read_fd());
    } catch (const net::NetError&) {
      return;  // timeout / shutdown wake / reset: drop silently
    }
    if (n == 0) return;  // peer hung up before completing a request
    head.append(reinterpret_cast<const char*>(buf), n);
    // The head ends at whichever blank line comes first.
    const std::size_t crlf = head.find("\r\n\r\n");
    end = std::min(crlf, head.find("\n\n"));
    if (end != std::string::npos) {
      term = end == crlf ? 4 : 2;
    } else if (head.size() > cap) {
      try {
        sock.send_all(http_refusal(
            refuse(errclass::kHeadTooLarge, "request head too large")));
      } catch (...) {
      }
      return;
    }
  }
  obs::counter_add("server.http_requests");
  obs::Span span("server.http");
  std::string resp;
  bool is_head = false;
  try {
    auto req = net::parse_http_request(
        std::string_view(head).substr(0, end + term));
    is_head = req.method == "HEAD";
    if (stopping())
      resp = http_refusal(refuse(errclass::kDraining, "server is draining"));
    else if (req.method != "GET" && !is_head)
      resp = http_refusal(refuse(errclass::kBadOp, "GET and HEAD only"));
    else
      resp = answer_get(req);
  } catch (const Error& e) {
    resp = http_refusal(refuse(errclass::kBadRequest, e.what()));
  }
  // A HEAD answer is the same head, Content-Length included (RFC 7231),
  // with no body — whatever the status.
  if (is_head) resp.resize(resp.find("\r\n\r\n") + 4);
  try {
    sock.send_all(resp);
  } catch (const Error&) {
  }
  sock.close();
}

std::string Server::answer_get(const net::HttpRequest& req) {
  std::string body;
  std::string content_type = "application/json";
  try {
    const auto segs = path_segments(req.path);
    auto dataset_route = [&](const char* leaf) {
      return segs.size() == 5 && segs[0] == "archives" &&
             segs[2] == "datasets" && segs[4] == leaf;
    };
    if (req.path == "/healthz") {
      body = "ok";
      content_type = "text/plain";
    } else if (req.path == "/statsz") {
      body = obs::to_json(obs::snapshot(),
                          {{"endpoint", "statsz"},
                           {"dir", registry_.dir()}});
    } else if (req.path == "/archives") {
      body = "{\"archives\":[";
      for (const auto& name : registry_.list()) {
        if (body.back() != '[') body += ',';
        obs::json_append_quoted(body, name);
      }
      body += "]}";
    } else if (segs.size() == 3 && segs[0] == "archives" &&
               segs[2] == "datasets") {
      body = store::archive_ls_json(segs[1], *registry_.open(segs[1]));
    } else if (dataset_route("query")) {
      auto op = net::query_param(req.query, "op");
      if (!op)
        throw ParamError("serve: query requires ?op=chunks|agg|count|"
                         "preview");
      const Target t = resolve(registry_, segs[1], segs[3]);
      query::Executor ex(*t.reader, t.ds->name);
      query::RowRange range = ex.full_range();
      if (auto rows = net::query_param(req.query, "rows"))
        range = parse_row_range(*rows);
      auto predicate = [&]() -> query::Predicate {
        auto where = net::query_param(req.query, "where");
        if (!where)
          throw ParamError("serve: query op=" + *op +
                           " requires ?where=CMP:THRESHOLD");
        return query::parse_predicate(*where);
      };
      if (*op == "chunks") {
        const auto p = predicate();
        body = query::chunks_json(ex, p, ex.find_chunks(p));
      } else if (*op == "agg") {
        body = query::aggregate_json(ex, range, ex.aggregate(range));
      } else if (*op == "count") {
        const auto p = predicate();
        body = query::count_json(ex, p, range, ex.count_where(p, range));
      } else if (*op == "preview") {
        std::uint64_t points = 64;
        if (auto pstr = net::query_param(req.query, "points")) {
          auto v = env::parse_u64(*pstr);
          if (!v || *v == 0)
            throw ParamError("serve: points must be a positive integer");
          points = *v;
        }
        body = query::preview_json(ex, range, ex.preview(points, range));
      } else {
        throw ParamError("serve: unknown query op: " + *op);
      }
    } else if (dataset_route("rows")) {
      auto range_text = net::query_param(req.query, "range");
      if (!range_text)
        throw ParamError("serve: rows requires ?range=BEGIN:END");
      const query::RowRange range = parse_row_range(*range_text);
      auto encoding =
          net::query_param(req.query, "encoding").value_or("base64");
      if (encoding != "base64" && encoding != "raw")
        throw ParamError("serve: encoding must be base64 or raw");
      const Rows rows = read_rows(resolve(registry_, segs[1], segs[3]),
                                  range, opts_.decode_threads);
      const auto bytes = rows.bytes();
      const char* dtype = rows.dtype == DataType::kFloat32 ? "f32" : "f64";
      if (encoding == "raw")
        return net::http_response(
            200, "OK", "application/octet-stream",
            {reinterpret_cast<const char*>(bytes.data()), bytes.size()},
            {{"X-Transpwr-Dtype", dtype},
             {"X-Transpwr-Dims", rows.dims.to_string()}});
      body = "{\"archive\":";
      obs::json_append_quoted(body, segs[1]);
      body += ",\"dataset\":";
      obs::json_append_quoted(body, segs[3]);
      body += ",\"rows\":[" + std::to_string(range.begin) + ',' +
              std::to_string(range.end) + "],\"dtype\":\"" + dtype +
              "\",\"dims\":[";
      for (int i = 0; i < rows.dims.nd; ++i)
        body += (i ? "," : "") + std::to_string(rows.dims[i]);
      body += "],\"encoding\":\"base64\",\"data\":\"";
      body += net::base64_encode(bytes);
      body += "\"}";
    } else {
      throw NotFoundError("serve: no route for " + req.path);
    }
  } catch (...) {
    return http_refusal(refuse_current());
  }
  body += '\n';  // every text body ends in a newline
  return net::http_response(200, "OK", content_type, body);
}

}  // namespace server
}  // namespace transpwr
