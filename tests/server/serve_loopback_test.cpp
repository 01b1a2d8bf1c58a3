#include "server/server.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "data/generators.h"
#include "net/client.h"
#include "net/frame_io.h"
#include "net/socket.h"
#include "obs/obs.h"
#include "query/query.h"
#include "query/query_json.h"
#include "store/archive.h"

namespace transpwr {
namespace server {
namespace {

/// A served directory holding one real multi-chunk archive, plus a
/// running loopback Server on ephemeral ports.
class ServeLoopback : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/serve_loopback";
    ::mkdir(dir_.c_str(), 0755);
    archive_path_ = dir_ + "/snapshots.tpar";
    write_archive(archive_path_, /*rows=*/32, /*seed=*/7);

    ServerOptions opts;
    opts.dir = dir_;
    server_ = std::make_unique<Server>(opts);
    server_->start();
    ASSERT_GT(server_->port(), 0);
    ASSERT_GT(server_->http_port(), 0);
  }

  void TearDown() override {
    if (server_) server_->stop();
    std::remove(archive_path_.c_str());
    for (const auto& path : extra_paths_) std::remove(path.c_str());
  }

  /// Path of a further served archive, removed at teardown.
  std::string extra_archive(const std::string& name) {
    extra_paths_.push_back(dir_ + "/" + name);
    return extra_paths_.back();
  }

  /// Serve `name`: the fixture archive with one payload byte of chunk 1
  /// (rows 8..16) flipped, so only reads touching that chunk fail.
  void add_corrupt_archive(const std::string& name) {
    const std::string path = extra_archive(name);
    write_archive(path, /*rows=*/32, /*seed=*/7);
    std::uint64_t at = 0;
    {
      store::ArchiveReader r(path);
      const auto& chunk = r.dataset("wind").chunks[1];
      at = chunk.offset + chunk.size / 2;
    }
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(at));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(at));
    f.write(&byte, 1);
  }

  static void write_archive(const std::string& path, std::size_t rows,
                            std::uint64_t seed) {
    auto f = gen::hurricane_wind(Dims(rows, 8, 8), seed);
    store::ArchiveWriter w(path);
    store::DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-3;
    opts.rows_per_chunk = 8;
    w.add_dataset<float>("wind", f.span(), f.dims, opts);
    w.finish();
  }

  /// One-shot HTTP GET against the facade; returns the full response.
  std::string http_get(const std::string& target) {
    return http_send("GET " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
  }

  /// Send raw request bytes to the facade; returns the full response.
  std::string http_send(const std::string& request) {
    net::Socket s =
        net::Socket::connect("127.0.0.1", server_->http_port());
    s.send_all(request);
    std::string out;
    std::uint8_t buf[4096];
    while (std::size_t n = s.recv_some(buf, /*timeout_ms=*/5000))
      out.append(reinterpret_cast<const char*>(buf), n);
    return out;
  }

  /// Status code of an HTTP response ("HTTP/1.1 404 ..." -> 404).
  static int status_of(const std::string& response) {
    return response.size() > 12 ? std::stoi(response.substr(9, 3)) : 0;
  }

  /// Send raw bytes on a fresh TPRQ1 connection; returns the error code
  /// of the error frame the server answers with.
  net::ErrCode tprq_refusal(std::span<const std::uint8_t> bytes) {
    net::Socket s = net::Socket::connect("127.0.0.1", server_->port());
    s.send_all(bytes);
    net::Frame f;
    EXPECT_TRUE(net::read_frame(s, net::kDefaultMaxFrame, 5000, -1, &f));
    EXPECT_TRUE(f.is_error());
    net::ErrCode code{};
    net::parse_error_body(f.body, &code, nullptr);
    return code;
  }

  static std::string body_of(const std::string& response) {
    std::size_t blank = response.find("\r\n\r\n");
    EXPECT_NE(blank, std::string::npos);
    return response.substr(blank + 4);
  }

  std::string dir_;
  std::string archive_path_;
  std::vector<std::string> extra_paths_;
  std::unique_ptr<Server> server_;
};

/// RFC 4648 base64 (padded) back to bytes.
std::string base64_decode(std::string_view text) {
  static const std::string kAlphabet =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  std::string out;
  std::uint32_t acc = 0;
  int bits = 0;
  for (char ch : text) {
    if (ch == '=') break;
    acc = (acc << 6) | static_cast<std::uint32_t>(kAlphabet.find(ch));
    bits += 6;
    if (bits >= 8) {
      bits -= 8;
      out += static_cast<char>((acc >> bits) & 0xff);
    }
  }
  return out;
}

TEST_F(ServeLoopback, PingListStatVerify) {
  net::Client c("127.0.0.1", server_->port());
  c.ping();

  auto names = c.list();
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "snapshots.tpar");

  auto ds = c.stat("snapshots.tpar");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].name, "wind");
  EXPECT_EQ(ds[0].dtype, DataType::kFloat32);
  EXPECT_EQ(ds[0].dims, Dims(32, 8, 8));
  EXPECT_EQ(ds[0].chunks, 4u);
  EXPECT_GT(ds[0].compressed_bytes, 0u);

  EXPECT_EQ(c.verify("snapshots.tpar"), 4u);
  EXPECT_FALSE(c.chunk_bytes("snapshots.tpar", "wind", 0).empty());
}

// The core guarantee of the wire: what a remote client decodes is
// bit-identical to a local ArchiveReader over the same file — under
// concurrency, through the shared registry handle and chunk cache.
TEST_F(ServeLoopback, ConcurrentReadRowsBitIdentical) {
  store::ArchiveReader local(archive_path_);
  auto full = local.load<float>("wind");

  constexpr int kThreads = 8;
  constexpr int kReqsPerThread = 16;
  std::vector<std::thread> workers;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        net::Client c("127.0.0.1", server_->port());
        for (int i = 0; i < kReqsPerThread; ++i) {
          std::uint64_t b = static_cast<std::uint64_t>((t * 5 + i) % 28);
          std::uint64_t e = b + 4;
          auto payload = c.read_rows("snapshots.tpar", "wind", b, e);
          if (payload.dims != Dims(4, 8, 8)) { ++failures; return; }
          auto got = payload.as<float>();
          for (std::size_t k = 0; k < got.size(); ++k)
            if (got[k] != full[b * 64 + k]) { ++failures; return; }
        }
      } catch (const Error&) {
        ++failures;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(ServeLoopback, WholeDatasetLoadMatchesLocal) {
  store::ArchiveReader local(archive_path_);
  auto full = local.load<float>("wind");
  net::Client c("127.0.0.1", server_->port());
  auto payload = c.load("snapshots.tpar", "wind");
  EXPECT_EQ(payload.dims, Dims(32, 8, 8));
  EXPECT_EQ(payload.as<float>(), full);
}

TEST_F(ServeLoopback, NotFoundMapsToTypedRemoteError) {
  net::Client c("127.0.0.1", server_->port());
  try {
    c.stat("nope.tpar");
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kNotFound);
  }
  try {
    c.read_rows("snapshots.tpar", "ghost", 0, 4);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kNotFound);
  }
  // A nonsense row range is the caller's fault, not a missing object.
  try {
    c.read_rows("snapshots.tpar", "wind", 9, 3);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kBadRequest);
  }
  // The connection survives refused requests.
  EXPECT_EQ(c.list().size(), 1u);
}

TEST_F(ServeLoopback, MalformedBytesGetErrorFrameThenClose) {
  net::Socket s = net::Socket::connect("127.0.0.1", server_->port());
  // A hostile length prefix: over any sane cap.
  std::uint8_t evil[8] = {0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0};
  s.send_all(evil);
  // The server answers one best-effort error frame, then closes.
  std::uint8_t buf[1024];
  std::size_t got = 0;
  try {
    while (std::size_t n = s.recv_some(
               {buf + got, sizeof buf - got}, /*timeout_ms=*/5000))
      got += n;
  } catch (const net::NetError&) {
    // A reset instead of a clean close is acceptable here.
  }
  if (got >= net::kLenPrefix) {
    net::Frame f = net::parse_frame({buf, got});
    EXPECT_TRUE(f.is_error());
    net::ErrCode code{};
    net::parse_error_body(f.body, &code, nullptr);
    EXPECT_EQ(code, net::ErrCode::kBadRequest);
  }
  // The server shrugged it off: fresh connections still work.
  net::Client c("127.0.0.1", server_->port());
  EXPECT_EQ(c.list().size(), 1u);
}

TEST_F(ServeLoopback, HttpRoutes) {
  obs::ScopedRecording rec;
  std::string health = http_get("/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(health), "ok\n");

  std::string archives = http_get("/archives");
  EXPECT_NE(archives.find("200 OK"), std::string::npos);
  EXPECT_TRUE(obs::json_valid(body_of(archives))) << body_of(archives);
  EXPECT_NE(body_of(archives).find("snapshots.tpar"), std::string::npos);

  std::string datasets = http_get("/archives/snapshots.tpar/datasets");
  EXPECT_TRUE(obs::json_valid(body_of(datasets))) << body_of(datasets);
  EXPECT_NE(body_of(datasets).find("\"wind\""), std::string::npos);

  std::string rows = http_get(
      "/archives/snapshots.tpar/datasets/wind/rows?range=0:4");
  EXPECT_NE(rows.find("200 OK"), std::string::npos);
  EXPECT_TRUE(obs::json_valid(body_of(rows))) << body_of(rows);
  EXPECT_NE(body_of(rows).find("\"base64\""), std::string::npos);

  std::string raw = http_get(
      "/archives/snapshots.tpar/datasets/wind/rows?range=0:4&encoding=raw");
  EXPECT_NE(raw.find("200 OK"), std::string::npos);
  EXPECT_NE(raw.find("X-Transpwr-Dtype: f32"), std::string::npos);
  EXPECT_NE(raw.find("X-Transpwr-Dims: 4x8x8"), std::string::npos);
  EXPECT_EQ(body_of(raw).size(), 4u * 8 * 8 * sizeof(float));

  std::string statsz = http_get("/statsz");
  EXPECT_TRUE(obs::json_valid(body_of(statsz))) << body_of(statsz);

  EXPECT_NE(http_get("/archives/ghost.tpar/datasets").find("404"),
            std::string::npos);
  EXPECT_NE(http_get("/nope").find("404"), std::string::npos);
  EXPECT_NE(
      http_get("/archives/snapshots.tpar/datasets/wind/rows?range=9:3")
          .find("400"),
      std::string::npos);

  // Non-GET methods are refused with Allow.
  net::Socket s = net::Socket::connect("127.0.0.1", server_->http_port());
  s.send_all(std::string("POST /archives HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string resp;
  std::uint8_t buf[1024];
  while (std::size_t n = s.recv_some(buf, /*timeout_ms=*/5000))
    resp.append(reinterpret_cast<const char*>(buf), n);
  EXPECT_NE(resp.find("405"), std::string::npos);
  EXPECT_NE(resp.find("Allow: GET, HEAD"), std::string::npos);
}

TEST_F(ServeLoopback, HeadOmitsBody) {
  net::Socket s = net::Socket::connect("127.0.0.1", server_->http_port());
  s.send_all(std::string("HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n"));
  std::string resp;
  std::uint8_t buf[1024];
  while (std::size_t n = s.recv_some(buf, /*timeout_ms=*/5000))
    resp.append(reinterpret_cast<const char*>(buf), n);
  EXPECT_NE(resp.find("200 OK"), std::string::npos);
  EXPECT_NE(resp.find("Content-Length: 3"), std::string::npos);
  EXPECT_EQ(body_of(resp), "");  // head only, no payload bytes

  // Refusals too: the same head as the GET answer, Content-Length
  // included, and no body.
  const std::vector<std::pair<std::string, int>> refused = {
      {"/nope", 404},
      {"/archives/snapshots.tpar/datasets/wind/rows?range=9:3", 400}};
  for (const auto& [target, status] : refused) {
    std::string head =
        http_send("HEAD " + target + " HTTP/1.1\r\nHost: t\r\n\r\n");
    std::string get = http_get(target);
    EXPECT_EQ(status_of(head), status) << target;
    EXPECT_NE(head.find("Content-Length: " +
                        std::to_string(body_of(get).size())),
              std::string::npos)
        << head;
    EXPECT_GT(body_of(get).size(), 0u);
    EXPECT_EQ(body_of(head), "") << target;
    EXPECT_EQ(head, get.substr(0, get.find("\r\n\r\n") + 4));
  }
}

// Both codecs answer a refusal through one error classifier: the same
// request refused on TPRQ1 and on HTTP gets the paired code and status.
TEST_F(ServeLoopback, RefusalsPairAcrossCodecs) {
  struct Case {
    const char* what;
    std::function<void(net::Client&)> tprq;
    std::string http;
    net::ErrCode code;
    int status;
  };
  const std::string base = "/archives/snapshots.tpar/datasets/wind";
  const std::vector<Case> cases = {
      {"missing archive",
       [](net::Client& c) { c.read_rows("nope.tpar", "wind", 0, 4); },
       "/archives/nope.tpar/datasets/wind/rows?range=0:4",
       net::ErrCode::kNotFound, 404},
      {"missing dataset",
       [](net::Client& c) { c.read_rows("snapshots.tpar", "ghost", 0, 4); },
       "/archives/snapshots.tpar/datasets/ghost/rows?range=0:4",
       net::ErrCode::kNotFound, 404},
      {"row range 9:3",
       [](net::Client& c) { c.read_rows("snapshots.tpar", "wind", 9, 3); },
       base + "/rows?range=9:3", net::ErrCode::kBadRequest, 400},
      {"bad predicate",
       [](net::Client& c) {
         c.query_count("snapshots.tpar", "wind",
                       static_cast<net::QueryCmp>(9), 0.0);
       },
       base + "/query?op=count&where=eq:1", net::ErrCode::kBadRequest, 400},
      {"points=0",
       [](net::Client& c) { c.query_preview("snapshots.tpar", "wind", 0); },
       base + "/query?op=preview&points=0", net::ErrCode::kBadRequest, 400},
  };
  net::Client c("127.0.0.1", server_->port());
  for (const auto& tc : cases) {
    try {
      tc.tprq(c);
      ADD_FAILURE() << tc.what << ": expected RemoteError";
    } catch (const net::RemoteError& e) {
      EXPECT_EQ(e.code(), tc.code) << tc.what;
    }
    EXPECT_EQ(status_of(http_get(tc.http)), tc.status) << tc.what;
  }
}

// A flipped payload byte in one chunk is a corrupt archive, not a bad
// request: kBadState on TPRQ1, 502 on HTTP. Other chunks still serve.
TEST_F(ServeLoopback, CorruptChunkIsBadStateOnBothCodecs) {
  add_corrupt_archive("corrupt.tpar");
  net::Client c("127.0.0.1", server_->port());
  try {
    c.read_rows("corrupt.tpar", "wind", 8, 16);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kBadState);
  }
  try {
    c.load("corrupt.tpar", "wind");
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kBadState);
  }
  const std::string rows = "/archives/corrupt.tpar/datasets/wind/rows";
  EXPECT_EQ(status_of(http_get(rows + "?range=8:16")), 502);
  EXPECT_EQ(status_of(http_get(rows + "?range=8:16&encoding=raw")), 502);

  store::ArchiveReader local(archive_path_);
  EXPECT_EQ(c.read_rows("corrupt.tpar", "wind", 0, 8).as<float>(),
            local.read_rows<float>("wind", 0, 8));
  EXPECT_EQ(status_of(http_get(rows + "?range=0:8")), 200);
}

// A float64 dataset reads the same through every served path as through
// a local reader: kLoad, kReadRows, HTTP raw and HTTP base64.
TEST_F(ServeLoopback, Float64ReadsMatchLocalOnEveryPath) {
  const std::string path = extra_archive("dens.tpar");
  const Dims dims(24, 8, 8);
  auto f = gen::hurricane_wind(dims, /*seed=*/11);
  std::vector<double> dens(f.values.size());
  for (std::size_t i = 0; i < dens.size(); ++i)
    dens[i] = 1.0 / 3.0 + static_cast<double>(f.values[i]);
  {
    store::ArchiveWriter w(path);
    store::DatasetOptions opts;
    opts.scheme = Scheme::kSzT;
    opts.params.bound = 1e-6;
    opts.rows_per_chunk = 8;
    w.add_dataset<double>("dens", std::span<const double>(dens), dims, opts);
    w.finish();
  }
  store::ArchiveReader local(path);
  net::Client c("127.0.0.1", server_->port());

  auto whole = c.load("dens.tpar", "dens");
  EXPECT_EQ(whole.dtype, DataType::kFloat64);
  EXPECT_EQ(whole.dims, dims);
  EXPECT_EQ(whole.as<double>(), local.read_rows<double>("dens", 0, 24));

  const auto want = local.read_rows<double>("dens", 5, 19);
  const std::string want_bytes(reinterpret_cast<const char*>(want.data()),
                               want.size() * sizeof(double));
  auto rows = c.read_rows("dens.tpar", "dens", 5, 19);
  EXPECT_EQ(rows.dtype, DataType::kFloat64);
  EXPECT_EQ(rows.dims, Dims(14, 8, 8));
  EXPECT_EQ(rows.as<double>(), want);

  const std::string target =
      "/archives/dens.tpar/datasets/dens/rows?range=5:19";
  std::string raw = http_get(target + "&encoding=raw");
  EXPECT_EQ(status_of(raw), 200);
  EXPECT_NE(raw.find("X-Transpwr-Dtype: f64"), std::string::npos);
  EXPECT_NE(raw.find("X-Transpwr-Dims: 14x8x8"), std::string::npos);
  EXPECT_EQ(body_of(raw), want_bytes);

  std::string b64 = body_of(http_get(target));
  EXPECT_TRUE(obs::json_valid(b64)) << b64;
  EXPECT_NE(b64.find("\"dtype\":\"f64\""), std::string::npos);
  const std::string key = "\"data\":\"";
  const std::size_t at = b64.find(key);
  ASSERT_NE(at, std::string::npos);
  const std::size_t from = at + key.size();
  EXPECT_EQ(base64_decode(std::string_view(b64).substr(
                from, b64.find('"', from) - from)),
            want_bytes);
}

// `server.errors` counts every refused request exactly once, whichever
// codec refused it and however early in the request it was refused.
TEST_F(ServeLoopback, EveryRefusalCountedOnce) {
  obs::ScopedRecording rec;
  add_corrupt_archive("corrupt.tpar");
  const std::uint64_t before = obs::counter_value("server.errors");
  std::uint64_t sent = 0;

  // TPRQ1: answered by the op core ...
  net::Client c("127.0.0.1", server_->port());
  auto refused = [&](const std::function<void()>& call, net::ErrCode want) {
    ++sent;
    try {
      call();
      ADD_FAILURE() << "expected RemoteError";
    } catch (const net::RemoteError& e) {
      EXPECT_EQ(e.code(), want);
    }
  };
  refused([&] { c.stat("nope.tpar"); }, net::ErrCode::kNotFound);
  refused([&] { c.read_rows("snapshots.tpar", "wind", 9, 3); },
          net::ErrCode::kBadRequest);
  refused([&] { c.read_rows("corrupt.tpar", "wind", 8, 16); },
          net::ErrCode::kBadState);
  // ... an unknown op, and bytes that do not frame (a length prefix
  // below the header size).
  ++sent;
  EXPECT_EQ(tprq_refusal(net::encode_frame(99, 0, 5, {})),
            net::ErrCode::kBadOp);
  ++sent;
  const std::uint8_t short_len[4] = {1, 0, 0, 0};
  EXPECT_EQ(tprq_refusal(short_len), net::ErrCode::kBadRequest);

  // HTTP: routed refusals, a method other than GET/HEAD, an unparsable
  // request line, and a head over the size cap (sent whole, so the
  // server reads every byte before it answers and closes).
  const std::vector<std::pair<std::string, int>> http = {
      {"GET /nope HTTP/1.1\r\n\r\n", 404},
      {"GET /archives/snapshots.tpar/datasets/wind/rows?range=9:3 "
       "HTTP/1.1\r\n\r\n",
       400},
      {"GET /archives/corrupt.tpar/datasets/wind/rows?range=8:16 "
       "HTTP/1.1\r\n\r\n",
       502},
      {"POST /archives HTTP/1.1\r\n\r\n", 405},
      {"HEAD /nope HTTP/1.1\r\n\r\n", 404},
      {"FOO\r\n\r\n", 400},
      {"GET /" +
           std::string(net::kMaxRequestLine + net::kMaxHeaderBytes, 'a'),
       431},
  };
  for (const auto& [request, status] : http) {
    ++sent;
    EXPECT_EQ(status_of(http_send(request)), status) << request.substr(0, 40);
  }
  EXPECT_EQ(obs::counter_value("server.errors") - before, sent);
}

// A request already read when the drain begins is refused with
// kShuttingDown, and counted. The refusal can only land between the last
// read of a frame and the draining check, so the test widens that gap: it
// sends a 16 MiB frame but for its last byte, lets the server read it,
// then sends the last byte and requests the stop while the server is
// still checksumming the body. A stop that comes too early drops the
// connection unanswered, one too late lets the op answer; either way the
// counter must match what the client was told, and one of a few timings
// must hit the window.
TEST_F(ServeLoopback, DrainingRefusalCounted) {
  obs::ScopedRecording rec;
  server_->stop();
  const std::vector<std::uint8_t> body(16u << 20);
  const auto frame = net::encode_frame(net::Op::kList, 0, 1, body);
  const std::span<const std::uint8_t> bytes(frame);
  bool drained = false;
  for (int delay_ms : {3, 1, 8, 2, 15, 5}) {
    ServerOptions opts;
    opts.dir = dir_;
    Server s(opts);
    s.start();
    const std::uint64_t before = obs::counter_value("server.errors");
    net::Socket sock = net::Socket::connect("127.0.0.1", s.port());
    sock.send_all(bytes.first(bytes.size() - 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    sock.send_all(bytes.last(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    s.request_stop();
    std::uint64_t answered = 0;
    net::Frame resp;
    try {
      if (net::read_frame(sock, net::kDefaultMaxFrame, 10000, -1, &resp))
        answered = 1;
    } catch (const Error&) {
      // Stopped before the frame was read: dropped unanswered.
    }
    if (answered) {
      ASSERT_TRUE(resp.is_error());  // kShuttingDown, or list's trailing bytes
      net::ErrCode code{};
      net::parse_error_body(resp.body, &code, nullptr);
      drained = drained || code == net::ErrCode::kShuttingDown;
    }
    sock.close();
    s.stop();
    EXPECT_EQ(obs::counter_value("server.errors") - before, answered);
    if (drained) break;
  }
  EXPECT_TRUE(drained);
}

// kQuery answers must agree exactly with a local Executor over the same
// file — the wire adds transport, never different analytics.
TEST_F(ServeLoopback, QueryOpMatchesLocalExecutor) {
  store::ArchiveReader local(archive_path_);
  query::Executor ex(local, "wind");
  const query::RowRange full = ex.full_range();
  net::Client c("127.0.0.1", server_->port());

  const query::Aggregate la = ex.aggregate(full);
  const auto ra = c.query_aggregate("snapshots.tpar", "wind");
  EXPECT_EQ(ra.min, la.min);
  EXPECT_EQ(ra.max, la.max);
  EXPECT_EQ(ra.sum, la.sum);
  EXPECT_EQ(ra.count, la.count);
  EXPECT_EQ(ra.finite, la.finite);
  EXPECT_EQ(ra.chunks_pruned, la.chunks_pruned);
  EXPECT_EQ(ra.chunks_decoded, la.chunks_decoded);

  const double t = la.min + 0.5 * (la.max - la.min);
  const query::Predicate p{query::Cmp::kGt, t};
  const query::CountResult lc = ex.count_where(p, full);
  const auto rc = c.query_count("snapshots.tpar", "wind",
                                net::QueryCmp::kGt, t);
  EXPECT_EQ(rc.matching, lc.matching);
  EXPECT_EQ(rc.total, lc.total);
  EXPECT_EQ(rc.chunks_pruned, lc.chunks_pruned);
  EXPECT_EQ(rc.chunks_decoded, lc.chunks_decoded);

  const query::ChunkMatchResult lm = ex.find_chunks(p);
  const auto rm = c.query_chunks("snapshots.tpar", "wind",
                                 net::QueryCmp::kGt, t);
  EXPECT_EQ(rm.chunks_total, lm.chunks_total);
  EXPECT_EQ(rm.chunks_pruned, lm.chunks_pruned);
  ASSERT_EQ(rm.matches.size(), lm.matches.size());
  for (std::size_t i = 0; i < lm.matches.size(); ++i) {
    EXPECT_EQ(rm.matches[i].chunk, lm.matches[i].chunk);
    EXPECT_EQ(rm.matches[i].row_begin, lm.matches[i].row_begin);
    EXPECT_EQ(rm.matches[i].row_end, lm.matches[i].row_end);
  }

  const query::Preview lp = ex.preview(6, {4, 30});
  const auto rp = c.query_preview("snapshots.tpar", "wind", 6, 4, 30);
  EXPECT_EQ(rp.stride, lp.stride);
  EXPECT_EQ(rp.rows, lp.rows);
  EXPECT_EQ(rp.values, lp.values);

  // Refusals: unknown dataset is kNotFound, a nonsense row range and an
  // invalid cmp byte are the caller's fault.
  try {
    c.query_aggregate("snapshots.tpar", "ghost");
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kNotFound);
  }
  try {
    c.query_aggregate("snapshots.tpar", "wind", 9, 3);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kBadRequest);
  }
  try {
    c.query_count("snapshots.tpar", "wind", static_cast<net::QueryCmp>(9),
                  0.0);
    FAIL() << "expected RemoteError";
  } catch (const net::RemoteError& e) {
    EXPECT_EQ(e.code(), net::ErrCode::kBadRequest);
  }
  // The connection survives every refusal.
  EXPECT_EQ(c.list().size(), 1u);
}

// The HTTP query route serves the same query_json documents the CLI
// prints — byte-for-byte, so dashboards can treat both as one schema.
TEST_F(ServeLoopback, HttpQueryRoute) {
  store::ArchiveReader local(archive_path_);
  query::Executor ex(local, "wind");
  const query::RowRange full = ex.full_range();
  const std::string base = "/archives/snapshots.tpar/datasets/wind/query";

  std::string agg = http_get(base + "?op=agg");
  EXPECT_NE(agg.find("200 OK"), std::string::npos);
  EXPECT_EQ(body_of(agg),
            query::aggregate_json(ex, full, ex.aggregate(full)) + "\n");

  const query::Predicate p = query::parse_predicate("gt:1.5");
  std::string count = http_get(base + "?op=count&where=gt:1.5");
  EXPECT_EQ(body_of(count),
            query::count_json(ex, p, full, ex.count_where(p, full)) + "\n");

  std::string chunks = http_get(base + "?op=chunks&where=gt:1.5");
  EXPECT_EQ(body_of(chunks),
            query::chunks_json(ex, p, ex.find_chunks(p)) + "\n");

  std::string preview = http_get(base + "?op=preview&points=4&rows=2:14");
  EXPECT_EQ(body_of(preview),
            query::preview_json(ex, {2, 14}, ex.preview(4, {2, 14})) + "\n");

  // Refusals: missing/unknown op, predicate problems, bad points.
  EXPECT_NE(http_get(base).find("400"), std::string::npos);
  EXPECT_NE(http_get(base + "?op=frob").find("400"), std::string::npos);
  EXPECT_NE(http_get(base + "?op=count").find("400"), std::string::npos);
  EXPECT_NE(http_get(base + "?op=count&where=eq:1").find("400"),
            std::string::npos);
  EXPECT_NE(http_get(base + "?op=preview&points=0").find("400"),
            std::string::npos);
  EXPECT_NE(http_get(base + "?op=agg&rows=9:3").find("400"),
            std::string::npos);
  EXPECT_NE(
      http_get("/archives/snapshots.tpar/datasets/ghost/query?op=agg")
          .find("404"),
      std::string::npos);
}

// Rewriting an archive in place changes its identity tuple; the
// registry must drop the stale handle and serve the new bytes on the
// next request — no restart.
TEST_F(ServeLoopback, RegistryReopensWhenFileChangesIdentity) {
  net::Client c("127.0.0.1", server_->port());
  auto before = c.stat("snapshots.tpar");
  ASSERT_EQ(before[0].dims, Dims(32, 8, 8));

  // Different row count => different size => different identity.
  write_archive(archive_path_, /*rows=*/16, /*seed=*/9);

  auto after = c.stat("snapshots.tpar");
  EXPECT_EQ(after[0].dims, Dims(16, 8, 8));

  store::ArchiveReader local(archive_path_);
  auto payload = c.read_rows("snapshots.tpar", "wind", 0, 8);
  EXPECT_EQ(payload.as<float>(), local.read_rows<float>("wind", 0, 8));
}

TEST_F(ServeLoopback, ShutdownOpDrainsTheServer) {
  net::Client c("127.0.0.1", server_->port());
  EXPECT_EQ(c.list().size(), 1u);
  c.shutdown_server();  // ack arrives before the drain
  server_->wait();      // returns because the op requested a stop
  server_->stop();
  EXPECT_TRUE(server_->stopping());
  // A stopped server refuses new connections.
  EXPECT_THROW(net::Client("127.0.0.1", server_->port()), Error);
}

}  // namespace
}  // namespace server
}  // namespace transpwr
