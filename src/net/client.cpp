#include "net/client.h"

#include <cstring>

#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "net/frame_io.h"

namespace transpwr {
namespace net {
namespace {

/// Client-side response-size cap: responses carry decoded payloads, so
/// they may legitimately exceed the *request* cap by a lot; bound them
/// by the decode guard like any other untrusted stream.
std::size_t response_cap() { return max_decode_bytes(); }

}  // namespace

Client::Client(const std::string& host, std::uint16_t port)
    : sock_(Socket::connect(host, port)) {
  ping();
}

std::vector<std::uint8_t> Client::call(Op op,
                                       std::span<const std::uint8_t> body) {
  const std::uint32_t seq = next_seq_++;
  write_frame(sock_, encode_frame(op, 0, seq, body));
  Frame resp;
  if (!read_frame(sock_, response_cap(), /*timeout_ms=*/-1, /*wake_fd=*/-1,
                  &resp))
    throw NetError("server closed the connection");
  if (resp.seq != seq)
    throw StreamError("tprq1: response seq " + std::to_string(resp.seq) +
                      " does not match request " + std::to_string(seq));
  if (resp.op != static_cast<std::uint16_t>(op))
    throw StreamError("tprq1: response op does not match request");
  if (resp.is_error()) {
    ErrCode code{};
    std::string message;
    parse_error_body(resp.body, &code, &message);
    throw RemoteError(code, message);
  }
  return std::move(resp.body);
}

void Client::ping() {
  static constexpr std::uint8_t kEcho[] = {0x7f, 0x00, 0x42};
  auto body = call(Op::kPing, kEcho);
  if (body.size() != sizeof kMagic + sizeof kEcho ||
      std::memcmp(body.data(), kMagic, sizeof kMagic) != 0 ||
      std::memcmp(body.data() + sizeof kMagic, kEcho, sizeof kEcho) != 0)
    throw StreamError("tprq1: bad ping response (not a TPRQ1 server?)");
}

std::vector<std::string> Client::list() {
  auto body = call(Op::kList, {});
  ByteReader in(body);
  auto n = in.get<std::uint32_t>();
  std::vector<std::string> names;
  names.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) names.push_back(get_string(in));
  if (in.remaining() != 0)
    throw StreamError("tprq1: trailing bytes in list response");
  return names;
}

std::vector<RemoteDataset> Client::stat(const std::string& archive) {
  ByteWriter req;
  put_string(req, archive);
  auto req_bytes = req.take();
  auto body = call(Op::kStat, req_bytes);
  ByteReader in(body);
  auto n = in.get<std::uint32_t>();
  std::vector<RemoteDataset> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RemoteDataset ds;
    ds.name = get_string(in);
    ds.dtype = static_cast<DataType>(in.get<std::uint8_t>());
    ds.scheme = static_cast<Scheme>(in.get<std::uint8_t>());
    ds.dims = read_dims(in.get<std::uint8_t>(), in, "tprq1");
    ds.bound = in.get<double>();
    ds.log_base = in.get<double>();
    ds.chunks = in.get<std::uint64_t>();
    ds.compressed_bytes = in.get<std::uint64_t>();
    out.push_back(std::move(ds));
  }
  if (in.remaining() != 0)
    throw StreamError("tprq1: trailing bytes in stat response");
  return out;
}

RemotePayload Client::parse_payload(std::span<const std::uint8_t> body) {
  ByteReader in(body);
  RemotePayload p;
  p.dtype = static_cast<DataType>(in.get<std::uint8_t>());
  p.dims = read_dims(in.get<std::uint8_t>(), in, "tprq1");
  auto payload = in.get_sized();
  if (in.remaining() != 0)
    throw StreamError("tprq1: trailing bytes in payload response");
  if (payload.size() != p.dims.count() * size_of(p.dtype))
    throw StreamError("tprq1: payload size does not match its dims");
  p.bytes.assign(payload.begin(), payload.end());
  return p;
}

RemotePayload Client::load(const std::string& archive,
                           const std::string& dataset) {
  ByteWriter req;
  put_string(req, archive);
  put_string(req, dataset);
  auto req_bytes = req.take();
  return parse_payload(call(Op::kLoad, req_bytes));
}

RemotePayload Client::read_rows(const std::string& archive,
                                const std::string& dataset,
                                std::uint64_t row_begin,
                                std::uint64_t row_end) {
  ByteWriter req;
  put_string(req, archive);
  put_string(req, dataset);
  req.put(row_begin);
  req.put(row_end);
  auto req_bytes = req.take();
  return parse_payload(call(Op::kReadRows, req_bytes));
}

std::vector<std::uint8_t> Client::chunk_bytes(const std::string& archive,
                                              const std::string& dataset,
                                              std::uint64_t chunk) {
  ByteWriter req;
  put_string(req, archive);
  put_string(req, dataset);
  req.put(chunk);
  auto req_bytes = req.take();
  auto body = call(Op::kChunkBytes, req_bytes);
  ByteReader in(body);
  auto bytes = in.get_sized();
  if (in.remaining() != 0)
    throw StreamError("tprq1: trailing bytes in chunk_bytes response");
  return {bytes.begin(), bytes.end()};
}

std::uint64_t Client::verify(const std::string& archive) {
  ByteWriter req;
  put_string(req, archive);
  auto req_bytes = req.take();
  auto body = call(Op::kVerify, req_bytes);
  ByteReader in(body);
  in.get<std::uint64_t>();  // datasets
  auto chunks = in.get<std::uint64_t>();
  in.get<std::uint64_t>();  // payload bytes
  if (in.remaining() != 0)
    throw StreamError("tprq1: trailing bytes in verify response");
  return chunks;
}

namespace {

std::vector<std::uint8_t> query_request(const std::string& archive,
                                        const std::string& dataset,
                                        QueryKind kind, QueryCmp cmp,
                                        double threshold,
                                        std::uint64_t row_begin,
                                        std::uint64_t row_end,
                                        std::uint64_t points) {
  ByteWriter req;
  put_string(req, archive);
  put_string(req, dataset);
  req.put(static_cast<std::uint8_t>(kind));
  req.put(static_cast<std::uint8_t>(cmp));
  req.put(threshold);
  req.put(row_begin);
  req.put(row_end);
  req.put(points);
  return req.take();
}

void expect_drained(const ByteReader& in, const char* what) {
  if (in.remaining() != 0)
    throw StreamError(std::string("tprq1: trailing bytes in ") + what +
                      " response");
}

}  // namespace

RemoteChunkMatches Client::query_chunks(const std::string& archive,
                                        const std::string& dataset,
                                        QueryCmp cmp, double threshold) {
  auto req = query_request(archive, dataset, QueryKind::kChunks, cmp,
                           threshold, 0, 0, 0);
  auto body = call(Op::kQuery, req);
  ByteReader in(body);
  RemoteChunkMatches out;
  out.chunks_total = in.get<std::uint64_t>();
  out.chunks_pruned = in.get<std::uint64_t>();
  out.chunks_decoded = in.get<std::uint64_t>();
  auto n = in.get<std::uint32_t>();
  if (n > out.chunks_total)
    throw StreamError("tprq1: more query matches than chunks");
  out.matches.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    RemoteChunkMatch m;
    m.chunk = in.get<std::uint64_t>();
    m.row_begin = in.get<std::uint64_t>();
    m.row_end = in.get<std::uint64_t>();
    out.matches.push_back(m);
  }
  expect_drained(in, "query chunks");
  return out;
}

RemoteAggregate Client::query_aggregate(const std::string& archive,
                                        const std::string& dataset,
                                        std::uint64_t row_begin,
                                        std::uint64_t row_end) {
  auto req = query_request(archive, dataset, QueryKind::kAgg, QueryCmp::kGt,
                           0, row_begin, row_end, 0);
  auto body = call(Op::kQuery, req);
  ByteReader in(body);
  RemoteAggregate out;
  out.min = in.get<double>();
  out.max = in.get<double>();
  out.sum = in.get<double>();
  out.count = in.get<std::uint64_t>();
  out.finite = in.get<std::uint64_t>();
  out.nan = in.get<std::uint64_t>();
  out.pos_inf = in.get<std::uint64_t>();
  out.neg_inf = in.get<std::uint64_t>();
  out.chunks_pruned = in.get<std::uint64_t>();
  out.chunks_decoded = in.get<std::uint64_t>();
  expect_drained(in, "query agg");
  return out;
}

RemoteCount Client::query_count(const std::string& archive,
                                const std::string& dataset, QueryCmp cmp,
                                double threshold, std::uint64_t row_begin,
                                std::uint64_t row_end) {
  auto req = query_request(archive, dataset, QueryKind::kCount, cmp,
                           threshold, row_begin, row_end, 0);
  auto body = call(Op::kQuery, req);
  ByteReader in(body);
  RemoteCount out;
  out.matching = in.get<std::uint64_t>();
  out.total = in.get<std::uint64_t>();
  out.chunks_pruned = in.get<std::uint64_t>();
  out.chunks_decoded = in.get<std::uint64_t>();
  expect_drained(in, "query count");
  return out;
}

RemotePreview Client::query_preview(const std::string& archive,
                                    const std::string& dataset,
                                    std::uint64_t points,
                                    std::uint64_t row_begin,
                                    std::uint64_t row_end) {
  auto req = query_request(archive, dataset, QueryKind::kPreview,
                           QueryCmp::kGt, 0, row_begin, row_end, points);
  auto body = call(Op::kQuery, req);
  ByteReader in(body);
  RemotePreview out;
  out.stride = in.get<std::uint64_t>();
  out.chunks_decoded = in.get<std::uint64_t>();
  auto n = in.get<std::uint32_t>();
  if (static_cast<std::size_t>(n) * 16 > in.remaining())
    throw StreamError("tprq1: preview point count exceeds the response");
  out.rows.reserve(n);
  out.values.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    out.rows.push_back(in.get<std::uint64_t>());
    out.values.push_back(in.get<double>());
  }
  expect_drained(in, "query preview");
  return out;
}

void Client::shutdown_server() { call(Op::kShutdown, {}); }

}  // namespace net
}  // namespace transpwr
