#include "store/archive_json.h"

#include "metrics/metrics.h"
#include "obs/obs.h"

namespace transpwr {
namespace store {
namespace {

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_dataset(std::string& out, const DatasetInfo& ds) {
  const std::uint64_t compressed = ds.compressed_bytes();
  const std::uint64_t raw = ds.dims.count() * size_of(ds.dtype);
  out += "{\"name\":";
  obs::json_append_quoted(out, ds.name);
  out += ",\"scheme\":";
  obs::json_append_quoted(out, scheme_name(ds.scheme));
  out += ",\"dtype\":";
  obs::json_append_quoted(out, ds.dtype == DataType::kFloat32 ? "f32" : "f64");
  out += ",\"dims\":[";
  for (int i = 0; i < ds.dims.nd; ++i) {
    if (i) out += ',';
    append_u64(out, ds.dims[i]);
  }
  out += "],\"chunks\":";
  append_u64(out, ds.chunks.size());
  out += ",\"summaries\":";
  out += ds.has_summaries() ? "true" : "false";
  out += ",\"bound\":";
  obs::json_append_double(out, ds.bound);
  out += ",\"log_base\":";
  obs::json_append_double(out, ds.log_base);
  out += ",\"compressed_bytes\":";
  append_u64(out, compressed);
  out += ",\"raw_bytes\":";
  append_u64(out, raw);
  out += ",\"ratio\":";
  obs::json_append_double(out, compression_ratio(raw, compressed));
  out += '}';
}

}  // namespace

std::string archive_ls_json(const std::string& name,
                            const ArchiveReader& reader) {
  std::string out = "{\"archive\":";
  obs::json_append_quoted(out, name);
  out += ",\"transport\":";
  obs::json_append_quoted(out, reader.mapped() ? "mmap" : "buffered");
  out += ",\"datasets\":[";
  bool first = true;
  for (const auto& ds : reader.datasets()) {
    if (!first) out += ',';
    first = false;
    append_dataset(out, ds);
  }
  out += "]}";
  return out;
}

std::string archive_verify_json(const std::string& name,
                                const ArchiveReader& reader) {
  std::uint64_t chunks = 0, bytes = 0;
  for (const auto& ds : reader.datasets()) {
    chunks += ds.chunks.size();
    bytes += ds.compressed_bytes();
  }
  std::string out = "{\"archive\":";
  obs::json_append_quoted(out, name);
  out += ",\"ok\":true,\"datasets\":";
  append_u64(out, reader.datasets().size());
  out += ",\"chunks\":";
  append_u64(out, chunks);
  out += ",\"payload_bytes\":";
  append_u64(out, bytes);
  out += '}';
  return out;
}

}  // namespace store
}  // namespace transpwr
