#include "store/archive.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/bytestream.h"
#include "common/checksum.h"
#include "common/decode_guard.h"
#include "common/env.h"
#include "common/error.h"
#include "common/parallel.h"
#include "obs/obs.h"
#include "store/chunk_cache.h"

namespace transpwr {
namespace store {
namespace {

constexpr std::uint32_t kMagic = 0x31415054;     // "TPA1"
constexpr std::uint32_t kEndMagic = 0x45415054;  // "TPAE"
// v1: directory only. v2 appends an optional per-dataset summary section
// (ChunkSummary per chunk) after the chunk entries. The writer always
// emits v2; the reader accepts both.
constexpr std::uint32_t kVersionV1 = 1;
constexpr std::uint32_t kWriterVersion = 2;
constexpr std::uint64_t kHeadSize = 8;     // magic + version
constexpr std::uint64_t kTrailerSize = 20;  // footer fnv + footer size + end magic
constexpr std::size_t kMaxNameLen = 255;
constexpr std::size_t kMaxDatasets = 1u << 20;

/// Head: magic + format version.
std::vector<std::uint8_t> head_bytes() {
  ByteWriter head;
  head.put(kMagic);
  head.put(kWriterVersion);
  return head.take();
}

/// Footer blob: the whole directory, serialized dataset by dataset. The
/// trailer (checksum + size + end magic) frames it from the file's tail.
/// v2 appends, after each dataset's chunk entries, a `u8 has_summary`
/// flag and — when set — `u32 hist_buckets` followed by one 184-byte
/// ChunkSummary block per chunk.
std::vector<std::uint8_t> serialize_footer(
    const std::vector<DatasetInfo>& directory) {
  ByteWriter out;
  out.put(static_cast<std::uint32_t>(directory.size()));
  for (const auto& ds : directory) {
    out.put(static_cast<std::uint16_t>(ds.name.size()));
    out.put_bytes({reinterpret_cast<const std::uint8_t*>(ds.name.data()),
                   ds.name.size()});
    out.put(static_cast<std::uint8_t>(ds.dtype));
    out.put(static_cast<std::uint8_t>(ds.scheme));
    out.put(static_cast<std::uint8_t>(ds.dims.nd));
    out.put(std::uint8_t{0});
    for (int i = 0; i < 3; ++i)
      out.put(static_cast<std::uint64_t>(ds.dims.d[static_cast<std::size_t>(i)]));
    out.put(ds.bound);
    out.put(ds.log_base);
    out.put(static_cast<std::uint32_t>(ds.chunks.size()));
    for (const auto& c : ds.chunks) {
      out.put(c.rows);
      out.put(c.offset);
      out.put(c.size);
      out.put(c.checksum);
    }
    out.put(std::uint8_t{ds.has_summaries() ? std::uint8_t{1}
                                            : std::uint8_t{0}});
    if (ds.has_summaries()) {
      out.put(static_cast<std::uint32_t>(ChunkSummary::kHistBuckets));
      for (const auto& s : ds.summaries) {
        out.put(s.min);
        out.put(s.max);
        out.put(s.sum);
        out.put(s.finite);
        out.put(s.nan);
        out.put(s.pos_inf);
        out.put(s.neg_inf);
        for (auto h : s.hist) out.put(h);
      }
    }
  }
  return out.take();
}

/// Structural validation of one parsed summary block against its chunk's
/// element count. Rejects any block our writer could not have produced,
/// so a flipped bit that survives into parse (it cannot — the footer is
/// checksummed — but hand-built or fuzzed footers can) is a StreamError.
void validate_summary(const ChunkSummary& s, std::uint64_t chunk_elems,
                      const std::string& ds_name) {
  auto fail = [&](const char* why) {
    throw StreamError("archive: dataset " + ds_name + " summary block " +
                      why);
  };
  if (s.finite > chunk_elems || s.nan > chunk_elems ||
      s.pos_inf > chunk_elems || s.neg_inf > chunk_elems ||
      s.finite + s.nan + s.pos_inf + s.neg_inf != chunk_elems)
    fail("tallies do not sum to the chunk element count");
  std::uint64_t hist_sum = 0;
  for (auto h : s.hist) {
    if (h > s.finite || hist_sum > s.finite - h)
      fail("histogram does not sum to the finite tally");
    hist_sum += h;
  }
  if (hist_sum != s.finite)
    fail("histogram does not sum to the finite tally");
  if (s.finite == 0) {
    if (s.min != std::numeric_limits<double>::infinity() ||
        s.max != -std::numeric_limits<double>::infinity() || s.sum != 0)
      fail("has no finite values but non-sentinel statistics");
  } else {
    if (!std::isfinite(s.min) || !std::isfinite(s.max) || s.min > s.max ||
        std::isnan(s.sum))
      fail("min/max/sum are inconsistent");
  }
}

/// Parse and validate the footer blob. `payload_end` is the absolute offset
/// where the footer begins — every chunk extent must tile
/// [kHeadSize, payload_end) exactly, in directory order, so *any* byte of
/// the file is covered by either a field compare or a checksum. `plans`
/// receives each dataset's validated chunk row plan.
std::vector<DatasetInfo> parse_directory(std::span<const std::uint8_t> footer,
                                         std::uint64_t payload_end,
                                         std::uint32_t version,
                                         std::vector<slab::Plan>& plans) {
  ByteReader in(footer);
  auto count = in.get<std::uint32_t>();
  if (count > kMaxDatasets)
    throw StreamError("archive: implausible dataset count");
  std::vector<DatasetInfo> directory;
  directory.reserve(count);
  std::uint64_t expected = kHeadSize;
  for (std::uint32_t d = 0; d < count; ++d) {
    DatasetInfo ds;
    auto name_len = in.get<std::uint16_t>();
    if (name_len == 0 || name_len > kMaxNameLen)
      throw StreamError("archive: bad dataset name length");
    auto name_bytes = in.get_bytes(name_len);
    ds.name.assign(reinterpret_cast<const char*>(name_bytes.data()),
                   name_bytes.size());
    for (const auto& prev : directory)
      if (prev.name == ds.name)
        throw StreamError("archive: duplicate dataset name " + ds.name);
    auto dtype = in.get<std::uint8_t>();
    if (dtype > static_cast<std::uint8_t>(DataType::kFloat64))
      throw StreamError("archive: unknown dtype byte");
    ds.dtype = static_cast<DataType>(dtype);
    auto scheme = in.get<std::uint8_t>();
    if (scheme > static_cast<std::uint8_t>(Scheme::kSziT))
      throw StreamError("archive: unknown scheme byte");
    ds.scheme = static_cast<Scheme>(scheme);
    ds.dims.nd = in.get<std::uint8_t>();
    in.get<std::uint8_t>();
    for (int i = 0; i < 3; ++i)
      ds.dims.d[static_cast<std::size_t>(i)] =
          static_cast<std::size_t>(in.get<std::uint64_t>());
    checked_count(ds.dims, "archive");
    ds.bound = in.get<double>();
    ds.log_base = in.get<double>();
    auto nchunks = in.get<std::uint32_t>();
    // Each chunk needs its 32-byte directory entry in the footer.
    if (nchunks == 0 || nchunks > ds.dims[0] ||
        nchunks > footer.size() / 32)
      throw StreamError("archive: implausible chunk count for " + ds.name);
    ds.chunks.resize(nchunks);
    std::vector<std::uint64_t> rows(nchunks);
    for (std::uint32_t i = 0; i < nchunks; ++i) {
      ChunkInfo& c = ds.chunks[i];
      c.rows = rows[i] = in.get<std::uint64_t>();
      c.offset = in.get<std::uint64_t>();
      c.size = in.get<std::uint64_t>();
      c.checksum = in.get<std::uint64_t>();
      if (c.offset != expected)
        throw StreamError("archive: chunk extents do not tile the payload");
      if (c.size > payload_end - expected)
        throw StreamError("archive: chunk extends past the footer");
      expected += c.size;
    }
    plans.push_back(slab::Plan::from_table(ds.dims[0], rows, "archive"));
    if (version >= 2) {
      auto has_summary = in.get<std::uint8_t>();
      if (has_summary > 1)
        throw StreamError("archive: bad summary flag for " + ds.name);
      if (has_summary) {
        auto buckets = in.get<std::uint32_t>();
        if (buckets != ChunkSummary::kHistBuckets)
          throw StreamError("archive: unsupported summary bucket count for " +
                            ds.name);
        const std::uint64_t row_elems = ds.dims.count() / ds.dims[0];
        ds.summaries.resize(nchunks);
        for (std::uint32_t i = 0; i < nchunks; ++i) {
          ChunkSummary& s = ds.summaries[i];
          s.min = in.get<double>();
          s.max = in.get<double>();
          s.sum = in.get<double>();
          s.finite = in.get<std::uint64_t>();
          s.nan = in.get<std::uint64_t>();
          s.pos_inf = in.get<std::uint64_t>();
          s.neg_inf = in.get<std::uint64_t>();
          for (auto& h : s.hist) h = in.get<std::uint64_t>();
          validate_summary(s, ds.chunks[i].rows * row_elems, ds.name);
        }
      }
    }
    directory.push_back(std::move(ds));
  }
  if (in.remaining() != 0)
    throw StreamError("archive: trailing bytes after the directory");
  if (expected != payload_end)
    throw StreamError("archive: chunk extents do not tile the payload");
  return directory;
}

}  // namespace

template <typename T>
ChunkSummary summarize_values(std::span<const T> values) {
  ChunkSummary s;
  for (T v : values) {
    const double d = static_cast<double>(v);
    if (std::isnan(d)) {
      ++s.nan;
    } else if (std::isinf(d)) {
      ++(d > 0 ? s.pos_inf : s.neg_inf);
    } else {
      ++s.finite;
      s.min = std::min(s.min, d);
      s.max = std::max(s.max, d);
      s.sum += d;
    }
  }
  if (s.finite == 0) return s;
  // Second pass: equal-width histogram over the chunk-local range. The
  // bucket index is computed in double and clamped, guarding against both
  // the d == max edge (which lands exactly on kHistBuckets) and a range
  // whose width overflows to +inf (where the ratio can go NaN).
  const double lo = s.min;
  const double width = s.max - s.min;
  for (T v : values) {
    const double d = static_cast<double>(v);
    if (std::isnan(d) || std::isinf(d)) continue;
    std::size_t bucket = 0;
    if (width > 0) {
      const double x =
          (d - lo) / width * static_cast<double>(ChunkSummary::kHistBuckets);
      if (x >= static_cast<double>(ChunkSummary::kHistBuckets - 1))
        bucket = ChunkSummary::kHistBuckets - 1;
      else if (x > 0)
        bucket = static_cast<std::size_t>(x);
    }
    ++s.hist[bucket];
  }
  return s;
}

template ChunkSummary summarize_values<float>(std::span<const float>);
template ChunkSummary summarize_values<double>(std::span<const double>);

// --- ArchiveWriter ----------------------------------------------------------

ArchiveWriter::ArchiveWriter(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".part") {
  if (path_.empty()) throw ParamError("archive: empty path");
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (!file_) throw StreamError("archive: cannot open " + tmp_path_);
  append(head_bytes());
}

ArchiveWriter::ArchiveWriter(std::vector<std::uint8_t>* buffer)
    : mem_(buffer) {
  if (!mem_) throw ParamError("archive: null buffer");
  mem_->clear();
  append(head_bytes());
}

ArchiveWriter::~ArchiveWriter() {
  if (file_) std::fclose(file_);
  if (!finished_ && !tmp_path_.empty()) std::remove(tmp_path_.c_str());
}

void ArchiveWriter::append(std::span<const std::uint8_t> bytes) {
  // Poisoned until the bytes are in: a failed append leaves a torn file.
  failed_ = true;
  if (file_) {
    if (!bytes.empty() &&
        std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size())
      throw StreamError("archive: short write to " + tmp_path_);
  } else {
    mem_->insert(mem_->end(), bytes.begin(), bytes.end());
  }
  failed_ = false;
  offset_ += bytes.size();
}

void ArchiveWriter::require_usable(const char* verb) const {
  if (finished_)
    throw ParamError(std::string("archive: ") + verb + " after finish");
  if (failed_)
    throw StreamError(std::string("archive: ") + verb +
                      " on a poisoned writer (an earlier dataset failed)");
}

void ArchiveWriter::check_new_name(const std::string& name) const {
  if (name.empty() || name.size() > kMaxNameLen)
    throw ParamError("archive: dataset name must be 1.." +
                     std::to_string(kMaxNameLen) + " bytes");
  for (const auto& ds : directory_)
    if (ds.name == name)
      throw ParamError("archive: duplicate dataset name " + name);
}

template <typename T>
void ArchiveWriter::add_dataset(const std::string& name,
                                std::span<const T> data, Dims dims,
                                const DatasetOptions& opts) {
  require_usable("add_dataset");
  check_new_name(name);
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("archive: data size does not match dims");
  obs::Span root_span("archive.add_dataset");

  const std::size_t threads = opts.threads ? opts.threads : default_threads();
  const auto plan = opts.rows_per_chunk
                        ? slab::Plan::of_rows(dims[0], opts.rows_per_chunk)
                        : slab::Plan::of_count(dims[0], threads);
  const std::size_t row_elems = dims.count() / dims[0];
  std::vector<std::vector<std::uint8_t>> streams(plan.size());
  std::vector<ChunkSummary> summaries(plan.size());
  DatasetInfo info{.name = name, .dtype = data_type_of<T>(),
                   .scheme = opts.scheme, .dims = dims,
                   .bound = opts.params.bound,
                   .log_base = opts.params.log_base, .chunks = {},
                   .summaries = {}};
  try {
    slab::compress_in_order(
        plan.size(), threads,
        [&](std::size_t i) {
          const Dims cdims = plan.dims(i, dims);
          streams[i] = make_compressor(opts.scheme)->compress(
              data.subspan(plan.row_begin(i) * row_elems, cdims.count()),
              cdims, opts.params);
          if (opts.summaries) {
            // Summaries describe what a reader will reconstruct, so decode
            // the stream we just wrote rather than summarizing the input:
            // query answers then match decompress-then-scan bit-for-bit.
            auto rec = slab::decode<T>(opts.scheme, streams[i], cdims);
            summaries[i] = summarize_values<T>(std::span<const T>(rec));
          }
        },
        [&](std::size_t i) {
          info.chunks.push_back({plan.rows(i), offset_, streams[i].size(),
                                 fnv1a64(streams[i])});
          append(streams[i]);
          obs::counter_add("archive.chunks_written");
          obs::counter_add("archive.bytes_written", streams[i].size());
          streams[i] = {};
        });
  } catch (...) {
    // Chunks may have been partially appended; the byte stream no longer
    // matches any directory we could write, so the archive is abandoned.
    failed_ = true;
    throw;
  }
  if (opts.summaries) {
    obs::counter_add("archive.summary_chunks", plan.size());
    info.summaries = std::move(summaries);
  }
  directory_.push_back(std::move(info));
}

void ArchiveWriter::add_compressed(const std::string& name, DataType dtype,
                                   Scheme scheme, Dims dims, double bound,
                                   double log_base,
                                   std::span<const std::uint8_t> stream,
                                   bool with_summary) {
  require_usable("add_compressed");
  check_new_name(name);
  dims.validate();
  if (stream.empty()) throw ParamError("archive: empty compressed stream");

  DatasetInfo info{.name = name, .dtype = dtype, .scheme = scheme,
                   .dims = dims, .bound = bound, .log_base = log_base,
                   .chunks = {}, .summaries = {}};
  if (with_summary) {
    // Callers hand us opaque rank streams; one that does not decode (or
    // decodes to the wrong shape) is still archived verbatim — it just
    // gets no summary, and queries over it fall back to full scans.
    try {
      if (dtype == DataType::kFloat32) {
        auto rec = slab::decode<float>(scheme, stream, dims);
        info.summaries.push_back(
            summarize_values<float>(std::span<const float>(rec)));
      } else {
        auto rec = slab::decode<double>(scheme, stream, dims);
        info.summaries.push_back(
            summarize_values<double>(std::span<const double>(rec)));
      }
      obs::counter_add("archive.summary_chunks");
    } catch (const Error&) {
      // no summary for this dataset
    }
  }
  info.chunks.push_back({dims[0], offset_, stream.size(), fnv1a64(stream)});
  append(stream);
  directory_.push_back(std::move(info));
}

void ArchiveWriter::finish() {
  require_usable("finish");
  obs::Span root_span("archive.finish");
  auto footer = serialize_footer(directory_);
  ByteWriter trailer;
  trailer.put(fnv1a64(footer));
  trailer.put(static_cast<std::uint64_t>(footer.size()));
  trailer.put(kEndMagic);
  append(footer);
  append(trailer.take());
  if (file_) {
    bool flushed = std::fflush(file_) == 0;
    std::fclose(file_);
    file_ = nullptr;
    if (!flushed || std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
      failed_ = true;
      std::remove(tmp_path_.c_str());
      throw StreamError("archive: cannot finalize " + path_);
    }
  }
  finished_ = true;
}

template void ArchiveWriter::add_dataset<float>(const std::string&,
                                                std::span<const float>, Dims,
                                                const DatasetOptions&);
template void ArchiveWriter::add_dataset<double>(const std::string&,
                                                 std::span<const double>,
                                                 Dims, const DatasetOptions&);

// --- ArchiveReader ----------------------------------------------------------

namespace {

/// Running total of bytes this process has mmap'ed for TPAR archives,
/// mirrored into the `archive.mapped_bytes` gauge on every open/close.
std::atomic<std::uint64_t> g_mapped_bytes{0};

bool mmap_allowed() {
  return env::checked_u64("TRANSPWR_ARCHIVE_MMAP",
                          {/*min=*/0, /*max=*/1, /*clamp=*/false})
             .value_or(1) != 0;
}

}  // namespace

ArchiveReader::ArchiveReader(const std::string& path) {
  try {
    file_ = MappedFile(path, mmap_allowed());
  } catch (const StreamError&) {
    throw StreamError("archive: cannot open " + path);
  }
  size_ = file_.size();
  view_ = file_.view();
  parse_footer();
  cache_id_ = file_archive_id(file_.device(), file_.inode(), size_,
                              file_.mtime_ns());
  if (file_.mapped()) {
    obs::gauge_set("archive.mapped_bytes",
                   static_cast<double>(g_mapped_bytes.fetch_add(
                                           size_, std::memory_order_relaxed) +
                                       size_));
  }
}

ArchiveReader::ArchiveReader(std::span<const std::uint8_t> bytes)
    : view_(bytes), size_(bytes.size()), cache_id_(memory_archive_id()) {
  parse_footer();
}

ArchiveReader::~ArchiveReader() {
  if (file_.mapped()) {
    obs::gauge_set("archive.mapped_bytes",
                   static_cast<double>(g_mapped_bytes.fetch_sub(
                                           size_, std::memory_order_relaxed) -
                                       size_));
  }
}

void ArchiveReader::parse_footer() {
  if (size_ < kHeadSize + kTrailerSize)
    throw StreamError("archive: file too small to be a TPAR archive");

  // Zero-copy modes parse head/trailer/footer in place; the pread
  // fallback copies just those framing regions (never the payload).
  const ChunkBytes head = fetch(0, kHeadSize, "header");
  ByteReader hin(head.bytes);
  if (hin.get<std::uint32_t>() != kMagic)
    throw StreamError("archive: bad magic (not a TPAR archive)");
  version_ = hin.get<std::uint32_t>();
  if (version_ != kVersionV1 && version_ != kWriterVersion)
    throw StreamError("archive: unsupported version");

  const ChunkBytes trailer = fetch(size_ - kTrailerSize, kTrailerSize,
                                   "trailer");
  ByteReader tin(trailer.bytes);
  auto footer_sum = tin.get<std::uint64_t>();
  auto footer_size = tin.get<std::uint64_t>();
  if (tin.get<std::uint32_t>() != kEndMagic)
    throw StreamError("archive: bad end magic (truncated archive?)");
  if (footer_size > size_ - kHeadSize - kTrailerSize)
    throw StreamError("archive: footer size exceeds the file");
  const std::uint64_t footer_start = size_ - kTrailerSize - footer_size;
  const ChunkBytes footer = fetch(footer_start, footer_size, "footer");
  if (fnv1a64(footer.bytes) != footer_sum)
    throw StreamError("archive: footer checksum mismatch (corrupt archive)");
  directory_ = parse_directory(footer.bytes, footer_start, version_, plans_);

  // Lay out the lazy-verification bitmap: one bit per chunk, flattened in
  // directory order. All bits start unverified; chunk counts were already
  // bounded by the footer size, so this allocation is footer-sized at
  // worst.
  chunk_bit_base_.clear();
  chunk_bit_base_.reserve(directory_.size());
  std::size_t total_chunks = 0;
  for (const auto& ds : directory_) {
    chunk_bit_base_.push_back(total_chunks);
    total_chunks += ds.chunks.size();
  }
  verified_ = std::make_unique<std::atomic<std::uint64_t>[]>(
      (total_chunks + 63) / 64);
}

bool ArchiveReader::chunk_verified(std::size_t flat_index) const {
  return (verified_[flat_index / 64].load(std::memory_order_acquire) >>
          (flat_index % 64)) &
         1u;
}

void ArchiveReader::mark_chunk_verified(std::size_t flat_index) {
  verified_[flat_index / 64].fetch_or(std::uint64_t{1} << (flat_index % 64),
                                      std::memory_order_release);
}

std::size_t ArchiveReader::dataset_index(const std::string& name) const {
  for (std::size_t d = 0; d < directory_.size(); ++d)
    if (directory_[d].name == name) return d;
  throw ParamError("archive: no dataset named " + name);
}

const DatasetInfo& ArchiveReader::dataset(const std::string& name) const {
  return directory_[dataset_index(name)];
}

namespace {

[[noreturn]] void throw_corrupt_chunk(const DatasetInfo& ds,
                                      std::size_t chunk) {
  obs::counter_add("archive.checksum_mismatches");
  throw StreamError("archive: dataset " + ds.name + " chunk " +
                    std::to_string(chunk) +
                    " checksum mismatch (corrupt archive)");
}

}  // namespace

ArchiveReader::ChunkBytes ArchiveReader::fetch(std::uint64_t offset,
                                               std::uint64_t len,
                                               const char* what) const {
  ChunkBytes out;
  if (!view_.empty()) {
    // Callers stay inside the file: framing offsets are checked against
    // its size, and chunk extents were validated to tile [head, footer).
    out.bytes = view_.subspan(static_cast<std::size_t>(offset),
                              static_cast<std::size_t>(len));
  } else {
    check_decode_alloc(static_cast<std::size_t>(len), 1, "archive");
    out.owned.resize(static_cast<std::size_t>(len));
    file_.read_at(offset, out.owned, what);
    out.bytes = out.owned;
  }
  return out;
}

ArchiveReader::ChunkBytes ArchiveReader::chunk_bytes(std::size_t ds_index,
                                                     std::size_t chunk) {
  const DatasetInfo& ds = directory_[ds_index];
  const ChunkInfo& c = ds.chunks[chunk];
  ChunkBytes out = fetch(c.offset, c.size, "chunk");
  const std::size_t flat = chunk_bit_base_[ds_index] + chunk;
  if (chunk_verified(flat)) {
    obs::counter_add("archive.verify_skips");
  } else {
    // First touch: verify now, remember only success — a corrupt chunk
    // must fail on every touch, so a failed verdict is never recorded.
    if (fnv1a64(out.bytes) != c.checksum) throw_corrupt_chunk(ds, chunk);
    obs::counter_add("archive.lazy_verifies");
    mark_chunk_verified(flat);
  }
  obs::counter_add("archive.chunks_read");
  return out;
}

std::vector<std::uint8_t> ArchiveReader::read_chunk_bytes(
    const std::string& name, std::size_t chunk) {
  const std::size_t di = dataset_index(name);
  if (chunk >= directory_[di].chunks.size())
    throw ParamError("archive: chunk index out of range for " + name);
  auto cb = chunk_bytes(di, chunk);
  return std::vector<std::uint8_t>(cb.bytes.begin(), cb.bytes.end());
}

template <typename T>
slab::Decoded ArchiveReader::chunk_values(std::size_t ds_index,
                                          std::size_t chunk) {
  const DatasetInfo& ds = directory_[ds_index];
  ChunkCache& cache = ChunkCache::instance();
  const ChunkKey key{cache_id_, static_cast<std::uint32_t>(ds_index),
                     static_cast<std::uint32_t>(chunk),
                     ds.chunks[chunk].checksum};
  if (auto hit = cache.get(key)) return {*hit, hit};
  auto cb = chunk_bytes(ds_index, chunk);
  auto data = slab::decode<T>(ds.scheme, cb.bytes,
                              plans_[ds_index].dims(chunk, ds.dims));
  if (cache.capacity() != 0) {
    const auto* raw = reinterpret_cast<const std::uint8_t*>(data.data());
    cache.put(key, std::make_shared<std::vector<std::uint8_t>>(
                       raw, raw + data.size() * sizeof(T)));
  }
  return slab::own(std::move(data));
}

template <typename T>
std::vector<T> ArchiveReader::read_range(const std::string& name,
                                         std::size_t row_begin,
                                         std::size_t row_end,
                                         Dims* roi_dims_out,
                                         std::size_t threads) {
  const std::size_t di = dataset_index(name);
  const DatasetInfo& ds = directory_[di];
  if (ds.dtype != data_type_of<T>())
    throw StreamError("archive: dataset " + name +
                      " data type does not match");
  // I/O, verification, and decode all happen inside the fetches: chunk
  // bytes come from the mapping (or positional reads) with no shared seek
  // position, so nothing serializes.
  return slab::read_rows<T>(
      plans_[di], ds.dims, row_begin, row_end, threads,
      [&](std::size_t i) { return chunk_values<T>(di, i); }, "archive",
      roi_dims_out);
}

template <typename T>
std::vector<T> ArchiveReader::load(const std::string& name, Dims* dims_out,
                                   std::size_t threads) {
  obs::Span root_span("archive.load");
  return read_range<T>(name, 0, dataset(name).dims[0], dims_out, threads);
}

template <typename T>
std::vector<T> ArchiveReader::load_chunk(const std::string& name,
                                         std::size_t chunk,
                                         Dims* chunk_dims_out) {
  const slab::Plan& plan = plans_[dataset_index(name)];
  if (chunk >= plan.size())
    throw ParamError("archive: chunk index out of range for " + name);
  return read_range<T>(name, plan.row_begin(chunk), plan.row_begin(chunk + 1),
                       chunk_dims_out, 1);
}

template <typename T>
std::vector<T> ArchiveReader::read_rows(const std::string& name,
                                        std::size_t row_begin,
                                        std::size_t row_end,
                                        Dims* roi_dims_out,
                                        std::size_t threads) {
  obs::Span root_span("archive.read_rows");
  return read_range<T>(name, row_begin, row_end, roi_dims_out, threads);
}

void ArchiveReader::verify() {
  obs::Span root_span("archive.verify");
  for (std::size_t d = 0; d < directory_.size(); ++d) {
    const auto& ds = directory_[d];
    for (std::size_t i = 0; i < ds.chunks.size(); ++i) {
      const ChunkInfo& c = ds.chunks[i];
      if (fnv1a64(fetch(c.offset, c.size, "chunk").bytes) != c.checksum)
        throw_corrupt_chunk(ds, i);
      // The eager scan proved this chunk good; later loads can skip it.
      mark_chunk_verified(chunk_bit_base_[d] + i);
    }
  }
}

template std::vector<float> ArchiveReader::load<float>(const std::string&,
                                                       Dims*, std::size_t);
template std::vector<double> ArchiveReader::load<double>(const std::string&,
                                                         Dims*, std::size_t);
template std::vector<float> ArchiveReader::load_chunk<float>(
    const std::string&, std::size_t, Dims*);
template std::vector<double> ArchiveReader::load_chunk<double>(
    const std::string&, std::size_t, Dims*);
template std::vector<float> ArchiveReader::read_rows<float>(
    const std::string&, std::size_t, std::size_t, Dims*, std::size_t);
template std::vector<double> ArchiveReader::read_rows<double>(
    const std::string&, std::size_t, std::size_t, Dims*, std::size_t);

}  // namespace store
}  // namespace transpwr
