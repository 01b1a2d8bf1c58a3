#include "parallel/chunked.h"

#include <algorithm>
#include <string>

#include "common/bytestream.h"
#include "common/checksum.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/parallel.h"
#include "obs/obs.h"

namespace transpwr {
namespace chunked {
namespace {

constexpr std::uint32_t kMagic = 0x314B4843;  // "CHK1"

/// Wrap a slab failure so the user sees which slab and why (the seed
/// swallowed the message into a generic "a slab failed").
[[noreturn]] void rethrow_slab_failure(const char* phase, std::size_t slab,
                                       const std::exception& ex) {
  throw StreamError("chunked: slab " + std::to_string(slab) + " failed to " +
                    phase + ": " + ex.what());
}

/// CHK1 header: magic, dtype, scheme, nd, dims and the slab row table.
/// Each slab then follows as its FNV-1a 64 and its u64-sized stream.
template <typename T>
void put_header(ByteWriter& out, Dims dims, Scheme scheme,
                const slab::Plan& plan) {
  out.put(kMagic);
  out.put(static_cast<std::uint8_t>(data_type_of<T>()));
  out.put(static_cast<std::uint8_t>(scheme));
  out.put(static_cast<std::uint8_t>(dims.nd));
  out.put(std::uint8_t{0});
  for (int i = 0; i < 3; ++i)
    out.put(static_cast<std::uint64_t>(dims.d[static_cast<std::size_t>(i)]));
  out.put(static_cast<std::uint32_t>(plan.size()));
  for (std::size_t i = 0; i < plan.size(); ++i)
    out.put(static_cast<std::uint64_t>(plan.rows(i)));
}

/// Compress slabs [first, first + count) of `plan` from `rows`, which
/// starts at slab `first`'s first row, and append them to `out` in order.
template <typename T>
void put_slabs(ByteWriter& out, const Params& params, std::span<const T> rows,
               Dims dims, const slab::Plan& plan, std::size_t first,
               std::size_t count, std::size_t threads) {
  const std::size_t row_elems = dims.count() / dims[0];
  std::vector<std::vector<std::uint8_t>> streams(count);
  slab::compress_in_order(
      count, threads,
      [&](std::size_t k) {
        const std::size_t i = first + k;
        const Dims sdims = plan.dims(i, dims);
        const std::size_t offset =
            (plan.row_begin(i) - plan.row_begin(first)) * row_elems;
        try {
          streams[k] = make_compressor(params.scheme)->compress(
              rows.subspan(offset, sdims.count()), sdims, params.compressor);
        } catch (const std::exception& ex) {
          rethrow_slab_failure("compress", i, ex);
        }
      },
      [&](std::size_t k) {
        out.put(fnv1a64(streams[k]));
        out.put_sized(streams[k]);
        streams[k] = {};
      });
}

/// A parsed CHK1 container; slab streams are views into the input.
struct Container {
  Scheme scheme = Scheme::kSzT;
  Dims dims;
  slab::Plan plan;
  std::vector<std::uint64_t> sums;
  std::vector<std::span<const std::uint8_t>> streams;
};

template <typename T>
Container parse(std::span<const std::uint8_t> stream) {
  ByteReader in(stream);
  if (in.get<std::uint32_t>() != kMagic)
    throw StreamError("chunked: bad magic");
  auto dtype = static_cast<DataType>(in.get<std::uint8_t>());
  if (dtype != data_type_of<T>())
    throw StreamError("chunked: stream data type does not match");
  std::uint8_t scheme_byte = in.get<std::uint8_t>();
  if (scheme_byte > static_cast<std::uint8_t>(Scheme::kSziT))
    throw StreamError("chunked: unknown scheme byte");
  Container c;
  c.scheme = static_cast<Scheme>(scheme_byte);
  c.dims.nd = in.get<std::uint8_t>();
  in.get<std::uint8_t>();
  for (int i = 0; i < 3; ++i)
    c.dims.d[static_cast<std::size_t>(i)] =
        static_cast<std::size_t>(in.get<std::uint64_t>());
  checked_count(c.dims, "chunked");
  auto num_slabs = in.get<std::uint32_t>();
  // Each slab needs at least its 8-byte row count in the stream.
  if (num_slabs == 0 || num_slabs > c.dims[0] ||
      num_slabs > stream.size() / 8)
    throw StreamError("chunked: implausible slab count");
  std::vector<std::uint64_t> rows(num_slabs);
  for (auto& rc : rows) rc = in.get<std::uint64_t>();
  c.plan = slab::Plan::from_table(c.dims[0], rows, "chunked");
  c.sums.resize(num_slabs);
  c.streams.resize(num_slabs);
  for (std::uint32_t i = 0; i < num_slabs; ++i) {
    c.sums[i] = in.get<std::uint64_t>();
    c.streams[i] = in.get_sized();
  }
  return c;
}

/// Rows [row_begin, row_end) of a parsed container, touching (and
/// checksumming) only the slabs that overlap them.
template <typename T>
std::vector<T> read(const Container& c, std::size_t row_begin,
                    std::size_t row_end, Dims* roi_dims_out,
                    std::size_t threads) {
  return slab::read_rows<T>(
      c.plan, c.dims, row_begin, row_end, threads,
      [&](std::size_t i) {
        try {
          if (fnv1a64(c.streams[i]) != c.sums[i])
            throw StreamError("checksum mismatch (corrupt stream)");
          return slab::own(slab::decode<T>(c.scheme, c.streams[i],
                                           c.plan.dims(i, c.dims)));
        } catch (const std::exception& ex) {
          rethrow_slab_failure("decompress", i, ex);
        }
      },
      "chunked", roi_dims_out);
}

}  // namespace

template <typename T>
std::vector<std::uint8_t> compress(std::span<const T> data, Dims dims,
                                   const Params& params) {
  dims.validate();
  if (data.size() != dims.count())
    throw ParamError("chunked: data size does not match dims");
  obs::Span root_span("chunked.compress");
  obs::counter_add("chunked.bytes_in", data.size_bytes());

  const std::size_t threads =
      params.threads ? params.threads : default_threads();
  const auto plan = slab::Plan::of_count(
      dims[0], params.num_chunks ? params.num_chunks : threads);
  ByteWriter out;
  put_header<T>(out, dims, params.scheme, plan);
  put_slabs<T>(out, params, data, dims, plan, 0, plan.size(), threads);

  obs::counter_add("chunked.slabs", plan.size());
  auto container = out.take();
  obs::counter_add("chunked.bytes_out", container.size());
  return container;
}

template <typename T>
std::vector<T> decompress(std::span<const std::uint8_t> stream,
                          Dims* dims_out, std::size_t threads) {
  obs::Span root_span("chunked.decompress");
  const Container c = parse<T>(stream);
  if (dims_out) *dims_out = c.dims;
  return read<T>(c, 0, c.dims[0], nullptr, threads);
}

template <typename T>
std::vector<T> decompress_rows(std::span<const std::uint8_t> stream,
                               std::size_t row_begin, std::size_t row_end,
                               Dims* roi_dims_out, std::size_t threads) {
  obs::Span root_span("chunked.decompress_rows");
  return read<T>(parse<T>(stream), row_begin, row_end, roi_dims_out, threads);
}

// --- StreamingCompressor ------------------------------------------------------

template <typename T>
StreamingCompressor<T>::StreamingCompressor(Dims full_dims, Params params,
                                            std::size_t rows_per_chunk)
    : dims_(full_dims), params_(params) {
  dims_.validate();
  if (rows_per_chunk == 0 || rows_per_chunk > dims_[0])
    throw ParamError("streaming: rows_per_chunk out of range");
  row_elems_ = dims_.count() / dims_[0];
  plan_ = slab::Plan::of_rows(dims_[0], rows_per_chunk);
  buffer_.reserve(rows_per_chunk * row_elems_);
  ByteWriter header;
  put_header<T>(header, dims_, params_.scheme, plan_);
  container_ = header.take();
}

template <typename T>
void StreamingCompressor<T>::append(std::span<const T> rows) {
  if (finished_) throw ParamError("streaming: append after finish");
  if (rows.size() % row_elems_ != 0)
    throw ParamError("streaming: append size must be whole rows");
  std::size_t n_rows = rows.size() / row_elems_;
  if (n_rows > rows_remaining())
    throw ParamError("streaming: more rows than the field holds");
  std::size_t consumed = 0;
  while (consumed < n_rows) {
    const std::size_t want =
        plan_.rows(slabs_done_) - buffer_.size() / row_elems_;
    const std::size_t take = std::min(want, n_rows - consumed);
    auto chunk = rows.subspan(consumed * row_elems_, take * row_elems_);
    buffer_.insert(buffer_.end(), chunk.begin(), chunk.end());
    consumed += take;
    rows_seen_ += take;
    if (take == want) flush_slab();
  }
}

template <typename T>
void StreamingCompressor<T>::flush_slab() {
  ByteWriter out;
  put_slabs<T>(out, params_, buffer_, dims_, plan_, slabs_done_, 1, 1);
  auto bytes = out.take();
  container_.insert(container_.end(), bytes.begin(), bytes.end());
  ++slabs_done_;
  buffer_.clear();
}

template <typename T>
std::vector<std::uint8_t> StreamingCompressor<T>::finish() {
  if (finished_) throw ParamError("streaming: finish called twice");
  if (rows_remaining() != 0)
    throw ParamError("streaming: field incomplete (" +
                     std::to_string(rows_remaining()) + " rows missing)");
  finished_ = true;
  return std::move(container_);
}

template class StreamingCompressor<float>;
template class StreamingCompressor<double>;

template std::vector<std::uint8_t> compress<float>(std::span<const float>,
                                                   Dims, const Params&);
template std::vector<std::uint8_t> compress<double>(std::span<const double>,
                                                    Dims, const Params&);
template std::vector<float> decompress<float>(std::span<const std::uint8_t>,
                                              Dims*, std::size_t);
template std::vector<double> decompress<double>(
    std::span<const std::uint8_t>, Dims*, std::size_t);
template std::vector<float> decompress_rows<float>(
    std::span<const std::uint8_t>, std::size_t, std::size_t, Dims*,
    std::size_t);
template std::vector<double> decompress_rows<double>(
    std::span<const std::uint8_t>, std::size_t, std::size_t, Dims*,
    std::size_t);

}  // namespace chunked
}  // namespace transpwr
