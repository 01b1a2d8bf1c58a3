#include "testing/corpus.h"

#include <cstring>
#include <stdexcept>

#include "common/bitstream.h"
#include "common/checksum.h"
#include "common/error.h"
#include "core/compressor.h"
#include "core/temporal.h"
#include "core/transformed.h"
#include "data/io.h"
#include "fpzip/fpzip.h"
#include "isabela/isabela.h"
#include "lossless/lossless.h"
#include "lossless/lz77.h"
#include "lossless/rle.h"
#include "parallel/chunked.h"
#include "store/archive.h"
#include "store/chunk_cache.h"
#include "sz/interp.h"
#include "sz/outlier_coding.h"
#include "sz/sz.h"
#include "testing/generators.h"
#include "testing/temp_file.h"
#include "zfp/zfp.h"

namespace transpwr {
namespace testing {
namespace {

constexpr std::uint64_t kCorpusSeed = 7;

std::vector<float> base_field(std::size_t n) {
  return make_field<float>(Family::kRandomSmooth, n, kCorpusSeed);
}

void patch(std::vector<std::uint8_t>& s, std::size_t off,
           std::initializer_list<std::uint8_t> bytes) {
  if (off + bytes.size() > s.size())
    throw std::logic_error("corpus: patch past end of stream");
  std::size_t i = off;
  for (std::uint8_t b : bytes) s[i++] = b;
}

void patch_u64(std::vector<std::uint8_t>& s, std::size_t off,
               std::uint64_t v) {
  if (off + 8 > s.size())
    throw std::logic_error("corpus: patch past end of stream");
  std::memcpy(s.data() + off, &v, 8);
}

void patch_f64(std::vector<std::uint8_t>& s, std::size_t off, double v) {
  if (off + 8 > s.size())
    throw std::logic_error("corpus: patch past end of stream");
  std::memcpy(s.data() + off, &v, 8);
}

bool starts_with(const std::string& name, const char* prefix) {
  return name.rfind(prefix, 0) == 0;
}

/// The raw (unverified) case list. Offsets follow each codec's fixed
/// header layout: 4-byte magic, then the byte fields, then 3 x u64 dims,
/// then the stream parameters.
std::vector<CorpusCase> build_cases() {
  std::vector<CorpusCase> cases;
  Dims d1;
  d1.nd = 1;
  d1.d[0] = 64;
  auto field = base_field(64);

  {  // lz77: first 64 bits are the declared output size.
    auto s = lz77::compress(
        std::vector<std::uint8_t>{1, 2, 3, 1, 2, 3, 1, 2, 3, 4});
    patch_u64(s, 0, ~std::uint64_t{0});
    cases.push_back({"lz77_huge_declared_size", std::move(s)});
  }
  {  // lossless: 1-byte method tag.
    auto s = lossless::compress(std::vector<std::uint8_t>(100, 7));
    patch(s, 0, {0xff});
    cases.push_back({"lossless_bad_method_tag", std::move(s)});
  }
  {  // rle: the bit count is the first 64 bits.
    BitWriter bw;
    bw.write_bits(std::uint64_t{1} << 40, 64);
    cases.push_back({"rle_huge_bit_count", bw.take()});
  }
  {  // sz header: mode byte at 6, dims at 9, block_edge u32 at 45.
    sz::Params p;
    auto s = sz::compress<float>(field, d1, p);
    auto bad_mode = s;
    patch(bad_mode, 6, {0xff});
    cases.push_back({"sz_bad_mode_byte", std::move(bad_mode)});
    auto bad_dims = s;
    patch_u64(bad_dims, 9, ~std::uint64_t{0});
    cases.push_back({"sz_dims_overflow", std::move(bad_dims)});
  }
  {  // sz PWR mode: block_edge == 0 would divide by zero in Geometry.
    sz::Params p;
    p.mode = sz::Mode::kPwrBlock;
    auto s = sz::compress<float>(field, d1, p);
    patch(s, 45, {0, 0, 0, 0});
    cases.push_back({"sz_pwr_zero_block_edge", std::move(s)});
  }
  {  // sz outlier section out of step with the zero codes: a multi-plane
     // 3-D kAbs stream (header ends at 49, then the sized code section,
     // then the sized outlier section) whose outlier list is rewritten one
     // value short and one value long.
    Dims d3(6, 9, 10);
    auto noisy = base_field(d3.count());
    sz::Params p;
    p.bound = 1e-4;
    p.quant_intervals = 16;
    auto s = sz::compress<float>(noisy, d3, p);
    std::uint64_t coded_len = 0;
    std::memcpy(&coded_len, s.data() + 49, 8);
    const std::size_t off = 49 + 8 + static_cast<std::size_t>(coded_len);
    std::uint64_t outlier_len = 0;
    std::memcpy(&outlier_len, s.data() + off, 8);
    auto outliers = sz_detail::decode_outliers<float>(lossless::decompress(
        {s.data() + off + 8, static_cast<std::size_t>(outlier_len)}));
    if (outliers.size() < d3[0])
      throw std::logic_error("corpus: sz field has too few outliers");
    auto with_outliers = [&](std::vector<float> values) {
      std::vector<std::uint8_t> t(s.begin(),
                                  s.begin() + static_cast<std::ptrdiff_t>(off));
      auto section =
          lossless::compress(sz_detail::encode_outliers<float>(values));
      const std::uint64_t len = section.size();
      std::uint8_t lenb[8];
      std::memcpy(lenb, &len, 8);
      t.insert(t.end(), lenb, lenb + 8);
      t.insert(t.end(), section.begin(), section.end());
      return t;
    };
    auto shorter = outliers;
    shorter.pop_back();
    cases.push_back({"sz_outliers_exhausted", with_outliers(shorter)});
    auto longer = outliers;
    longer.push_back(1.0f);
    cases.push_back({"sz_trailing_outliers", with_outliers(longer)});
  }
  {  // sz_interp header: dims at 8.
    sz_interp::Params p;
    auto s = sz_interp::compress<float>(field, d1, p);
    patch_u64(s, 8, ~std::uint64_t{0});
    cases.push_back({"szinterp_dims_overflow", std::move(s)});
  }
  {  // zfp header: mode byte at 6, tolerance double at 32.
    zfp::Params p;
    auto s = zfp::compress<float>(field, d1, p);
    auto bad_mode = s;
    patch(bad_mode, 6, {0xff});
    cases.push_back({"zfp_bad_mode_byte", std::move(bad_mode)});
    auto bad_tol = s;
    patch_f64(bad_tol, 32, -1.0);
    cases.push_back({"zfp_negative_tolerance", std::move(bad_tol)});
    auto bad_layout = s;
    patch(bad_layout, 7, {0xff});
    cases.push_back({"zfp_bad_layout_byte", std::move(bad_layout)});
  }
  {  // zfp group directory: 257 x 256 zeros is two block groups (4096 +
     // 64 one-bit skipped blocks), so the stream carries layout byte 1, the
     // directory length at 52 and the two u64 end offsets at 60 and 68.
    zfp::Params p;
    Dims d2(257, 256);
    auto s = zfp::compress<float>(std::vector<float>(d2.count(), 0.0f), d2,
                                  p);
    if (s[7] != 1) throw std::logic_error("corpus: zfp stream not grouped");
    auto past_end = s;
    patch_u64(past_end, 68, std::uint64_t{1} << 40);
    cases.push_back({"zfp_group_dir_past_end", std::move(past_end)});
    auto not_monotone = s;
    patch_u64(not_monotone, 68, 0);
    cases.push_back({"zfp_group_dir_not_monotone", std::move(not_monotone)});
  }
  {  // fpzip header: entropy byte at 6.
    fpzip::Params p;
    auto s = fpzip::compress<float>(field, d1, p);
    patch(s, 6, {0xff});
    cases.push_back({"fpzip_bad_entropy_byte", std::move(s)});
  }
  {  // isabela header: fit byte at 6, window u32 at 40.
    isabela::Params p;
    auto s = isabela::compress<float>(field, d1, p);
    auto bad_fit = s;
    patch(bad_fit, 6, {0xff});
    cases.push_back({"isabela_bad_fit_byte", std::move(bad_fit)});
    auto zero_window = s;
    patch(zero_window, 40, {0, 0, 0, 0});
    cases.push_back({"isabela_zero_window", std::move(zero_window)});
  }
  {  // isabela: decompressed outlier section that is not a whole number
     // of elements. Regression for a fuzz finding: the decoder sized the
     // outlier vector as bytes/sizeof(T) (rounding down) but memcpy'd the
     // full byte count, writing past the vector (through nullptr when the
     // section shrank below one element).
    isabela::Params p;
    auto s = isabela::compress<float>(field, d1, p);
    // Walk the three leading sized sections (permutation bits, controls,
    // codes) to reach the trailing outlier section, then replace it with
    // a 3-byte payload.
    std::size_t off = 48;  // fixed header: magic..control_every
    for (int sec = 0; sec < 3; ++sec) {
      if (off + 8 > s.size())
        throw std::logic_error("corpus: isabela section walk past end");
      std::uint64_t len;
      std::memcpy(&len, s.data() + off, 8);
      off += 8 + static_cast<std::size_t>(len);
    }
    if (off > s.size())
      throw std::logic_error("corpus: isabela section walk past end");
    s.resize(off);
    auto blob = lossless::compress(std::vector<std::uint8_t>{1, 2, 3});
    std::uint64_t blen = blob.size();
    std::uint8_t lenb[8];
    std::memcpy(lenb, &blen, 8);
    s.insert(s.end(), lenb, lenb + 8);
    s.insert(s.end(), blob.begin(), blob.end());
    cases.push_back({"isabela_truncated_outliers", std::move(s)});
  }
  {  // transformed header: inner codec byte at 5, log base double at 8.
    TransformedParams p;
    auto s = transformed_compress<float>(field, d1, InnerCodec::kSz, p);
    auto bad_codec = s;
    patch(bad_codec, 5, {0xff});
    cases.push_back({"transformed_bad_codec_byte", std::move(bad_codec)});
    auto bad_base = s;
    patch_f64(bad_base, 8, 0.5);
    cases.push_back({"transformed_bad_log_base", std::move(bad_base)});
  }
  {  // temporal keyframe (TMP1): inner codec byte at 5, log base at 8.
    TemporalCompressor enc(InnerCodec::kSz, TransformedParams{});
    auto s = enc.compress_snapshot(field, d1);
    auto bad_codec = s;
    patch(bad_codec, 5, {99});
    cases.push_back({"temporal_bad_codec_byte", std::move(bad_codec)});
    auto bad_base = s;
    patch_f64(bad_base, 8, 0.5);
    cases.push_back({"temporal_bad_log_base", std::move(bad_base)});
  }
  {  // chunked header: scheme byte at 5, first slab row count u64 at 36.
    chunked::Params p;
    p.scheme = Scheme::kSzAbs;
    p.num_chunks = 2;
    p.threads = 1;
    Dims d2;
    d2.nd = 2;
    d2.d[0] = 16;
    d2.d[1] = 4;
    auto data = base_field(64);
    auto s = chunked::compress<float>(data, d2, p);
    auto bad_scheme = s;
    patch(bad_scheme, 5, {0xff});
    cases.push_back({"chunked_bad_scheme_byte", std::move(bad_scheme)});
    auto bad_rows = s;
    patch_u64(bad_rows, 36, ~std::uint64_t{0});
    cases.push_back({"chunked_slab_rows_overflow", std::move(bad_rows)});
  }
  {  // archive trailer: footer_fnv u64 at size-20, footer_size u64 at
     // size-12, end magic u32 at size-4; payload starts at byte 8.
    std::vector<std::uint8_t> s;
    {
      store::ArchiveWriter w(&s);
      store::DatasetOptions opts;
      opts.scheme = Scheme::kSzAbs;
      opts.params.bound = 1e-2;
      opts.rows_per_chunk = 24;
      opts.threads = 1;
      w.add_dataset<float>("field", field, d1, opts);
      w.finish();
    }
    auto huge_footer = s;
    patch_u64(huge_footer, huge_footer.size() - 12, ~std::uint64_t{0});
    cases.push_back({"archive_footer_size_overflow", std::move(huge_footer)});
    auto bad_end = s;
    patch(bad_end, bad_end.size() - 4, {0xde, 0xad, 0xbe, 0xef});
    cases.push_back({"archive_bad_end_magic", std::move(bad_end)});
    auto flipped_payload = s;
    flipped_payload[8] ^= 0x01;  // first payload byte of the first chunk
    cases.push_back({"archive_payload_bit_flip", std::move(flipped_payload)});
    auto lazy_chunk = s;
    {
      // Flip a payload byte of the *second* chunk: head, directory, and
      // trailer stay intact, so the archive opens (and mmaps) fine — only
      // the lazy first-touch verification of that chunk can reject it.
      auto chunks = store::ArchiveReader(std::span<const std::uint8_t>(s))
                        .dataset("field")
                        .chunks;
      lazy_chunk[static_cast<std::size_t>(chunks.at(1).offset)] ^= 0x10;
    }
    cases.push_back({"archive_lazy_verify_chunk", std::move(lazy_chunk)});
  }
  {  // TPAR v2 summary blocks: semantic nonsense behind a *valid* footer
     // checksum. The trailer FNV is re-sealed after each patch, so only
     // the parser's summary validation can reject these — coverage the
     // plain bit-flip cases (caught by the FNV) cannot give.
    std::vector<std::uint8_t> s;
    {
      store::ArchiveWriter w(&s);
      store::DatasetOptions opts;
      opts.scheme = Scheme::kSzAbs;
      opts.params.bound = 1e-2;
      opts.rows_per_chunk = 24;  // chunks of 24, 24, 16 rows
      opts.threads = 1;
      w.add_dataset<float>("field", field, d1, opts);
      w.finish();
    }
    const std::size_t nchunks =
        store::ArchiveReader(std::span<const std::uint8_t>(s))
            .dataset("field")
            .chunks.size();
    // The single dataset's summary section ends the footer: one 184-byte
    // block per chunk (min@0 max@8 sum@16 finite@24 nan@32 pos_inf@40
    // neg_inf@48 hist@56).
    const std::size_t block0 = s.size() - 20 - nchunks * 184;
    auto resealed = [](std::vector<std::uint8_t> t) {
      std::uint64_t footer_size = 0;
      std::memcpy(&footer_size, t.data() + t.size() - 12, 8);
      const std::size_t start =
          t.size() - 20 - static_cast<std::size_t>(footer_size);
      patch_u64(t, t.size() - 20,
                fnv1a64({t.data() + start,
                         static_cast<std::size_t>(footer_size)}));
      return t;
    };
    // Sanity: re-sealing the pristine footer must keep it openable,
    // proving the cases below are rejected by validation, not the FNV.
    {
      auto clean = resealed(s);
      store::ArchiveReader check{std::span<const std::uint8_t>(clean)};
      if (!check.dataset("field").has_summaries())
        throw std::logic_error("corpus: resealed archive lost summaries");
    }
    auto count_mismatch = s;
    // finite = 999 cannot tally with a 24-element chunk.
    patch_u64(count_mismatch, block0 + 24, 999);
    cases.push_back({"archive_summary_count_mismatch",
                     resealed(std::move(count_mismatch))});
    auto minmax_invalid = s;
    // min far above max: impossible attained extrema.
    patch_f64(minmax_invalid, block0 + 0, 1e30);
    cases.push_back({"archive_summary_minmax_invalid",
                     resealed(std::move(minmax_invalid))});
  }
  return cases;
}

}  // namespace

void decode_corpus_stream(const std::string& name,
                          std::span<const std::uint8_t> stream) {
  if (starts_with(name, "lz77_")) {
    lz77::decompress(stream);
  } else if (starts_with(name, "lossless_")) {
    lossless::decompress(stream);
  } else if (starts_with(name, "rle_")) {
    BitReader br(stream);
    rle::decode_bits(br);
  } else if (starts_with(name, "szinterp_")) {
    sz_interp::decompress<float>(stream);
  } else if (starts_with(name, "sz_")) {
    sz::decompress<float>(stream);
  } else if (starts_with(name, "zfp_")) {
    zfp::decompress<float>(stream);
  } else if (starts_with(name, "fpzip_")) {
    fpzip::decompress<float>(stream);
  } else if (starts_with(name, "isabela_")) {
    isabela::decompress<float>(stream);
  } else if (starts_with(name, "transformed_")) {
    transformed_decompress<float>(stream);
  } else if (starts_with(name, "temporal_")) {
    TemporalDecompressor().decompress_snapshot(stream);
  } else if (starts_with(name, "chunked_")) {
    chunked::decompress<float>(stream, nullptr, 1);
  } else if (starts_with(name, "archive_")) {
    auto replay = [](store::ArchiveReader& reader) {
      // Loads before verify(): payload corruption inside an archive that
      // opens fine must be caught by the lazy first-touch checksum, not
      // only by the eager scan.
      for (const auto& ds : reader.datasets())
        reader.load<float>(ds.name, nullptr, 1);
      reader.verify();
    };
    store::ScopedCacheCapacity no_cache(0);
    {
      // The mmap open/parse path sees every case first...
      TempFile tmp(stream);
      store::ArchiveReader reader(tmp.path());
      replay(reader);
    }
    // ...and the in-memory view reader must reject it the same way.
    store::ArchiveReader reader(stream);
    replay(reader);
  } else {
    throw std::logic_error("corpus: no decoder for case " + name);
  }
}

std::vector<CorpusCase> regression_corpus() {
  auto cases = build_cases();
  // Self-check: every case must be rejected with a clean transpwr::Error.
  // A case that decodes, or that escapes with a foreign exception, means
  // its patch offset drifted from the header layout — fail loudly.
  for (const auto& c : cases) {
    try {
      decode_corpus_stream(c.name, c.stream);
      throw std::logic_error("corpus case decoded cleanly: " + c.name);
    } catch (const Error&) {
      // expected
    }
  }
  return cases;
}

void emit_corpus(const std::string& dir) {
  for (const auto& c : regression_corpus())
    io::write_bytes(dir + "/" + c.name + ".bin", c.stream);
}

}  // namespace testing
}  // namespace transpwr
