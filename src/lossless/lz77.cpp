#include "lossless/lz77.h"

#include <algorithm>
#include <cstring>

#include "common/bitstream.h"
#include "common/bytestream.h"
#include "common/decode_guard.h"
#include "common/error.h"
#include "common/parallel.h"
#include "lossless/blocked_huffman.h"
#include "lossless/huffman.h"

namespace transpwr {
namespace lz77 {
namespace {

constexpr std::size_t kWindow = 1u << 16;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 1024;
constexpr unsigned kHashBits = 16;
constexpr int kMaxChain = 48;

// Length symbols: 256 = end-of-stream, 257+k encodes match length class k.
// Classes follow an Elias-gamma-like split: class k covers lengths
// [kMinMatch + base(k), kMinMatch + base(k+1)) with `extra(k)` raw bits.
constexpr unsigned kNumLenClasses = 24;
constexpr std::uint32_t kEos = 256;
constexpr std::uint32_t kLenBase = 257;
constexpr std::uint32_t kLitLenAlphabet = kLenBase + kNumLenClasses;

unsigned len_class_extra(unsigned k) { return k < 4 ? 0 : (k - 4) / 2 + 1; }

std::uint32_t len_class_base(unsigned k) {
  std::uint32_t b = 0;
  for (unsigned i = 0; i < k; ++i) b += 1u << len_class_extra(i);
  return b;
}

// Distance classes: class k covers [dist_base(k), dist_base(k+1)) with
// k/2-ish extra bits (deflate-style).
constexpr unsigned kNumDistClasses = 32;

unsigned dist_class_extra(unsigned k) { return k < 2 ? 0 : (k - 2) / 2; }

std::uint32_t dist_class_base(unsigned k) {
  std::uint32_t b = 1;
  for (unsigned i = 0; i < k; ++i) b += 1u << dist_class_extra(i);
  return b;
}

struct ClassTables {
  std::uint32_t len_base[kNumLenClasses + 1];
  std::uint32_t dist_base[kNumDistClasses + 1];
  ClassTables() {
    for (unsigned k = 0; k <= kNumLenClasses; ++k)
      len_base[k] = len_class_base(k);
    for (unsigned k = 0; k <= kNumDistClasses; ++k)
      dist_base[k] = dist_class_base(k);
  }
  unsigned len_class(std::uint32_t len_off) const {
    unsigned k =
        static_cast<unsigned>(std::upper_bound(len_base, len_base +
                                                             kNumLenClasses,
                                               len_off) -
                              len_base) -
        1;
    return k;
  }
  unsigned dist_class(std::uint32_t dist) const {
    unsigned k = static_cast<unsigned>(
                     std::upper_bound(dist_base, dist_base + kNumDistClasses,
                                      dist) -
                     dist_base) -
                 1;
    return k;
  }
};

const ClassTables& tables() {
  static const ClassTables t;
  return t;
}

struct Token {
  std::uint32_t literal_or_len;  // literal byte, or match length offset
  std::uint32_t dist;            // 0 => literal
};

std::uint32_t hash4(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Hash-chain greedy tokenization — shared verbatim by the v1 and blocked
/// v2 containers, so both emit the same token sequence.
std::vector<Token> tokenize(std::span<const std::uint8_t> input) {
  const std::size_t n = input.size();
  std::vector<Token> toks;
  toks.reserve(n / 3 + 16);

  std::vector<std::int64_t> head(std::size_t{1} << kHashBits, -1);
  std::vector<std::int64_t> prev(n, -1);

  std::size_t i = 0;
  while (i < n) {
    std::size_t best_len = 0;
    std::size_t best_dist = 0;
    if (i + kMinMatch <= n) {
      std::uint32_t h = hash4(input.data() + i);
      std::int64_t cand = head[h];
      int chain = kMaxChain;
      const std::size_t limit = std::min(kMaxMatch, n - i);
      while (cand >= 0 && chain-- > 0 &&
             i - static_cast<std::size_t>(cand) <= kWindow) {
        const std::uint8_t* a = input.data() + i;
        const std::uint8_t* b = input.data() + cand;
        std::size_t l = 0;
        while (l < limit && a[l] == b[l]) ++l;
        if (l > best_len) {
          best_len = l;
          best_dist = i - static_cast<std::size_t>(cand);
          if (l >= limit) break;
        }
        cand = prev[static_cast<std::size_t>(cand)];
      }
    }

    if (best_len >= kMinMatch) {
      toks.push_back({static_cast<std::uint32_t>(best_len - kMinMatch),
                      static_cast<std::uint32_t>(best_dist)});
      // Insert hash entries for every covered position (bounded work).
      std::size_t end = std::min(i + best_len, n >= 3 ? n - 3 : 0);
      for (std::size_t j = i; j < end; ++j) {
        std::uint32_t h = hash4(input.data() + j);
        prev[j] = head[h];
        head[h] = static_cast<std::int64_t>(j);
      }
      i += best_len;
    } else {
      toks.push_back({input[i], 0});
      if (i + 4 <= n) {
        std::uint32_t h = hash4(input.data() + i);
        prev[i] = head[h];
        head[h] = static_cast<std::int64_t>(i);
      }
      ++i;
    }
  }
  return toks;
}

/// Token frequency pass shared by both containers. `with_eos` accounts for
/// the v1 end-of-stream marker.
void count_tokens(const std::vector<Token>& toks, bool with_eos,
                  std::vector<std::uint64_t>& litlen_freq,
                  std::vector<std::uint64_t>& dist_freq) {
  const ClassTables& ct = tables();
  litlen_freq.assign(kLitLenAlphabet, 0);
  dist_freq.assign(kNumDistClasses, 0);
  for (const Token& t : toks) {
    if (t.dist == 0) {
      ++litlen_freq[t.literal_or_len];
    } else {
      ++litlen_freq[kLenBase + ct.len_class(t.literal_or_len)];
      ++dist_freq[ct.dist_class(t.dist)];
    }
  }
  if (with_eos) ++litlen_freq[kEos];
}

void encode_token(const Token& t, const HuffmanCoder& litlen,
                  const HuffmanCoder& dist, BitWriter& bw) {
  const ClassTables& ct = tables();
  if (t.dist == 0) {
    litlen.encode(t.literal_or_len, bw);
  } else {
    unsigned lk = ct.len_class(t.literal_or_len);
    litlen.encode(kLenBase + lk, bw);
    bw.write_bits(t.literal_or_len - ct.len_base[lk], len_class_extra(lk));
    unsigned dk = ct.dist_class(t.dist);
    dist.encode(dk, bw);
    bw.write_bits(t.dist - ct.dist_base[dk], dist_class_extra(dk));
  }
}

/// Decode one token (v2 path: no EOS symbol in the alphabet stream).
Token decode_token(BitReader& br, const HuffmanCoder& litlen,
                   const HuffmanCoder& dist) {
  const ClassTables& ct = tables();
  std::uint32_t sym = litlen.decode(br);
  if (sym < 256) return {sym, 0};
  if (sym == kEos) throw StreamError("lz77: unexpected EOS in blocked stream");
  unsigned lk = sym - kLenBase;
  if (lk >= kNumLenClasses) throw StreamError("lz77: bad length class");
  std::uint32_t len_off =
      ct.len_base[lk] +
      static_cast<std::uint32_t>(br.read_bits(len_class_extra(lk)));
  unsigned dk = dist.decode(br);
  if (dk >= kNumDistClasses) throw StreamError("lz77: bad distance class");
  std::uint32_t d = ct.dist_base[dk] +
                    static_cast<std::uint32_t>(
                        br.read_bits(dist_class_extra(dk)));
  return {len_off, d};
}

}  // namespace

std::vector<std::uint8_t> compress(std::span<const std::uint8_t> input) {
  const std::size_t n = input.size();
  std::vector<Token> toks = tokenize(input);

  std::vector<std::uint64_t> litlen_freq, dist_freq;
  count_tokens(toks, /*with_eos=*/true, litlen_freq, dist_freq);

  HuffmanCoder litlen, dist;
  litlen.build(litlen_freq);
  dist.build(dist_freq);

  BitWriter bw;
  bw.write_bits(n, 64);
  litlen.write_table(bw);
  dist.write_table(bw);
  for (const Token& t : toks) encode_token(t, litlen, dist, bw);
  litlen.encode(kEos, bw);
  return bw.take();
}

std::vector<std::uint8_t> decompress(std::span<const std::uint8_t> stream) {
  const ClassTables& ct = tables();
  BitReader br(stream);
  auto n = static_cast<std::size_t>(br.read_bits(64));
  // The declared size both drives reserve() and bounds the match expansion
  // below, so a corrupt header must not be allowed to claim exabytes.
  check_decode_alloc(n, 1, "lz77");
  HuffmanCoder litlen, dist;
  litlen.read_table(br);
  dist.read_table(br);

  std::vector<std::uint8_t> out;
  out.reserve(n);
  for (;;) {
    std::uint32_t sym = litlen.decode(br);
    if (sym == kEos) break;
    if (sym < 256) {
      if (out.size() >= n) throw StreamError("lz77: output exceeds header size");
      out.push_back(static_cast<std::uint8_t>(sym));
      continue;
    }
    unsigned lk = sym - kLenBase;
    if (lk >= kNumLenClasses) throw StreamError("lz77: bad length class");
    std::size_t len = kMinMatch + ct.len_base[lk] +
                      static_cast<std::size_t>(
                          br.read_bits(len_class_extra(lk)));
    if (len > n - out.size())
      throw StreamError("lz77: output exceeds header size");
    unsigned dk = dist.decode(br);
    if (dk >= kNumDistClasses) throw StreamError("lz77: bad distance class");
    std::size_t d = ct.dist_base[dk] +
                    static_cast<std::size_t>(
                        br.read_bits(dist_class_extra(dk)));
    if (d == 0 || d > out.size()) throw StreamError("lz77: bad distance");
    std::size_t src = out.size() - d;
    for (std::size_t j = 0; j < len; ++j) out.push_back(out[src + j]);
  }
  if (out.size() != n) throw StreamError("lz77: size mismatch");
  return out;
}

std::vector<std::uint8_t> compress_blocked(std::span<const std::uint8_t> input,
                                           std::size_t threads) {
  const std::size_t n = input.size();
  std::vector<Token> toks = tokenize(input);

  std::vector<std::uint64_t> litlen_freq, dist_freq;
  count_tokens(toks, /*with_eos=*/false, litlen_freq, dist_freq);

  HuffmanCoder litlen, dist;
  litlen.build(litlen_freq);
  dist.build(dist_freq);

  BitWriter tables_bw;
  litlen.write_table(tables_bw);
  dist.write_table(tables_bw);
  std::vector<std::uint8_t> table_bytes = tables_bw.take();

  const std::size_t block = lossless::kEntropyBlockSymbols;
  const std::size_t nblocks = toks.empty() ? 0 : (toks.size() - 1) / block + 1;
  std::vector<std::vector<std::uint8_t>> subs(nblocks);
  ParallelOptions opts;
  opts.max_threads = threads;
  opts.grain = 1;
  parallel_for(
      nblocks,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          BitWriter bw;
          const std::size_t first = b * block;
          const std::size_t last = std::min(first + block, toks.size());
          for (std::size_t t = first; t < last; ++t)
            encode_token(toks[t], litlen, dist, bw);
          subs[b] = bw.take();
        }
      },
      opts);

  ByteWriter out;
  out.put(static_cast<std::uint64_t>(n));
  out.put(static_cast<std::uint64_t>(toks.size()));
  out.put(static_cast<std::uint32_t>(block));
  out.put(static_cast<std::uint32_t>(nblocks));
  out.put_sized(table_bytes);
  for (const auto& s : subs) out.put(static_cast<std::uint64_t>(s.size()));
  for (const auto& s : subs) out.put_bytes(s);
  return out.take();
}

std::vector<std::uint8_t> decompress_blocked(
    std::span<const std::uint8_t> stream, std::size_t threads) {
  ByteReader in(stream);
  const auto n = static_cast<std::size_t>(in.get<std::uint64_t>());
  check_decode_alloc(n, 1, "lz77");
  const auto ntoks = static_cast<std::size_t>(in.get<std::uint64_t>());
  // Every token reconstructs at least one output byte, and costs at least
  // one bit in its substream; both sides of that bound are enforced.
  if (ntoks > n) throw StreamError("lz77: more tokens than output bytes");
  check_decode_alloc(ntoks, sizeof(Token), "lz77");
  const std::uint32_t block = in.get<std::uint32_t>();
  const std::uint32_t nblocks = in.get<std::uint32_t>();
  if (block == 0) throw StreamError("lz77: zero token block size");
  if (nblocks != (ntoks == 0 ? 0 : (ntoks - 1) / block + 1))
    throw StreamError("lz77: block count does not match token count");

  auto table_bytes = in.get_sized();
  BitReader tables_br(table_bytes);
  HuffmanCoder litlen, dist;
  litlen.read_table(tables_br);
  dist.read_table(tables_br);

  std::vector<std::size_t> offsets(std::size_t{nblocks} + 1, 0);
  for (std::uint32_t b = 0; b < nblocks; ++b) {
    const auto sz = in.get<std::uint64_t>();
    if (sz > stream.size())
      throw StreamError("lz77: substream size exceeds stream");
    offsets[b + 1] = offsets[b] + static_cast<std::size_t>(sz);
    if (offsets[b + 1] < offsets[b])
      throw StreamError("lz77: substream directory overflows");
  }
  if (offsets[nblocks] > in.remaining())
    throw StreamError("lz77: truncated substreams");
  auto payload = in.get_bytes(offsets[nblocks]);

  // Phase 1 (parallel): entropy-decode each block back to tokens.
  std::vector<Token> toks(ntoks);
  ParallelOptions opts;
  opts.max_threads = threads;
  opts.grain = 1;
  parallel_for(
      nblocks,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
          BitReader br(
              payload.subspan(offsets[b], offsets[b + 1] - offsets[b]));
          const std::size_t first = b * std::size_t{block};
          const std::size_t last =
              std::min<std::size_t>(first + block, ntoks);
          for (std::size_t t = first; t < last; ++t)
            toks[t] = decode_token(br, litlen, dist);
        }
      },
      opts);

  // Phase 2 (serial): expand matches — back-references cross block
  // boundaries, but this is plain memory traffic.
  std::vector<std::uint8_t> out;
  out.reserve(n);
  for (const Token& t : toks) {
    if (t.dist == 0) {
      if (out.size() >= n)
        throw StreamError("lz77: output exceeds header size");
      out.push_back(static_cast<std::uint8_t>(t.literal_or_len));
      continue;
    }
    std::size_t len = kMinMatch + t.literal_or_len;
    if (len > n - out.size())
      throw StreamError("lz77: output exceeds header size");
    std::size_t d = t.dist;
    if (d == 0 || d > out.size()) throw StreamError("lz77: bad distance");
    std::size_t src = out.size() - d;
    for (std::size_t j = 0; j < len; ++j) out.push_back(out[src + j]);
  }
  if (out.size() != n) throw StreamError("lz77: size mismatch");
  return out;
}

}  // namespace lz77
}  // namespace transpwr
