#ifndef TRANSPWR_LOSSLESS_BLOCKED_HUFFMAN_H
#define TRANSPWR_LOSSLESS_BLOCKED_HUFFMAN_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace transpwr {
namespace lossless {

/// Block-parallel canonical-Huffman coding of a u32 symbol stream — the v2
/// entropy container behind the SZ / interpolation quantization codes and
/// the LZ77 token stage.
///
/// The stream is cut into fixed-size symbol blocks (block size derived from
/// the element count, never the thread count, so the output bytes are
/// identical for any parallelism), one canonical table is built from
/// per-thread histograms merged exactly, each block is encoded into an
/// independent byte-aligned substream, and a substream size directory lets
/// the decoder fan the blocks back out in parallel.
///
/// Container layout (little-endian, see docs/formats.md):
///   u32 magic "SBH2", u64 symbol count, u32 alphabet, u32 block size,
///   u32 block count, sized code-length table, u64 substream byte size per
///   block, concatenated substreams.

/// Symbols per block the encoders write. Decoders read the block size
/// from the stream.
inline constexpr std::size_t kEntropyBlockSymbols = std::size_t{1} << 17;

/// Encode `symbols` over alphabet [0, alphabet). `threads == 0` uses
/// default_threads(); any thread count produces identical bytes.
std::vector<std::uint8_t> blocked_encode(std::span<const std::uint32_t> symbols,
                                         std::uint32_t alphabet,
                                         std::size_t threads = 0);

/// Decode a blocked_encode stream back to the symbol vector.
std::vector<std::uint32_t> blocked_decode(std::span<const std::uint8_t> stream,
                                          std::size_t threads = 0);

}  // namespace lossless
}  // namespace transpwr

#endif  // TRANSPWR_LOSSLESS_BLOCKED_HUFFMAN_H
