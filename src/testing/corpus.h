#ifndef TRANSPWR_TESTING_CORPUS_H
#define TRANSPWR_TESTING_CORPUS_H

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace transpwr {
namespace testing {

/// Minimized regression bitstreams for the decoder-hardening checks: each
/// case is a valid stream with a targeted header patch that must be
/// rejected with a clean transpwr::Error (bad mode bytes, zero block
/// edges, overflowing dims, giant declared sizes, oversized slab tables,
/// non-finite stream parameters...). The file-name prefix selects the
/// decoder (`sz_`, `zfp_`, `transformed_`, `temporal_`, `chunked_`, `lz77_`,
/// ...).
struct CorpusCase {
  std::string name;  ///< file stem; prefix routes to the decoder
  std::vector<std::uint8_t> stream;
};

/// The deterministic regression set. Every case is self-checked at build
/// time: constructing the list throws if a case fails to raise Error.
std::vector<CorpusCase> regression_corpus();

/// Decode `stream` with the decoder `name`'s prefix selects. Used both by
/// the corpus regression test and by `conformance --emit-corpus`
/// self-verification.
void decode_corpus_stream(const std::string& name,
                          std::span<const std::uint8_t> stream);

/// Write every regression case as `<name>.bin` under `dir`, which must
/// already exist.
void emit_corpus(const std::string& dir);

}  // namespace testing
}  // namespace transpwr

#endif  // TRANSPWR_TESTING_CORPUS_H
