#ifndef TRANSPWR_COMMON_ENV_H
#define TRANSPWR_COMMON_ENV_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>

#include "obs/obs.h"

namespace transpwr {
namespace env {

/// Shared checked parser for the TRANSPWR_* environment knobs (among them
/// TRANSPWR_THREADS, TRANSPWR_MAX_DECODE_BYTES, TRANSPWR_CHUNK_CACHE_BYTES,
/// TRANSPWR_ARCHIVE_MMAP, TRANSPWR_SEED). The first call sites each grew a
/// slightly different ad-hoc strtoull loop — one silently dropped large
/// values, one accepted trailing garbage. This helper gives them one
/// contract:
///   - unset            -> nullopt (caller default)
///   - malformed        -> warn once on stderr, count `env.malformed`,
///                         nullopt (caller default)
///   - out of range     -> clamp into range when `clamp`, else treated as
///                         malformed; either way warn once
/// "Malformed" means anything but a plain full-string unsigned decimal:
/// empty, signs, trailing garbage, hex, overflow.

struct U64Range {
  std::uint64_t min = 1;
  std::uint64_t max = UINT64_MAX;
  bool clamp = false;
};

/// Pure full-string unsigned-decimal parser (unit-testable without touching
/// the process environment). Rejects empty strings, signs, whitespace,
/// trailing garbage, and values that overflow std::uint64_t.
inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::uint64_t v = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  return v;
}

/// Size parser for byte-count knobs: a plain unsigned decimal with an
/// optional binary-multiple suffix k/K (KiB), m/M (MiB), g/G (GiB).
/// "64M" -> 67108864. Overflow during the multiply is malformed.
inline std::optional<std::uint64_t> parse_size_bytes(std::string_view text) {
  std::uint64_t shift = 0;
  if (!text.empty()) {
    switch (text.back()) {
      case 'k': case 'K': shift = 10; break;
      case 'm': case 'M': shift = 20; break;
      case 'g': case 'G': shift = 30; break;
      default: break;
    }
    if (shift) text.remove_suffix(1);
  }
  auto v = parse_u64(text);
  if (!v) return std::nullopt;
  if (shift && *v > (UINT64_MAX >> shift)) return std::nullopt;
  return *v << shift;
}

/// Duration parser, result in milliseconds: a plain unsigned decimal
/// with an optional unit suffix "ms" (the default), "s", or "m".
/// "30s" -> 30000. Overflow during the unit scale is malformed.
inline std::optional<std::uint64_t> parse_duration_ms(
    std::string_view text) {
  std::uint64_t scale = 1;
  if (text.size() >= 2 && text.substr(text.size() - 2) == "ms") {
    text.remove_suffix(2);
  } else if (!text.empty() && text.back() == 's') {
    scale = 1000;
    text.remove_suffix(1);
  } else if (!text.empty() && text.back() == 'm') {
    scale = 60000;
    text.remove_suffix(1);
  }
  auto v = parse_u64(text);
  if (!v) return std::nullopt;
  if (*v > UINT64_MAX / scale) return std::nullopt;
  return *v * scale;
}

namespace detail {

/// Warn at most once per variable name per process.
inline void warn_once(const char* name, const std::string& message) {
  static std::mutex mu;
  static std::set<std::string>* warned = new std::set<std::string>;
  {
    std::lock_guard<std::mutex> lock(mu);
    if (!warned->insert(name).second) return;
  }
  std::fprintf(stderr, "transpwr: warning: %s\n", message.c_str());
}

/// Shared malformed / out-of-range handling for every checked_* getter:
/// the contract from the file comment, parameterized over the pure
/// parser so ports, sizes, and durations keep identical semantics.
template <typename Parser>
std::optional<std::uint64_t> checked_value(const char* name, U64Range range,
                                           const char* expected,
                                           Parser&& parse) {
  const char* raw = std::getenv(name);
  if (!raw) return std::nullopt;
  auto parsed = parse(std::string_view(raw));
  if (!parsed) {
    obs::counter_add("env.malformed");
    warn_once(name, std::string("ignoring malformed ") + name + "='" + raw +
                        "' (expected " + expected +
                        "); using the built-in default");
    return std::nullopt;
  }
  if (*parsed < range.min || *parsed > range.max) {
    std::uint64_t clamped =
        *parsed < range.min ? range.min : range.max;
    if (range.clamp) {
      warn_once(
          name, std::string(name) + "=" + std::string(raw) +
                    " is outside [" + std::to_string(range.min) + ", " +
                    std::to_string(range.max) + "]; clamping to " +
                    std::to_string(clamped));
      return clamped;
    }
    obs::counter_add("env.malformed");
    warn_once(
        name, std::string("ignoring out-of-range ") + name + "=" + raw +
                  " (allowed [" + std::to_string(range.min) + ", " +
                  std::to_string(range.max) +
                  "]); using the built-in default");
    return std::nullopt;
  }
  return parsed;
}

}  // namespace detail

/// Checked getenv: see the file comment for the contract.
inline std::optional<std::uint64_t> checked_u64(const char* name,
                                                U64Range range) {
  return detail::checked_value(name, range, "an unsigned integer",
                               parse_u64);
}

/// The serve-layer knob family (TRANSPWR_SERVE_PORT,
/// TRANSPWR_SERVE_HTTP_PORT, TRANSPWR_SERVE_MAX_FRAME,
/// TRANSPWR_SERVE_IDLE_TIMEOUT_MS) shares the checked_u64 contract —
/// overflow-safe pure parsers, warn-once, `env.malformed` — with
/// unit-aware syntax where the quantity has one.

/// TCP port knob: plain decimal in [1, 65535].
inline std::optional<std::uint16_t> checked_port(const char* name) {
  auto v = detail::checked_value(name, {/*min=*/1, /*max=*/65535,
                                        /*clamp=*/false},
                                 "a TCP port (1-65535)", parse_u64);
  if (!v) return std::nullopt;
  return static_cast<std::uint16_t>(*v);
}

/// Byte-size knob: decimal with optional k/M/G binary suffix.
inline std::optional<std::uint64_t> checked_size_bytes(const char* name,
                                                       U64Range range) {
  return detail::checked_value(name, range,
                               "a byte size (optionally with a k/M/G "
                               "suffix)",
                               parse_size_bytes);
}

/// Duration knob, milliseconds: decimal with optional ms/s/m suffix.
inline std::optional<std::uint64_t> checked_duration_ms(const char* name,
                                                        U64Range range) {
  return detail::checked_value(name, range,
                               "a duration (optionally with an ms/s/m "
                               "suffix)",
                               parse_duration_ms);
}

}  // namespace env
}  // namespace transpwr

#endif  // TRANSPWR_COMMON_ENV_H
