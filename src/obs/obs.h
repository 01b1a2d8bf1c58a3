#ifndef TRANSPWR_OBS_OBS_H
#define TRANSPWR_OBS_OBS_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace transpwr {
namespace obs {

/// Lightweight always-compiled observability: named counters/gauges plus
/// nesting RAII trace spans, all merged into one process-wide registry that
/// serializes to a stable JSON schema (see docs/observability.md).
///
/// Recording is off by default; a disabled Span costs one relaxed atomic
/// load plus one steady_clock read (so seconds() stays live for callers
/// that time phases themselves) and a disabled counter_add is a pure
/// no-op, so instrumentation can stay in hot paths.
/// Recording never changes compressed bytes — spans and counters only
/// observe.

/// Whether the global registry is recording.
bool enabled();
void set_enabled(bool on);

/// RAII enable/disable for tests and benches.
class ScopedRecording {
 public:
  explicit ScopedRecording(bool on = true);
  ~ScopedRecording();
  ScopedRecording(const ScopedRecording&) = delete;
  ScopedRecording& operator=(const ScopedRecording&) = delete;

 private:
  bool prev_;
};

// --- counters / gauges -------------------------------------------------------

/// Add `delta` to the named monotonic counter (thread-safe, exact).
/// No-op while recording is disabled.
void counter_add(std::string_view name, std::uint64_t delta = 1);

/// Current value of a counter (0 if never touched).
std::uint64_t counter_value(std::string_view name);

/// Set the named gauge to `value` (last writer wins, thread-safe).
void gauge_set(std::string_view name, double value);

// --- trace spans -------------------------------------------------------------

/// RAII wall-time span. Spans nest per thread: a span opened while another
/// span is live on the same thread records under the parent's path with a
/// '/' separator ("sz.compress/predict"). Spans opened on pool worker
/// threads root their own path; identical paths from different threads
/// merge (sum of seconds, count of closings) — the per-thread aggregate is
/// folded into shared atomic accumulators at span close, so the registry
/// needs no lock on the hot path after the first sighting of a path.
class Span {
 public:
  explicit Span(std::string_view name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Seconds elapsed since construction — live even when the span does
  /// not record.
  double seconds() const;

 private:
  using clock = std::chrono::steady_clock;
  bool recording_;  // global registry recording
  Span* parent_ = nullptr;
  std::string path_;
  clock::time_point start_;
};

// --- registry ----------------------------------------------------------------

struct SpanStat {
  double seconds = 0;
  std::uint64_t count = 0;
};

/// Point-in-time copy of the registry, key-sorted so serialization is
/// stable.
struct Snapshot {
  std::vector<std::pair<std::string, SpanStat>> spans;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
};

Snapshot snapshot();

/// Zero every span/counter/gauge. Handles cached by live threads stay
/// valid (values are reset in place, never deallocated).
void reset();

/// Serialize a snapshot to the stable `transpwr-stats-v1` JSON schema.
/// `meta` key/value string pairs land in a "meta" object (run parameters,
/// field shapes, ...). Keys are emitted sorted; numbers use enough digits
/// to round-trip.
std::string to_json(const Snapshot& snap,
                    const std::vector<std::pair<std::string, std::string>>&
                        meta = {});

/// to_json(snapshot(), meta) written to `path`; throws on I/O failure.
void write_stats_json(const std::string& path,
                      const std::vector<std::pair<std::string, std::string>>&
                          meta = {});

/// Human-readable dump of the current snapshot (spans as an indented tree,
/// then counters and gauges).
void print_stats(std::FILE* out);

/// Strict validity check for a JSON document (objects, arrays, strings,
/// numbers, true/false/null). Used by the bench smoke assertions and the
/// schema tests; not a general-purpose parser.
bool json_valid(std::string_view text);

/// JSON building blocks, exposed so every machine-readable emitter in
/// the tree (`transpwr archive ls/verify --json`, the serve HTTP facade)
/// shares one escaping and number-formatting convention with the
/// `transpwr-stats-v1` serializer above.

/// Append `s` to `out` with JSON string escaping (quotes not included).
void json_append_escaped(std::string& out, std::string_view s);
/// Append `s` to `out` as a quoted, escaped JSON string.
void json_append_quoted(std::string& out, std::string_view s);

/// Append `v` with enough digits to round-trip (%.17g).
void json_append_double(std::string& out, double v);

}  // namespace obs
}  // namespace transpwr

#endif  // TRANSPWR_OBS_OBS_H
