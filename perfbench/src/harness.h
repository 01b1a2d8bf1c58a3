// Shared machinery of the repository benchmark: options, the metric
// catalogue, benchmark-side trace spans, the correctness gate, and the
// helpers every workload uses (quantiles, seeded inputs, peak RSS).
#ifndef TRANSPWR_PERFBENCH_HARNESS_H
#define TRANSPWR_PERFBENCH_HARNESS_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/obs.h"

namespace perfbench {

namespace obs = transpwr::obs;

/// Command-line options (see main.cpp for the flags).
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;     ///< measurement budget of this run
  bool trace = false;      ///< per-layer run instead of end-to-end
  bool tiny = false;       ///< self-test sizes (seconds-scale)
  std::string workdir;     ///< scratch directory for archives
  std::string commit = "unknown";
  std::string stats_out;   ///< transpwr-stats-v1 document path ("" = none)
};

/// Pointwise relative bound every workload compresses at.
inline constexpr double kRelBound = 1e-3;

/// One metric of the catalogue (BENCHMARK.json lists the same names and
/// units, and which direction is better).
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports all of them, untraced.
std::span<const MetricSpec> end_to_end_metrics();
/// Per-layer metrics: every traced run reports all of them; a layer the
/// workload does not exercise reports 0.
std::span<const MetricSpec> per_layer_metrics();
const MetricSpec* find_metric(std::string_view name);

/// Metric values a workload fills in; main.cpp checks them against the
/// catalogue and prints the result.
using Values = std::map<std::string, double>;

/// Attempted / failed operation counts (thread-safe). An op fails when it
/// throws, misses its deadline, breaks the bound, or disagrees with the
/// local reference.
class Tally {
 public:
  void record(bool ok) {
    attempted_.fetch_add(1, std::memory_order_relaxed);
    if (!ok) failed_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
};

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Benchmark-side spans around calls into the library's public functions.
/// Spans nest on the calling thread: a span opened while another is open
/// records under "parent/child". Every span times (stop() returns the
/// duration); only an enabled trace keeps the records. Not thread-safe: open
/// spans from the workload's main thread only.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled) {}

  class Span {
   public:
    Span(Trace& trace, std::string_view name);
    ~Span() { stop(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Close the span (idempotent); returns its duration in seconds.
    double stop();

   private:
    Trace& trace_;
    std::size_t index_ = SIZE_MAX;  // record slot when tracing
    Clock::time_point start_;
    double seconds_ = -1;  // set once stopped
  };

  bool enabled() const { return enabled_; }

  /// Aggregate per path (seconds summed, count of closings), sorted.
  std::vector<std::pair<std::string, obs::SpanStat>> aggregate() const;

  /// Largest amount by which the direct children of one span instance
  /// exceed that instance's wall time, relative to it (<= 0 is healthy).
  double worst_children_excess() const;

 private:
  struct Record {
    std::string path;
    std::size_t parent = SIZE_MAX;
    double seconds = -1;  // -1 while open
    double children = 0;  // summed seconds of closed direct children
  };
  bool enabled_;
  std::vector<Record> records_;
  std::vector<std::size_t> open_;
};

/// Correctness gate for one decoded field, judged with the metrics module
/// slice by slice (so the check adds little to peak RSS): max pointwise
/// relative error <= br, exact zeros stay exact, signs preserved.
bool within_bound(std::span<const float> original,
                  std::span<const float> decoded, double br);
bool within_bound(std::span<const double> original,
                  std::span<const double> decoded, double br);

/// Linear-interpolated quantile (q in [0,1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Each op's median across passes (passes[i][j] is op j of pass i).
std::vector<double> per_op_medians(
    const std::vector<std::vector<double>>& passes);

/// Typical time of one pass made of the same ops in the same order:
/// the sum over ops of each op's median across passes (passes[i][j] is
/// op j of pass i). A stall that hits one op of one pass is dropped.
double sum_of_op_medians(const std::vector<std::vector<double>>& passes);

/// Each op's median across passes, as space-separated seconds (metadata
/// that shows which op a change or a noisy run moved).
std::string op_medians(const std::vector<std::vector<double>>& passes);

/// Peak resident set of this process, MiB (getrusage max RSS).
double peak_rss_mib();

/// Seed of input `stream` derived from the run's seed (splitmix64), so
/// every generated field depends on --seed and nothing else.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Call body(0), body(1), ... until `budget_s` has elapsed and at least
/// `min_reps` calls were made.
void repeat_for(double budget_s, std::size_t min_reps,
                const std::function<void(std::size_t)>& body);

/// Counter value read from the existing obs registry (0 if absent).
std::uint64_t obs_counter(const obs::Snapshot& snap, std::string_view name);
/// Span stat read from the existing obs registry (zeros if absent).
obs::SpanStat obs_span(const obs::Snapshot& snap, std::string_view path);

/// Run `fn` on a worker of the shared pool and wait for it. Parallel
/// regions nested inside a pool task run inline, so this is how the
/// benchmark drives a library call at exactly one thread.
void run_on_pool_worker(const std::function<void()>& fn);

constexpr double kMB = 1e6;      ///< rates are decimal MB/s
constexpr double kMiB = 1 << 20; ///< memory is MiB

// --- workloads ---------------------------------------------------------------

/// Each workload measures for opts.seconds, records every op in `tally`,
/// and fills `values` with the end-to-end metrics (untraced) or the
/// per-layer metrics (traced). `meta` receives workload facts (input
/// sizes, dtype mix) for the run metadata.
struct WorkloadContext {
  const Options& opts;
  Trace& trace;
  Tally& tally;
  Values& values;
  std::vector<std::pair<std::string, std::string>>& meta;
};

void run_whole_field(WorkloadContext& ctx);
void run_slab_io(WorkloadContext& ctx);
void run_serve_mix(WorkloadContext& ctx);

}  // namespace perfbench

#endif  // TRANSPWR_PERFBENCH_HARNESS_H
