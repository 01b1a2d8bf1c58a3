#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>

#include "common/parallel.h"
#include "metrics/metrics.h"

namespace perfbench {

namespace {

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"compress_mbs", "MB/s"},
    {"decompress_mbs", "MB/s"},
    {"ratio", "x"},
    {"peak_rss_mb", "MiB"},
    {"read_p50_ms", "ms"},
    {"read_p99_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    // whole_field
    {"core.log_forward_s", "s"},
    {"core.log_forward_t1_s", "s"},
    {"core.log_inverse_s", "s"},
    {"core.log_inverse_t1_s", "s"},
    {"kernels.exp2_melems", "Melem/s"},
    {"sz.compress_s", "s"},
    {"sz.decompress_s", "s"},
    {"zfp.compress_s", "s"},
    {"zfp.decompress_s", "s"},
    {"core.glue_compress_s", "s"},
    {"core.glue_decompress_s", "s"},
    {"szt.compress_t1_s", "s"},
    {"szt.decompress_t1_s", "s"},
    {"szt.decompress_speedup", "x"},
    {"sz.outliers", "count"},
    // slab_io
    {"parallel.chunked_compress_s", "s"},
    {"parallel.chunked_decompress_s", "s"},
    {"store.add_dataset_s", "s"},
    {"store.finish_s", "s"},
    {"store.open_s", "s"},
    {"store.load_cold_s", "s"},
    {"store.load_cold_f64_s", "s"},
    {"store.verify_s", "s"},
    {"slab.codec_compress_sum_s", "s"},
    {"slab.codec_decompress_sum_s", "s"},
    {"parallel.compress_efficiency", "ratio"},
    {"parallel.decompress_efficiency", "ratio"},
    {"store.chunks_written", "count"},
    {"store.bytes_written", "bytes"},
    {"store.summary_chunks", "count"},
    {"chunked.slabs", "count"},
    // serve_mix
    {"net.read_rows_p50_ms", "ms"},
    {"net.read_rows_p99_ms", "ms"},
    {"net.query_agg_p99_ms", "ms"},
    {"net.query_count_p99_ms", "ms"},
    {"http.rows_p99_ms", "ms"},
    {"store.read_rows_p50_ms", "ms"},
    {"store.read_rows_p99_ms", "ms"},
    {"query.aggregate_p50_ms", "ms"},
    {"server.overhead_p50_ms", "ms"},
    {"server.wait_mean_ms", "ms"},
    {"store.cache_hit_ratio", "ratio"},
    {"store.chunks_decoded_per_req", "count"},
    {"query.pruned_ratio", "ratio"},
    {"loadgen.late_p99_ms", "ms"},
    {"loadgen.backlog_max", "count"},
    {"read_rps_at_slo", "req/s"},
    // every workload
    {"trace.overhead_frac", "ratio"},
    {"error_rate", "ratio"},
};

}  // namespace

std::span<const MetricSpec> end_to_end_metrics() { return kEndToEnd; }
std::span<const MetricSpec> per_layer_metrics() { return kPerLayer; }

const MetricSpec* find_metric(std::string_view name) {
  for (const auto& m : kEndToEnd)
    if (name == m.name) return &m;
  for (const auto& m : kPerLayer)
    if (name == m.name) return &m;
  return nullptr;
}

// --- Trace ---------------------------------------------------------------------

Trace::Span::Span(Trace& trace, std::string_view name) : trace_(trace) {
  if (trace_.enabled_) {
    Record r;
    if (!trace_.open_.empty()) {
      r.parent = trace_.open_.back();
      r.path = trace_.records_[r.parent].path + "/";
    }
    r.path += name;
    index_ = trace_.records_.size();
    trace_.records_.push_back(std::move(r));
    trace_.open_.push_back(index_);
  }
  start_ = Clock::now();
}

double Trace::Span::stop() {
  if (seconds_ >= 0) return seconds_;
  seconds_ = seconds_between(start_, Clock::now());
  if (index_ != SIZE_MAX) {
    // Spans close in LIFO order on one thread; a span stopped early by its
    // owner is still the innermost one open.
    Record& r = trace_.records_[index_];
    r.seconds = seconds_;
    if (r.parent != SIZE_MAX) trace_.records_[r.parent].children += seconds_;
    if (!trace_.open_.empty() && trace_.open_.back() == index_)
      trace_.open_.pop_back();
  }
  return seconds_;
}

std::vector<std::pair<std::string, obs::SpanStat>> Trace::aggregate() const {
  std::map<std::string, obs::SpanStat> by_path;
  for (const auto& r : records_) {
    if (r.seconds < 0) continue;
    auto& s = by_path[r.path];
    s.seconds += r.seconds;
    ++s.count;
  }
  return {by_path.begin(), by_path.end()};
}

double Trace::worst_children_excess() const {
  double worst = -1;
  for (const auto& r : records_) {
    if (r.seconds <= 0 || r.children == 0) continue;
    worst = std::max(worst, (r.children - r.seconds) / r.seconds);
  }
  return worst;
}

// --- correctness gate ------------------------------------------------------------

namespace {

template <typename T>
bool within_bound_impl(std::span<const T> original, std::span<const T> decoded,
                       double br) {
  if (original.size() != decoded.size()) return false;
  constexpr std::size_t kSlice = std::size_t{1} << 20;
  for (std::size_t b = 0; b < original.size(); b += kSlice) {
    const std::size_t n = std::min(kSlice, original.size() - b);
    auto o = original.subspan(b, n);
    auto d = decoded.subspan(b, n);
    transpwr::ErrorStats s = transpwr::compute_error_stats(o, d);
    if (!(s.max_rel <= br) || s.modified_zeros != 0) return false;
    for (std::size_t i = 0; i < n; ++i)
      if (o[i] != 0 && std::signbit(o[i]) != std::signbit(d[i])) return false;
  }
  return true;
}

}  // namespace

bool within_bound(std::span<const float> original,
                  std::span<const float> decoded, double br) {
  return within_bound_impl(original, decoded, br);
}

bool within_bound(std::span<const double> original,
                  std::span<const double> decoded, double br) {
  return within_bound_impl(original, decoded, br);
}

// --- small helpers ---------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

std::vector<double> per_op_medians(
    const std::vector<std::vector<double>>& passes) {
  std::vector<double> out;
  const std::size_t ops = passes.empty() ? 0 : passes.front().size();
  for (std::size_t j = 0; j < ops; ++j) {
    std::vector<double> op;
    for (const auto& p : passes)
      if (j < p.size()) op.push_back(p[j]);
    out.push_back(median(std::move(op)));
  }
  return out;
}

double sum_of_op_medians(const std::vector<std::vector<double>>& passes) {
  double total = 0;
  for (double m : per_op_medians(passes)) total += m;
  return total;
}

std::string op_medians(const std::vector<std::vector<double>>& passes) {
  std::string out;
  char buf[32];
  for (double m : per_op_medians(passes)) {
    std::snprintf(buf, sizeof buf, "%s%.4f", out.empty() ? "" : " ", m);
    out += buf;
  }
  return out;
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / kMiB;  // KiB on Linux
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void repeat_for(double budget_s, std::size_t min_reps,
                const std::function<void(std::size_t)>& body) {
  const auto start = Clock::now();
  std::size_t reps = 0;
  while (reps < min_reps || seconds_between(start, Clock::now()) < budget_s)
    body(reps++);
}

std::uint64_t obs_counter(const obs::Snapshot& snap, std::string_view name) {
  for (const auto& [k, v] : snap.counters)
    if (k == name) return v;
  return 0;
}

obs::SpanStat obs_span(const obs::Snapshot& snap, std::string_view path) {
  for (const auto& [k, v] : snap.spans)
    if (k == path) return v;
  return {};
}

void run_on_pool_worker(const std::function<void()>& fn) {
  std::promise<void> done;
  auto fut = done.get_future();
  transpwr::global_pool().submit([&] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  fut.get();
}

}  // namespace perfbench
