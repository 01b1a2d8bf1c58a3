// perfbench: the repository benchmark. Runs one workload (whole_field,
// slab_io or serve_mix) for a fixed time and prints, as the last line of
// stdout, one JSON object:
//
//   {"correct": ..., "attempted": N, "failed": F,
//    "metrics": {"<name>": {"value": v, "unit": "<unit>"}, ...}}
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics. Both also write the full
// result, the run metadata and the benchmark's trace spans as a
// transpwr-stats-v1 document (--stats-out). See perfbench/README.md.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--size full|tiny] [--workdir DIR] [--commit SHA]
//                  [--stats-out PATH]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "harness.h"
#include "kernels/dispatch.h"
#include "obs/obs.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload whole_field|slab_io|serve_mix "
               "--seed N --seconds S --trace 0|1 [--size full|tiny] "
               "[--workdir DIR] [--commit SHA] [--stats-out PATH]\n",
               why);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) usage("--seed must be an unsigned integer");
      have_seed = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(o.seconds > 0)) usage("--seconds must be positive");
      have_seconds = true;
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace must be 0 or 1");
      o.trace = v == "1";
    } else if (a == "--size") {
      if (v != "full" && v != "tiny") usage("--size must be full or tiny");
      o.tiny = v == "tiny";
    } else if (a == "--workdir") {
      o.workdir = v;
    } else if (a == "--commit") {
      o.commit = v;
    } else if (a == "--stats-out") {
      o.stats_out = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
  }
  if (o.workload.empty() || !have_seed || !have_seconds)
    usage("--workload, --seed and --seconds are required");
  if (o.workdir.empty()) o.workdir = ".";
  return o;
}

std::string read_first_match(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) != 0) continue;
    auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    auto v = line.substr(colon + 1);
    v.erase(0, v.find_first_not_of(" \t"));
    return v;
  }
  return "unknown";
}

/// Last-level cache size in bytes (0 when the system does not say).
std::uint64_t llc_bytes() {
  for (int idx = 4; idx >= 0; --idx) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(idx) + "/size");
    std::string s;
    if (!(in >> s) || s.empty()) continue;
    std::uint64_t mult = 1;
    char last = s.back();
    if (last == 'K') mult = 1024;
    if (last == 'M') mult = 1024 * 1024;
    return std::strtoull(s.c_str(), nullptr, 10) * mult;
  }
  return 0;
}

/// CPU time the hypervisor stole from this machine and the total, both in
/// clock ticks since boot (zeros when /proc/stat is unreadable).
std::pair<double, double> steal_and_total_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0, total = 0, v = 0;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && (in >> v); ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_args(argc, argv);
  void (*workload)(WorkloadContext&) = nullptr;
  if (opts.workload == "whole_field") workload = run_whole_field;
  if (opts.workload == "slab_io") workload = run_slab_io;
  if (opts.workload == "serve_mix") workload = run_serve_mix;
  if (!workload) usage(("unknown workload " + opts.workload).c_str());

  std::vector<std::pair<std::string, std::string>> meta = {
      {"bench", "perfbench"},
      {"workload", opts.workload},
      {"seed", std::to_string(opts.seed)},
      {"seconds", std::to_string(opts.seconds)},
      {"trace", opts.trace ? "1" : "0"},
      {"size", opts.tiny ? "tiny" : "full"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"cpu_model", read_first_match("/proc/cpuinfo", "model name")},
      {"llc_bytes", std::to_string(llc_bytes())},
      {"kernels", transpwr::kernels::name(transpwr::kernels::active())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", opts.commit},
      {"rel_bound", "1e-3"},
  };

  Trace trace(opts.trace);
  Tally tally;
  Values values;
  WorkloadContext ctx{opts, trace, tally, values, meta};
  const auto [steal0, total0] = steal_and_total_ticks();
  try {
    workload(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", opts.workload.c_str(),
                 e.what());
    return 1;
  }
  // Share of CPU time the host took from this VM during the run; a high
  // share marks a run whose timings a contended host slowed.
  const auto [steal1, total1] = steal_and_total_ticks();
  meta.emplace_back("host_steal_frac",
                    std::to_string(total1 > total0 ? (steal1 - steal0) /
                                                         (total1 - total0)
                                                   : 0.0));

  // Assemble the metric set this run must report.
  bool correct = tally.failed() == 0 && tally.attempted() > 0;
  auto specs = opts.trace ? per_layer_metrics() : end_to_end_metrics();
  if (opts.trace) {
    values["error_rate"] =
        tally.attempted() ? static_cast<double>(tally.failed()) /
                                static_cast<double>(tally.attempted())
                          : 1.0;
    const double excess = trace.worst_children_excess();
    meta.emplace_back("trace.worst_children_excess", std::to_string(excess));
    // Children are timed inside their parent, so only clock granularity
    // can make them sum past it.
    if (excess > 0.01) {
      std::fprintf(stderr, "perfbench: trace children exceed parent by %.3f\n",
                   excess);
      correct = false;
    }
  }
  std::string metrics_json;
  obs::Snapshot doc;
  for (const auto& spec : specs) {
    auto it = values.find(spec.name);
    double v = 0;
    if (it != values.end()) {
      v = it->second;
    } else if (!opts.trace) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n",
                   spec.name);
      correct = false;
    }
    if (!std::isfinite(v) || (!opts.trace && v <= 0)) {
      std::fprintf(stderr, "perfbench: metric %s has invalid value %g\n",
                   spec.name, v);
      correct = false;
      if (!std::isfinite(v)) v = 0;
    }
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += "\"";
    obs::json_append_escaped(metrics_json, spec.name);
    metrics_json += "\": {\"value\": ";
    obs::json_append_double(metrics_json, v);
    metrics_json += ", \"unit\": \"";
    obs::json_append_escaped(metrics_json, spec.unit);
    metrics_json += "\"}";
    doc.gauges.emplace_back(spec.name, v);
    meta.emplace_back(std::string("unit.") + spec.name, spec.unit);
  }

  doc.spans = trace.aggregate();
  doc.counters = {{"ops.attempted", tally.attempted()},
                  {"ops.failed", tally.failed()}};
  std::sort(doc.gauges.begin(), doc.gauges.end());
  const std::string text = obs::to_json(doc, meta);
  if (!opts.stats_out.empty()) {
    std::FILE* f = std::fopen(opts.stats_out.c_str(), "w");
    if (!f || std::fwrite(text.data(), 1, text.size(), f) != text.size() ||
        std::fclose(f) != 0) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opts.stats_out.c_str());
      return 1;
    }
  }

  std::fprintf(stderr, "perfbench %s (%s run, seed %llu):\n",
               opts.workload.c_str(), opts.trace ? "traced" : "untraced",
               static_cast<unsigned long long>(opts.seed));
  for (const auto& [k, v] : meta)
    if (k.rfind("unit.", 0) != 0)
      std::fprintf(stderr, "  meta %-28s %s\n", k.c_str(), v.c_str());
  for (const auto& [k, v] : doc.gauges)
    std::fprintf(stderr, "  %-32s %14.6g %s\n", k.c_str(), v,
                 find_metric(k)->unit);
  std::fprintf(stderr, "  ops attempted %llu failed %llu\n",
               static_cast<unsigned long long>(tally.attempted()),
               static_cast<unsigned long long>(tally.failed()));

  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(tally.attempted()),
      static_cast<unsigned long long>(tally.failed()), metrics_json.c_str());
  std::fflush(stdout);
  return 0;
}
