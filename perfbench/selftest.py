#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py

For every workload, runs a tiny-size untraced and traced run through
BENCHMARK.json's command and checks that:
  * the last stdout line has exactly correct/attempted/failed/metrics, and
    the metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its unit and a finite value, and
    every end-to-end value above 0;
  * the run is correct with no failed op (error_rate 0 on the seed);
  * the transpwr-stats-v1 document the run wrote carries every metric as a
    gauge with its unit, and the run metadata;
  * in traced runs, the direct children of every span sum to no more than
    the span's wall time.
Finally it checks that the benchmark fails, without printing a result, in
a directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
META_KEYS = ["nproc", "cpu_model", "llc_bytes", "kernels", "build_type",
             "commit", "seed", "input_bytes", "input_elements"]
failures = []


def check(cond, what):
    if not cond:
        failures.append(what)
        print(f"  FAIL {what}")


def run(bench, workload, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", "1",
                              "--seconds", "1", "--trace", str(trace),
                              "--size", "tiny"]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)


def stats_path(workload, trace):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench", "run",
                        f"{workload}-trace{trace}.json")


def check_spans(spans, label):
    for path, stat in spans.items():
        children = sum(s["seconds"] for p, s in spans.items()
                       if p.startswith(path + "/") and
                       "/" not in p[len(path) + 1:])
        check(children <= stat["seconds"] * 1.01 + 1e-4,
              f"{label}: children of {path} sum to {children:.6f} s, "
              f"more than its {stat['seconds']:.6f} s")


def check_run(bench, workload, trace):
    label = f"{workload} trace={trace}"
    print(f"{label}")
    proc = run(bench, workload, trace)
    check(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        check(False, f"{label}: no result line")
        return
    result = json.loads(lines[-1])
    check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
          f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: not correct")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{label}: error_rate {result['failed']}/{result['attempted']}")
    specs = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in specs}
    got = result["metrics"]
    check(set(got) == set(want),
          f"{label}: metric names differ: {set(got) ^ set(want)}")
    for name, unit in want.items():
        if name not in got:
            continue
        v = got[name]["value"]
        check(got[name]["unit"] == unit, f"{label}: {name} unit")
        check(isinstance(v, (int, float)) and math.isfinite(v),
              f"{label}: {name} value {v}")
        if not trace:
            check(v > 0, f"{label}: end-to-end {name} is {v}")

    with open(stats_path(workload, trace)) as f:
        doc = json.load(f)
    check(doc.get("schema") == "transpwr-stats-v1", f"{label}: schema")
    meta = doc.get("meta", {})
    for key in META_KEYS:
        check(key in meta, f"{label}: metadata {key} missing")
    for name, unit in want.items():
        check(name in doc.get("gauges", {}), f"{label}: gauge {name}")
        check(meta.get("unit." + name) == unit, f"{label}: unit.{name}")
    if trace:
        check(len(doc.get("spans", {})) > 0, f"{label}: no trace spans")
        check_spans(doc.get("spans", {}), label)


def check_bare_directory(bench):
    """Only BENCHMARK.json and the benchmark's files: must fail cleanly."""
    print("bare directory")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bare = os.path.join(ROOT, target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = bench["command"] + ["--workload", bench["workloads"][0]["name"],
                              "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    check(proc.returncode != 0, "bare directory: exit code 0")
    check(proc.stdout.strip() == "",
          "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace in (0, 1):
            check_run(bench, w["name"], trace)
    check_bare_directory(bench)
    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
