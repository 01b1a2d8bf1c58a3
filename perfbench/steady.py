#!/usr/bin/env python3
"""Check that the benchmark's end-to-end metrics are steady across seeds.

Usage (from the root of a checkout):

    python3 perfbench/steady.py [--seeds 10] [--first-seed 1]
                                [--workload NAME ...] [--out FILE]

Runs BENCHMARK.json's command once per seed on each workload (untraced,
run_seconds each) and prints, per end-to-end metric, the median and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A spread
above the metric's bound means two sets of runs of the same code could
disagree by more than the benchmark tolerates; the target is a third of
the bound. `setup_s` is reported but not held to its bound here. It also
prints each run's host_steal_frac (CPU time the hypervisor took). Exits 1
when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    stats = os.path.join(ROOT, target, "perfbench", "run",
                         f"{workload}-trace0.json")
    with open(stats) as f:
        steal = float(json.load(f)["meta"].get("host_steal_frac", "nan"))
    return result, wall, steal


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--out", help="write every run's metrics here (JSON)")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {}
    ok = True
    for workload in workloads:
        runs, walls, steals = [], [], []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            try:
                result, wall, steal = run_once(bench, workload, seed)
            except RuntimeError as e:
                print(f"FAIL {e}")
                ok = False
                continue
            runs.append(result["metrics"])
            walls.append(wall)
            steals.append(steal)
        record[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, wall median "
              f"{statistics.median(walls) if walls else 0:.1f} s, "
              f"max {max(walls) if walls else 0:.1f} s")
        # A contended host moves every timing; see README "Run metadata".
        print("  host_steal_frac " + " ".join(f"{x:.3f}" for x in steals))
        if len(runs) < 2:
            ok = False
            continue
        for m in bench["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            held = m["name"] == "setup_s" or spread <= m["bound"]
            mark = ("ok" if spread <= m["bound"] / 3 else
                    "WIDE" if held else "OVER")
            ok = ok and held
            print(f"  {m['name']:16s} median {med:12.5g} {m['unit']:5s} "
                  f"spread {spread:7.4f} bound {m['bound']:.2f} {mark}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
