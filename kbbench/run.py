#!/usr/bin/env python3
"""The repository benchmark: builds kbserver and the kbbench client from
this source tree, then runs one workload (see README.md).

    python3 kbbench/run.py --workload tenants_read --seed 1 --seconds 10 --trace 0

The last line of stdout is the result as one JSON object. Build output and
progress go to stderr. Everything is built under .bench_build/ and every
run writes only under .bench_run/, both at the root of the checkout.

    python3 kbbench/run.py --steadiness [--runs 5] [--first-seed 1]
        [--workloads tenants_read,grid_churn,stable_explain]

runs two interleaved sets of the same build, one seed per run, and prints
for each workload and end-to-end metric each set's median and quartiles,
the spread (quartile distance over median) and the gap between the set
medians against the metric's bound in BENCHMARK.json, beside the host
probe of every run.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "kbbench")
WORK = os.path.join(ROOT, ".bench_run")
KBBENCH = os.path.join(BUILD, "kbbench")
KBSERVER = os.path.join(BUILD, "ordlog_tools", "kbserver")
WORKLOADS = ["tenants_read", "grid_churn", "stable_explain"]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("kbbench: no ordlog source tree around " + HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    for command in (
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "--target", "kbserver", "kbbench", "-j", jobs],
    ):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            sys.exit("kbbench: build failed: " + " ".join(command))


def run_once(workload, seed, seconds, trace):
    """Runs kbbench; returns (exit code, stdout)."""
    command = [KBBENCH, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--server", KBSERVER, "--work-dir", WORK]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return done.returncode, done.stdout


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workloads.split(",")
    # values[workload][set][metric] -> list of values, one per run
    values = {w: ({}, {}) for w in workloads}
    failures = 0
    for r in range(args.runs):
        seed = args.first_seed + r
        for workload in workloads:
            # Alternate which set goes first, so drift hits both alike.
            for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                code, out = run_once(workload, seed, seconds, 0)
                probe = re.search(r"host probe ([0-9.]+) ms, loadavg (.*)", out)
                result = json.loads(out.strip().splitlines()[-1]) if code == 0 else None
                if result is None or not result["correct"]:
                    failures += 1
                    print(f"{workload} seed {seed} set {'AB'[s]}: FAILED", flush=True)
                    continue
                for name, metric in result["metrics"].items():
                    values[workload][s].setdefault(name, []).append(metric["value"])
                print(f"{workload} seed {seed} set {'AB'[s]}: probe "
                      f"{probe.group(1) if probe else '?'} ms, loadavg "
                      f"{probe.group(2) if probe else '?'}; " +
                      " ".join(f"{name}={metric['value']:.6g}"
                               for name, metric in result["metrics"].items()),
                      flush=True)
    worst = 0.0
    for workload in workloads:
        print(f"\n{workload}")
        print(f"  {'metric':28s} {'A median':>12s} {'A q1..q3':>25s} {'A spread':>9s} "
              f"{'B median':>12s} {'B spread':>9s} {'gap B/A':>8s} {'bound':>6s}")
        for name, bound in bounds.items():
            a, b = values[workload][0].get(name, []), values[workload][1].get(name, [])
            if len(a) < 2 or len(b) < 2:
                continue
            qa, qb = statistics.quantiles(a, n=4), statistics.quantiles(b, n=4)
            ma, mb = statistics.median(a), statistics.median(b)
            spread_a, spread_b = (qa[2] - qa[0]) / ma, (qb[2] - qb[0]) / mb
            gap = mb / ma - 1
            if name != "setup_s":
                worst = max(worst, spread_a / bound, spread_b / bound)
            worst = max(worst, abs(gap) / bound)
            print(f"  {name:28s} {ma:12.6g} {qa[0]:12.6g}..{qa[2]:<12.6g} {spread_a:9.3f} "
                  f"{mb:12.6g} {spread_b:9.3f} {gap:+8.3f} {bound:6.2f}")
    print(f"\nworst spread or gap as a share of its bound: {worst:.2f}; failed runs: {failures}")
    return 0 if failures == 0 and worst <= 1 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    if not args.steadiness and args.workload is None:
        parser.error("--workload is required")
    build()
    os.makedirs(WORK, exist_ok=True)
    if args.steadiness:
        return steadiness(args)
    code, out = run_once(args.workload, args.seed, args.seconds, args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
