#!/usr/bin/env python3
"""Steadiness report: run each workload on several seeds and print the spread.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --workloads pt500_tvamp --runs 5 --sets 2

For every end-to-end metric in BENCHMARK.json this prints the median and
the quartiles of its values over ``--runs`` seeds (``statistics.quantiles``
with n=4), the quartile spread as a share of the median, and the metric's
bound.  With ``--sets 2`` a second set of runs on fresh seeds follows, and
the change of each median between the sets is printed too.  The spread is
the evidence for the bounds in BENCHMARK.json.  The uncalibrated
``trial_s.p50`` is printed too, outside the verdict, to show what
calibration removes.  Results also go to ``perfbench/results/steadiness.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Printed beside the gated metrics, from each run's results file, to show
# what calibration removes; not part of the verdict.
UNGATED = ("trial_s.p50",)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed:\n{out.stderr}{out.stdout}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: correctness check failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    with open(os.path.join(HERE, "results", f"{workload}_seed{seed}_trace0.json")) as fh:
        detail = json.load(fh)["detail"]
    values.update({name: detail[name][0] for name in UNGATED})
    return values


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def worsening(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of the first."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", choices=names, default=names)
    p.add_argument("--runs", type=int, default=10, help="seeds per set (at least 2)")
    p.add_argument("--sets", type=int, default=1, help="sets of runs on fresh seeds")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = p.parse_args(argv)
    if args.runs < 2 or args.sets < 1:
        p.error("need --runs >= 2 and --sets >= 1")

    metrics = bench["end_to_end"]
    report = {}
    steady = True
    for workload in args.workloads:
        sets = []
        for s in range(args.sets):
            seeds = range(args.first_seed + s * args.runs, args.first_seed + (s + 1) * args.runs)
            runs = []
            for seed in seeds:
                runs.append(run_once(workload, seed, args.seconds))
                print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
            names = [m["name"] for m in metrics] + list(UNGATED)
            sets.append({name: summarize([r[name] for r in runs]) for name in names})
        report[workload] = sets
        print(f"\n{workload}  ({args.runs} seeds x {args.sets} set(s), {args.seconds} s each)")
        print(f"  {'metric':24s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}"
              + ("  worse2nd" if args.sets > 1 else ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = sets[0][name]
            line = (
                f"  {name:24s} {first['median']:12.6g} {first['q1']:12.6g} {first['q3']:12.6g}"
                f" {first['spread']:8.4f} {bound:6.3f}"
            )
            steady = steady and all(st[name]["spread"] <= bound for st in sets)
            for later in sets[1:]:
                worse = worsening(first["median"], later[name]["median"], m["better"])
                line += f"  {worse:+8.4f}"
                steady = steady and worse <= bound
            print(line)
        for name in UNGATED:
            first = sets[0][name]
            print(
                f"  {name:24s} {first['median']:12.6g} {first['q1']:12.6g} {first['q3']:12.6g}"
                f" {first['spread']:8.4f}  ungated"
                + "".join(f", set {i} spread {st[name]['spread']:.4f}" for i, st in enumerate(sets[1:], 2))
            )
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", "steadiness.json"), "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    print("\nall spreads and median shifts within bounds:", steady)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
