#!/usr/bin/env python3
"""Seeded benchmark of ssamp: one workload, a closed loop of one trial at a time.

Run from the repository root:

    python3 perfbench/run.py --workload dct16k_oracle --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs
the same loop with spans around every layer, replays the traced trials
untraced to measure the tracing overhead, and reports the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Full results, with every trial, go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "ssamp")):
    sys.exit(f"no ssamp sources under {SRC}: run from a checkout of the repository")
sys.path[:0] = [ROOT, SRC]

from perfbench import machine  # noqa: E402  (numpy-free; pins BLAS threads below)

machine.pin_blas_threads()

from perfbench import calibration, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, CorrectnessError, run_trial  # noqa: E402

RESULTS_DIR = os.path.join(HERE, "results")
# Cold processes per run; setup_s is the median of what each paid beyond trial 0's warm time.
SETUP_REPEATS = 3
# trial_s.tail is the highest percentile with at least this many trials beyond it.
TAIL_BEYOND = 10
COLD_TRIAL = 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="seed_base of every trial")
    p.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--cold-start",
        action="store_true",
        help="run one cold trial, print its outcome and exit (used to time set-up)",
    )
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def outcome_record(o) -> dict:
    return {
        "index": o.index,
        "k_over_m": o.k_over_m,
        "cell_trial": o.cell_trial,
        "iters": o.iters,
        "nmse": o.nmse,
        "diverged": o.diverged,
        "converged": o.converged,
        "success": o.success,
        "seconds": o.seconds,
        "estimate_sha256": o.estimate_sha256,
    }


def same_outcome(a, b) -> bool:
    """Identical iteration count and bit-identical estimate."""
    return (a.iters, a.estimate_sha256) == (b.iters, b.estimate_sha256)


def timed_loop(workload, config, seconds, reference):
    """Trials 0, 1, 2, ... until ``seconds`` of wall time have passed, each
    followed by one reference block; returns the outcomes, the reference
    times and the wall time."""
    outcomes, ref_times = [], []
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        outcomes.append(run_trial(workload, config, len(outcomes)))
        ref_times.append(reference.run())
    return outcomes, ref_times, time.perf_counter() - t0


def cold_setups(args) -> list[float]:
    """Wall time of fresh processes that import ssamp and run one cold trial."""
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--cold-start",
    ]
    samples = []
    outputs = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        samples.append(time.perf_counter() - t0)
        if out.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{out.stderr}")
        outputs.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return samples, outputs


def tail(values):
    """(value, percentile, trials beyond) of the highest percentile with
    TAIL_BEYOND trials beyond it; the lowest value when there are too few."""
    ordered = sorted(values)
    i = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / len(ordered), len(ordered) - 1 - i


def cell_median(outcomes, value) -> float:
    """Median of ``value`` within each grid cell, averaged over the cells.

    Cells of the pt workloads differ in iterations per trial, so a median
    over their mixture sits between the cells' modes and moves with the
    mix; each cell's own median does not.  One cell: the plain median.
    """
    cells = {}
    for o in outcomes:
        v = value(o)
        if v is not None:
            cells.setdefault(o.k_over_m, []).append(v)
    if not cells:
        return float("nan")
    return statistics.fmean(statistics.median(v) for v in cells.values())


def end_to_end(outcomes, calibrated, ref_times, wall, setup_samples) -> tuple[dict, dict]:
    """The gated metrics of BENCHMARK.json, and the ungated rest."""
    tail_value, tail_pct, tail_n = tail([o.seconds for o in outcomes])
    by_index = {o.index: c for o, c in zip(outcomes, calibrated)}
    metrics = {
        "trial_s.p50.calibrated": (cell_median(outcomes, lambda o: by_index[o.index]), "s"),
        "iters.p50": (cell_median(outcomes, lambda o: o.iters), "count"),
        "success_ratio": (sum(o.success for o in outcomes) / len(outcomes), "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    # Ungated: the plain median follows the host's speed phases (see
    # calibration.py); on the pt workloads trials_per_s and the tail depend
    # on how many trials of a run go to max_iters, which varies too much
    # between seeds for any bound (see README.md).
    detail = {
        "trial_s.p50": (cell_median(outcomes, lambda o: o.seconds), "s"),
        "reference_s.p50": (statistics.median(ref_times), "s"),
        "trials_per_s": (len(outcomes) / wall, "1/s"),
        "trial_s.tail": (tail_value, "s"),
        "trial_s.tail_percentile": (tail_pct, "%"),
        "trial_s.tail_trials_beyond": (tail_n, "count"),
        "fail_ratio": (sum(not o.success for o in outcomes) / len(outcomes), "ratio"),
        "diverged": (sum(o.diverged for o in outcomes), "count"),
        "trials": (len(outcomes), "count"),
        "timed_wall_s": (wall, "s"),
    }
    return metrics, detail


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(outcomes, tracer, is_tvamp, traced_wall, untraced_wall, absent):
    totals = tracing.layer_totals(tracer.spans)
    total, own, calls = totals["total_ns"], totals["self_ns"], totals["calls"]

    # A diverged trial reports no iteration count; it ran as many as it applied H.
    applies = {}
    for s in tracer.spans:
        parent = s[tracing.PARENT]
        if (
            s[tracing.NAME] == "operators.apply"
            and parent >= 0
            and tracer.spans[parent][tracing.NAME] in tracing.SOLVE_SPANS
        ):
            applies[s[tracing.TRIAL]] = applies.get(s[tracing.TRIAL], 0) + 1
    iters = [o.iters if o.iters is not None else applies.get(o.index, 0) for o in outcomes]
    all_iters = sum(iters)
    wasted = sum(i for i, o in zip(iters, outcomes) if not o.success)
    ss_iters, ss_wasted = (0, 0) if is_tvamp else (all_iters, wasted)
    tv_iters, tv_wasted = (all_iters, wasted) if is_tvamp else (0, 0)
    n = len(outcomes)

    def ms(key):
        return total[key] / 1e6

    solve_ns = total[("solver.solve", False)] + total[("tvamp.solve", False)]
    kernel_ns = total[("kernels.phi_zeta", True)] + total[("kernels.eta_gamma", True)]
    op_ns = total[("operators.apply", True)] + total[("operators.adjoint", True)]
    metrics = {
        "operators.build_ms": (ms(("operators.build", False)) / n, "ms"),
        "operators.apply_ms_per_iter": (_ratio(ms(("operators.apply", True)), all_iters), "ms"),
        "operators.adjoint_ms_per_iter": (_ratio(ms(("operators.adjoint", True)), all_iters), "ms"),
        "operators.calls_per_iter": (
            _ratio(calls[("operators.apply", True)] + calls[("operators.adjoint", True)], all_iters),
            "count",
        ),
        "operators.share_of_solve": (_ratio(op_ns, solve_ns), "ratio"),
        "kernels.phi_zeta_ms_per_iter": (_ratio(ms(("kernels.phi_zeta", True)), ss_iters), "ms"),
        "kernels.eta_gamma_ms_per_iter": (_ratio(ms(("kernels.eta_gamma", True)), ss_iters), "ms"),
        "kernels.ns_per_coord": (
            _ratio(kernel_ns, tracer.coords["kernels.phi_zeta"] + tracer.coords["kernels.eta_gamma"]),
            "ns",
        ),
        "kernels.calls_per_iter": (
            _ratio(calls[("kernels.phi_zeta", True)] + calls[("kernels.eta_gamma", True)], ss_iters),
            "count",
        ),
        "kernels.share_of_solve": (_ratio(kernel_ns, solve_ns), "ratio"),
        "solver.self_ms_per_iter": (_ratio(own[("solver.solve", False)] / 1e6, ss_iters), "ms"),
        "solver.em_ms_per_iter": (_ratio(ms(("solver.em_update", True)), ss_iters), "ms"),
        "solver.iters_total": (float(ss_iters), "count"),
        "solver.wasted_iter_share": (_ratio(ss_wasted, ss_iters), "ratio"),
        "tvamp.prox_ms_per_iter": (_ratio(ms(("tvamp.tv_prox", True)), tv_iters), "ms"),
        "tvamp.divergence_ms_per_iter": (_ratio(ms(("tvamp.tv_divergence", True)), tv_iters), "ms"),
        "tvamp.self_ms_per_iter": (_ratio(own[("tvamp.solve", False)] / 1e6, tv_iters), "ms"),
        "tvamp.wasted_iter_share": (_ratio(tv_wasted, tv_iters), "ratio"),
        "tvamp.prox_share_of_solve": (_ratio(total[("tvamp.tv_prox", True)], solve_ns), "ratio"),
        "signals.generate_ms": (ms(("signals.generate", False)) / n, "ms"),
        "signals.measure_self_ms": (own[("signals.measure", False)] / 1e6 / n, "ms"),
        "harness.trial_self_ms": (own[("harness.trial", False)] / 1e6 / n, "ms"),
        "trace.traced_trials_per_s": (n / traced_wall, "1/s"),
        "trace.untraced_trials_per_s": (n / untraced_wall, "1/s"),
        "trace.overhead": (traced_wall / untraced_wall - 1.0, "ratio"),
    }
    detail = {
        "trials": (n, "count"),
        "iters_total": (all_iters, "count"),
        "spans": (len(tracer.spans), "count"),
        "absent_layers": (",".join(absent) or "none", ""),
    }
    return metrics, detail


def write_results(name, payload) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, default=float)
        fh.write("\n")
    return path


def report(metrics, detail, correct, attempted, failed) -> None:
    for name, (value, unit) in {**metrics, **detail}.items():
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"{name:32s} {shown} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def run_untraced(args, workload, config, record):
    cold_walls, cold = cold_setups(args)
    warm = run_trial(workload, config, COLD_TRIAL)
    reference = calibration.Reference()
    outcomes, ref_times, wall = timed_loop(workload, config, args.seconds, reference)
    # Set-up is what a fresh process pays beyond the trial it runs: trial 0
    # of one seed can take ten times as long as that of another, and that is
    # trial time, which trial_s.* already measure.
    setup_samples = [c - outcomes[COLD_TRIAL].seconds for c in cold_walls]
    calibrated = calibration.calibrated([o.seconds for o in outcomes], ref_times)
    metrics, detail = end_to_end(outcomes, calibrated, ref_times, wall, setup_samples)
    # Fresh processes, the warm-up and the timed loop must agree on the cold trial.
    consistent = same_outcome(warm, outcomes[COLD_TRIAL]) and all(
        c["iters"] == warm.iters and c["nmse"] == warm.nmse for c in cold
    )
    record.update(
        metrics=metrics,
        detail=detail,
        setup_s_samples=setup_samples,
        cold_process_s=cold_walls,
        consistent_cold_trial=consistent,
    )
    record["trials"] = [
        dict(outcome_record(o), calibrated_seconds=c, reference_seconds=r)
        for o, c, r in zip(outcomes, calibrated, ref_times)
    ]
    return consistent, metrics, detail, outcomes


def run_traced(args, workload, config, record):
    run_trial(workload, config, COLD_TRIAL)
    tracer = tracing.Tracer()
    originals = tracing.current_hooks()
    restored = True
    traced, untraced = [], []

    def traced_trial(index):
        with tracing.installed(tracer) as absent:
            traced.append(run_trial(workload, config, index, tracer))
        return absent

    # Each trial runs traced and untraced, in alternating order so that
    # drift in machine speed cancels: the ratio of their summed times is
    # the tracing overhead, and the outcomes must match bit for bit.  The
    # two halves together take ``--seconds``.
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < args.seconds:
        index = len(traced)
        if index % 2 == 0:
            absent = traced_trial(index)
            untraced.append(run_trial(workload, config, index))
        else:
            untraced.append(run_trial(workload, config, index))
            absent = traced_trial(index)
        restored = restored and tracing.current_hooks() == originals
    traced_wall = sum(o.seconds for o in traced)
    untraced_wall = sum(o.seconds for o in untraced)
    identical = all(same_outcome(a, b) for a, b in zip(traced, untraced))
    self_times_add_up = tracing.self_times_sum_to_trials(tracer.spans)
    metrics, detail = per_layer(
        traced, tracer, config.solver == "tvamp", traced_wall, untraced_wall, absent
    )
    record.update(
        metrics=metrics,
        detail=detail,
        hooks_restored=restored,
        traced_equals_untraced=identical,
        self_times_add_up=self_times_add_up,
    )
    record["trials"] = [outcome_record(o) for o in traced]
    record["span_fields"] = ["name", "start_ns", "end_ns", "parent", "trial"]
    record["spans"] = tracer.spans
    return restored and identical and self_times_add_up, metrics, detail, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    config = workload.config(args.seed)
    if args.cold_start:
        o = run_trial(workload, config, COLD_TRIAL)
        print(json.dumps({"iters": o.iters, "nmse": o.nmse}))
        return 0
    record = {
        "workload": workload.name,
        "why": workload.why,
        "config": {k: getattr(config, k) for k in config.__dataclass_fields__},
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine.record(ROOT, args.seed),
    }
    try:
        run = run_traced if args.trace else run_untraced
        correct, metrics, detail, outcomes = run(args, workload, config, record)
    except CorrectnessError as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        correct, metrics, detail, outcomes = False, {}, {}, []
    record["correct"] = correct
    path = write_results(f"{workload.name}_seed{args.seed}_trace{args.trace}.json", record)
    print(f"results: {os.path.relpath(path, ROOT)}")
    report(
        metrics,
        detail,
        correct,
        attempted=max(len(outcomes), 1),
        failed=sum(o.diverged for o in outcomes),
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
