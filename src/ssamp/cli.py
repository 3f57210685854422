"""Command line front end.

Subcommands: solve (one synthetic instance), pt (phase-transition grid),
convergence (per-iteration NMSE traces), bench (wall-clock runtime).
Each takes an optional JSON config file with ExperimentConfig fields plus
flag overrides.  Results go to files; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .harness import (
    SOLVERS,
    ExperimentConfig,
    cell_sizes,
    convergence_table,
    curve_table,
    emit,
    make_instance,
    phase_table,
    pt_curve,
    run_convergence,
    run_phase_grid,
    run_runtime,
    runtime_table,
    solve_instance,
)
from .operators import KINDS
from .signals import nmse, save_signal

_DEFAULT_OUT = {
    "solve": "solve.json",
    "pt": "pt.csv",
    "convergence": "convergence.csv",
    "bench": "bench.csv",
}


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("config", nargs="?", default=None,
                   help="JSON file with ExperimentConfig fields")
    p.add_argument("--n", type=int, help="signal length")
    p.add_argument("--seed", type=int, dest="seed_base", help="seed base")
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--matrix", choices=KINDS)
    p.add_argument("--q", type=float, help="jump probability override")
    p.add_argument("--sigma0", type=float, help="jump scale")
    p.add_argument("--delta", type=float, help="measurement noise variance")
    p.add_argument("--lambda", type=float, dest="lam", help="TV penalty weight")
    p.add_argument("--beta", type=float, help="damping factor")
    p.add_argument("--em", action="store_true", default=False,
                   help="shorthand for --solver ssamp_em")
    p.add_argument("--out", help="output file path")
    p.add_argument("--format", choices=("csv", "json"), dest="fmt",
                   help="output format (default from --out extension)")


def _load_config(args) -> ExperimentConfig:
    data = {}
    if args.config is not None:
        with open(args.config) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
    for key in ("n", "seed_base", "solver", "matrix", "q", "sigma0",
                "delta", "lam", "beta"):
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    if args.em:
        if args.solver not in (None, "ssamp_em"):
            raise ValueError(
                f"--em means --solver ssamp_em; it conflicts with --solver {args.solver}"
            )
        data["solver"] = "ssamp_em"
    return ExperimentConfig.from_dict(data)


def _resolve_out(args, command: str):
    out = args.out or _DEFAULT_OUT[command]
    fmt = args.fmt
    if fmt is None:
        fmt = "json" if str(out).endswith(".json") else "csv"
    return out, fmt


def _progress(message: str):
    print(message, file=sys.stderr, flush=True)


def _cmd_solve(args) -> int:
    config = _load_config(args)
    out, fmt = _resolve_out(args, "solve")
    m_over_n = config.grid_m_over_n[0]
    k_over_m = config.grid_k_over_m[0]
    sizes = cell_sizes(config, m_over_n, k_over_m)
    if sizes is None:
        raise ValueError("operating point is infeasible at this n")
    m, k = sizes
    _progress(f"solve: n={config.n} m={m} k={k} solver={config.solver}")
    op, x, y = make_instance(config, m_over_n, k_over_m, m, k, 0)
    report = solve_instance(config, op, y, k, truth=x, target_nmse=None)
    err = nmse(x, report.estimate)
    _progress(f"solve: nmse={err:.3e} iters={report.iters_run}")
    if fmt == "csv":
        save_signal(out, report.estimate)
    else:
        payload = {
            "n": config.n,
            "m": m,
            "k": k,
            "solver": config.solver,
            "nmse": err,
            "iters_run": report.iters_run,
            "converged": report.converged,
            "final_params": None
            if report.final_params is None
            else asdict(report.final_params),
            "estimate": [float(v) for v in report.estimate],
        }
        with open(out, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    _progress(f"solve: wrote {out}")
    return 0


def _cmd_pt(args) -> int:
    config = _load_config(args)
    out, fmt = _resolve_out(args, "pt")

    def progress(cell, total, m_over_n, k_over_m):
        _progress(f"pt: cell {cell + 1}/{total} m/n={m_over_n:g} k/m={k_over_m:g}")

    cells = run_phase_grid(config, progress=progress)
    emit(phase_table(cells), fmt, out)
    _progress(f"pt: wrote {out}")
    if args.curve_out:
        emit(curve_table(pt_curve(cells)), fmt, args.curve_out)
        _progress(f"pt: wrote {args.curve_out}")
    return 0


def _cmd_convergence(args) -> int:
    config = _load_config(args)
    out, fmt = _resolve_out(args, "convergence")

    def progress(case, trial):
        _progress(f"convergence: case {case} trial {trial + 1}/{config.trials}")

    results = run_convergence(config, progress=progress)
    if len(results) == 1:
        emit(convergence_table(results[0]), fmt, out)
        _progress(f"convergence: wrote {out}")
    else:
        stem, dot, ext = str(out).rpartition(".")
        for i, result in enumerate(results):
            path = f"{stem}_case{i}.{ext}" if dot else f"{out}_case{i}"
            emit(convergence_table(result), fmt, path)
            _progress(f"convergence: wrote {path}")
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args)
    out, fmt = _resolve_out(args, "bench")

    def progress(case, trial):
        _progress(f"bench: case {case} trial {trial + 1}/{config.trials}")

    rows = run_runtime(config, progress=progress)
    emit(runtime_table(rows), fmt, out)
    _progress(f"bench: wrote {out}")
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "pt": _cmd_pt,
    "convergence": _cmd_convergence,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssamp",
        description="Piecewise-constant compressed sensing benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "solve": "solve one synthetic instance and write the estimate",
        "pt": "run a phase-transition success grid",
        "convergence": "record per-iteration NMSE traces",
        "bench": "measure wall-clock runtime to a target NMSE",
    }
    for name, help_text in descriptions.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "pt":
            p.add_argument("--curve-out", default=None,
                           help="also write the interpolated 50%% boundary")
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except Exception as exc:  # argparse handles its own exits
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
