"""Command line front end.

Subcommands: solve (one synthetic instance), pt (phase-transition grid),
convergence (per-iteration NMSE traces), bench (wall-clock runtime).
Each takes an optional JSON config file with ExperimentConfig fields plus
flag overrides.  Results go to files; progress goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from dataclasses import asdict

import numpy as np

from .harness import (
    SOLVERS,
    ExperimentConfig,
    cell_sizes,
    curve_table,
    emit,
    phase_table,
    pt_curve,
    run_convergence,
    run_phase_grid,
    run_runtime,
    run_single_trial,
)
from .operators import KINDS
from .solver import DivergenceError


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
    # every flag whose dest names a config field overrides it when given
    for key, value in vars(args).items():
        if key in ExperimentConfig.__dataclass_fields__ and value is not None:
            data[key] = value
    return ExperimentConfig.from_dict(data)


def _cmd_solve(config, out, fmt, args, progress) -> None:
    m_over_n = config.grid_m_over_n[0]
    k_over_m = config.grid_k_over_m[0]
    sizes = cell_sizes(config, m_over_n, k_over_m)
    if sizes is None:
        raise ValueError("operating point is infeasible at this n")
    m, k = sizes
    progress(f"n={config.n} m={m} k={k} solver={config.solver}")
    result = run_single_trial(config, m_over_n, k_over_m, m, k, 0)
    report = result.report
    if report is None:
        raise DivergenceError(result.iters)
    progress(f"nmse={result.nmse:.3e} iters={result.iters}")
    if fmt == "csv":
        np.savetxt(out, report.estimate, fmt="%.17g")  # one round-trip decimal per line
    else:
        payload = {
            "n": config.n,
            "m": m,
            "k": k,
            "solver": config.solver,
            "nmse": result.nmse,
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
    progress(f"wrote {out}")


def _cmd_pt(config, out, fmt, args, progress) -> None:
    cells = run_phase_grid(config, progress)
    emit(phase_table(cells), fmt, out)
    progress(f"wrote {out}")
    if args.curve_out:
        emit(curve_table(pt_curve(cells)), fmt, args.curve_out)
        progress(f"wrote {args.curve_out}")


def _cmd_convergence(config, out, fmt, args, progress) -> None:
    tables = run_convergence(config, progress)
    if len(tables) == 1:
        emit(tables[0], fmt, out)
        progress(f"wrote {out}")
    else:
        # the case number goes before the extension of the file name only
        path = pathlib.Path(out)
        for i, table in enumerate(tables):
            case_path = path.with_name(f"{path.stem}_case{i}{path.suffix}")
            emit(table, fmt, case_path)
            progress(f"wrote {case_path}")


def _cmd_bench(config, out, fmt, args, progress) -> None:
    emit(run_runtime(config, progress), fmt, out)
    progress(f"wrote {out}")


# name: (runner, help, default output)
_COMMANDS = {
    "solve": (_cmd_solve, "solve one synthetic instance and write the estimate", "solve.json"),
    "pt": (_cmd_pt, "run a phase-transition success grid", "pt.csv"),
    "convergence": (_cmd_convergence, "record per-iteration NMSE traces", "convergence.csv"),
    "bench": (_cmd_bench, "measure wall-clock runtime to a target NMSE", "bench.csv"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssamp",
        description="Piecewise-constant compressed sensing benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
        if name == "pt":
            p.add_argument("--curve-out", default=None,
                           help="also write the interpolated 50%% boundary")
    args = parser.parse_args(argv)
    run, _, default_out = _COMMANDS[args.command]

    def progress(text: str):
        print(f"{args.command}: {text}", file=sys.stderr, flush=True)

    try:
        config = _load_config(args)
        out = args.out or default_out
        fmt = args.fmt or ("json" if str(out).endswith(".json") else "csv")
        run(config, out, fmt, args, progress)
    except Exception as exc:  # argparse handles its own exits
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
