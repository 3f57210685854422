"""Monte-Carlo experiment runner: phase grids, convergence traces, runtime.

Reproducibility contract: every random object in a trial is seeded through

    derive_seed(seed_base, ratio_key(m_over_n), ratio_key(k_over_m),
                trial_index, purpose)

with purpose 0 = matrix, 1 = column signs, 2 = signal, 3 = noise, and
ratio_key the 64-bit pattern of the float.  The mix is a SeedSequence
spawn, so identical (config, seed_base) replays the exact same trials,
cells keep their results when the grid is reordered or subset, and a
single `solve` at the same operating point replays trial 0 of the
matching grid cell.  Grid outputs are byte-identical across repeats.
"""

from __future__ import annotations

import json
import numbers
import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .operators import (
    KINDS,
    LinearOperator,
    column_sign_randomize,
    make_iid_gaussian,
    make_quasi_toeplitz,
    make_sparse_bernoulli,
    make_subsampled_dct,
    make_subsampled_wht,
)
from .signals import MODELS, SignalSpec, generate, measure, nmse
from .solver import DivergenceError, PriorParams, SolverConfig, default_em_params, solve
from .tvamp import tvamp_solve

__all__ = [
    "SOLVERS",
    "ExperimentConfig",
    "PhaseCell",
    "TrialResult",
    "ConvergenceResult",
    "Table",
    "derive_seed",
    "ratio_key",
    "build_operator",
    "cell_sizes",
    "make_instance",
    "solve_instance",
    "run_single_trial",
    "run_phase_grid",
    "pt_curve",
    "run_convergence",
    "run_runtime",
    "phase_table",
    "curve_table",
    "convergence_table",
    "runtime_table",
    "emit",
]

SOLVERS = ("ssamp_oracle", "ssamp_em", "tvamp")

_DEFAULT_GRID = tuple(round(0.1 * i, 10) for i in range(1, 11))

NMSE_DB_FLOOR = 1e-300


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a benchmark run needs, JSON-serializable.

    ``grid_m_over_n`` x ``grid_k_over_m`` spans phase grids; convergence
    and runtime runs read the two lists pairwise as individual cases.
    ``q`` overrides the oracle prior (default: realized k / (n-1)), and
    seeds EM when the EM solver is chosen.  ``beta`` unset damps by the
    operator's default_beta, for every solver.  The two fast transforms,
    ``subsampled_dct`` and ``subsampled_wht``, need ``sign_randomize``.
    ``band`` unset gives ``quasi_toeplitz`` rows the full band n.
    Construction rejects settings no run can use, and builds
    ``solver_config``, the ``SolverConfig`` each trial hands its solver.
    """

    solver: str = "ssamp_oracle"
    matrix: str = "iid_gaussian"
    signal_model: str = "gaussian_pwc"
    n: int = 256
    grid_m_over_n: tuple = _DEFAULT_GRID
    grid_k_over_m: tuple = _DEFAULT_GRID
    trials: int = 20
    delta: float = 0.0
    success_nmse: float = 1e-4
    seed_base: int = 0
    sigma0: float = 1.0
    q: float | None = None
    lam: float = 1.0
    beta: float | None = None
    max_iters: int = 2000
    tol: float = 1e-14
    band: int | None = None
    col_weight: int = 8
    sign_randomize: bool = False

    def __post_init__(self):
        # max_iters is checked by the SolverConfig built below
        for name in ("n", "trials", "seed_base", "col_weight", "band"):
            value = getattr(self, name)
            if name == "band" and value is None:
                continue  # the full band
            # a JSON 64.0 or 2e2 is a float; bool is an int subclass
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, not {value!r}")
        object.__setattr__(self, "grid_m_over_n", tuple(self.grid_m_over_n))
        object.__setattr__(self, "grid_k_over_m", tuple(self.grid_k_over_m))
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.matrix not in KINDS:
            raise ValueError(f"unknown matrix kind {self.matrix!r}")
        if self.matrix in ("subsampled_dct", "subsampled_wht") and not self.sign_randomize:
            raise ValueError(
                f"{self.matrix} needs sign_randomize: without column signs AMP "
                "does not recover even easy points on it"
            )
        if self.signal_model not in MODELS:
            raise ValueError(f"unknown signal model {self.signal_model!r}")
        if self.n < 2:
            raise ValueError("n must be at least 2")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        for g in (self.grid_m_over_n, self.grid_k_over_m):
            if not g or any(not 0.0 < v <= 1.0 for v in g):
                raise ValueError("grid values must lie in (0, 1]")
        # the negated comparisons reject NaN too, and the upper bounds infinity
        if not 0.0 <= self.delta < np.inf:
            raise ValueError("delta must be nonnegative and finite")
        if not 0.0 < self.sigma0 < np.inf:
            raise ValueError("sigma0 must be positive and finite")
        if self.q is not None and not 0.0 <= self.q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        if not 0.0 < self.lam < np.inf:
            raise ValueError("lam must be positive and finite")
        if not 0.0 <= self.success_nmse < np.inf:
            raise ValueError("success_nmse must be nonnegative and finite")
        if self.band is not None and not 1 <= self.band <= self.n:
            raise ValueError("band must be None (full band) or lie in [1, n]")
        if not self.col_weight >= 1:
            raise ValueError("col_weight must be at least 1")
        object.__setattr__(
            self, "solver_config", SolverConfig(self.max_iters, self.tol, self.beta)
        )

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class TrialResult:
    nmse: float
    iters: int
    seconds: float
    success: bool


@dataclass(frozen=True)
class PhaseCell:
    m_over_n: float
    k_over_m: float
    m: int
    k: int
    trials: int
    successes: int
    mean_iters: float
    skipped: bool = False

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0


@dataclass(frozen=True)
class ConvergenceResult:
    m_over_n: float
    k_over_m: float
    rows: tuple  # (iteration, nmse_db_mean, nmse_db_std)


@dataclass(frozen=True)
class Table:
    columns: tuple
    rows: tuple


def ratio_key(value: float) -> int:
    """Order-free cell identity: the bit pattern of the grid ratio."""
    return int(np.float64(value).view(np.uint64))


def derive_seed(seed_base: int, *key: int) -> int:
    """Stable 64-bit stream split; documented in the module docstring."""
    ss = np.random.SeedSequence(seed_base, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def build_operator(config: ExperimentConfig, m: int, seed: int, sign_seed: int) -> LinearOperator:
    n = config.n
    if config.matrix == "iid_gaussian":
        op = make_iid_gaussian(m, n, seed)
    elif config.matrix == "subsampled_dct":
        op = make_subsampled_dct(m, n, seed)
    elif config.matrix == "subsampled_wht":
        op = make_subsampled_wht(m, n, seed)
    elif config.matrix == "quasi_toeplitz":
        op = make_quasi_toeplitz(m, n, n if config.band is None else config.band, seed)
    else:
        op = make_sparse_bernoulli(m, n, config.col_weight, seed)
    if config.sign_randomize:
        op = column_sign_randomize(op, sign_seed)
    return op


def cell_sizes(config: ExperimentConfig, m_over_n: float, k_over_m: float):
    """(m, k) at one operating point, or None when m < 1 or k > n - 1."""
    m = int(round(m_over_n * config.n))
    k = int(round(k_over_m * m))
    if m < 1 or k > config.n - 1:
        return None
    return m, k


def make_instance(
    config: ExperimentConfig, m_over_n: float, k_over_m: float, m: int, k: int, trial: int
):
    """(operator, signal, measurements) of one trial, seeded per the module docstring."""
    cell = (ratio_key(m_over_n), ratio_key(k_over_m))
    matrix_seed, sign_seed, signal_seed, noise_seed = (
        derive_seed(config.seed_base, *cell, trial, purpose) for purpose in range(4)
    )
    op = build_operator(config, m, matrix_seed, sign_seed)
    spec = SignalSpec(
        n=config.n,
        model=config.signal_model,
        sigma0=config.sigma0,
        seed=signal_seed,
    )
    x = generate(spec, k)
    y = measure(op, x, config.delta, noise_seed)
    return op, x, y


def solve_instance(config, op, y, k, truth, target_nmse):
    """Dispatch to the configured solver; returns a SolveReport."""
    if config.solver == "tvamp":
        return tvamp_solve(
            op, y, config.lam, config.solver_config, truth=truth, target_nmse=target_nmse
        )
    em = config.solver == "ssamp_em"
    if config.q is not None:
        params = PriorParams(config.q, config.sigma0**2, config.delta)
    elif em:
        params = default_em_params(op, y, config.delta)
    else:
        params = PriorParams(k / (config.n - 1), config.sigma0**2, config.delta)
    return solve(
        op, y, params, config.solver_config, truth=truth, target_nmse=target_nmse, em=em
    )


def run_single_trial(
    config: ExperimentConfig,
    m_over_n: float,
    k_over_m: float,
    m: int,
    k: int,
    trial_index: int,
    target_nmse: float | None = None,
) -> TrialResult:
    op, x, y = make_instance(config, m_over_n, k_over_m, m, k, trial_index)
    t0 = time.perf_counter()
    try:
        report = solve_instance(config, op, y, k, truth=x, target_nmse=target_nmse)
        err = nmse(x, report.estimate)
        iters = report.iters_run
    except DivergenceError as exc:
        err = float("inf")
        iters = exc.iteration
    seconds = time.perf_counter() - t0
    return TrialResult(
        nmse=err,
        iters=iters,
        seconds=seconds,
        success=bool(err <= config.success_nmse),
    )


def run_phase_grid(config: ExperimentConfig, progress=None) -> list[PhaseCell]:
    """Sweep the full (m_over_n, k_over_m) grid.

    Cells whose derived sizes are infeasible (see cell_sizes) are emitted
    with zero sizes, zero trials and the skipped flag instead of aborting
    the sweep.
    """
    cells = []
    n_k = len(config.grid_k_over_m)
    total = len(config.grid_m_over_n) * n_k
    for i, m_over_n in enumerate(config.grid_m_over_n):
        for j, k_over_m in enumerate(config.grid_k_over_m):
            cell_index = i * n_k + j
            if progress is not None:
                progress(cell_index, total, m_over_n, k_over_m)
            sizes = cell_sizes(config, m_over_n, k_over_m)
            if sizes is None:
                cells.append(
                    PhaseCell(m_over_n, k_over_m, 0, 0, 0, 0, 0.0, skipped=True)
                )
                continue
            m, k = sizes
            results = [
                run_single_trial(config, m_over_n, k_over_m, m, k, t)
                for t in range(config.trials)
            ]
            cells.append(
                PhaseCell(
                    m_over_n=m_over_n,
                    k_over_m=k_over_m,
                    m=m,
                    k=k,
                    trials=config.trials,
                    successes=sum(r.success for r in results),
                    mean_iters=float(np.mean([r.iters for r in results])),
                )
            )
    return cells


def pt_curve(cells: Sequence[PhaseCell]) -> list[tuple[float, float]]:
    """Interpolated 50%-success boundary, one point per m_over_n column.

    Within a column, scans k_over_m upward for the first adjacent pair
    whose success rates bracket one half and interpolates linearly between
    them.  Columns that never cross (all above or all below) are omitted.
    """
    columns: dict[float, list[PhaseCell]] = {}
    for cell in cells:
        if not cell.skipped:
            columns.setdefault(cell.m_over_n, []).append(cell)
    curve = []
    for m_over_n in sorted(columns):
        col = sorted(columns[m_over_n], key=lambda c: c.k_over_m)
        for lo, hi in zip(col, col[1:]):
            r0, r1 = lo.success_rate, hi.success_rate
            if r0 >= 0.5 > r1:
                if r0 == 0.5:
                    k_star = lo.k_over_m
                else:
                    k_star = lo.k_over_m + (0.5 - r0) * (hi.k_over_m - lo.k_over_m) / (
                        r1 - r0
                    )
                curve.append((m_over_n, k_star))
                break
    return curve


def _nmse_db(value: float) -> float:
    return 10.0 * np.log10(max(value, NMSE_DB_FLOOR))


def _paired_cases(config: ExperimentConfig):
    """(m_over_n, k_over_m, m, k) per case, reading the two grids pairwise."""
    if len(config.grid_m_over_n) != len(config.grid_k_over_m):
        raise ValueError(
            "convergence/runtime runs read the grids pairwise; lengths must match"
        )
    cases = []
    for m_over_n, k_over_m in zip(config.grid_m_over_n, config.grid_k_over_m):
        sizes = cell_sizes(config, m_over_n, k_over_m)
        if sizes is None:
            raise ValueError(
                f"case (m/n={m_over_n}, k/m={k_over_m}) is infeasible at n={config.n}"
            )
        cases.append((m_over_n, k_over_m, *sizes))
    return cases


def run_convergence(config: ExperimentConfig, progress=None) -> list[ConvergenceResult]:
    """Fixed-case NMSE traces: no stopping rule, exactly max_iters sweeps.

    Trials that reach an exact fixed point early keep their last NMSE for
    the remaining iterations.
    """
    results = []
    for case_index, (m_over_n, k_over_m, m, k) in enumerate(_paired_cases(config)):
        free_run = replace(config, tol=0.0)
        traces = []
        for t in range(config.trials):
            if progress is not None:
                progress(case_index, t)
            op, x, y = make_instance(free_run, m_over_n, k_over_m, m, k, t)
            report = solve_instance(free_run, op, y, k, truth=x, target_nmse=None)
            trace = np.asarray(report.nmse_trace)
            if trace.size < config.max_iters:
                pad = np.full(config.max_iters - trace.size, trace[-1])
                trace = np.concatenate([trace, pad])
            traces.append(trace)
        stacked_db = np.array([[_nmse_db(v) for v in tr] for tr in traces])
        rows = tuple(
            (it + 1, float(np.mean(stacked_db[:, it])), float(np.std(stacked_db[:, it])))
            for it in range(config.max_iters)
        )
        results.append(ConvergenceResult(m_over_n=m_over_n, k_over_m=k_over_m, rows=rows))
    return results


def run_runtime(config: ExperimentConfig, progress=None) -> list[tuple]:
    """Wall-clock benchmark: solve to the success_nmse target per trial.

    Rows: (m_over_n, k_over_m, n, trials, mean_iters, mean_seconds,
    mean_per_iter_seconds).
    """
    rows = []
    for case_index, (m_over_n, k_over_m, m, k) in enumerate(_paired_cases(config)):
        iters = []
        seconds = []
        for t in range(config.trials):
            if progress is not None:
                progress(case_index, t)
            result = run_single_trial(
                config, m_over_n, k_over_m, m, k, t, target_nmse=config.success_nmse
            )
            iters.append(result.iters)
            seconds.append(result.seconds)
        mean_iters = float(np.mean(iters))
        mean_seconds = float(np.mean(seconds))
        per_iter = float(np.mean([s / i for s, i in zip(seconds, iters) if i > 0]))
        rows.append(
            (m_over_n, k_over_m, config.n, config.trials, mean_iters, mean_seconds, per_iter)
        )
    return rows


def phase_table(cells: Sequence[PhaseCell]) -> Table:
    return Table(
        columns=(
            "m_over_n",
            "k_over_m",
            "trials",
            "successes",
            "success_rate",
            "mean_iters",
        ),
        rows=tuple(
            (
                c.m_over_n,
                c.k_over_m,
                c.trials,
                c.successes,
                c.success_rate,
                c.mean_iters,
            )
            for c in cells
        ),
    )


def curve_table(curve: Sequence[tuple[float, float]]) -> Table:
    return Table(
        columns=("m_over_n", "k_over_m_at_half_success"),
        rows=tuple(curve),
    )


def convergence_table(result: ConvergenceResult) -> Table:
    return Table(columns=("iter", "nmse_db_mean", "nmse_db_std"), rows=result.rows)


def runtime_table(rows: Sequence[tuple]) -> Table:
    return Table(
        columns=(
            "m_over_n",
            "k_over_m",
            "n",
            "trials",
            "mean_iters",
            "mean_seconds",
            "mean_per_iter_seconds",
        ),
        rows=tuple(rows),
    )


def _json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError(f"cannot serialize {type(value)}")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit(table: Table, fmt: str, path) -> None:
    """Write a table as CSV (17 significant digits, round-trip exact) or JSON."""
    if fmt == "csv":
        lines = [",".join(table.columns)]
        for row in table.rows:
            lines.append(",".join(_format_cell(v) for v in row))
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
    elif fmt == "json":
        payload = [dict(zip(table.columns, row)) for row in table.rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, default=_json_default)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
