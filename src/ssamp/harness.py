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
import time
from dataclasses import InitVar, astuple, dataclass, field, fields, replace
from functools import partial
from typing import Sequence

import numpy as np

from .operators import (
    KINDS,
    SIGNED_KINDS,
    LinearOperator,
    check_number,
    column_sign_randomize,
    make_iid_gaussian,
    make_quasi_toeplitz,
    make_sparse_bernoulli,
    make_subsampled_dct,
    make_subsampled_wht,
)
from .signals import MODELS, generate, measure, nmse
from .solver import (
    DivergenceError,
    PriorParams,
    SolveReport,
    SolverConfig,
    default_em_params,
    solve,
)
from .tvamp import tvamp_solve

__all__ = [
    "SOLVERS",
    "ExperimentConfig",
    "PhaseCell",
    "TrialResult",
    "Table",
    "derive_seed",
    "ratio_key",
    "build_operator",
    "cell_sizes",
    "make_instance",
    "run_single_trial",
    "run_phase_grid",
    "pt_curve",
    "run_convergence",
    "run_runtime",
    "phase_table",
    "curve_table",
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
    operator's default_beta, for every solver.  ``SIGNED_KINDS`` always run
    behind column signs, the others never; a retired ``sign_randomize`` key
    must agree.  ``subsampled_wht`` needs n a power of two, and
    ``sparse_bernoulli`` a ``col_weight`` no larger than the m of any grid
    cell that is run.  ``band`` unset gives ``quasi_toeplitz`` rows the full
    band n; a set ``band`` must exceed n - m at every grid cell that is run,
    or the rows leave n - m - band + 1 columns unmeasured.  Construction
    rejects settings no run can use, and builds ``solver_config``, the
    ``SolverConfig`` each trial hands its solver.
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
    sign_randomize: InitVar[bool | None] = None  # retired: true or false as the matrix says

    def __post_init__(self, sign_randomize):
        # A JSON 64.0 or 2e2 is a float, not an integer, and true is no number.  SeedSequence
        # takes a seed_base of any size, but a negative one fails only at the first trial.
        # Each checked number is stored as the plain int or float it means, for JSON.
        store = partial(object.__setattr__, self)
        for name, low in (("n", 2), ("trials", 1), ("seed_base", 0), ("col_weight", 1)):
            finite = name != "seed_base"
            value = check_number(name, getattr(self, name), low, integer=True, finite=finite)
            store(name, int(value))
        if self.band is not None:  # unset: the full band n
            store("band", int(check_number("band", self.band, 1, self.n, integer=True)))
        for name, positive in (
            ("delta", False), ("success_nmse", False), ("sigma0", True), ("lam", True)
        ):
            store(name, check_number(name, getattr(self, name), 0.0, open_low=positive))
        if self.q is not None:  # unset: the realized k / (n-1)
            store("q", check_number("q", self.q, 0.0, 1.0))
        for name in ("grid_m_over_n", "grid_k_over_m"):
            grid = getattr(self, name)
            try:
                if not isinstance(grid, Sequence) or not grid:
                    raise ValueError("no list")
                store(name, tuple(check_number(name, v, 0.0, 1.0, open_low=True) for v in grid))
            except ValueError:
                what = f"{name} must be a list of numbers in (0, 1], not {grid!r}"
                raise ValueError(what) from None
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if self.matrix not in KINDS:
            raise ValueError(f"unknown matrix kind {self.matrix!r}")
        signed = self.matrix in SIGNED_KINDS
        if sign_randomize is not None and sign_randomize is not signed:
            want = f"{str(signed).lower()} or absent on {self.matrix}"
            raise ValueError(f"sign_randomize must be {want}, not {sign_randomize!r}")
        if self.signal_model not in MODELS:
            raise ValueError(f"unknown signal model {self.signal_model!r}")
        if self.matrix == "subsampled_wht" and self.n & (self.n - 1):
            raise ValueError("subsampled_wht needs n to be a power of two")
        # the smallest m of a cell that builds an operator (cell_sizes None skips one)
        sizes = [cell_sizes(self, a, b) for a in self.grid_m_over_n for b in self.grid_k_over_m]
        m = min((s[0] for s in sizes if s is not None), default=self.n)
        if self.matrix == "sparse_bernoulli" and m < self.col_weight:
            raise ValueError(f"col_weight {self.col_weight} exceeds m = {m} of a grid cell")
        if self.matrix == "quasi_toeplitz" and self.band is not None and self.band <= self.n - m:
            raise ValueError(
                f"band {self.band} leaves columns unmeasured at m = {m} of a grid cell: "
                f"it must exceed n - m = {self.n - m}"
            )
        # the SolverConfig checks max_iters, tol and beta (as damping_beta), and stores them plain
        store("solver_config", SolverConfig(self.max_iters, self.tol, self.beta))
        store("max_iters", self.solver_config.max_iters)
        store("tol", self.solver_config.tol)
        store("beta", self.solver_config.damping_beta)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        unknown = set(data) - set(cls.__dataclass_fields__)  # sign_randomize included
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


@dataclass(frozen=True)
class TrialResult:
    nmse: float
    iters: int
    seconds: float
    success: bool
    # the solver's report; None when the solve diverged
    report: SolveReport | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class PhaseCell:
    """One ``pt`` grid cell, its fields the columns of its CSV row.  A cell whose
    sizes are infeasible (see cell_sizes) ran no trials and reads all zeros."""

    m_over_n: float
    k_over_m: float
    trials: int
    successes: int
    success_rate: float
    mean_iters: float


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
    if config.matrix in SIGNED_KINDS:
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
    x = generate(config.n, k, config.sigma0, signal_seed, config.signal_model)
    y = measure(op, x, config.delta, noise_seed)
    return op, x, y


def run_single_trial(
    config: ExperimentConfig,
    m_over_n: float,
    k_over_m: float,
    m: int,
    k: int,
    trial_index: int,
    target_nmse: float | None = None,
) -> TrialResult:
    """Build and solve trial ``trial_index`` of one operating point.  A diverged
    solve gives NMSE inf, the iteration it diverged at, and no report."""
    op, x, y = make_instance(config, m_over_n, k_over_m, m, k, trial_index)
    t0 = time.perf_counter()
    try:
        if config.solver == "tvamp":
            report = tvamp_solve(
                op, y, config.lam, config.solver_config, truth=x, target_nmse=target_nmse
            )
        else:
            em = config.solver == "ssamp_em"
            if config.q is not None:
                params = PriorParams(config.q, config.sigma0**2, config.delta)
            elif em:
                params = default_em_params(op, y, config.delta)
            else:
                params = PriorParams(k / (config.n - 1), config.sigma0**2, config.delta)
            report = solve(
                op, y, params, config.solver_config, truth=x, target_nmse=target_nmse, em=em
            )
        err = nmse(x, report.estimate)
        iters = report.iters_run
    except DivergenceError as exc:
        report = None
        err = float("inf")
        iters = exc.iteration
    seconds = time.perf_counter() - t0
    return TrialResult(
        nmse=err,
        iters=iters,
        seconds=seconds,
        success=bool(err <= config.success_nmse),
        report=report,
    )


def _run_cases(config: ExperimentConfig, cases, progress, **trial_kw):
    """(m_over_n, k_over_m, trials) per case of ``cases``, in order.  ``trials``
    runs each TrialResult of the case as it is read, after ``progress(text)``,
    and is empty for an infeasible case (see cell_sizes)."""

    def trials(case, m_over_n, k_over_m):
        sizes = cell_sizes(config, m_over_n, k_over_m)
        where = f"case {case}/{len(cases)} m/n={m_over_n:g} k/m={k_over_m:g}"
        for t in range(config.trials if sizes else 0):
            if progress is not None:
                progress(f"{where} trial {t + 1}/{config.trials}")
            yield run_single_trial(config, m_over_n, k_over_m, *sizes, t, **trial_kw)

    for case, (m_over_n, k_over_m) in enumerate(cases, 1):
        yield m_over_n, k_over_m, trials(case, m_over_n, k_over_m)


def run_phase_grid(config: ExperimentConfig, progress=None) -> list[PhaseCell]:
    """Sweep the full (m_over_n, k_over_m) grid, calling ``progress(text)`` per trial.

    Cells whose derived sizes are infeasible (see cell_sizes) are emitted
    with zero trials instead of aborting the sweep.
    """
    cases = [(a, b) for a in config.grid_m_over_n for b in config.grid_k_over_m]
    cells = []
    for m_over_n, k_over_m, trials in _run_cases(config, cases, progress):
        results = list(trials)
        if not results:
            cells.append(PhaseCell(m_over_n, k_over_m, 0, 0, 0.0, 0.0))
            continue
        successes = sum(r.success for r in results)
        rate, mean_iters = successes / len(results), float(np.mean([r.iters for r in results]))
        cells.append(PhaseCell(m_over_n, k_over_m, len(results), successes, rate, mean_iters))
    return cells


def pt_curve(cells: Sequence[PhaseCell]) -> list[tuple[float, float]]:
    """Interpolated 50%-success boundary, one point per m_over_n column.

    Within a column, scans k_over_m upward for the first adjacent pair
    whose success rates bracket one half and interpolates linearly between
    them.  Columns that never cross (all above or all below) are omitted.
    """
    columns: dict[float, list[PhaseCell]] = {}
    for cell in cells:
        if cell.trials:  # an infeasible cell has no success rate
            columns.setdefault(cell.m_over_n, []).append(cell)
    curve = []
    for m_over_n in sorted(columns):
        col = sorted(columns[m_over_n], key=lambda c: c.k_over_m)
        for lo, hi in zip(col, col[1:]):
            r0, r1 = lo.success_rate, hi.success_rate
            if r0 >= 0.5 > r1:  # at r0 = 0.5 this adds a signed zero to lo.k_over_m
                k_star = lo.k_over_m + (0.5 - r0) * (hi.k_over_m - lo.k_over_m) / (r1 - r0)
                curve.append((m_over_n, k_star))
                break
    return curve


def _paired_cases(config: ExperimentConfig):
    """(m_over_n, k_over_m) per case, reading the two grids pairwise; every
    case must be feasible, so a run rejects its cases before any trial."""
    if len(config.grid_m_over_n) != len(config.grid_k_over_m):
        raise ValueError("convergence/runtime runs read the grids pairwise; lengths must match")
    cases = list(zip(config.grid_m_over_n, config.grid_k_over_m))
    for m_over_n, k_over_m in cases:
        if cell_sizes(config, m_over_n, k_over_m) is None:
            raise ValueError(
                f"case (m/n={m_over_n}, k/m={k_over_m}) is infeasible at n={config.n}"
            )
    return cases


def run_convergence(config: ExperimentConfig, progress=None) -> list[Table]:
    """Fixed-case NMSE traces, one table per case: no stopping rule,
    exactly max_iters sweeps.

    Trials that reach an exact fixed point early keep their last NMSE for
    the remaining iterations.  A diverged trial raises before the next runs.
    """
    tables = []
    for _, _, trials in _run_cases(replace(config, tol=0.0), _paired_cases(config), progress):
        traces = []
        for result in trials:
            if result.report is None:
                raise DivergenceError(result.iters)
            trace = result.report.nmse_trace
            traces.append(np.pad(trace, (0, config.max_iters - trace.size), mode="edge"))
        # one row of trial dBs per iteration
        db = 10.0 * np.log10(np.maximum(np.column_stack(traces), NMSE_DB_FLOOR))
        rows = tuple((it, float(np.mean(v)), float(np.std(v))) for it, v in enumerate(db, 1))
        tables.append(Table(columns=("iter", "nmse_db_mean", "nmse_db_std"), rows=rows))
    return tables


def run_runtime(config: ExperimentConfig, progress=None) -> Table:
    """Wall-clock benchmark: solve to the success_nmse target per trial,
    one row per case."""
    rows = []
    cases = _run_cases(config, _paired_cases(config), progress, target_nmse=config.success_nmse)
    for m_over_n, k_over_m, trials in cases:
        results = list(trials)
        iters = [r.iters for r in results]
        seconds = [r.seconds for r in results]
        mean_iters = float(np.mean(iters))
        mean_seconds = float(np.mean(seconds))
        per_iter = float(np.mean([s / i for s, i in zip(seconds, iters)]))  # every i >= 1
        rows.append(
            (m_over_n, k_over_m, config.n, config.trials, mean_iters, mean_seconds, per_iter)
        )
    columns = (
        "m_over_n",
        "k_over_m",
        "n",
        "trials",
        "mean_iters",
        "mean_seconds",
        "mean_per_iter_seconds",
    )
    return Table(columns=columns, rows=tuple(rows))


def phase_table(cells: Sequence[PhaseCell]) -> Table:
    return Table(tuple(f.name for f in fields(PhaseCell)), tuple(map(astuple, cells)))


def curve_table(curve: Sequence[tuple[float, float]]) -> Table:
    return Table(
        columns=("m_over_n", "k_over_m_at_half_success"),
        rows=tuple(curve),
    )


def emit(table: Table, fmt: str, path) -> None:
    """Write a table as CSV (17 significant digits, round-trip exact) or JSON."""
    if fmt == "csv":
        header = ",".join(table.columns)
        np.savetxt(path, table.rows, fmt="%.17g", delimiter=",", header=header, comments="")
    elif fmt == "json":
        payload = [dict(zip(table.columns, row)) for row in table.rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"unknown output format {fmt!r}")
