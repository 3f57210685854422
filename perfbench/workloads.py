"""Benchmark workloads and the trial each one repeats.

A trial is one call of the public ``harness.run_single_trial``: it builds one
instance (operator, signal, measurement) under the harness seed contract and
solves it, so trial ``t`` of a workload is trial ``t // len(cells)`` of cell
``t % len(cells)`` of the matching ``ssamp pt`` or ``ssamp bench`` run with
the same ``seed_base``.  The outputs are checked on what the harness hands
its solver and gets back, captured at ``ssamp.harness.solve`` and
``ssamp.harness.tvamp_solve``.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass

import numpy as np

from ssamp import DivergenceError, harness

from perfbench import tracing

# Trials that end above this NMSE, or diverge, count as failed recoveries.
SUCCESS_NMSE = 1e-4

# Where the harness looks up each solver; the capture wraps these names.
SOLVE_POINTS = {
    "ssamp_oracle": ("ssamp.harness", "solve"),
    "ssamp_em": ("ssamp.harness", "solve"),
    "tvamp": ("ssamp.harness", "tvamp_solve"),
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    fields: dict  # ExperimentConfig fields, without seed_base
    # True: stop at SUCCESS_NMSE as `bench` does, and every trial must get
    # there (these workloads sit far below the phase transition, so a failed
    # recovery is a defect); False: stop at tol only, as `pt` does.
    stop_at_target: bool

    def config(self, seed_base: int) -> harness.ExperimentConfig:
        return harness.ExperimentConfig(
            **self.fields, success_nmse=SUCCESS_NMSE, seed_base=seed_base
        )


_COMMON = dict(grid_m_over_n=(0.5,), signal_model="gaussian_pwc", sigma0=1.0)
_PT500 = dict(
    _COMMON,
    matrix="iid_gaussian",
    n=500,
    # One cell well below the transition and one past it, where failures run
    # to max_iters.  TV-AMP's iteration counts at k/m = 0.3 and 0.4 spread so
    # widely that the ~25 trials a cell gets per run left the workload's
    # median moving by more than its bound from seed to seed (README.md).
    grid_k_over_m=(0.2, 0.5),
    delta=0.0,
    tol=1e-14,
    max_iters=1000,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dct16k_oracle",
            "large arrays on a fast transform: the kernel workload, "
            "and the no-change prediction for operator work",
            dict(
                _COMMON,
                solver="ssamp_oracle",
                matrix="subsampled_dct",
                sign_randomize=True,
                n=16384,
                grid_k_over_m=(0.1,),
                delta=1e-10,
            ),
            stop_at_target=True,
        ),
        Workload(
            "gauss3600_em",
            "dense 1800x3600 matvecs and matrix draws: the operator and "
            "instance-build workload, and the only one with EM",
            dict(
                _COMMON,
                solver="ssamp_em",
                matrix="iid_gaussian",
                n=3600,
                grid_k_over_m=(0.1,),
                delta=1e-10,
            ),
            stop_at_target=True,
        ),
        Workload(
            "pt500_oracle",
            "the pt path at n=500: per-call kernel overhead, and failed "
            "trials that run to max_iters",
            dict(_PT500, solver="ssamp_oracle"),
            stop_at_target=False,
        ),
        Workload(
            "pt500_tvamp",
            "the pt500_oracle instances solved by TV-AMP: the prox workload, "
            "and the no-change prediction for kernel work",
            dict(_PT500, solver="tvamp"),
            stop_at_target=False,
        ),
    )
}


@dataclass(frozen=True)
class TrialOutcome:
    index: int  # position in the workload's trial sequence
    k_over_m: float
    cell_trial: int  # trial index within the grid cell
    seconds: float  # instance build + solve
    iters: int | None  # None when the solver raised DivergenceError
    nmse: float  # recomputed here with plain numpy; inf when diverged
    diverged: bool
    converged: bool
    estimate_sha256: str | None  # digest of the estimate's bytes; None when diverged

    @property
    def success(self) -> bool:
        return not self.diverged and self.nmse <= SUCCESS_NMSE


class CorrectnessError(RuntimeError):
    """A trial returned an output no correct solver returns here, or its
    outputs could not be checked."""


def cell_of(config: harness.ExperimentConfig, index: int) -> tuple[float, int]:
    """(k_over_m, trial within the cell) of trial ``index``; cells interleave."""
    cells = config.grid_k_over_m
    return cells[index % len(cells)], index // len(cells)


def capture(calls: list):
    """Wrap a solver so that each call records its truth, report or divergence."""

    def wrapper(fn):
        @functools.wraps(fn)
        def captured(*args, **kwargs):
            call = {"truth": kwargs.get("truth"), "report": None, "diverged": False}
            calls.append(call)
            try:
                call["report"] = fn(*args, **kwargs)
            except DivergenceError:
                call["diverged"] = True
                raise
            return call["report"]

        return captured

    return wrapper


def plain_nmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """||x - x_hat||^2 / ||x||^2 with plain numpy, independent of ssamp.nmse."""
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.sum((truth - estimate) ** 2))
    return err / float(np.sum(truth**2))


def run_trial(workload: Workload, config, index: int, tracer=None):
    """Run trial ``index`` through ``harness.run_single_trial``, then check it.

    With a ``tracer`` (its hooks installed by the caller) the trial runs
    inside a ``harness.trial`` span.  Raises CorrectnessError on an output a
    correct solver never returns: a wrong-shaped or non-finite estimate, a
    final NMSE in the solver's own trace that the recomputed NMSE
    contradicts, or a failed recovery on a stop-at-target workload.  It is
    raised too when the harness no longer solves through the captured name,
    since the outputs can then not be checked.
    """
    k_over_m, cell_trial = cell_of(config, index)
    m_over_n = config.grid_m_over_n[0]
    m = int(round(m_over_n * config.n))
    k = int(round(k_over_m * m))
    target = config.success_nmse if workload.stop_at_target else None
    point = SOLVE_POINTS[config.solver]
    calls = []
    with tracing.patched({point: capture(calls)}):
        if tracer is not None:
            tracer.trial = index
            span = tracer.begin("harness.trial")
        t0 = time.perf_counter()
        try:
            harness.run_single_trial(
                config, m_over_n, k_over_m, m, k, cell_trial, target_nmse=target
            )
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.end(span)
    if len(calls) != 1 or calls[0]["truth"] is None:
        raise CorrectnessError(
            f"trial {index}: expected one call of {'.'.join(point)} with truth=, "
            f"saw {len(calls)}; the outputs cannot be checked"
        )
    call = calls[0]
    if call["diverged"]:
        outcome = TrialOutcome(
            index, k_over_m, cell_trial, seconds, None, float("inf"), True, False, None
        )
    else:
        outcome = _checked(index, k_over_m, cell_trial, seconds, call["truth"], call["report"])
    if workload.stop_at_target and not outcome.success:
        raise CorrectnessError(
            f"trial {index}: NMSE {outcome.nmse:.6e} misses the target "
            f"{config.success_nmse:g} on a workload where every trial reaches it"
        )
    return outcome


def _checked(index, k_over_m, cell_trial, seconds, truth, report) -> TrialOutcome:
    estimate = np.asarray(report.estimate)
    if estimate.shape != truth.shape:
        raise CorrectnessError(
            f"trial {index}: estimate shape {estimate.shape}, expected {truth.shape}"
        )
    if not np.all(np.isfinite(estimate)):
        raise CorrectnessError(f"trial {index}: non-finite estimate returned")
    err = plain_nmse(truth, estimate)
    trace = report.nmse_trace
    if trace is not None and (
        len(trace) != report.iters_run or not np.isclose(trace[-1], err, rtol=1e-9, atol=0.0)
    ):
        raise CorrectnessError(
            f"trial {index}: solver reports NMSE {trace[-1]:.6e} after {len(trace)} "
            f"of {report.iters_run} iterations, recomputed NMSE is {err:.6e}"
        )
    return TrialOutcome(
        index,
        k_over_m,
        cell_trial,
        seconds,
        int(report.iters_run),
        err,
        False,
        bool(report.converged),
        hashlib.sha256(estimate.tobytes()).hexdigest(),
    )
