"""Piecewise-constant test signals and measurement synthesis.

Signals are built on the first-difference domain: k of the n-1
differences, at positions chosen uniformly without replacement, are jumps
drawn from the slab distribution of the chosen model, and the rest are
zero.  The first sample is anchored at zero and the signal is the
cumulative sum of the differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import LinearOperator, check_number

__all__ = ["SignalSpec", "generate", "measure", "nmse", "save_signal"]

MODELS = ("gaussian_pwc", "bernoulli_pwc")


@dataclass(frozen=True)
class SignalSpec:
    """Sampling description for one synthetic signal.

    ``model`` selects the jump-size law: "gaussian_pwc" draws N(0, sigma0^2),
    "bernoulli_pwc" draws +-sigma0 with equal probability; ``sigma0`` is
    the jump scale.
    """

    n: int
    model: str
    sigma0: float
    seed: int

    def __post_init__(self):
        check_number("n", self.n, 2, integer=True)
        if self.model not in MODELS:
            raise ValueError(f"unknown signal model {self.model!r}")
        check_number("sigma0", self.sigma0, 0.0, open_low=True)


def _draw_jumps(rng, model, sigma0, count):
    if model == "gaussian_pwc":
        return rng.normal(0.0, sigma0, size=count)
    return sigma0 * (rng.integers(0, 2, size=count) * 2 - 1).astype(float)


def generate(spec: SignalSpec, k: int) -> np.ndarray:
    """Draw one signal with exactly k jumps.

    k difference positions are chosen uniformly without replacement and
    only those receive slab draws.
    """
    d = spec.n - 1
    check_number("k", k, 0, d, integer=True)
    rng = np.random.default_rng(spec.seed)
    u = np.zeros(d)
    pos = rng.choice(d, size=k, replace=False)
    u[pos] = _draw_jumps(rng, spec.model, spec.sigma0, k)
    return np.concatenate([[0.0], np.cumsum(u)])


def measure(op: LinearOperator, x: np.ndarray, delta: float, seed: int) -> np.ndarray:
    """y = op(x) + w with w ~ N(0, delta I); delta = 0 is exactly noiseless."""
    check_number("delta", delta, 0.0)
    y = op.apply(x)
    if delta > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, np.sqrt(delta), size=op.m)
    return y


def nmse(truth: np.ndarray, estimate: np.ndarray) -> float:
    """Squared error over squared truth norm; plain squared norm at zero truth."""
    truth = np.asarray(truth, dtype=float)
    estimate = np.asarray(estimate, dtype=float)
    if truth.shape != estimate.shape:
        raise ValueError("truth and estimate must have the same shape")
    err = float(np.sum((truth - estimate) ** 2))
    denom = float(np.sum(truth**2))
    if denom == 0.0:
        return err
    return err / denom


def save_signal(path, x: np.ndarray) -> None:
    """One decimal per line, full round-trip precision."""
    with open(path, "w") as fh:
        for v in np.asarray(x, dtype=float):
            fh.write(format(v, ".17g"))
            fh.write("\n")
