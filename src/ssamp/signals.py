"""Piecewise-constant test signals and measurement synthesis.

Signals are built on the first-difference domain: k of the n-1
differences, at positions chosen uniformly without replacement, are jumps
drawn from the slab distribution of the chosen model, and the rest are
zero.  The first sample is anchored at zero and the signal is the
cumulative sum of the differences.
"""

from __future__ import annotations

import numpy as np

from .operators import LinearOperator, check_number

__all__ = ["generate", "measure", "nmse"]

MODELS = ("gaussian_pwc", "bernoulli_pwc")


def generate(n: int, k: int, sigma0: float, seed: int, model: str = "gaussian_pwc") -> np.ndarray:
    """Draw one length-n signal with exactly k jumps.

    k difference positions are chosen uniformly without replacement and
    only those receive slab draws.  ``model`` selects the jump-size law:
    "gaussian_pwc" draws N(0, sigma0^2), "bernoulli_pwc" draws +-sigma0
    with equal probability.
    """
    check_number("n", n, 2, integer=True)
    if model not in MODELS:
        raise ValueError(f"unknown signal model {model!r}")
    check_number("sigma0", sigma0, 0.0, open_low=True)
    d = n - 1
    check_number("k", k, 0, d, integer=True)
    rng = np.random.default_rng(seed)
    u = np.zeros(d)
    pos = rng.choice(d, size=k, replace=False)
    if model == "gaussian_pwc":
        u[pos] = rng.normal(0.0, sigma0, size=k)
    else:
        u[pos] = sigma0 * (rng.integers(0, 2, size=k) * 2 - 1).astype(float)
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
