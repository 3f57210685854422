"""AMP baseline with a total-variation proximal denoiser.

Standard AMP where the per-iteration denoiser is the exact solution of

    argmin_x  0.5 ||rho - x||^2 + lam_t * sum_d |x[d+1] - x[d]|

computed by the direct taut-string sweep (single forward pass with
segment backtracking, no inner iterations).  The effective threshold
lam_t = lam * sqrt(theta_t) tracks the iteration noise level
theta_t = ||r||^2 / m, so the TV bias shrinks as the residual does; a
fixed threshold instead leaves an O(lam^2) error floor.  The Onsager
coefficient is the denoiser divergence, which for this prox equals the
number of constant segments of the output divided by n.  The iteration,
its settings (``solver.SolverConfig``, with the operator's damping
default), the stopping rule and the divergence rule are
``solver.amp_loop``'s: this module supplies only the denoiser.
"""

from __future__ import annotations

import math

import numpy as np

from .operators import LinearOperator, check_number
from .solver import SolveReport, SolverConfig, amp_loop

__all__ = ["tv_prox", "tv_divergence", "tvamp_solve"]


def tv_prox(values: np.ndarray, lam: float) -> np.ndarray:
    """Exact 1D total-variation proximal map.

    Maintains running lower/upper taut-string bounds (vmin, vmax) and
    their slack accumulators (umin, umax); a violated bound finalizes a
    segment and restarts after it.  O(n) amortized, exact minimizer.
    Once lam >= n * max|y| the result is the mean, returned exactly: no
    partial sum of y - mean exceeds that bound, and a sweep at such a lam
    would lose y in vmin = y[0] - lam.

    The sweep reads Python floats from a list: indexing numpy scalars
    made this loop about 3-4x slower, for the same IEEE-754 results.  For
    the same reason lam stays the Python float ``check_number`` returns
    (an np.float64 lam made the sweep 2x slower), and the two thresholds
    a step compares against, lo = vmin - lam and hi = vmax + lam, are
    locals reassigned wherever vmin or vmax changes rather than being
    recomputed at every step: the same operations in the same order.
    """
    y = np.asarray(values, dtype=float)
    if y.ndim != 1:
        raise ValueError("values must be one-dimensional")
    lam = check_number("lam", lam, 0.0)
    n = y.size
    if lam == 0.0 or n <= 1:
        return y.copy()
    if lam >= n * abs(y[0]) and lam >= n * float(np.max(np.abs(y))):
        # (the first test only spares the common call the second)
        return np.full(n, math.fsum(y) / n)
    y = y.tolist()
    x = [0.0] * n
    last = n - 1
    neg_lam = -lam
    two_lam = 2.0 * lam
    k = k0 = kminus = kplus = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    lo = vmin - lam
    hi = vmax + lam
    umin = lam
    umax = neg_lam
    while True:
        while k == last:
            if umin < 0.0:
                # lower bound violated: freeze the segment at vmin
                while k0 <= kminus:
                    x[k0] = vmin
                    k0 += 1
                k = kminus = k0
                vmin = y[k]
                lo = vmin - lam
                umin = lam
                umax = vmin + lam - vmax
            elif umax > 0.0:
                while k0 <= kplus:
                    x[k0] = vmax
                    k0 += 1
                k = kplus = k0
                vmax = y[k]
                hi = vmax + lam
                umax = neg_lam
                umin = vmax - lam - vmin
            else:
                vmin += umin / (k - k0 + 1)
                x[k0 : k + 1] = [vmin] * (k - k0 + 1)
                return np.fromiter(x, float, n)
        k += 1
        y_next = y[k]
        if y_next + umin < lo:
            # negative jump is certain: emit [k0, kminus] at vmin
            while k0 <= kminus:
                x[k0] = vmin
                k0 += 1
            k = kminus = kplus = k0
            vmin = y[k]
            vmax = vmin + two_lam
            lo = vmin - lam
            hi = vmax + lam
            umin = lam
            umax = neg_lam
        elif y_next + umax > hi:
            # positive jump is certain: emit [k0, kplus] at vmax
            while k0 <= kplus:
                x[k0] = vmax
                k0 += 1
            k = kminus = kplus = k0
            vmax = y[k]
            vmin = vmax - two_lam
            lo = vmin - lam
            hi = vmax + lam
            umin = lam
            umax = neg_lam
        else:
            umin += y_next - vmin
            umax += y_next - vmax
            if umin >= lam:
                vmin += (umin - lam) / (k - k0 + 1)
                lo = vmin - lam
                umin = lam
                kminus = k
            if umax <= neg_lam:
                vmax += (umax + lam) / (k - k0 + 1)
                hi = vmax + lam
                umax = neg_lam
                kplus = k


def tv_divergence(x: np.ndarray) -> float:
    """Denoiser divergence: constant segments of x over its length.

    The prox averages the input within each output segment, so its
    Jacobian trace is exactly the segment count.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("x must be nonempty")
    segments = 1 + int(np.count_nonzero(np.diff(x) != 0.0))
    return segments / x.size


def tvamp_solve(
    op: LinearOperator,
    y: np.ndarray,
    lam: float,
    config: SolverConfig = SolverConfig(),
    truth: np.ndarray | None = None,
    target_nmse: float | None = None,
) -> SolveReport:
    """``amp_loop`` around the TV prox at threshold lam * sqrt(||r||^2 / m)."""
    check_number("lam", lam, 0.0, open_low=True)

    def denoiser(rho, energy):
        mu = tv_prox(rho, lam * math.sqrt(energy))
        return mu, tv_divergence(mu)

    return amp_loop(op, y, denoiser, config, truth, target_nmse)
