"""The spike-and-slab chain denoiser.

A coordinate seen through the channel N(x; rho, theta) is fused with one or
two chain messages.  A message is a per-coordinate (mean, var) pair; with
the prior's jump probability q and slab variance s0, shared along the chain,
it is the mixture (1 - q) N(x; mean, var) + q N(x; mean, var + s0).  The
posterior is a mixture of two or four Gaussians, written out in closed form
and normalized by a max-shift of the log weights, so |rho| up to 1e6 and
variances from 1e-12 to 1e12 never overflow.  Fused means are weighted
averages and variances use centered component means, which avoids
cancellation at large means.  Inputs may be scalars or arrays of a common
shape; outputs carry that shape.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "VARIANCE_FLOOR",
    "log_gauss",
    "eta_gamma",
    "phi_zeta",
]

# Fusion inputs are clamped to this floor: exact zeros show up at
# convergence and would otherwise divide out.
VARIANCE_FLOOR = 1e-12

_LOG_2PI = float(np.log(2.0 * np.pi))

ArrayLike = float | np.ndarray


def _maybe_scalar(a: np.ndarray):
    return float(a) if np.ndim(a) == 0 else a


def _floor_variance(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all(v >= 0.0):
        raise ValueError("variance must be nonnegative and not NaN")
    return np.maximum(v, VARIANCE_FLOOR)


def _positive(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all(v > 0.0):
        raise ValueError(f"{name} must be positive")
    return v


def log_gauss(x: ArrayLike, mean: ArrayLike, variance: ArrayLike) -> ArrayLike:
    """Log density of N(x; mean, variance).  Variance must be positive."""
    v = _positive(variance, "variance")
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    out = -0.5 * (_LOG_2PI + np.log(v) + (x - mean) ** 2 / v)
    return _maybe_scalar(out)


def _prior(theta, q, s0):
    """Checked theta (floored), s0, and the log spike and slab weights."""
    theta = np.maximum(_positive(theta, "channel variance theta"), VARIANCE_FLOOR)
    s0 = _positive(s0, "slab variance s0")
    q = np.asarray(q, dtype=float)
    if not np.all((q >= 0.0) & (q <= 1.0)):
        raise ValueError("jump probability q must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return theta, s0, np.log(1.0 - q), np.log1p(q - 1.0)


def phi_zeta(rho: ArrayLike, theta: ArrayLike, msg, q: ArrayLike, s0: ArrayLike):
    """Posterior mean and variance given a single directional (mean, var) message.

    The spike and slab components have means m0, m1 (m1 - m0 = dm, formed
    as a product) and weights p0 = 1 - p1, p1 (a logistic of the log-odds).
    """
    theta, s0, log_spike, log_slab = _prior(theta, q, s0)
    mean, var = msg[0], _floor_variance(msg[1])
    var_slab = var + s0
    d = rho - mean
    inv_a0, inv_a1 = 1.0 / (theta + var), 1.0 / (theta + var_slab)
    g = s0 * inv_a0 * inv_a1
    m0 = (rho * var + mean * theta) * inv_a0
    m1 = (rho * var_slab + mean * theta) * inv_a1
    dm = theta * g * d
    # the slab's log-odds, capped at 700 so that exp cannot overflow
    log_odds = log_slab - log_spike + 0.5 * (np.log(inv_a1 / inv_a0) + g * d * d)
    odds_slab = np.exp(np.minimum(log_odds, 700.0))
    p0 = 1.0 / (1.0 + odds_slab)
    p1 = odds_slab * p0
    out_var = theta * (p0 * var * inv_a0 + p1 * var_slab * inv_a1) + p0 * p1 * dm * dm
    return _maybe_scalar(p0 * m0 + p1 * m1), _maybe_scalar(out_var)


def eta_gamma(rho: ArrayLike, theta: ArrayLike, r2p, l2p, q: ArrayLike, s0: ArrayLike):
    """Posterior mean and variance of a coordinate given both (mean, var) messages.

    Each of the four (r2p, l2p) spike/slab pairs fuses the channel with its
    r2p component, then (that variance clamped to VARIANCE_FLOOR) with its
    l2p component, and adds both log evidences, less the 2 pi terms all
    four share, to its log weight.
    """
    theta, s0, log_spike, log_slab = _prior(theta, q, s0)
    (r_mean, r_var), (l_mean, l_var) = r2p, l2p
    r_var, l_var = _floor_variance(r_var), _floor_variance(l_var)
    half_d2 = 0.5 * (rho - r_mean) ** 2
    means, variances, log_weights = [], [], []
    for r_log_w, vr in ((log_spike, r_var), (log_slab, r_var + s0)):
        inv_a = 1.0 / (theta + vr)
        m1 = (rho * vr + r_mean * theta) * inv_a
        v1 = np.maximum(theta * vr * inv_a, VARIANCE_FLOOR)
        lw1 = r_log_w + 0.5 * np.log(inv_a) - half_d2 * inv_a
        half_e2 = 0.5 * (m1 - l_mean) ** 2
        for l_log_w, vl in ((log_spike, l_var), (log_slab, l_var + s0)):
            inv_b = 1.0 / (v1 + vl)
            means.append((m1 * vl + l_mean * v1) * inv_b)
            variances.append(v1 * vl * inv_b)
            log_weights.append(lw1 + l_log_w + 0.5 * np.log(inv_b) - half_e2 * inv_b)
    shift = np.maximum(np.maximum(*log_weights[:2]), np.maximum(*log_weights[2:]))
    weights = [np.exp(lw - shift) for lw in log_weights]
    total = sum(weights)
    mean = sum(w * m for w, m in zip(weights, means)) / total
    spreads = (w * (v + (m - mean) ** 2) for w, m, v in zip(weights, means, variances))
    return _maybe_scalar(mean), _maybe_scalar(sum(spreads) / total)
