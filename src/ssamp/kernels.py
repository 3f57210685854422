"""The spike-and-slab chain denoiser.

A coordinate seen through the channel N(x; rho, theta) is fused with one or
two chain messages.  A message is a per-coordinate (mean, var) pair; with
the prior's jump probability q and slab variance s0, shared along the chain,
it is the mixture (1 - q) N(x; mean, var) + q N(x; mean, var + s0).  The
posterior is a mixture of two or four Gaussians whose mean and variance
drive the estimate, the message updates and the Onsager term.  Log weights
are normalized with log-sum-exp, so |rho| up to 1e6 and variances from
1e-12 to 1e12 never produce NaN, and variances use centered component
means, which avoids cancellation at large means.  Inputs may be scalars or
arrays of a common shape; outputs carry that shape.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

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


def _floor_variance(v, name: str = "variance") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(~(v >= 0.0)):
        raise ValueError(f"{name} must be nonnegative and not NaN")
    return np.maximum(v, VARIANCE_FLOOR)


def _positive(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(~(v > 0.0)):
        raise ValueError(f"{name} must be positive")
    return v


def log_gauss(x: ArrayLike, mean: ArrayLike, variance: ArrayLike) -> ArrayLike:
    """Log density of N(x; mean, variance).  Variance must be positive."""
    v = _positive(variance, "variance")
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    out = -0.5 * (_LOG_2PI + np.log(v) + (x - mean) ** 2 / v)
    return _maybe_scalar(out)


def _spike_slab(msg, q, s0):
    """The (mean, var) message's spike and slab as (mean, variance, log weight)."""
    mean = np.asarray(msg[0], dtype=float)
    var = _floor_variance(msg[1])
    extra = _positive(s0, "slab variance s0")
    q = np.asarray(q, dtype=float)
    if np.any(q < 0.0) or np.any(q > 1.0):
        raise ValueError("jump probability q must lie in [0, 1]")
    w = 1.0 - q
    with np.errstate(divide="ignore"):
        return (mean, var, np.log(w)), (mean, var + extra, np.log1p(-w))


def _fuse_pair(ma, va, mb, vb):
    """N(x; ma, va) N(x; mb, vb) = N(ma; mb, va + vb) N(x; m, v) as (m, v, log evidence).

    Both input variances are clamped up to VARIANCE_FLOOR first.
    """
    va = _floor_variance(va)
    vb = _floor_variance(vb)
    variance = 1.0 / (1.0 / va + 1.0 / vb)
    mean = variance * (ma / va + mb / vb)
    v = va + vb
    log_evidence = -0.5 * (_LOG_2PI + np.log(v) + (ma - mb) ** 2 / v)
    return mean, variance, log_evidence


def _moments(components):
    """Mean and variance of a mixture of (mean, variance, unnormalized log weight)
    triples; the variance sums w (v + (m - mean)^2) in component order.
    """
    means, variances, log_weights = zip(*components)
    log_z = logsumexp(np.stack(np.broadcast_arrays(*log_weights)), axis=0)
    weights = [np.exp(lw - log_z) for lw in log_weights]
    mean = sum((w * m for w, m in zip(weights, means)), 0.0)
    spreads = (v + (m - mean) ** 2 for m, v in zip(means, variances))
    variance = sum((w * s for w, s in zip(weights, spreads)), 0.0)
    return _maybe_scalar(mean), _maybe_scalar(variance)


def phi_zeta(rho: ArrayLike, theta: ArrayLike, msg, q: ArrayLike, s0: ArrayLike):
    """Posterior mean and variance given a single directional (mean, var) message."""
    theta = _positive(theta, "channel variance theta")
    components = []
    for mean, var, log_w in _spike_slab(msg, q, s0):
        m, v, ev = _fuse_pair(rho, theta, mean, var)
        components.append((m, v, log_w + ev))
    return _moments(components)


def eta_gamma(rho: ArrayLike, theta: ArrayLike, r2p, l2p, q: ArrayLike, s0: ArrayLike):
    """Posterior mean and variance of a coordinate given both (mean, var) messages.

    Components run (r spike, l spike), (r spike, l slab), (r slab, l spike),
    (r slab, l slab); each fuses the channel with its r2p component, then
    with its l2p component, and adds both log evidences to its weight.
    """
    theta = _positive(theta, "channel variance theta")
    right, left = _spike_slab(r2p, q, s0), _spike_slab(l2p, q, s0)
    components = []
    for r_mean, r_var, r_log_w in right:
        m1, v1, ev1 = _fuse_pair(rho, theta, r_mean, r_var)
        for l_mean, l_var, l_log_w in left:
            m2, v2, ev2 = _fuse_pair(m1, v1, l_mean, l_var)
            components.append((m2, v2, r_log_w + l_log_w + ev1 + ev2))
    return _moments(components)

