"""The spike-and-slab chain denoiser.

A coordinate seen through the channel N(x; rho, theta) is fused with one or
two chain messages.  A message is a per-coordinate (mean, var) pair; with
the prior's jump probability q and slab variance s0, shared along the chain,
it is the mixture (1 - q) N(x; mean, var) + q N(x; mean, var + s0).  The
posterior is a mixture of two or four Gaussians, written out in closed form
and normalized by a max-shift of the log weights, so |rho| up to 1e6 and
variances from 1e-12 to 1e12 never overflow.  Fused means are weighted
averages and variances use centered component means, which avoids
cancellation at large means.  The kernels are array-only: rho is an
ndarray with ndim >= 1 (one coordinate is a 1-element array) and the
outputs are arrays of its shape.  The message means and variances are
arrays of that shape or scalars, which broadcast; theta, q and s0 are
shared along the chain and must be scalars.
"""

from __future__ import annotations

import numpy as np

__all__ = ["VARIANCE_FLOOR", "eta_gamma", "phi_zeta"]

# Fusion inputs are clamped to this floor: exact zeros show up at
# convergence and would otherwise divide out.
VARIANCE_FLOOR = 1e-12


def _floor_variance(v, out: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.size and not v.min() >= 0.0:  # min propagates NaN
        raise ValueError("variance must be nonnegative and not NaN")
    return np.maximum(v, VARIANCE_FLOOR, out=out)


def _work_block(work, rows: int, shape: tuple) -> np.ndarray:
    """``work``, checked to be a C-contiguous float block of ``rows`` arrays
    of ``shape``; a new block when it is None."""
    if work is None:
        return np.empty((rows,) + shape)
    if work.shape != (rows,) + shape or work.dtype != float or not work.flags.c_contiguous:
        raise ValueError(f"work must be a C-contiguous float block of shape {(rows,) + shape}")
    return work


def _prior(rho: np.ndarray, theta: float, q: float, s0: float):
    """Checked theta (floored), s0, and the log spike and slab weights;
    a rho that is no ndarray of ndim >= 1 is a TypeError, and so (through
    float()) is an array theta, q or s0."""
    if not (isinstance(rho, np.ndarray) and rho.ndim >= 1):
        raise TypeError("rho must be an ndarray with ndim >= 1; one coordinate has shape (1,)")
    theta, q, s0 = float(theta), float(q), float(s0)
    if not theta > 0.0:
        raise ValueError("channel variance theta must be positive")
    if not s0 > 0.0:
        raise ValueError("slab variance s0 must be positive")
    if not 0.0 <= q <= 1.0:
        raise ValueError("jump probability q must lie in [0, 1]")
    # numpy's log, not math.log, which may round the last bit differently; a log
    # argument is 0 only at q = 1, or at q <= 2**-54, where q - 1.0 rounds to -1.0
    if 2.0**-54 < q < 1.0:
        return max(theta, VARIANCE_FLOOR), s0, np.log(1.0 - q), np.log1p(q - 1.0)
    with np.errstate(divide="ignore"):
        return max(theta, VARIANCE_FLOOR), s0, np.log(1.0 - q), np.log1p(q - 1.0)


def phi_zeta(rho: np.ndarray, theta: float, msg, q: float, s0: float, work=None):
    """Posterior mean and variance given a single directional (mean, var) message.

    The spike and slab components have means m0, m1 (m1 - m0 = dm, formed
    as a product) and weights p0 = 1 - p1, p1 (a logistic of the log-odds).
    Intermediates live in ``work``, an (8,) + rho.shape block that shares
    no memory with an input (allocated when None), and are updated in
    place, with every operation's operands grouped as in the plain
    expressions (kept in the tests as phi_zeta_closed_form), so the outputs
    round the same.  No input is written, and no output is part of ``work``.
    """
    theta, s0, log_spike, log_slab = _prior(rho, theta, q, s0)
    mean = msg[0]
    # var and m0 become the outputs; the rest lives in one work block
    var, m0 = _floor_variance(msg[1], np.empty(rho.shape)), np.empty(rho.shape)
    var_slab, d, inv_a0, inv_a1, g, dm, m1, odds_slab = _work_block(work, 8, rho.shape)
    np.add(var, s0, out=var_slab)
    np.subtract(rho, mean, out=d)
    np.add(var, theta, out=inv_a0)
    np.divide(1.0, inv_a0, out=inv_a0)
    np.add(var_slab, theta, out=inv_a1)
    np.divide(1.0, inv_a1, out=inv_a1)
    np.multiply(inv_a0, s0, out=g)
    g *= inv_a1
    # m_k = (rho var_k + mean theta) / a_k, with a_k = theta + var_k
    mean_theta = np.multiply(mean, theta, out=dm)
    np.multiply(rho, var, out=m0)
    m0 += mean_theta
    m0 *= inv_a0
    np.multiply(rho, var_slab, out=m1)
    m1 += mean_theta
    m1 *= inv_a1
    np.multiply(g, theta, out=dm)
    dm *= d
    # the slab's log-odds, capped at 700 so that exp cannot overflow
    np.divide(inv_a1, inv_a0, out=odds_slab)
    np.log(odds_slab, out=odds_slab)
    g *= d
    g *= d
    odds_slab += g
    odds_slab *= 0.5
    odds_slab += log_slab - log_spike
    np.minimum(odds_slab, 700.0, out=odds_slab)
    np.exp(odds_slab, out=odds_slab)
    p0 = np.add(odds_slab, 1.0, out=d)
    np.divide(1.0, p0, out=p0)
    p1 = odds_slab
    p1 *= p0
    # out_var = theta (p0 var / a0 + p1 var_slab / a1) + p0 p1 dm^2
    var *= p0
    var *= inv_a0
    var_slab *= p1
    var_slab *= inv_a1
    var += var_slab
    var *= theta
    jump = np.multiply(p0, p1, out=g)
    jump *= dm
    jump *= dm
    var += jump
    m0 *= p0
    m1 *= p1
    m0 += m1
    return m0, var


def eta_gamma(rho: np.ndarray, theta: float, r2p, l2p, q: float, s0: float, work=None):
    """Posterior mean and variance of a coordinate given both (mean, var) messages.

    Each of the four (r2p, l2p) spike/slab pairs fuses the channel with its
    r2p component, then (that variance clamped to VARIANCE_FLOOR) with its
    l2p component, and adds both log evidences, less the 2 pi terms all
    four share, to its log weight.  The spike and slab rows are stacked:
    the r2p fusion runs on (2, n) arrays, the l2p fusion on (2, 2, n)
    ones, ordered (r2p component, l2p component).  As in ``phi_zeta``,
    intermediates live in ``work``, here a (28,) + rho.shape block, updated
    in place and rounded as the plain expressions (eta_gamma_closed_form in
    the tests), and no input is written; r_mean theta, l_var + s0 and
    l_mean v1, which those expressions repeat, are formed once.
    """
    theta, s0, log_spike, log_slab = _prior(rho, theta, q, s0)
    (r_mean, r_var), (l_mean, l_var) = r2p, l2p
    size = rho.shape
    work = _work_block(work, 28, size)
    vr, vl, inv_a, m1, lw1 = (work[i : i + 2] for i in range(0, 10, 2))
    half_d2, r_theta = work[10], work[11]
    inv_b, log_weights, means, variances = (
        work[i : i + 4].reshape((2, 2) + size) for i in range(12, 28, 4)
    )
    _floor_variance(r_var, vr[0])
    _floor_variance(l_var, vl[0])
    np.add(vr[0], s0, out=vr[1])
    np.add(vl[0], s0, out=vl[1])
    log_w = np.array((log_spike, log_slab), ndmin=rho.ndim + 1).T  # shape (2, 1, ...)
    np.subtract(rho, r_mean, out=half_d2)
    half_d2 *= half_d2
    half_d2 *= 0.5
    np.multiply(r_mean, theta, out=r_theta)
    # channel with the r2p components: rows spike, slab
    np.add(vr, theta, out=inv_a)
    np.divide(1.0, inv_a, out=inv_a)
    np.multiply(rho, vr, out=m1)
    m1 += r_theta
    m1 *= inv_a
    v1 = vr
    v1 *= theta
    v1 *= inv_a
    np.maximum(v1, VARIANCE_FLOOR, out=v1)
    np.log(inv_a, out=lw1)
    lw1 *= 0.5
    lw1 += log_w
    inv_a *= half_d2
    lw1 -= inv_a
    half_e2 = np.subtract(m1, l_mean, out=inv_a)
    half_e2 *= half_e2
    half_e2 *= 0.5
    # then with the l2p components: [i, j] fuses r2p row i with l2p row j
    v1, lw1, half_e2 = v1[:, None], lw1[:, None], half_e2[:, None]
    np.add(v1, vl, out=inv_b)
    np.divide(1.0, inv_b, out=inv_b)
    np.add(lw1, log_w, out=log_weights)
    np.log(inv_b, out=means)
    means *= 0.5
    log_weights += means
    np.multiply(m1[:, None], vl, out=means)
    means += np.multiply(l_mean, v1, out=lw1)
    means *= inv_b
    np.multiply(v1, vl, out=variances)
    variances *= inv_b
    inv_b *= half_e2
    log_weights -= inv_b
    weights, means, variances, products = (
        a.reshape((4,) + size) for a in (log_weights, means, variances, inv_b)
    )
    shift = np.maximum(weights[0], weights[1], out=half_d2)
    np.maximum(shift, np.maximum(weights[2], weights[3], out=r_theta), out=shift)
    weights -= shift
    np.exp(weights, out=weights)
    total = np.add(weights[0], weights[1], out=r_theta)
    total += weights[2]
    total += weights[3]
    # the closed form's sum() starts from 0, which turns an all -0.0 sum into +0.0
    np.multiply(weights, means, out=products)
    mean = products[0] + 0.0
    mean += products[1]
    mean += products[2]
    mean += products[3]
    mean /= total
    means -= mean
    spreads = variances
    means *= means
    spreads += means
    spreads *= weights
    var = spreads[0] + spreads[1]
    var += spreads[2]
    var += spreads[3]
    var /= total
    return mean, var
