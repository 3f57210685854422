"""Independent numerical oracles used by the test suite.

Nothing here calls back into the package's fusion or prox code paths:
posterior moments come from direct quadrature of the unnormalized density,
derivatives from central differences, EM quantities from extended-precision
arithmetic, and the TV prox from an iterative dual solver.  Dense matrices
are read off an operator's ``apply`` one column at a time, and the DCT-II is
a dense matrix of cosines in long double.  The exceptions
are frozen copies kept to check rewrites: byte for byte,
``tv_prox_sweep_reference``, the taut-string sweep indexing numpy arrays,
``phi_zeta_closed_form``/``eta_gamma_closed_form``, the chain kernels
written as one allocating expression per quantity, with their input
checks, and ``solve_reference``/``tvamp_solve_reference``, the two solvers' own
AMP loops from before they shared one, with the chain glue (message
boundaries, Onsager mean) written out over the closed-form kernels and the
package's ``em_update``; to a stated tolerance, ``phi_zeta_reference``/
``eta_gamma_reference``, the arithmetic of the chain kernels as pairwise
fusions normalized by log-sum-exp, without their input checks.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from ssamp.kernels import VARIANCE_FLOOR
from ssamp.signals import nmse
from ssamp.solver import DivergenceError, SolveReport, em_update
from ssamp.tvamp import tv_divergence, tv_prox

# ---------------------------------------------------------------------------
# dense reference matrix of an operator


def dense_matrix(op):
    """The m x n matrix of ``op``, built column by column through ``apply``."""
    out = np.empty((op.m, op.n))
    e = np.zeros(op.n)
    for i in range(op.n):
        e[i] = 1.0
        out[:, i] = op.apply(e)
        e[i] = 0.0
    return out


def dct_ii_matrix(n):
    """The orthonormal n-point DCT-II as a dense long-double matrix: row k is
    a_k cos(pi k (2j + 1) / 2n), a_0 = sqrt(1/n) and a_k = sqrt(2/n) after.
    Each angle's multiple of pi / 2n is reduced modulo 4n in integers, so
    no cosine argument passes 2 pi."""
    k, j = np.arange(n)[:, None], np.arange(n)
    turns = ((k * (2 * j + 1)) % (4 * n)).astype(np.longdouble)
    out = np.cos(np.pi / np.longdouble(2 * n) * turns) * np.sqrt(np.longdouble(2) / n)
    out[0] = np.sqrt(np.longdouble(1) / n)
    return out


# ---------------------------------------------------------------------------
# quadrature oracle for the mixture-channel posteriors


def _log_normal(x, mean, var):
    return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)


def channel_mixture_logpdf(x, rho, theta, msgs):
    """Log of N(x; rho, theta) * prod over msgs of their two-component mixture.

    msgs: sequence of (mean, variance, spike_weight, slab_extra_variance).
    """
    out = _log_normal(x, rho, theta)
    for mean, var, w, extra in msgs:
        with np.errstate(divide="ignore"):
            la = np.log(w) + _log_normal(x, mean, var)
            lb = np.log1p(-w) + _log_normal(x, mean, var + extra)
        out = out + np.logaddexp(la, lb)
    return out


def _gauss_legendre_panels(edges, nodes, weights):
    """Map reference GL nodes/weights onto each [edges[i], edges[i+1]]."""
    lo = edges[:-1, None]
    hi = edges[1:, None]
    half = 0.5 * (hi - lo)
    x = 0.5 * (hi + lo) + half * nodes[None, :]
    w = half * weights[None, :]
    return x.ravel(), w.ravel()


def quad_posterior_moments(rho, theta, msgs, rel_tol=1e-11):
    """Mean and variance of the normalized product density by quadrature.

    Integrates over the hull of all factor means padded by 40 standard
    deviations of the widest factor, on Gauss-Legendre panels no wider
    than the narrowest possible posterior component.  Panel widths are
    halved until two successive refinements agree to rel_tol.
    """
    factor_means = [rho]
    factor_vars = [theta]
    for mean, var, w, extra in msgs:
        factor_means.extend([mean, mean])
        factor_vars.extend([var, var + extra])
    lo_mean, hi_mean = min(factor_means), max(factor_means)
    sd_widest = float(np.sqrt(max(factor_vars)))
    # narrowest posterior component: all precisions active at once
    sd_narrow = float(1.0 / np.sqrt(sum(1.0 / v for v in factor_vars)))
    window = (lo_mean - 40.0 * sd_widest, hi_mean + 40.0 * sd_widest)
    core = (lo_mean - 12.0 * sd_widest, hi_mean + 12.0 * sd_widest)

    nodes, weights = np.polynomial.legendre.leggauss(16)

    def run(panel_width):
        n_core = max(8, int(np.ceil((core[1] - core[0]) / panel_width)))
        edges = [np.linspace(core[0], core[1], n_core + 1)]
        # geometric tail panels out to the full window on both sides
        for sign, core_edge, win_edge in (
            (-1.0, core[0], window[0]),
            (1.0, core[1], window[1]),
        ):
            span = abs(core_edge - win_edge)
            steps = np.cumsum(panel_width * 1.5 ** np.arange(24))
            steps = steps[steps < span]
            tail = core_edge + sign * np.concatenate([steps, [span]])
            edges.append(tail)
        all_edges = np.unique(np.concatenate(edges))
        x, w = _gauss_legendre_panels(all_edges, nodes, weights)
        g = channel_mixture_logpdf(x, rho, theta, msgs)
        g_max = g.max()
        f = np.exp(g - g_max)
        z = np.sum(w * f)
        mean = np.sum(w * x * f) / z
        var = np.sum(w * (x - mean) ** 2 * f) / z
        return mean, var

    width = sd_narrow / 2.0
    prev = run(width)
    for _ in range(6):
        width /= 2.0
        cur = run(width)
        if (
            abs(cur[0] - prev[0]) <= rel_tol * max(1.0, abs(cur[0]))
            and abs(cur[1] - prev[1]) <= rel_tol * abs(cur[1])
        ):
            return cur
        prev = cur
    return prev


# ---------------------------------------------------------------------------
# finite-difference derivative oracle


def central_difference(f, x, step):
    return (f(x + step) - f(x - step)) / (2.0 * step)


# ---------------------------------------------------------------------------
# extended-precision EM oracle (mpmath)


def em_oracle(rho, theta, q, sigma0_sq, dps=50):
    """Direct high-precision evaluation of the EM responsibilities and M-step.

    Returns (pi, gamma, nu, q_new, sigma0_sq_new) as floats, without the
    clamping applied by the implementation.
    """
    import mpmath as mp

    with mp.workdps(dps):
        theta_mp = mp.mpf(theta)
        q_mp = mp.mpf(q)
        s0 = mp.mpf(sigma0_sq)

        def normal_pdf(x, var):
            return mp.exp(-x * x / (2 * var)) / mp.sqrt(2 * mp.pi * var)

        s = [mp.mpf(b) - mp.mpf(a) for a, b in zip(rho[:-1], rho[1:])]
        pis = []
        gammas = []
        for sd in s:
            ratio = (1 - q_mp) / q_mp * normal_pdf(sd, 2 * theta_mp) / normal_pdf(
                sd, 2 * theta_mp + s0
            )
            pis.append(1 / (1 + ratio))
            gammas.append(sd / (2 * theta_mp / s0 + 1))
        nu = 1 / (1 / s0 + 1 / (2 * theta_mp))
        d = len(s)
        q_new = sum(pis) / d
        s0_new = sum(p * (g * g + nu) for p, g in zip(pis, gammas)) / (q_new * d)
        return (
            [float(p) for p in pis],
            [float(g) for g in gammas],
            float(nu),
            float(q_new),
            float(s0_new),
        )


def mp_posterior_moments(rho, theta, msgs, q, s0, floor=1e-12, dps=40):
    """Posterior mean and variance of the chain kernels' model in dps digits.

    The channel N(x; rho, theta) is fused with each (mean, var) message in
    turn, every component splitting into spike (weight 1 - q, formed in
    double precision as the kernels do) and slab (variance + s0).  Before
    each fusion both variances are clamped up to ``floor``, as the kernels
    clamp theta, the message variances and the intermediate variance.
    """
    import mpmath as mp

    with mp.workdps(dps):
        spike = mp.mpf(1.0 - q)
        weights = (spike, 1 - spike)
        floor = mp.mpf(floor)
        s0 = mp.mpf(s0)
        # (mean, variance, log evidence, prior weight)
        comps = [(mp.mpf(rho), mp.mpf(theta), mp.mpf(0), mp.mpf(1))]
        for mean, var in msgs:
            mean, var = mp.mpf(mean), max(mp.mpf(var), floor)
            nxt = []
            for m, v, ev, w in comps:
                v = max(v, floor)
                for wk, vk in zip(weights, (var, var + s0)):
                    b = v + vk
                    nxt.append((
                        (m * vk + mean * v) / b,
                        v * vk / b,
                        ev - (m - mean) ** 2 / (2 * b) - mp.log(b) / 2,
                        w * wk,
                    ))
            comps = nxt
        top = max(ev for _, _, ev, w in comps if w > 0)
        ws = [w * mp.exp(ev - top) for _, _, ev, w in comps]
        z = sum(ws)
        post_mean = sum(w * m for w, (m, _, _, _) in zip(ws, comps)) / z
        post_var = sum(w * (v + (m - post_mean) ** 2) for w, (m, v, _, _) in zip(ws, comps)) / z
        return float(post_mean), float(post_var)


# ---------------------------------------------------------------------------
# total-variation prox oracles


def tv_objective(x, y, lam):
    return 0.5 * float(np.sum((y - x) ** 2)) + lam * float(np.sum(np.abs(np.diff(x))))


def _dt(z):
    """Adjoint of the first-difference map D: (Dx)_d = x[d+1] - x[d]."""
    out = np.zeros(z.size + 1)
    out[0] = -z[0]
    out[1:-1] = z[:-1] - z[1:]
    out[-1] = z[-1]
    return out


def tv_prox_pg(y, lam, iters, gap_tol=1e-12):
    """Plain projected gradient on the dual box problem.

    Stops after ``iters`` steps, or earlier once the primal-dual gap at
    x = y - D^T z, sum(lam |Dx| - z Dx), is at most gap_tol: the gap bounds
    the primal objective's distance to its minimum, so the returned x is
    certified to within gap_tol of optimal.
    """
    y = np.asarray(y, dtype=float)
    if y.size < 2 or lam == 0.0:
        return y.copy()
    z = np.zeros(y.size - 1)
    for _ in range(iters):
        x = y - _dt(z)
        dx = x[1:] - x[:-1]
        if float(np.sum(lam * np.abs(dx) - z * dx)) <= gap_tol:
            break
        grad = -dx
        z = np.clip(z - grad / 4.0, -lam, lam)
    return y - _dt(z)


def tv_prox_fista(y, lam, iters=20000):
    """Accelerated dual projected gradient; tighter oracle for larger n."""
    y = np.asarray(y, dtype=float)
    if y.size < 2 or lam == 0.0:
        return y.copy()
    z = np.zeros(y.size - 1)
    momentum = z.copy()
    t = 1.0
    for _ in range(iters):
        x = y - _dt(momentum)
        grad = -(x[1:] - x[:-1])
        z_new = np.clip(momentum - grad / 4.0, -lam, lam)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = z_new + ((t - 1.0) / t_new) * (z_new - z)
        z, t = z_new, t_new
    return y - _dt(z)


def tv_kkt_residual(x, y, lam, segment_tol=1e-8):
    """Max violation of the prox optimality conditions at x.

    Recovers the dual variable z from stationarity (x = y - D^T z), then
    checks the box constraint, the sign condition at active jumps, and the
    mean-preservation identity.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.cumsum(x - y)[:-1]
    residual = float(abs(np.sum(x - y)))  # last stationarity row
    residual = max(residual, float(np.max(np.maximum(np.abs(z) - lam, 0.0), initial=0.0)))
    d = np.diff(x)
    active = np.abs(d) > segment_tol
    if np.any(active):
        residual = max(
            residual, float(np.max(np.abs(z[active] - lam * np.sign(d[active]))))
        )
    return residual


def tv_prox_sweep_reference(values, lam):
    """The taut-string sweep of ``ssamp.tvamp.tv_prox`` on numpy scalars.

    Same comparisons, updates and divisions in the same order, so every
    output must match the package's prox byte for byte.
    """
    y = np.ascontiguousarray(values, dtype=float)
    n = y.size
    if lam < 0.0:
        raise ValueError("lam must be nonnegative")
    if n == 0:
        return y.copy()
    if lam == 0.0 or n == 1:
        return y.copy()
    x = np.empty(n)
    k = k0 = kminus = kplus = 0
    vmin = y[0] - lam
    vmax = y[0] + lam
    umin = lam
    umax = -lam
    while True:
        while k == n - 1:
            if umin < 0.0:
                while k0 <= kminus:
                    x[k0] = vmin
                    k0 += 1
                k = kminus = k0
                vmin = y[k]
                umin = lam
                umax = vmin + lam - vmax
            elif umax > 0.0:
                while k0 <= kplus:
                    x[k0] = vmax
                    k0 += 1
                k = kplus = k0
                vmax = y[k]
                umax = -lam
                umin = vmax - lam - vmin
            else:
                vmin += umin / (k - k0 + 1)
                x[k0 : k + 1] = vmin
                return x
        if y[k + 1] + umin < vmin - lam:
            while k0 <= kminus:
                x[k0] = vmin
                k0 += 1
            k = kminus = kplus = k0
            vmin = y[k]
            vmax = vmin + 2.0 * lam
            umin = lam
            umax = -lam
        elif y[k + 1] + umax > vmax + lam:
            while k0 <= kplus:
                x[k0] = vmax
                k0 += 1
            k = kminus = kplus = k0
            vmax = y[k]
            vmin = vmax - 2.0 * lam
            umin = lam
            umax = -lam
        else:
            k += 1
            umin += y[k] - vmin
            umax += y[k] - vmax
            if umin >= lam:
                vmin += (umin - lam) / (k - k0 + 1)
                umin = lam
                kminus = k
            if umax <= -lam:
                vmax += (umax + lam) / (k - k0 + 1)
                umax = -lam
                kplus = k


# ---------------------------------------------------------------------------
# frozen log-sum-exp chain kernels

_REF_FLOOR = 1e-12
_REF_LOG_2PI = float(np.log(2.0 * np.pi))


def _ref_floor(v):
    return np.maximum(np.asarray(v, dtype=float), _REF_FLOOR)


def _ref_spike_slab(msg, q, s0):
    var = _ref_floor(msg[1])
    w = 1.0 - np.asarray(q, dtype=float)
    with np.errstate(divide="ignore"):
        return (msg[0], var, np.log(w)), (msg[0], var + s0, np.log1p(-w))


def _ref_fuse_pair(ma, va, mb, vb):
    va, vb = _ref_floor(va), _ref_floor(vb)
    variance = 1.0 / (1.0 / va + 1.0 / vb)
    mean = variance * (ma / va + mb / vb)
    v = va + vb
    log_evidence = -0.5 * (_REF_LOG_2PI + np.log(v) + (ma - mb) ** 2 / v)
    return mean, variance, log_evidence


def _ref_moments(components):
    means, variances, log_weights = zip(*components)
    log_z = logsumexp(np.stack(np.broadcast_arrays(*log_weights)), axis=0)
    weights = [np.exp(lw - log_z) for lw in log_weights]
    mean = sum((w * m for w, m in zip(weights, means)), 0.0)
    spreads = (v + (m - mean) ** 2 for m, v in zip(means, variances))
    variance = sum((w * s for w, s in zip(weights, spreads)), 0.0)
    return mean, variance


def phi_zeta_reference(rho, theta, msg, q, s0):
    """``ssamp.kernels.phi_zeta`` as two pairwise fusions and log-sum-exp."""
    components = []
    for mean, var, log_w in _ref_spike_slab(msg, q, s0):
        m, v, ev = _ref_fuse_pair(rho, theta, mean, var)
        components.append((m, v, log_w + ev))
    return _ref_moments(components)


def eta_gamma_reference(rho, theta, r2p, l2p, q, s0):
    """``ssamp.kernels.eta_gamma`` as six pairwise fusions and log-sum-exp."""
    right, left = _ref_spike_slab(r2p, q, s0), _ref_spike_slab(l2p, q, s0)
    components = []
    for r_mean, r_var, r_log_w in right:
        m1, v1, ev1 = _ref_fuse_pair(rho, theta, r_mean, r_var)
        for l_mean, l_var, l_log_w in left:
            m2, v2, ev2 = _ref_fuse_pair(m1, v1, l_mean, l_var)
            components.append((m2, v2, r_log_w + l_log_w + ev1 + ev2))
    return _ref_moments(components)


# ---------------------------------------------------------------------------
# frozen closed-form chain kernels, written as expressions


def _cf_maybe_scalar(a):
    return float(a) if np.ndim(a) == 0 else a


def _cf_floor(v):
    v = np.asarray(v, dtype=float)
    if not (v >= 0.0).all():
        raise ValueError("variance must be nonnegative and not NaN")
    return np.maximum(v, _REF_FLOOR)


def _cf_prior(theta, q, s0):
    theta, q, s0 = float(theta), float(q), float(s0)
    if not theta > 0.0:
        raise ValueError("channel variance theta must be positive")
    if not s0 > 0.0:
        raise ValueError("slab variance s0 must be positive")
    if not 0.0 <= q <= 1.0:
        raise ValueError("jump probability q must lie in [0, 1]")
    with np.errstate(divide="ignore"):
        return max(theta, _REF_FLOOR), s0, np.log(1.0 - q), np.log1p(q - 1.0)


def phi_zeta_closed_form(rho, theta, msg, q, s0):
    """``ssamp.kernels.phi_zeta`` as one expression per quantity, each
    array operation allocating its result."""
    theta, s0, log_spike, log_slab = _cf_prior(theta, q, s0)
    mean, var = msg[0], _cf_floor(msg[1])
    var_slab = var + s0
    d = rho - mean
    inv_a0, inv_a1 = 1.0 / (theta + var), 1.0 / (theta + var_slab)
    g = s0 * inv_a0 * inv_a1
    m0 = (rho * var + mean * theta) * inv_a0
    m1 = (rho * var_slab + mean * theta) * inv_a1
    dm = theta * g * d
    log_odds = log_slab - log_spike + 0.5 * (np.log(inv_a1 / inv_a0) + g * d * d)
    odds_slab = np.exp(np.minimum(log_odds, 700.0))
    p0 = 1.0 / (1.0 + odds_slab)
    p1 = odds_slab * p0
    out_var = theta * (p0 * var * inv_a0 + p1 * var_slab * inv_a1) + p0 * p1 * dm * dm
    return _cf_maybe_scalar(p0 * m0 + p1 * m1), _cf_maybe_scalar(out_var)


def eta_gamma_closed_form(rho, theta, r2p, l2p, q, s0):
    """``ssamp.kernels.eta_gamma`` as one expression per quantity, each
    array operation allocating its result."""
    theta, s0, log_spike, log_slab = _cf_prior(theta, q, s0)
    (r_mean, r_var), (l_mean, l_var) = r2p, l2p
    r_var, l_var = _cf_floor(r_var), _cf_floor(l_var)
    half_d2 = 0.5 * (rho - r_mean) ** 2
    means, variances, log_weights = [], [], []
    for r_log_w, vr in ((log_spike, r_var), (log_slab, r_var + s0)):
        inv_a = 1.0 / (theta + vr)
        m1 = (rho * vr + r_mean * theta) * inv_a
        v1 = np.maximum(theta * vr * inv_a, _REF_FLOOR)
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
    return _cf_maybe_scalar(mean), _cf_maybe_scalar(sum(spreads) / total)


# ---------------------------------------------------------------------------
# frozen per-solver AMP loops


def _r2p_reference(rho, theta, mean, var, params):
    """Rightward messages with the pinned boundary message prepended."""
    s0 = params.sigma0_sq
    mean, var = phi_zeta_closed_form(rho[:-1], theta, (mean[:-1], var[:-1]), params.q, s0)
    return np.concatenate(([0.0], mean)), np.concatenate(([s0], var))


def solve_reference(op, y, params, config, truth=None, target_nmse=None, em=False):
    """The chain solver's loop before the shared AMP loop, step for step.

    Pseudodata and theta (the residual energy with ``em``, the variance
    sum without), rightward and leftward messages, coordinate posterior,
    damped Onsager residual, then the EM refresh; divergence is checked on
    mu, sigma_sq and r.  Returns a SolveReport or raises DivergenceError,
    and must match ``ssamp.solver.solve`` byte for byte.
    """
    y = np.asarray(y, dtype=float)
    beta = config.damping_beta if config.damping_beta is not None else op.default_beta
    s0 = params.sigma0_sq
    sigma_sq = np.full(op.n, s0)
    r2p = (np.zeros(op.n), np.full(op.n, s0))
    l2p = (np.zeros(op.n), np.full(op.n, s0))
    mu = np.zeros(op.n)
    r = y.copy()
    trace = [] if truth is not None else None
    converged = False
    for it in range(1, config.max_iters + 1):
        prev_mu = mu
        try:
            rho = op.adjoint(r) + mu
            if not em:
                theta = params.delta + float(np.sum(sigma_sq)) / op.m
            else:
                theta = float(np.sum(r**2)) / op.m
            theta = max(theta, VARIANCE_FLOOR)
            r2p_new = _r2p_reference(rho, theta, *r2p, params)
            l2m, l2v = _r2p_reference(rho[::-1], theta, l2p[0][::-1], l2p[1][::-1], params)
            r2p, l2p = r2p_new, (l2m[::-1], l2v[::-1])
            mu, sigma_sq = eta_gamma_closed_form(rho, theta, r2p, l2p, params.q, params.sigma0_sq)
            mean_eta_prime = float(np.mean(sigma_sq)) / theta
            candidate = y - op.apply(mu) + r * (op.n / op.m) * mean_eta_prime
            r = (1.0 - beta) * r + beta * candidate
            if em:
                params = em_update(rho, theta, params)
        except (ValueError, FloatingPointError) as exc:
            raise DivergenceError(it) from exc
        if not (
            np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma_sq)) and np.all(np.isfinite(r))
        ):
            raise DivergenceError(it)
        step = float(np.sum((mu - prev_mu) ** 2))
        base = float(np.sum(prev_mu**2))
        rel = step / base if base > 0.0 else float(np.sum(mu**2))
        if trace is not None:
            trace.append(nmse(truth, mu))
        if target_nmse is not None and trace is not None and trace[-1] <= target_nmse:
            converged = True
            break
        if rel <= config.tol:
            converged = True
            break
    return SolveReport(mu, it, converged, params, None if trace is None else np.asarray(trace))


def tvamp_solve_reference(op, y, lam, config, truth=None, target_nmse=None):
    """The TV-AMP loop before the shared AMP loop, step for step.

    Checks the threshold before the prox, and mu and r after the residual.
    Returns a SolveReport or raises DivergenceError, and must match
    ``ssamp.tvamp.tvamp_solve`` byte for byte.
    """
    y = np.asarray(y, dtype=float)
    beta = config.damping_beta if config.damping_beta is not None else op.default_beta
    mu = np.zeros(op.n)
    r = y.copy()
    trace = [] if truth is not None else None
    converged = False
    for it in range(1, config.max_iters + 1):
        theta = float(np.sum(r**2)) / op.m
        rho = op.adjoint(r) + mu
        threshold = lam * np.sqrt(theta)
        if not np.isfinite(threshold):
            raise DivergenceError(it)
        mu_new = tv_prox(rho, threshold)
        onsager = tv_divergence(mu_new)
        candidate = y - op.apply(mu_new) + r * (op.n / op.m) * onsager
        r = (1.0 - beta) * r + beta * candidate
        if not (np.all(np.isfinite(mu_new)) and np.all(np.isfinite(r))):
            raise DivergenceError(it)
        step = float(np.sum((mu_new - mu) ** 2))
        base = float(np.sum(mu**2))
        rel = step / base if base > 0.0 else float(np.sum(mu_new**2))
        mu = mu_new
        if trace is not None:
            trace.append(nmse(truth, mu))
        if target_nmse is not None and trace is not None and trace[-1] <= target_nmse:
            converged = True
            break
        if rel <= config.tol:
            converged = True
            break
    return SolveReport(mu, it, converged, None, None if trace is None else np.asarray(trace))
