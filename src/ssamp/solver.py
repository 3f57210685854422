"""Sum-product AMP solver for piecewise-constant signals.

``amp_loop`` is the AMP iteration, shared with the TV baseline, which
passes another denoiser: pseudodata rho = H^T r + mu, the denoiser, and
the residual with the Onsager correction (N/M) <eta'>, damped by beta.
The loop hands the denoiser the residual energy ||r||^2 / m too (the AMP
noise estimate of Donoho, Maleki & Montanari, PNAS 2009).

The chain denoiser (``ChainDenoiser``) does per call, in order:

1. the shared channel variance theta: delta plus the running coordinate
   variances over m, or with EM the residual energy
2. rightward and leftward message updates along the difference chain
   (Jacobi: each reads the previous iteration's messages)
3. coordinate denoising through the spike-and-slab mixture posterior
4. optional expectation-maximization refresh of (q, sigma0_sq) from the
   closed-form jump posteriors, used from the next call on
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace

import numpy as np

from .kernels import VARIANCE_FLOOR, eta_gamma, phi_zeta
from .operators import LinearOperator, check_number

__all__ = [
    "PriorParams",
    "SolverConfig",
    "SolveReport",
    "DivergenceError",
    "Q_MIN",
    "Q_MAX",
    "SIGMA0_SQ_MIN",
    "STALL_WINDOW",
    "STALL_BAND",
    "em_posteriors",
    "em_update",
    "default_em_params",
    "amp_loop",
    "ChainDenoiser",
    "solve",
]

Q_MIN = 1e-8
Q_MAX = 1.0 - 1e-8
SIGMA0_SQ_MIN = 1e-12
STALL_WINDOW = 10  # a residual energy settled this long: AMP is at its fixed point
STALL_BAND = 1e-2


class DivergenceError(RuntimeError):
    """Raised when an AMP iteration's denoiser rejects its input or the
    estimate or residual picks up NaN or Inf, at ``iteration``."""

    def __init__(self, iteration: int):
        super().__init__(f"solver state diverged at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class PriorParams:
    """Jump probability, slab variance, and measurement-noise variance.

    All three must be finite numbers and delta nonnegative.  q is clamped
    into [Q_MIN, Q_MAX] and sigma0_sq up to SIGMA0_SQ_MIN on construction,
    so EM fixed points can never stick to degenerate values.  delta is
    never learned.
    """

    q: float
    sigma0_sq: float
    delta: float = 0.0

    def __post_init__(self):
        q, s0 = check_number("q", self.q), check_number("sigma0_sq", self.sigma0_sq)
        object.__setattr__(self, "q", float(min(max(q, Q_MIN), Q_MAX)))
        object.__setattr__(self, "sigma0_sq", float(max(s0, SIGMA0_SQ_MIN)))
        object.__setattr__(self, "delta", check_number("delta", self.delta, 0.0))


@dataclass(frozen=True)
class SolverConfig:
    """The AMP loop settings both solvers take, checked on construction and
    stored as plain numbers."""

    max_iters: int = 2000
    tol: float = 1e-14
    damping_beta: float | None = None  # None: the operator's default_beta

    def __post_init__(self):
        max_iters = check_number("max_iters", self.max_iters, 1, integer=True)
        object.__setattr__(self, "max_iters", int(max_iters))
        tol = check_number("tol", self.tol, 0.0, finite=False)  # tol = inf stops after one step
        object.__setattr__(self, "tol", tol)
        if self.damping_beta is not None:
            beta = check_number("damping_beta", self.damping_beta, 0.0, 1.0, open_low=True)
            object.__setattr__(self, "damping_beta", beta)


@dataclass(frozen=True)
class SolveReport:
    estimate: np.ndarray
    iters_run: int
    converged: bool
    final_params: PriorParams | None
    nmse_trace: np.ndarray | None = None


def em_posteriors(rho: np.ndarray, theta: float, params: PriorParams):
    """Jump responsibilities and slab posterior moments of the pseudodata.

    Each difference s of rho (two coordinates at least) is a jump seen
    through noise of variance t = 2 theta, 0 < theta <= half the largest
    float so that t is finite.  With the slab's shrinkage weight
    w = s0 / (t + s0), the log-odds against a jump is
    log((1 - q) / q) + (log(t + s0) - log t) / 2 - w s^2 / (2 t), the
    Bernoulli-Gaussian EM step of Vila & Schniter (IEEE TSP 2013).  Returns
    (pi, gamma_d, nu): each difference's posterior jump probability and
    jump mean w s, and the shared posterior jump variance w t.
    """
    theta = check_number("theta", theta, 0.0, sys.float_info.max / 2, open_low=True)
    rho = np.asarray(rho, dtype=float)
    if rho.size < 2:
        raise ValueError(f"rho must hold at least two coordinates, not {rho.size}")
    s = np.diff(rho)
    q, s0 = params.q, params.sigma0_sq
    t = 2.0 * theta
    w = s0 / (t + s0)
    # log(t + s0) - log(t), not log1p(s0 / t), which overflows at theta 1e-300, s0 1e308
    log_prior = np.log1p(-q) - np.log(q) + 0.5 * (np.log(t + s0) - np.log(t))
    log_ratio = log_prior - s**2 / (2.0 * t) * w
    # numpy's logistic: exp overflows to inf on the far positive tail, giving
    # pi = 0.0 exactly, and underflows to 0 on the far negative tail, giving 1.0
    with np.errstate(over="ignore"):
        pi = 1.0 / (1.0 + np.exp(log_ratio))
    return pi, w * s, w * t


def em_update(rho: np.ndarray, theta: float, params: PriorParams) -> PriorParams:
    """One expectation-maximization refresh of (q, sigma0_sq).

    The responsibility-weighted jump fraction becomes the new q; the slab
    variance update averages posterior second moments over the
    responsibilities.  delta is left untouched.
    """
    pi, gamma_d, nu = em_posteriors(rho, theta, params)
    d = pi.shape[0]
    q_new = float(np.sum(pi)) / d
    q_new = min(max(q_new, Q_MIN), Q_MAX)
    s0_new = float(np.sum(pi * (gamma_d**2 + nu))) / (q_new * d)
    return PriorParams(q=q_new, sigma0_sq=s0_new, delta=params.delta)


def default_em_params(op: LinearOperator, y: np.ndarray, delta: float = 0.0) -> PriorParams:
    """Scale-robust starting point for EM runs with noise variance delta.

    q starts at 0.1; the slab variance at half the sample variance of the
    first matched-filter pseudodata differences, which tracks the signal's
    jump energy scale without knowing q.
    """
    rho0 = op.adjoint(np.asarray(y, dtype=float))
    s2 = float(np.var(np.diff(rho0))) / 2.0
    return PriorParams(q=0.1, sigma0_sq=s2, delta=delta)


def amp_loop(
    op: LinearOperator,
    y: np.ndarray,
    denoiser,
    config: SolverConfig,
    truth: np.ndarray | None = None,
    target_nmse: float | None = None,
) -> SolveReport:
    """Run AMP around ``denoiser(rho, energy) -> (mu, onsager)`` from mu = 0, r = y.

    ``energy`` is ||r||^2 / m of the residual behind rho, ||y||^2 / m at
    first.  The residual is damped by the config's damping_beta, or by the
    operator's default_beta when that is unset.  Converges when an nmse
    target against ``truth`` is met, or when ||mu_new - mu||^2 / ||mu||^2
    drops to tol (from mu = 0, only a zero step).  With tol > 0, stops
    unconverged once the last STALL_WINDOW + 1 residual energies lie
    within a factor 1 + STALL_BAND.  Raises DivergenceError at the
    iteration where the denoiser rejects its input or mu or r stop being
    finite.  final_params is left None.
    """
    beta = op.default_beta if config.damping_beta is None else config.damping_beta
    y = np.asarray(y, dtype=float)
    if y.shape != (op.m,):
        raise ValueError(f"y must have shape ({op.m},)")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    if truth is not None:
        truth = np.asarray(truth, dtype=float)
        if truth.shape != (op.n,):
            raise ValueError(f"truth must have shape ({op.n},)")
        if not np.isfinite(truth).all():
            raise ValueError("truth must be finite")
        truth_sq = float(np.sum(truth**2))  # signals.nmse's denominator, once per solve
    if target_nmse is not None:
        check_number("target_nmse", target_nmse, 0.0, finite=False)
        if truth is None:
            raise ValueError("target_nmse needs a truth")
    trace = None if truth is None else []
    mu = np.zeros(op.n)
    r = y.copy()
    sq = np.empty(op.n)  # the squares behind each norm below
    energy = float(np.square(y, out=sq[: op.m]).sum()) / op.m
    thetas = []  # the residual energy after each iteration
    converged = False
    for t in range(1, config.max_iters + 1):
        rho = op.adjoint(r) + mu
        try:
            mu_new, onsager = denoiser(rho, energy)
        except (ValueError, FloatingPointError) as exc:
            # overflow inside an iteration surfaces as a rejected denoiser input
            raise DivergenceError(t) from exc
        candidate = y - op.apply(mu_new) + r * (op.n / op.m) * onsager
        # beta = 1 skips the blend: 0 r, with r finite, could change no more than a zero's sign
        r = candidate if beta == 1.0 else (1.0 - beta) * r + beta * candidate
        if not (np.isfinite(mu_new).all() and np.isfinite(r).all()):
            raise DivergenceError(t)
        energy = float(np.square(r, out=sq[: op.m]).sum()) / op.m
        thetas.append(energy)
        step = float(np.square(np.subtract(mu_new, mu, out=sq), out=sq).sum())
        base = float(np.square(mu, out=sq).sum())
        rel = step / base if base > 0.0 else (0.0 if step == 0.0 else np.inf)
        mu = mu_new
        if trace is not None:
            err = float(np.square(np.subtract(truth, mu, out=sq), out=sq).sum())
            trace.append(err if truth_sq == 0.0 else err / truth_sq)
        if rel <= config.tol or (target_nmse is not None and trace[-1] <= target_nmse):
            converged = True
            break
        settled = thetas[-STALL_WINDOW - 1 :]
        if config.tol > 0.0 and len(settled) > STALL_WINDOW:
            if max(settled) <= (1.0 + STALL_BAND) * min(settled):
                break
    return SolveReport(
        estimate=mu,
        iters_run=t,
        converged=converged,
        final_params=None,
        nmse_trace=None if trace is None else np.asarray(trace),
    )


class ChainDenoiser:
    """The chain denoiser and its state: the coordinate variances
    ``sigma_sq``, the ``r2p`` and ``l2p`` messages as (mean, var) pairs,
    the last channel variance ``theta`` (None before the first call), and
    the ``params`` the next call uses, which EM (when ``em``) refreshes
    after each call.  Starts from slab-variance uncertainty everywhere."""

    def __init__(self, n: int, m: int, params: PriorParams, em: bool = False):
        if n < 2:
            raise ValueError("need at least two coordinates")
        if not isinstance(em, bool):  # a truthy "no" would run EM
            raise ValueError(f"em must be True or False, not {em!r}")
        self.m = m
        self.em = em
        self.params = params
        s0 = params.sigma0_sq
        self.sigma_sq = np.full(n, s0)
        self.r2p = (np.zeros(n), np.full(n, s0))
        self.l2p = (np.zeros(n), np.full(n, s0))
        self.theta = None
        # the kernels' work blocks, reused by every call: eta_gamma's 28 rows of n, and
        # phi_zeta's 8 rows of n - 1 at its front, so a call allocates its outputs alone
        self._eta_work = np.empty((28, n))
        self._phi_work = self._eta_work.reshape(-1)[: 8 * (n - 1)].reshape(8, n - 1)

    def __call__(self, rho: np.ndarray, energy: float):
        params = self.params
        theta = energy if self.em else params.delta + float(self.sigma_sq.sum()) / self.m
        self.theta = theta = max(theta, VARIANCE_FLOOR)
        q, s0 = params.q, params.sigma0_sq
        # i's rightward message comes from neighbor i - 1, its leftward one from i + 1, and
        # an end lacking one stays (0, s0); one (4, n) block page-faults ~900 times at 16384
        r2p, l2p = np.empty((2, len(rho))), np.empty((2, len(rho)))
        r2p[:, 0] = l2p[:, -1] = 0.0, s0
        work = self._phi_work
        r2p[0, 1:], r2p[1, 1:] = phi_zeta(rho[:-1], theta, [a[:-1] for a in self.r2p], q, s0, work)
        l2p[0, :-1], l2p[1, :-1] = phi_zeta(rho[1:], theta, [a[1:] for a in self.l2p], q, s0, work)
        self.r2p, self.l2p = tuple(r2p), tuple(l2p)
        mu, self.sigma_sq = eta_gamma(rho, theta, self.r2p, self.l2p, q, s0, self._eta_work)
        mean_eta_prime = float(self.sigma_sq.sum()) / self.sigma_sq.size / theta
        if self.em:
            self.params = em_update(rho, theta, params)
        return mu, mean_eta_prime


def solve(
    op: LinearOperator,
    y: np.ndarray,
    params: PriorParams,
    config: SolverConfig = SolverConfig(),
    truth: np.ndarray | None = None,
    target_nmse: float | None = None,
    em: bool = False,
) -> SolveReport:
    """Run ``amp_loop`` with the chain denoiser; final_params is the last prior.

    With ``em`` the prior's (q, sigma0_sq) are learned from the given
    params on; ``default_em_params(op, y, delta)`` gives a scale-derived
    start.
    """
    if params is None:
        raise ValueError("params is required; default_em_params(op, y, delta) gives an EM start")
    denoiser = ChainDenoiser(op.n, op.m, params, em)
    report = amp_loop(op, y, denoiser, config, truth, target_nmse)
    return replace(report, final_params=denoiser.params)
