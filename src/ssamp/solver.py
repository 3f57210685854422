"""Sum-product AMP solver for piecewise-constant signals.

``amp_loop`` is the AMP iteration, shared with the TV baseline, which
passes another denoiser: pseudodata rho = H^T r + mu, the denoiser, and
the residual with the Onsager correction (N/M) <eta'>, damped by beta.

The chain denoiser (``ChainDenoiser``) holds the chain state as plain
attributes (coordinate variances ``sigma_sq``, the ``r2p``/``l2p``
messages as (mean, var) pairs, the last ``theta`` and the prior
``params``) and does per call, in order:

1. the shared channel variance theta, from the running coordinate
   variances (or the residual norm, see ``theta_mode``)
2. rightward message update along the difference chain (Jacobi: reads the
   previous iteration's messages)
3. leftward message update: the rightward update on reversed views
4. coordinate denoising through the spike-and-slab mixture posterior
5. optional expectation-maximization refresh of (q, sigma0_sq), used from
   the next call on

Messages at the two chain ends have no upstream neighbor and stay pinned
at mean zero and the slab variance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.special

from .kernels import eta_gamma, log_gauss, phi_zeta
from .operators import LinearOperator
from .signals import nmse as _nmse

__all__ = [
    "PriorParams",
    "SolverConfig",
    "SolveReport",
    "DivergenceError",
    "Q_MIN",
    "Q_MAX",
    "SIGMA0_SQ_MIN",
    "THETA_FLOOR",
    "check_loop_settings",
    "channel_variance",
    "r2p_update",
    "denoise",
    "update_residual",
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
THETA_FLOOR = 1e-12

THETA_MODES = ("variance_sum", "residual_norm")


class DivergenceError(RuntimeError):
    """Raised when an AMP iteration's denoiser rejects its input or the
    estimate or residual picks up NaN or Inf."""


@dataclass(frozen=True)
class PriorParams:
    """Jump probability, slab variance, and measurement-noise variance.

    All three must be finite.  q is clamped into [Q_MIN, Q_MAX] and
    sigma0_sq up to SIGMA0_SQ_MIN on construction, so EM fixed points can
    never stick to degenerate values.  delta is never learned.
    """

    q: float
    sigma0_sq: float
    delta: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite((self.q, self.sigma0_sq, self.delta))):
            raise ValueError("q, sigma0_sq and delta must be finite")
        object.__setattr__(self, "q", float(min(max(self.q, Q_MIN), Q_MAX)))
        object.__setattr__(self, "sigma0_sq", float(max(self.sigma0_sq, SIGMA0_SQ_MIN)))
        object.__setattr__(self, "delta", float(self.delta))
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")


def check_loop_settings(max_iters: int, tol: float, damping_beta: float):
    """Reject AMP loop settings no run can use."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    if not 0.0 < damping_beta <= 1.0:
        raise ValueError("damping_beta must lie in (0, 1]")


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000
    tol: float = 1e-14
    damping_beta: float | None = None  # None: the operator's default_beta
    em_enabled: bool = False
    theta_mode: str = "variance_sum"

    def __post_init__(self):
        beta = 1.0 if self.damping_beta is None else self.damping_beta
        check_loop_settings(self.max_iters, self.tol, beta)
        if self.theta_mode not in THETA_MODES:
            raise ValueError(f"unknown theta_mode {self.theta_mode!r}")


@dataclass(frozen=True)
class SolveReport:
    estimate: np.ndarray
    iters_run: int
    converged: bool
    final_params: PriorParams | None
    nmse_trace: np.ndarray | None = None


def channel_variance(
    sigma_sq: np.ndarray, r: np.ndarray, m: int, params: PriorParams, theta_mode: str
) -> float:
    """The shared pseudodata channel variance theta, floored at THETA_FLOOR."""
    if theta_mode == "variance_sum":
        theta = params.delta + float(np.sum(sigma_sq)) / m
    else:
        theta = float(r @ r) / m
    return max(theta, THETA_FLOOR)


def r2p_update(
    rho: np.ndarray, theta: float, mean: np.ndarray, var: np.ndarray, params: PriorParams
):
    """Rightward chain messages from pseudodata rho and the previous (mean, var).

    Coordinate i receives the single-message posterior of coordinate i-1,
    which fuses rho[i-1] with the previous iteration's rightward message
    there.  The first coordinate keeps the pinned boundary message.  On
    reversed views of rho and the leftward messages it gives the leftward
    messages, reversed.
    """
    mean, var = phi_zeta(rho[:-1], theta, (mean[:-1], var[:-1]), params.q, params.sigma0_sq)
    return np.concatenate(([0.0], mean)), np.concatenate(([params.sigma0_sq], var))


def denoise(rho: np.ndarray, theta: float, r2p, l2p, params: PriorParams):
    """Coordinate posterior moments and the mean denoiser derivative, from
    the (mean, var) message pairs r2p and l2p."""
    mu, sigma_sq = eta_gamma(rho, theta, r2p, l2p, params.q, params.sigma0_sq)
    mean_eta_prime = float(np.mean(sigma_sq)) / theta
    return mu, sigma_sq, mean_eta_prime


def update_residual(
    op: LinearOperator,
    y: np.ndarray,
    mu: np.ndarray,
    r: np.ndarray,
    onsager: float,
    beta: float,
) -> np.ndarray:
    """Onsager-corrected residual of estimate mu, damped toward the previous r."""
    candidate = y - op.apply(mu) + r * (op.n / op.m) * onsager
    return (1.0 - beta) * r + beta * candidate


def em_posteriors(rho: np.ndarray, theta: float, params: PriorParams):
    """Jump responsibilities and slab posterior moments of the pseudodata.

    Each difference of the pseudodata is a jump observed through noise of
    variance 2 theta.  Returns (pi, gamma_d, nu): the posterior jump
    probability per difference, the posterior jump mean per difference,
    and the shared posterior jump variance.
    """
    s = np.diff(np.asarray(rho, dtype=float))
    q, s0 = params.q, params.sigma0_sq
    log_ratio = (
        np.log1p(-q)
        - np.log(q)
        + log_gauss(0.0, s, 2.0 * theta)
        - log_gauss(s, 0.0, 2.0 * theta + s0)
    )
    # pi = 1 / (1 + exp(log_ratio)), stable on both tails
    pi = scipy.special.expit(-log_ratio)
    gamma_d = s / (2.0 * theta / s0 + 1.0)
    nu = 1.0 / (1.0 / s0 + 1.0 / (2.0 * theta))
    return pi, gamma_d, nu


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
    return PriorParams(q=0.1, sigma0_sq=max(s2, SIGMA0_SQ_MIN), delta=delta)


def amp_loop(
    op: LinearOperator,
    y: np.ndarray,
    denoiser,
    max_iters: int,
    tol: float,
    beta: float,
    truth: np.ndarray | None = None,
    target_nmse: float | None = None,
) -> SolveReport:
    """Run AMP around ``denoiser(rho, r) -> (mu, onsager)`` from mu = 0, r = y.

    Stops when the relative estimate change ||mu_new - mu||^2 / ||mu||^2
    drops to tol (using ||mu_new||^2 alone while the estimate is still
    zero), or earlier when an nmse target against ``truth`` is met.
    Raises DivergenceError naming the iteration when the denoiser rejects
    its input or mu or r stop being finite.  final_params is left None.
    """
    check_loop_settings(max_iters, tol, beta)
    y = np.asarray(y, dtype=float)
    if y.shape != (op.m,):
        raise ValueError(f"y must have shape ({op.m},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    mu = np.zeros(op.n)
    r = y.copy()
    trace = [] if truth is not None else None
    converged = False
    for t in range(1, max_iters + 1):
        rho = op.adjoint(r) + mu
        try:
            mu_new, onsager = denoiser(rho, r)
        except (ValueError, FloatingPointError) as exc:
            # overflow inside an iteration surfaces as a rejected denoiser input
            raise DivergenceError(f"solver state diverged at iteration {t}") from exc
        r = update_residual(op, y, mu_new, r, onsager, beta)
        if not (np.all(np.isfinite(mu_new)) and np.all(np.isfinite(r))):
            raise DivergenceError(f"solver state diverged at iteration {t}")
        step = float(np.sum((mu_new - mu) ** 2))
        base = float(np.sum(mu**2))
        rel = step / base if base > 0.0 else float(np.sum(mu_new**2))
        mu = mu_new
        if trace is not None:
            trace.append(_nmse(truth, mu))
            if target_nmse is not None and trace[-1] <= target_nmse:
                converged = True
                break
        if rel <= tol:
            converged = True
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
    the ``params`` the next call uses, which EM (when enabled) refreshes
    after each call.  Starts from slab-variance uncertainty everywhere."""

    def __init__(self, n: int, m: int, params: PriorParams, config: SolverConfig):
        if n < 2:
            raise ValueError("need at least two coordinates")
        self.m = m
        self.config = config
        self.params = params
        s0 = params.sigma0_sq
        self.sigma_sq = np.full(n, s0)
        self.r2p = (np.zeros(n), np.full(n, s0))
        self.l2p = (np.zeros(n), np.full(n, s0))
        self.theta = None

    def __call__(self, rho: np.ndarray, r: np.ndarray):
        params = self.params
        theta = channel_variance(self.sigma_sq, r, self.m, params, self.config.theta_mode)
        self.theta = theta
        r2p = r2p_update(rho, theta, *self.r2p, params)
        l2m, l2v = r2p_update(rho[::-1], theta, self.l2p[0][::-1], self.l2p[1][::-1], params)
        self.r2p, self.l2p = r2p, (l2m[::-1], l2v[::-1])
        mu, self.sigma_sq, mean_eta_prime = denoise(rho, theta, self.r2p, self.l2p, params)
        if self.config.em_enabled:
            self.params = em_update(rho, theta, params)
        return mu, mean_eta_prime


def solve(
    op: LinearOperator,
    y: np.ndarray,
    params: PriorParams,
    config: SolverConfig | None = None,
    truth: np.ndarray | None = None,
    target_nmse: float | None = None,
) -> SolveReport:
    """Run ``amp_loop`` with the chain denoiser; final_params is the last prior.

    EM runs start from the given params too; ``default_em_params(op, y,
    delta)`` gives a scale-derived start.  The damping is the operator's
    default_beta unless the config sets one.
    """
    if params is None:
        raise ValueError("params is required; default_em_params(op, y, delta) gives an EM start")
    config = config or SolverConfig()
    beta = op.default_beta if config.damping_beta is None else config.damping_beta
    denoiser = ChainDenoiser(op.n, op.m, params, config)
    report = amp_loop(op, y, denoiser, config.max_iters, config.tol, beta, truth, target_nmse)
    return replace(report, final_params=denoiser.params)
