"""Sum-product AMP solver for piecewise-constant signals.

One iteration, in order:

1. pseudodata   rho = H^T r + mu, with shared channel variance theta
                from the running coordinate variances (or the residual
                norm, see ``theta_mode``)
2. rightward message update along the difference chain (Jacobi: reads the
   previous iteration's messages)
3. leftward message update, mirrored
4. coordinate denoising through the spike-and-slab mixture posterior
5. residual update with the Onsager correction (N/M) <eta'>, optionally
   damped by beta
6. optional expectation-maximization refresh of (q, sigma0_sq)

Messages at the two chain ends have no upstream neighbor and stay pinned
at mean zero and the slab variance.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.special

from .kernels import SsfMessage, eta_gamma, log_gauss, phi_zeta
from .operators import LinearOperator
from .signals import nmse as _nmse

__all__ = [
    "PriorParams",
    "SolverConfig",
    "SolverState",
    "SolveReport",
    "DivergenceError",
    "Q_MIN",
    "Q_MAX",
    "SIGMA0_SQ_MIN",
    "THETA_FLOOR",
    "init_state",
    "update_pseudodata",
    "r2p_update",
    "l2p_update",
    "denoise",
    "update_residual",
    "em_posteriors",
    "em_update",
    "default_em_params",
    "resolve_beta",
    "iterate",
    "solve",
]

Q_MIN = 1e-8
Q_MAX = 1.0 - 1e-8
SIGMA0_SQ_MIN = 1e-12
THETA_FLOOR = 1e-12

THETA_MODES = ("variance_sum", "residual_norm")


class DivergenceError(RuntimeError):
    """Raised when the state picks up NaN or Inf during iteration."""


@dataclass(frozen=True)
class PriorParams:
    """Jump probability, slab variance, and measurement-noise variance.

    q is clamped into [Q_MIN, Q_MAX] and sigma0_sq up to SIGMA0_SQ_MIN on
    construction, so EM fixed points can never stick to degenerate values.
    delta is never learned.
    """

    q: float
    sigma0_sq: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "q", float(min(max(self.q, Q_MIN), Q_MAX)))
        object.__setattr__(self, "sigma0_sq", float(max(self.sigma0_sq, SIGMA0_SQ_MIN)))
        object.__setattr__(self, "delta", float(self.delta))
        if self.delta < 0.0:
            raise ValueError("delta must be nonnegative")


@dataclass(frozen=True)
class SolverConfig:
    max_iters: int = 2000
    tol: float = 1e-14
    damping_beta: float | None = None  # None: the operator's default_beta
    em_enabled: bool = False
    theta_mode: str = "variance_sum"

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol < 0.0:
            raise ValueError("tol must be nonnegative")
        if self.damping_beta is not None and not 0.0 < self.damping_beta <= 1.0:
            raise ValueError("damping_beta must lie in (0, 1]")
        if self.theta_mode not in THETA_MODES:
            raise ValueError(f"unknown theta_mode {self.theta_mode!r}")


@dataclass(frozen=True)
class SolverState:
    mu: np.ndarray
    sigma_sq: np.ndarray
    r: np.ndarray
    rho: np.ndarray
    theta: float
    r2p_mean: np.ndarray
    r2p_var: np.ndarray
    l2p_mean: np.ndarray
    l2p_var: np.ndarray
    iteration: int


@dataclass(frozen=True)
class SolveReport:
    estimate: np.ndarray
    iters_run: int
    converged: bool
    final_params: PriorParams | None
    nmse_trace: np.ndarray | None = None


def init_state(n: int, m: int, y: np.ndarray, params: PriorParams) -> SolverState:
    """Zero estimate, slab-variance uncertainty, residual seeded with y."""
    if n < 2:
        raise ValueError("need at least two coordinates")
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise ValueError(f"y must have shape ({m},)")
    s0 = params.sigma0_sq
    return SolverState(
        mu=np.zeros(n),
        sigma_sq=np.full(n, s0),
        r=y.copy(),
        rho=np.zeros(n),
        theta=max(s0, THETA_FLOOR),
        r2p_mean=np.zeros(n),
        r2p_var=np.full(n, s0),
        l2p_mean=np.zeros(n),
        l2p_var=np.full(n, s0),
        iteration=0,
    )


def update_pseudodata(
    state: SolverState, op: LinearOperator, params: PriorParams, config: SolverConfig
):
    """rho = H^T r + mu and the shared channel variance theta."""
    rho = op.adjoint(state.r) + state.mu
    if config.theta_mode == "variance_sum":
        theta = params.delta + float(np.sum(state.sigma_sq)) / op.m
    else:
        theta = float(state.r @ state.r) / op.m
    return rho, max(theta, THETA_FLOOR)


def _message(mean: np.ndarray, var: np.ndarray, params: PriorParams) -> SsfMessage:
    """Chain message with per-coordinate (mean, var) and the prior's jump weights."""
    return SsfMessage(
        mean=mean,
        variance=var,
        spike_weight=1.0 - params.q,
        slab_extra_variance=params.sigma0_sq,
    )


def r2p_update(state: SolverState, params: PriorParams):
    """Rightward chain messages from the current pseudodata.

    Coordinate i receives the single-message posterior of coordinate i-1,
    which fuses rho[i-1] with the previous iteration's rightward message
    there.  The first coordinate keeps the pinned boundary message.
    """
    msg = _message(state.r2p_mean[:-1], state.r2p_var[:-1], params)
    mean, var = phi_zeta(state.rho[:-1], state.theta, msg)
    return np.concatenate(([0.0], mean)), np.concatenate(([params.sigma0_sq], var))


def l2p_update(state: SolverState, params: PriorParams):
    """Leftward chain messages: r2p_update run on the reversed chain."""
    mirrored = replace(
        state,
        rho=state.rho[::-1],
        r2p_mean=state.l2p_mean[::-1],
        r2p_var=state.l2p_var[::-1],
    )
    mean, var = r2p_update(mirrored, params)
    return mean[::-1], var[::-1]


def denoise(state: SolverState, params: PriorParams):
    """Coordinate posterior moments and the mean denoiser derivative."""
    r2p = _message(state.r2p_mean, state.r2p_var, params)
    l2p = _message(state.l2p_mean, state.l2p_var, params)
    mu, sigma_sq = eta_gamma(state.rho, state.theta, r2p, l2p)
    mean_eta_prime = float(np.mean(sigma_sq)) / state.theta
    return mu, sigma_sq, mean_eta_prime


def update_residual(
    state: SolverState,
    op: LinearOperator,
    y: np.ndarray,
    mean_eta_prime: float,
    beta: float,
) -> np.ndarray:
    """Onsager-corrected residual, damped toward the previous residual."""
    candidate = y - op.apply(state.mu) + state.r * (op.n / op.m) * mean_eta_prime
    return (1.0 - beta) * state.r + beta * candidate


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


def default_em_params(op: LinearOperator, y: np.ndarray) -> PriorParams:
    """Scale-robust starting point for EM runs.

    q starts at 0.1; the slab variance at half the sample variance of the
    first matched-filter pseudodata differences, which tracks the signal's
    jump energy scale without knowing q.
    """
    rho0 = op.adjoint(np.asarray(y, dtype=float))
    s2 = float(np.var(np.diff(rho0))) / 2.0
    return PriorParams(q=0.1, sigma0_sq=max(s2, SIGMA0_SQ_MIN), delta=0.0)


def resolve_beta(config: SolverConfig, op: LinearOperator) -> float:
    """The configured damping, or else the operator's default_beta."""
    if config.damping_beta is not None:
        return config.damping_beta
    return op.default_beta


def iterate(
    state: SolverState,
    op: LinearOperator,
    y: np.ndarray,
    params: PriorParams,
    config: SolverConfig,
):
    """One full sweep; returns the next state and possibly updated params."""
    rho, theta = update_pseudodata(state, op, params, config)
    st = replace(state, rho=rho, theta=theta)
    r2m, r2v = r2p_update(st, params)
    l2m, l2v = l2p_update(st, params)
    st = replace(st, r2p_mean=r2m, r2p_var=r2v, l2p_mean=l2m, l2p_var=l2v)
    mu, sigma_sq, mean_eta_prime = denoise(st, params)
    st = replace(st, mu=mu, sigma_sq=sigma_sq)
    r = update_residual(st, op, y, mean_eta_prime, resolve_beta(config, op))
    st = replace(st, r=r, iteration=state.iteration + 1)
    if config.em_enabled:
        params = em_update(st.rho, st.theta, params)
    return st, params


def _state_finite(state: SolverState) -> bool:
    return bool(
        np.all(np.isfinite(state.mu))
        and np.all(np.isfinite(state.sigma_sq))
        and np.all(np.isfinite(state.r))
    )


def solve(
    op: LinearOperator,
    y: np.ndarray,
    params: PriorParams | None,
    config: SolverConfig | None = None,
    truth: np.ndarray | None = None,
    target_nmse: float | None = None,
) -> SolveReport:
    """Run the iteration to tolerance or max_iters.

    Stops when the relative estimate change ||mu_new - mu||^2 / ||mu||^2
    drops to config.tol (using ||mu_new||^2 alone while the estimate is
    still zero), or earlier when an nmse target against ``truth`` is met.
    params may be None only with EM enabled, in which case the
    scale-derived defaults start the run.
    """
    config = config or SolverConfig()
    y = np.asarray(y, dtype=float)
    if y.shape != (op.m,):
        raise ValueError(f"y must have shape ({op.m},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y must be finite")
    if params is None:
        if not config.em_enabled:
            raise ValueError("params may be omitted only when EM is enabled")
        params = default_em_params(op, y)
    state = init_state(op.n, op.m, y, params)

    trace = [] if truth is not None else None
    converged = False
    for _ in range(config.max_iters):
        prev_mu = state.mu
        try:
            state, params = iterate(state, op, y, params, config)
        except (ValueError, FloatingPointError) as exc:
            # overflow inside an iteration surfaces as a NaN-variance
            # rejection from the message kernels
            raise DivergenceError(
                f"solver state diverged at iteration {state.iteration + 1}"
            ) from exc
        if not _state_finite(state):
            raise DivergenceError(
                f"solver state diverged at iteration {state.iteration}"
            )
        step = float(np.sum((state.mu - prev_mu) ** 2))
        base = float(np.sum(prev_mu**2))
        rel = step / base if base > 0.0 else float(np.sum(state.mu**2))
        if trace is not None:
            trace.append(_nmse(truth, state.mu))
        if target_nmse is not None and trace is not None and trace[-1] <= target_nmse:
            converged = True
            break
        if rel <= config.tol:
            converged = True
            break
    return SolveReport(
        estimate=state.mu,
        iters_run=state.iteration,
        converged=converged,
        final_params=params,
        nmse_trace=None if trace is None else np.asarray(trace),
    )
