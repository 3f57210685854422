import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ssamp.solver as solver_module
from ssamp.kernels import VARIANCE_FLOOR, eta_gamma, phi_zeta
from ssamp.operators import (
    column_sign_randomize,
    make_iid_gaussian,
    make_quasi_toeplitz,
    make_sparse_bernoulli,
    make_subsampled_dct,
)
from oracles import _r2p_reference, dense_matrix, em_oracle, solve_reference, tvamp_solve_reference
from ssamp.signals import generate, measure, nmse
from ssamp.solver import (
    Q_MAX,
    Q_MIN,
    SIGMA0_SQ_MIN,
    ChainDenoiser,
    DivergenceError,
    PriorParams,
    SolverConfig,
    amp_loop,
    default_em_params,
    em_posteriors,
    em_update,
    solve,
)
import ssamp.tvamp
from ssamp.tvamp import tv_divergence, tv_prox, tvamp_solve

# frozen one-step values from the 50-digit reference implementation
# (tests/oracles.py em_oracle) for rho, theta, q, sigma0_sq below
EM_RHO = np.array([0.0, 1.2, 1.1, -0.3, -0.25, -0.3])
EM_THETA = 0.4
EM_Q, EM_S0 = 0.2, 1.5
EM_Q_NEW = 0.1685267878739696
EM_S0_NEW = 0.91929286264745691


def _easy_instance(n=200, m=100, k=10, op_seed=0, sig_seed=7, delta=0.0):
    op = make_iid_gaussian(m, n, op_seed)
    x = generate(n, k, 1.0, sig_seed)
    y = measure(op, x, delta, 3)
    params = PriorParams(q=k / (n - 1), sigma0_sq=1.0, delta=delta)
    return op, x, y, params


def _random_state(n, seed, theta=0.7):
    """Coordinate variances, pseudodata, theta and (mean, var) messages."""
    rng = np.random.default_rng(seed)
    # the first and third draws are discarded; the fields keep their values per seed
    rng.normal(size=n)
    sigma_sq = np.exp(rng.uniform(-2, 1, n))
    rng.normal(size=n)
    rho = rng.normal(size=n) * 2
    r2p = (rng.normal(size=n), np.exp(rng.uniform(-2, 1, n)))
    l2p = (rng.normal(size=n), np.exp(rng.uniform(-2, 1, n)))
    return SimpleNamespace(sigma_sq=sigma_sq, rho=rho, theta=theta, r2p=r2p, l2p=l2p)


class _Recorder:
    """Denoiser for amp_loop that records its inputs and returns fixed outputs."""

    def __init__(self, mu, onsager=0.0):
        self.mu, self.onsager = mu, onsager
        self.calls = []

    def __call__(self, rho, energy):
        self.calls.append((rho, energy))
        return self.mu, self.onsager


def _loop_residual(op, y, mu, r, onsager, beta):
    """The residual amp_loop leaves after estimate mu, in the loop's own expression."""
    candidate = y - op.apply(mu) + r * (op.n / op.m) * onsager
    return candidate if beta == 1.0 else (1.0 - beta) * r + beta * candidate


def _energy(r):
    """The residual energy ||r||^2 / m, in the loop's own expression."""
    return float(np.square(r).sum()) / r.size


# ---------------------------------------------------------------- init


def test_chain_denoiser_start_and_first_pseudodata():
    params = PriorParams(q=0.1, sigma0_sq=1.0)
    den = ChainDenoiser(4, 2, params)
    assert np.array_equal(den.sigma_sq, np.ones(4))
    assert np.array_equal(den.r2p[0], np.zeros(4))
    assert np.array_equal(den.r2p[1], np.ones(4))
    assert np.array_equal(den.l2p[0], np.zeros(4))
    assert np.array_equal(den.l2p[1], np.ones(4))
    assert den.theta is None
    assert den.params is params
    # the loop starts from mu = 0 and r = y: the first pseudodata is H^T y
    op = make_iid_gaussian(2, 4, 0)
    y = np.array([1.0, 2.0])
    rec = _Recorder(np.zeros(4))
    rep = amp_loop(op, y, rec, SolverConfig(max_iters=1, tol=0.0))
    assert rep.iters_run == 1 and len(rec.calls) == 1
    rho, energy = rec.calls[0]
    assert energy == 2.5  # ||y||^2 / m
    np.testing.assert_array_equal(rho, op.adjoint(y))


def test_amp_loop_residual_is_a_copy_of_y():
    # the residual starts as a copy of y: no iteration writes into the caller's array
    op = make_iid_gaussian(3, 5, 0)
    y = np.array([1.0, 2.0, 3.0])
    for beta in (1.0, 0.5):
        rec = _Recorder(np.arange(5.0), onsager=0.4)
        amp_loop(op, y, rec, SolverConfig(max_iters=3, tol=0.0, damping_beta=beta))
        np.testing.assert_array_equal(y, [1.0, 2.0, 3.0])
    den = ChainDenoiser(5, 3, PriorParams(q=0.1, sigma0_sq=0.25), em=False)
    assert np.all(den.sigma_sq == 0.25)
    assert np.all(den.r2p[1] == 0.25) and np.all(den.l2p[1] == 0.25)


def test_chain_denoiser_and_amp_loop_reject_bad_sizes():
    p = PriorParams(q=0.1, sigma0_sq=1.0)
    with pytest.raises(ValueError, match="two coordinates"):
        ChainDenoiser(1, 1, p)
    with pytest.raises(ValueError):
        amp_loop(make_iid_gaussian(2, 4, 0), np.zeros(3), _Recorder(np.zeros(4)), SolverConfig())


# ---------------------------------------------------------------- params / config


def test_prior_params_clamping():
    assert PriorParams(q=0.0, sigma0_sq=1.0).q == Q_MIN
    assert PriorParams(q=1.0, sigma0_sq=1.0).q == Q_MAX
    assert PriorParams(q=0.3, sigma0_sq=0.0).sigma0_sq == SIGMA0_SQ_MIN
    with pytest.raises(ValueError):
        PriorParams(q=0.3, sigma0_sq=1.0, delta=-0.1)


def test_prior_params_reject_non_finite(monkeypatch):
    # the clamps must not let NaN or an infinity through
    for bad in (np.nan, np.inf, -np.inf):
        for kwargs in (
            {"q": bad, "sigma0_sq": 1.0},
            {"q": 0.1, "sigma0_sq": bad},
            {"q": 0.1, "sigma0_sq": 1.0, "delta": bad},
        ):
            with pytest.raises(ValueError, match="finite"):
                PriorParams(**kwargs)
    # an EM refresh that lands on a non-finite prior is reported as a divergence
    monkeypatch.setattr(
        solver_module, "em_update", lambda rho, theta, params: PriorParams(np.nan, 1.0)
    )
    op = make_iid_gaussian(20, 40, 0)
    with pytest.raises(DivergenceError, match="at iteration 1$"):
        solve(op, np.ones(20), PriorParams(q=0.1, sigma0_sq=1.0), em=True)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(damping_beta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping_beta=1.5)
    assert SolverConfig().damping_beta is None
    # bool is an int subclass: tol=True would count every step of relative size <= 1 as converged
    for name, bad in (("tol", True), ("tol", "0"), ("damping_beta", True), ("damping_beta", "1")):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            SolverConfig(**{name: bad})
    for bad in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=bad)
    assert SolverConfig(5, np.float64(0.0), np.float64(0.5)).damping_beta == 0.5


def test_public_scalars_take_numbers_only():
    """A bool, a string or an integer too large for a float in a public scalar is a
    ValueError that names it; a numpy scalar, or an int where a float goes, means what
    the plain number means.  target_nmse takes infinity, and so reads that integer as
    infinity.  ExperimentConfig, SolverConfig and tvamp_solve's lam have tables of their
    own."""
    op = make_iid_gaussian(8, 16, 0)
    x, rho = np.arange(16.0), np.random.default_rng(2).normal(size=16)

    def solve_to(target):
        return _outcome(lambda: solve(op, op.apply(x), PriorParams(0.1, 1.0), truth=x,
                                      target_nmse=target))

    table = [
        # (field, a call with the value, the plain value, the same value in other types)
        ("q", lambda v: PriorParams(v, 1.0), 0.0, (0, np.float64(0.0))),
        ("sigma0_sq", lambda v: PriorParams(0.1, v), 2.0, (2, np.float64(2.0))),
        ("delta", lambda v: PriorParams(0.1, 1.0, v), 1.0, (1, np.float64(1.0))),
        ("lam", lambda v: tv_prox(rho, v).tobytes(), 2.0, (2, np.float64(2.0))),
        ("n", lambda v: generate(v, 3, 1.0, 3).tobytes(), 16, (np.int64(16),)),
        ("k", lambda v: generate(16, v, 1.0, 3).tobytes(), 3, (np.int64(3),)),
        ("sigma0", lambda v: generate(16, 3, v, 3).tobytes(), 2.0, (2, np.float64(2.0))),
        ("delta", lambda v: measure(op, x, v, 4).tobytes(), 1.0, (1, np.float64(1.0))),
        ("target_nmse", solve_to, 1.0, (1, np.float64(1.0))),
        ("theta", lambda v: em_update(rho, v, PriorParams(0.1, 1.0)), 0.5, (np.float64(0.5),)),
        ("m", lambda v: make_iid_gaussian(v, 16, 5).apply(x).tobytes(), 8, (np.int64(8),)),
        ("n", lambda v: make_subsampled_dct(8, v, 5).apply(x).tobytes(), 16, (np.int64(16),)),
        ("band", lambda v: make_quasi_toeplitz(8, 16, v, 5).apply(x).tobytes(), 9, (np.int64(9),)),
        (
            "col_weight",
            lambda v: make_sparse_bernoulli(8, 16, v, 5).apply(x).tobytes(),
            3,
            (np.int64(3),),
        ),
    ]
    for name, call, plain, same in table:
        for bad in (True, str(plain)) + (() if name == "target_nmse" else (10**400,)):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                call(bad)
        for value in same:
            assert call(value) == call(plain)
    assert solve_to(10**400) == solve_to(np.inf)
    # solve's em is a flag: a truthy "no" used to run EM
    for bad in ("no", 1, None):
        with pytest.raises(ValueError, match="^em must be True or False"):
            solve(op, op.apply(x), PriorParams(0.1, 1.0), em=bad)


def test_both_solvers_damp_by_operator_default_beta():
    assert make_iid_gaussian(4, 8, 0).default_beta == 1.0
    assert make_subsampled_dct(4, 8, 0).default_beta == 1.0
    qt = make_quasi_toeplitz(4, 8, 8, 0)
    assert qt.default_beta == 0.5
    assert column_sign_randomize(qt, 1).default_beta == 0.5
    # solve and tvamp_solve damp by the operator's default_beta unless the
    # config sets one
    n, m, k = 128, 64, 6
    op = column_sign_randomize(make_quasi_toeplitz(m, n, n, 3), 4)
    x = generate(n, k, 1.0, 5)
    y = measure(op, x, 1e-6, 6)
    params = PriorParams(q=k / (n - 1), sigma0_sq=1.0, delta=1e-6)

    def run(beta):
        config = SolverConfig(max_iters=40, tol=0.0, damping_beta=beta)
        return _outcome(lambda: solve(op, y, params, config, x))

    def tv_run(beta):
        config = SolverConfig(max_iters=40, tol=0.0, damping_beta=beta)
        return _outcome(lambda: tvamp_solve(op, y, 1.0, config, x))

    assert run(None) == run(0.5)
    assert run(0.9) != run(0.5)
    assert tv_run(None) == tv_run(0.5)
    assert tv_run(1.0) != tv_run(0.5)


# ---------------------------------------------------------------- pseudodata


def test_pseudodata_matches_dense_formula():
    op = make_iid_gaussian(5, 9, 1)
    dense = dense_matrix(op)
    mu = np.random.default_rng(2).normal(size=9)
    y = np.random.default_rng(5).normal(size=5)
    rec = _Recorder(mu, onsager=0.3)
    amp_loop(op, y, rec, SolverConfig(max_iters=2, tol=0.0))
    rho, _ = rec.calls[1]
    r = y - dense @ mu + y * (9 / 5) * 0.3
    np.testing.assert_allclose(rho, dense.T @ r + mu, rtol=1e-12)


def test_pseudodata_zero_residual_returns_mu():
    # an exact fit with no Onsager term leaves r = 0, so the next rho is mu
    op = make_iid_gaussian(5, 9, 1)
    mu = np.random.default_rng(2).normal(size=9)
    rec = _Recorder(mu)
    amp_loop(op, op.apply(mu), rec, SolverConfig(max_iters=2, tol=0.0))
    rho, energy = rec.calls[1]
    assert energy == 0.0
    np.testing.assert_array_equal(rho, mu)


def _theta_after_call(sigma_sq, energy, params, em, m=2):
    """The channel variance a ChainDenoiser with coordinate variances sigma_sq uses."""
    den = ChainDenoiser(sigma_sq.size, m, params, em)
    den.sigma_sq = sigma_sq
    den(np.zeros(sigma_sq.size), energy)
    return den.theta


def test_pseudodata_theta_modes():
    # without EM: delta + sum(sigma_sq) / m, whatever the residual energy; with EM: the energy
    params = PriorParams(q=0.1, sigma0_sq=1.0, delta=1e-10)
    theta = _theta_after_call(np.zeros(4), 12.5, params, em=False)
    assert theta == pytest.approx(1e-10, rel=1e-12)
    assert _theta_after_call(np.zeros(4), 12.5, params, em=True) == 12.5
    sigma_sq = _random_state(9, 2).sigma_sq
    plain = PriorParams(q=0.1, sigma0_sq=1.0, delta=0.0)
    theta = _theta_after_call(sigma_sq, 3.0, plain, em=False, m=5)
    assert theta == pytest.approx(np.sum(sigma_sq) / 5, rel=1e-14)


def test_pseudodata_theta_floor():
    params = PriorParams(q=0.1, sigma0_sq=1.0, delta=0.0)
    for em in (False, True):
        assert _theta_after_call(np.zeros(4), 0.0, params, em) == VARIANCE_FLOOR


# ---------------------------------------------------------------- chain messages


def _chain_call(st0, params):
    """One EM chain-denoiser call on a random state at energy st0.theta."""
    den = ChainDenoiser(st0.rho.size, 2, params, em=True)
    den.r2p, den.l2p = st0.r2p, st0.l2p
    mu, mep = den(st0.rho, st0.theta)
    return den, mu, mep


def test_r2p_boundary_pinned_and_shifted():
    st0 = _random_state(5, 11)
    params = PriorParams(q=0.15, sigma0_sq=0.8)
    den, _, _ = _chain_call(st0, params)
    # rightward messages come from the left neighbor, leftward ones from the
    # right neighbor; the end without that neighbor stays pinned at (0, s0)
    for (mean, var), old, end, step in ((den.r2p, st0.r2p, 0, -1), (den.l2p, st0.l2p, 4, 1)):
        assert mean[end] == 0.0
        assert var[end] == params.sigma0_sq
        # each other entry equals the one-coordinate single-message posterior
        # of its neighbor, fed by the previous iteration's message there
        for i in range(5):
            if i == end:
                continue
            at = slice(i + step, i + step + 1)
            msg = (old[0][at], old[1][at])
            (em,), (ev,) = phi_zeta(st0.rho[at], st0.theta, msg, params.q, params.sigma0_sq)
            assert mean[i] == pytest.approx(em, rel=1e-13)
            assert var[i] == pytest.approx(ev, rel=1e-13)


def test_r2p_zero_input_symmetry():
    n = 6
    params = PriorParams(q=0.2, sigma0_sq=1.0)
    den = ChainDenoiser(n, 2, params, em=True)
    den(np.zeros(n), 0.5)
    mean, var = den.r2p
    np.testing.assert_array_equal(mean, np.zeros(n))
    assert np.all(var > 0)


def test_l2p_is_mirror_of_r2p():
    # the chain has no preferred direction: reversed pseudodata gives the
    # reversed estimate, with the two message directions swapped
    params = PriorParams(q=0.1, sigma0_sq=1.3)
    fwd = ChainDenoiser(7, 4, params, em=True)
    rev = ChainDenoiser(7, 4, params, em=True)
    rng = np.random.default_rng(21)
    for _ in range(3):
        rho, r = rng.normal(size=7) * 2, rng.normal(size=4)
        mu, mep = fwd(rho, _energy(r))
        mu_rev, mep_rev = rev(rho[::-1].copy(), _energy(r))
        np.testing.assert_allclose(mu_rev, mu[::-1], rtol=1e-14)
        assert mep_rev == pytest.approx(mep, rel=1e-14)
        for got, want in ((rev.l2p, fwd.r2p), (rev.r2p, fwd.l2p)):
            np.testing.assert_allclose(got[0], want[0][::-1], rtol=1e-14)
            np.testing.assert_allclose(got[1], want[1][::-1], rtol=1e-14)


def test_r2p_gaussian_filtering_collapse():
    # with no spike mass the chain update is plain Gaussian fusion
    st0 = _random_state(4, 3)
    params_q0 = PriorParams(q=0.0, sigma0_sq=0.9)  # clamps to Q_MIN
    den, _, _ = _chain_call(st0, params_q0)
    mean, var = den.r2p
    for i in range(1, 4):
        # no jump mass: fuse (rho, theta) with the spike (prev_mean, prev_var)
        va = st0.theta
        vb = st0.r2p[1][i - 1]
        expect_var = va * vb / (va + vb)
        expect_mean = expect_var * (st0.rho[i - 1] / va + st0.r2p[0][i - 1] / vb)
        assert mean[i] == pytest.approx(expect_mean, rel=1e-6, abs=1e-6)
        assert var[i] == pytest.approx(expect_var, rel=1e-6)


# ---------------------------------------------------------------- denoise


def test_denoise_zero_symmetry():
    n = 6
    params = PriorParams(q=0.2, sigma0_sq=1.0)
    den = ChainDenoiser(n, 2, params, em=True)
    mu, mep = den(np.zeros(n), 0.5)
    np.testing.assert_array_equal(mu, np.zeros(n))
    assert np.all(den.sigma_sq > 0)
    assert mep == pytest.approx(np.mean(den.sigma_sq) / 0.5, rel=1e-15)


def test_denoise_matches_scalar_kernel_calls():
    st0 = _random_state(6, 17)
    params = PriorParams(q=0.25, sigma0_sq=0.6)
    den, mu, _ = _chain_call(st0, params)
    # one kernel call per coordinate, on 1-element slices of the messages the call used
    for i in range(6):
        at = slice(i, i + 1)
        r2p = (den.r2p[0][at], den.r2p[1][at])
        l2p = (den.l2p[0][at], den.l2p[1][at])
        (g,), (v,) = eta_gamma(st0.rho[at], st0.theta, r2p, l2p, params.q, params.sigma0_sq)
        assert mu[i] == pytest.approx(g, rel=1e-13, abs=1e-15)
        assert den.sigma_sq[i] == pytest.approx(v, rel=1e-13)


def test_denoise_identity_for_uninformative_prior():
    st0 = _random_state(8, 9, theta=1e-6)
    big = 1e8
    r2p = (st0.r2p[0], np.full(8, big))
    l2p = (st0.l2p[0], np.full(8, big))
    mu, _ = eta_gamma(st0.rho, st0.theta, r2p, l2p, 0.0, big)
    np.testing.assert_allclose(mu, st0.rho, rtol=1e-3, atol=1e-3)


def test_denoise_mean_eta_prime_matches_finite_differences():
    # <eta'> of a chain call against the kernel's derivative at the messages the call used
    st0 = _random_state(12, 23)
    params = PriorParams(q=0.2, sigma0_sq=1.1)
    den, _, mep = _chain_call(st0, params)
    h = 1e-6
    args = (st0.theta, den.r2p, den.l2p, params.q, params.sigma0_sq)
    fd = (eta_gamma(st0.rho + h, *args)[0] - eta_gamma(st0.rho - h, *args)[0]) / (2 * h)
    assert mep == pytest.approx(float(np.mean(fd)), rel=1e-5)


def test_denoiser_linear_when_spike_absent():
    # jump probability 0 leaves each message a single Gaussian, so the
    # posterior is one Gaussian and the denoiser affine in the pseudodata
    rng = np.random.default_rng(4)
    rho1, rho2 = rng.normal(size=10), rng.normal(size=10)
    msg_a = (rng.normal(size=10), np.exp(rng.normal(size=10)))
    msg_b = (rng.normal(size=10), np.exp(rng.normal(size=10)))
    a = 0.37
    g_mix, _ = eta_gamma(a * rho1 + (1 - a) * rho2, 0.8, msg_a, msg_b, 0.0, 0.7)
    g1, _ = eta_gamma(rho1, 0.8, msg_a, msg_b, 0.0, 0.7)
    g2, _ = eta_gamma(rho2, 0.8, msg_a, msg_b, 0.0, 0.7)
    np.testing.assert_allclose(g_mix, a * g1 + (1 - a) * g2, atol=1e-10)


# ---------------------------------------------------------------- residual


def _second_call(op, y, mu, onsager, beta):
    """The (rho, energy) amp_loop hands a fixed-output denoiser at call 2."""
    rec = _Recorder(mu, onsager)
    amp_loop(op, y, rec, SolverConfig(max_iters=2, tol=0.0, damping_beta=beta))
    return rec.calls[1]


def test_residual_plain_when_no_onsager():
    op = make_iid_gaussian(5, 9, 1)
    mu = np.random.default_rng(2).normal(size=9)
    y = np.random.default_rng(6).normal(size=5)
    rho, energy = _second_call(op, y, mu, 0.0, 1.0)
    r = y - op.apply(mu)
    np.testing.assert_allclose(rho, op.adjoint(r) + mu, rtol=1e-13)
    assert energy == pytest.approx(np.sum(r**2) / 5, rel=1e-13)


def test_residual_algebraic_case():
    # the Onsager term adds c n / m times the previous residual, at call 1 y itself
    # (a zero estimate would end the run at call 1, so the plain run is subtracted)
    op = make_iid_gaussian(5, 9, 1)
    mu = np.random.default_rng(2).normal(size=9)
    y = np.random.default_rng(6).normal(size=5)
    c = 0.3
    rho, energy = _second_call(op, y, mu, c, 1.0)
    rho_plain, _ = _second_call(op, y, mu, 0.0, 1.0)
    onsager = op.adjoint(y * (c * 9 / 5))
    np.testing.assert_allclose(rho - rho_plain, onsager, rtol=1e-12, atol=1e-14)
    r = y - op.apply(mu) + y * (c * 9 / 5)
    assert energy == pytest.approx(np.sum(r**2) / 5, rel=1e-13)


def test_residual_damping_convex_combination():
    op = make_iid_gaussian(5, 9, 1)
    mu = np.random.default_rng(2).normal(size=9)
    y = np.random.default_rng(6).normal(size=5)
    rho_full, energy_full = _second_call(op, y, mu, 0.2, 1.0)
    rho_half, energy_half = _second_call(op, y, mu, 0.2, 0.5)
    # the residual behind call 2 starts from r = y
    full = y - op.apply(mu) + y * (9 / 5) * 0.2
    half = 0.5 * y + 0.5 * full
    np.testing.assert_allclose(rho_full, op.adjoint(full) + mu, rtol=1e-13)
    np.testing.assert_allclose(rho_half, op.adjoint(half) + mu, rtol=1e-13)
    assert energy_full == pytest.approx(np.sum(full**2) / 5, rel=1e-13)
    assert energy_half == pytest.approx(np.sum(half**2) / 5, rel=1e-13)


def test_amp_loop_hands_the_denoiser_the_residual_energy(monkeypatch):
    # call 1 gets ||y||^2 / m, call t the energy of the residual call t - 1 left, bit for bit
    op = make_iid_gaussian(5, 9, 1)
    y = np.random.default_rng(6).normal(size=5)
    for beta in (1.0, 0.5):
        calls = []

        def shrinking(rho, energy):
            mu = 0.5 * rho
            calls.append((rho, energy, mu))
            return mu, 0.2

        config = SolverConfig(max_iters=6, tol=0.0, damping_beta=beta)
        amp_loop(op, y, shrinking, config)
        assert len(calls) == 6
        assert calls[0][1] == float(np.sum(y**2)) / 5
        mu, r = np.zeros(9), y.copy()
        for rho, energy, mu_new in calls:
            np.testing.assert_array_equal(rho, op.adjoint(r) + mu)
            assert energy == _energy(r)
            mu, r = mu_new, _loop_residual(op, y, mu_new, r, 0.2, beta)

        # an EM chain denoiser's theta is that energy
        op_em, _, y_em, params = _easy_instance(n=120, m=60, k=6)
        den = ChainDenoiser(op_em.n, op_em.m, params, em=True)
        seen = []

        def chain(rho, energy):
            out = den(rho, energy)
            seen.append((energy, den.theta))
            return out

        amp_loop(op_em, y_em, chain, config)
        assert seen[0][0] == float(np.sum(y_em**2)) / op_em.m
        assert all(theta == energy for energy, theta in seen)

        # a TV run's threshold is lam * sqrt(energy)
        prox = []

        def recording(values, lam):
            out = tv_prox(values, lam)
            prox.append((lam, out))
            return out

        monkeypatch.setattr(ssamp.tvamp, "tv_prox", recording)
        tvamp_solve(op, y, 0.8, config)
        monkeypatch.undo()
        assert len(prox) == 6
        r = y.copy()
        for lam, out in prox:
            assert lam == 0.8 * np.sqrt(_energy(r))
            r = _loop_residual(op, y, out, r, tv_divergence(out), beta)


# ---------------------------------------------------------------- EM


def test_em_update_matches_frozen_reference():
    params = PriorParams(q=EM_Q, sigma0_sq=EM_S0, delta=0.3)
    out = em_update(EM_RHO, EM_THETA, params)
    assert out.q == pytest.approx(EM_Q_NEW, rel=1e-12)
    assert out.sigma0_sq == pytest.approx(EM_S0_NEW, rel=1e-12)
    assert out.delta == 0.3


@pytest.mark.parametrize(
    "theta, s0, q",
    [(1e-300, 1e308, Q_MIN), (1e-150, 1e150, 1e-6), (1e-3, 1.0, 0.3), (1.0, 1e6, Q_MAX)],
)
def test_em_responsibilities_on_both_tails_of_the_logistic(theta, s0, q):
    """pi = 1 / (1 + exp(L)) for log ratios L from -800 up to L(0), which
    reaches 718 and overflows exp in the first case, against 60 digits."""
    # L(s) = a - b s^2 for a jump s; pick s for evenly spaced targets L
    a = np.log1p(-q) - np.log(q) + 0.5 * (np.log(2.0 * theta + s0) - np.log(2.0 * theta))
    b = 1.0 / (4.0 * theta) - 1.0 / (2.0 * (2.0 * theta + s0))
    target = np.linspace(-800.0, a, 161)
    jumps = np.sqrt((a - target) / b)
    # interleaved zeros keep every difference exact: +jump, then -jump
    rho = np.zeros(2 * jumps.size + 1)
    rho[1::2] = jumps
    target = np.repeat(target, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pi, _, _ = em_posteriors(rho, theta, PriorParams(q, s0))
    want = np.array(em_oracle(rho, theta, q, s0, dps=60)[0])
    # pi inherits the rounding of L, up to a few ulps of its largest
    # intermediate, as relative error; the logistic adds at most 1e-14
    s = np.diff(rho)
    big = abs(np.log(q)) + 0.5 * (
        abs(np.log(2.0 * theta)) + abs(np.log(2.0 * theta + s0)) + s**2 / (2.0 * theta)
    )
    normal = want > 1e-300
    rel = np.abs(pi[normal] - want[normal]) / want[normal]
    assert np.all(rel <= 1e-14 + 4.0 * np.finfo(float).eps * big[normal])
    overflow = target > 712.0  # exp(L) is inf past L = 709.78
    assert np.all(pi[overflow] == 0.0)
    assert np.all(want[overflow] < 1e-309)
    assert np.all(pi[target < -50.0] == 1.0)


def test_em_responsibilities_when_theta_dominates():
    """With theta >> s0 the two Gaussian log-densities of a jump are large and
    nearly equal; their difference w s^2 / (2 t), taken in closed form, keeps
    the responsibilities within a few ulps of 50 digits (measured worst 4.4e-16
    over 3,000 draws, against up to 4.8e-13 for the difference of the two
    separately rounded log-densities)."""
    rng = np.random.default_rng(24)
    worst = 0.0
    for _ in range(150):
        theta = float(np.exp(rng.uniform(np.log(0.1), np.log(100.0))))
        s0 = float(np.exp(rng.uniform(np.log(1e-6), np.log(1e3))))
        q = rng.uniform(0.02, 0.9)
        # jumps up to 100 noise deviations, where each log-density is large
        rho = np.cumsum(rng.normal(size=8)) * np.sqrt(2.0 * theta) * 10 ** rng.uniform(0, 2)
        pi, _, _ = em_posteriors(rho, theta, PriorParams(q, s0))
        worst = max(worst, np.max(np.abs(pi - em_oracle(rho, theta, q, s0)[0])))
    assert worst <= 1e-15


def test_em_rejects_bad_theta_and_short_rho():
    params = PriorParams(0.1, 1.0)
    rho = np.linspace(0.0, 1.0, 5)
    for step in (em_posteriors, em_update):
        # 2 theta overflows above half the largest float
        for theta in (0.0, -1.0, np.nan, np.inf, 1e308):
            with pytest.raises(ValueError, match="^theta must be greater than 0.0 and at most"):
                step(rho, theta, params)
        for short in (np.zeros(1), np.zeros(0)):
            with pytest.raises(ValueError, match="^rho must hold at least two coordinates"):
                step(short, 0.5, params)


def test_em_flat_pseudodata_reduces_q():
    params = PriorParams(q=0.3, sigma0_sq=1.0)
    out = em_update(np.full(50, 2.5), 0.4, params)
    assert out.q < params.q


def test_em_keeps_parameters_clamped():
    # enormous jumps push q toward 1 and sigma0 up, but inside the clamps
    rho = np.concatenate([np.zeros(3), np.full(3, 1e6)])
    out = em_update(rho, 1e-6, PriorParams(q=0.5, sigma0_sq=1.0))
    assert Q_MIN <= out.q <= Q_MAX
    assert out.sigma0_sq >= SIGMA0_SQ_MIN
    assert np.isfinite(out.q) and np.isfinite(out.sigma0_sq)


@settings(max_examples=60, deadline=None)
@given(
    rho=arrays(np.float64, st.integers(2, 12), elements=st.floats(-1e6, 1e6)),
    theta=st.floats(1e-10, 1e10),
    q=st.floats(1e-6, 1 - 1e-6),
    s0=st.floats(1e-10, 1e6),
)
def test_em_never_nan(rho, theta, q, s0):
    out = em_update(rho, theta, PriorParams(q=q, sigma0_sq=s0))
    assert np.isfinite(out.q) and Q_MIN <= out.q <= Q_MAX
    assert np.isfinite(out.sigma0_sq) and out.sigma0_sq >= SIGMA0_SQ_MIN


def test_default_em_params_scale():
    op = make_iid_gaussian(30, 60, 0)
    y = np.random.default_rng(1).normal(size=30)
    p = default_em_params(op, y)
    assert p.q == 0.1
    expect = np.var(np.diff(op.adjoint(y))) / 2
    assert p.sigma0_sq == pytest.approx(expect, rel=1e-13)
    assert p.delta == 0.0


def test_em_learns_jump_rate_from_data():
    # statistical: the learned q lands within a factor of two of truth
    n, m, k = 400, 200, 20
    hits = 0
    for seed in range(6):
        op, x, y, _ = _easy_instance(n, m, k, op_seed=seed, sig_seed=100 + seed)
        rep = solve(op, y, default_em_params(op, y), SolverConfig(max_iters=60), em=True)
        q_true = k / (n - 1)
        if q_true / 2 <= rep.final_params.q <= q_true * 2:
            hits += 1
    assert hits >= 5


# ---------------------------------------------------------------- chain denoiser


def test_solve_composes_sub_operations():
    op, x, y, params = _easy_instance()
    beta = op.default_beta
    s0 = params.sigma0_sq
    sigma_sq = np.full(op.n, s0)
    r2p = (np.zeros(op.n), np.full(op.n, s0))
    l2p = (np.zeros(op.n), np.full(op.n, s0))
    mu, r = np.zeros(op.n), y.copy()
    want_params = params
    for _ in range(4):
        rho = op.adjoint(r) + mu
        theta = max(_energy(r), VARIANCE_FLOOR)
        # the messages as the solver once built them, the leftward ones on reversed views
        r2p_new = _r2p_reference(rho, theta, *r2p, want_params)
        l2m, l2v = _r2p_reference(rho[::-1], theta, l2p[0][::-1], l2p[1][::-1], want_params)
        r2p, l2p = r2p_new, (l2m[::-1], l2v[::-1])
        mu, sigma_sq = eta_gamma(rho, theta, r2p, l2p, want_params.q, want_params.sigma0_sq)
        mep = float(sigma_sq.sum()) / sigma_sq.size / theta
        r = _loop_residual(op, y, mu, r, mep, beta)
        want_params = em_update(rho, theta, want_params)

    got = solve(op, y, params, SolverConfig(max_iters=4, tol=0.0), em=True)
    assert got.iters_run == 4
    np.testing.assert_array_equal(got.estimate, mu)
    assert got.final_params.q == want_params.q
    assert got.final_params.sigma0_sq == want_params.sigma0_sq
    denoiser = ChainDenoiser(op.n, op.m, params, em=True)
    amp_loop(op, y, denoiser, SolverConfig(max_iters=4, tol=0.0))
    np.testing.assert_array_equal(denoiser.sigma_sq, sigma_sq)
    # the forward sweeps' message block holds the reversed-view messages' bytes
    for got, want in ((denoiser.r2p, r2p), (denoiser.l2p, l2p)):
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
    assert denoiser.theta == theta
    assert denoiser.params == want_params


def test_chain_denoiser_fixed_point_drift():
    # with EM theta is the residual energy: at rho = x with a zero
    # residual it sits at its floor, and the denoiser must hand x back
    op, x, y, params = _easy_instance()
    denoiser = ChainDenoiser(op.n, op.m, params, em=True)
    mu, _ = denoiser(x.copy(), 0.0)
    assert nmse(x, mu) <= 1e-10


def test_variances_stay_positive():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(8, 40))
        m = max(2, int(n * rng.uniform(0.3, 0.9)))
        k = max(1, int(0.1 * m))
        op = make_iid_gaussian(m, n, int(rng.integers(1 << 30)))
        x = generate(n, min(k, n - 1), 1.0, int(rng.integers(1 << 30)))
        y = measure(op, x, 0.0, int(rng.integers(1 << 30)))
        params = PriorParams(q=k / (n - 1), sigma0_sq=1.0, delta=1e-12)
        denoiser = ChainDenoiser(n, m, params)
        calls = []

        def checked(rho, energy):
            out = denoiser(rho, energy)
            assert np.all(denoiser.sigma_sq > 0)
            assert np.all(denoiser.r2p[1] > 0)
            assert np.all(denoiser.l2p[1] > 0)
            assert denoiser.theta > 0
            calls.append(1)
            return out

        amp_loop(op, y, checked, SolverConfig(max_iters=50, tol=0.0))
        assert calls


# ---------------------------------------------------------------- solve


def test_zero_measurements_converge_immediately():
    op = make_iid_gaussian(10, 20, 0)
    rep = solve(op, np.zeros(10), PriorParams(q=0.1, sigma0_sq=1.0))
    assert rep.iters_run == 1
    assert rep.converged
    np.testing.assert_array_equal(rep.estimate, np.zeros(20))


def test_solve_validates_shape_and_params():
    op = make_iid_gaussian(10, 20, 0)
    with pytest.raises(ValueError):
        solve(op, np.zeros(11), PriorParams(q=0.1, sigma0_sq=1.0))
    for bad in (np.nan, np.inf):
        y = np.zeros(10)
        y[3] = bad
        with pytest.raises(ValueError, match="finite"):
            solve(op, y, PriorParams(q=0.1, sigma0_sq=1.0))
    with pytest.raises(ValueError):
        solve(op, np.zeros(10), None)  # EM off: params required
    with pytest.raises(ValueError, match="default_em_params"):
        solve(op, np.zeros(10), None, em=True)  # EM on too
    # a target is checked against truth: without one, or with a NaN in it, no run could meet it
    p, x = PriorParams(q=0.1, sigma0_sq=1.0), np.zeros(20)
    with pytest.raises(ValueError, match="target_nmse"):
        solve(op, np.zeros(10), p, SolverConfig(max_iters=300), target_nmse=1e-2)
    for bad in (np.nan, -1e-2):
        with pytest.raises(ValueError, match="target_nmse"):
            solve(op, np.zeros(10), p, truth=x, target_nmse=bad)
    with pytest.raises(ValueError, match=r"truth must have shape \(20,\)"):
        solve(op, np.zeros(10), p, truth=np.zeros(19))
    for bad in (np.nan, np.inf):
        truth = x.copy()
        truth[5] = bad
        with pytest.raises(ValueError, match="truth must be finite"):
            solve(op, np.zeros(10), p, truth=truth)
    assert solve(op, np.zeros(10), p, truth=x, target_nmse=0.0).converged


def test_noiseless_recovery_small():
    op, x, y, params = _easy_instance(n=120, m=60, k=6)
    rep = solve(op, y, params, SolverConfig(max_iters=150), truth=x)
    assert rep.converged
    assert nmse(x, rep.estimate) <= 1e-8
    assert rep.nmse_trace.shape == (rep.iters_run,)


def test_em_recovery_small():
    op, x, y, _ = _easy_instance(n=120, m=60, k=6)
    rep = solve(op, y, default_em_params(op, y), SolverConfig(max_iters=200), truth=x, em=True)
    assert nmse(x, rep.estimate) <= 1e-6
    assert rep.final_params.q > 0


def test_target_nmse_early_stop():
    op, x, y, params = _easy_instance(n=120, m=60, k=6)
    full = solve(op, y, params, SolverConfig(max_iters=150), truth=x)
    early = solve(op, y, params, SolverConfig(max_iters=150), truth=x, target_nmse=1e-2)
    assert early.converged
    assert early.iters_run < full.iters_run
    assert early.nmse_trace[-1] <= 1e-2


def test_solve_trace_shapes():
    op, x, y, params = _easy_instance(n=120, m=60, k=6)
    rep = solve(op, y, params, SolverConfig(max_iters=30, tol=0.0), truth=x)
    assert rep.iters_run == 30
    assert not rep.converged
    assert rep.nmse_trace.shape == (30,)
    plain = solve(op, y, params, SolverConfig(max_iters=30, tol=0.0))
    assert plain.nmse_trace is None


def test_boundary_messages_track_em_slab_variance():
    # the pinned end messages carry the current (learned) slab variance
    op, x, y, _ = _easy_instance(n=120, m=60, k=6)
    params0 = default_em_params(op, y)
    denoiser = ChainDenoiser(op.n, op.m, params0, em=True)
    used = []  # (prior a call used, messages after that call)

    def recorded(rho, energy):
        params = denoiser.params
        out = denoiser(rho, energy)
        used.append((params, denoiser.r2p, denoiser.l2p))
        return out

    amp_loop(op, y, recorded, SolverConfig(max_iters=6, tol=0.0))
    assert len(used) == 6
    params, r2p, l2p = used[5]
    assert params.sigma0_sq != params0.sigma0_sq
    assert r2p[1][0] == params.sigma0_sq
    assert l2p[1][-1] == params.sigma0_sq
    rep = solve(op, y, params0, SolverConfig(max_iters=40), em=True)
    assert np.isfinite(rep.estimate).all()


def test_divergence_raises_named_iteration():
    # full-band shifted-row ensemble without damping is a known unstable
    # combination; the solver must fail loudly, not return garbage
    n, m, k = 1024, 256, 26
    op = column_sign_randomize(make_quasi_toeplitz(m, n, n, 0), 5000)
    x = generate(n, k, 1.0, 1000)
    y = measure(op, x, 0.0, 0)
    params = PriorParams(q=k / (n - 1), sigma0_sq=1.0, delta=1e-12)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError, match=r"iteration \d+"):
            solve(op, y, params, SolverConfig(max_iters=2000, damping_beta=1.0))


def test_nmse_trend_improves_on_easy_points():
    at5, at30 = [], []
    for seed in range(20):
        op, x, y, params = _easy_instance(op_seed=seed, sig_seed=300 + seed)
        rep = solve(op, y, params, SolverConfig(max_iters=30, tol=0.0), truth=x)
        at5.append(rep.nmse_trace[4])
        at30.append(rep.nmse_trace[29])
    assert np.median(at30) < np.median(at5)


def test_amp_loop_divergence_rule():
    op = make_iid_gaussian(5, 9, 1)
    y = np.random.default_rng(6).normal(size=5)
    config = SolverConfig(max_iters=10, tol=0.0)
    for exc in (ValueError, FloatingPointError):
        calls = []

        def rejecting(rho, energy, exc=exc):
            calls.append(1)
            if len(calls) == 3:
                raise exc("rejected")
            return rho * 0.5, 0.1

        with pytest.raises(DivergenceError, match="at iteration 3$") as info:
            amp_loop(op, y, rejecting, config)
        assert info.value.iteration == 3
    for bad in (np.nan, np.inf):
        # a non-finite estimate, then a finite estimate with a non-finite Onsager term
        mu = np.zeros(9)
        mu[4] = bad
        with pytest.raises(DivergenceError, match="at iteration 1$"):
            amp_loop(op, y, _Recorder(mu), config)
        with pytest.raises(DivergenceError, match="at iteration 1$"):
            amp_loop(op, y, _Recorder(np.zeros(9), onsager=bad), config)


class _Settling:
    """Denoiser for amp_loop whose estimates leave a residual of a chosen scale.

    With ``y = H u`` and no Onsager term, the estimate (1 - s_t) u leaves
    the residual s_t y, so the residual energy is s_t^2 ||y||^2 / m.
    ``scales(t)`` gives s_t for iteration t = 1, 2, ...
    """

    def __init__(self, u, scales):
        self.u, self.scales, self.t = u, scales, 0

    def __call__(self, rho, energy):
        self.t += 1
        return (1.0 - self.scales(self.t)) * self.u, 0.0


def _halve_then_wobble(t0):
    """s_t halves each iteration up to t0, then alternates 0.1% about s_t0:
    the residual energy first falls fourfold per iteration, then sits in a
    band of about 0.4%, and the estimate never stops moving."""
    return lambda t: 0.5**t if t <= t0 else 0.5**t0 * (1.0 + 1e-3 * (-1) ** t)


def test_amp_loop_stops_a_settled_residual():
    op = make_iid_gaussian(40, 80, 3)
    u = np.random.default_rng(4).normal(size=80)
    for t0 in (1, 6, 12):
        for scale in (1.0, 1e-8):  # the rule is relative: scaling y changes nothing
            y = op.apply(scale * u)
            rep = amp_loop(op, y, _Settling(scale * u, _halve_then_wobble(t0)), SolverConfig(100))
            # energies t0 ... t0 + STALL_WINDOW are the first STALL_WINDOW + 1 in the band
            assert (rep.iters_run, rep.converged) == (t0 + solver_module.STALL_WINDOW, False)
        # free runs (tol = 0) never stall
        free = SolverConfig(100, tol=0.0)
        rep = amp_loop(op, op.apply(u), _Settling(u, _halve_then_wobble(t0)), free)
        assert (rep.iters_run, rep.converged) == (100, False)


def test_amp_loop_runs_on_while_the_residual_decays():
    # residual energy falling 2% per iteration: 18% over the window, far outside the band,
    # while the relative estimate change stays above tol
    op = make_iid_gaussian(40, 80, 3)
    u = np.random.default_rng(4).normal(size=80)
    rep = amp_loop(op, op.apply(u), _Settling(u, lambda t: 0.99**t), SolverConfig(300))
    assert (rep.iters_run, rep.converged) == (300, False)


def test_amp_loop_zero_estimate_converges_only_on_a_zero_step():
    # from mu = 0 a tiny first estimate is a step of relative size infinity, not convergence
    op = make_iid_gaussian(5, 9, 1)
    y = np.random.default_rng(6).normal(size=5)
    rep = amp_loop(op, y, _Recorder(np.full(9, 1e-10)), SolverConfig(max_iters=10))
    assert (rep.iters_run, rep.converged) == (2, True)  # then the step is exactly zero
    rep = amp_loop(op, y, _Recorder(np.zeros(9)), SolverConfig(max_iters=10))
    assert (rep.iters_run, rep.converged) == (1, True)
    # an oracle run on a signal scaled by 1e-8 used to stop at iteration 1, "converged" at NMSE 0.46
    op, x, _, _ = _easy_instance(n=200, m=100, k=10, op_seed=6, sig_seed=13)
    c = 1e-8
    rep = solve(op, op.apply(c * x), PriorParams(10 / 199, c**2), SolverConfig(500), truth=c * x)
    assert rep.iters_run > 1
    assert rep.nmse_trace[-1] < 0.1


def _outcome(run):
    """Everything a solve hands back, as bytes, or its divergence message."""
    try:
        rep = run()
    except DivergenceError as exc:
        return str(exc)
    trace = None if rep.nmse_trace is None else rep.nmse_trace.tobytes()
    return rep.estimate.tobytes(), rep.iters_run, rep.converged, trace, rep.final_params


def _matches_frozen(run, reference, config):
    """The outcome of ``run(config)``, checked against the frozen loop.

    The frozen loops have no stall rule, so a run that stopped unconverged
    before max_iters is compared with the frozen loop cut at that
    iteration.  Returns the outcome and whether the run stalled.
    """
    got = _outcome(lambda: run(config))
    stalled = not isinstance(got, str) and not got[2] and got[1] < config.max_iters
    if stalled:
        config = replace(config, max_iters=got[1])
    assert got == _outcome(lambda: reference(config))
    return got, stalled


def test_amp_loop_matches_frozen_loops_byte_for_byte():
    n, m, k = 256, 128, 13
    ops = (
        make_iid_gaussian(m, n, 40),
        column_sign_randomize(make_subsampled_dct(m, n, 41), 42),
        column_sign_randomize(make_quasi_toeplitz(m, n, n, 43), 44),
    )
    outcomes, stalls = [], []
    for case, op in enumerate(ops):
        x = generate(n, k, 1.0, 50 + case)
        # a zero truth makes the trace the plain squared norm of the estimate
        inputs = ((0.0, x, 1e-8), (1e-4, x, None), (1e-4, None, None), (1e-4, np.zeros(n), None))
        for delta, truth, target in inputs:
            y = measure(op, x, delta, 60 + case)
            config = SolverConfig(max_iters=60)
            runs = [
                (PriorParams(k / (n - 1), 1.0, delta), False),
                (default_em_params(op, y, delta), True),
            ]
            for params, em in runs:
                got, stalled = _matches_frozen(
                    lambda c: solve(op, y, params, c, truth, target, em),
                    lambda c: solve_reference(op, y, params, c, truth, target, em),
                    config,
                )
                outcomes.append(got)
                stalls.append(stalled)
            tv = SolverConfig(max_iters=60, damping_beta=0.7 if case else 1.0)
            got, stalled = _matches_frozen(
                lambda c: tvamp_solve(op, y, 1.0, c, truth, target),
                lambda c: tvamp_solve_reference(op, y, 1.0, c, truth, target),
                tv,
            )
            outcomes.append(got)
            stalls.append(stalled)
    assert all(not isinstance(o, str) for o in outcomes)
    assert any(o[2] for o in outcomes) and any(not o[2] for o in outcomes)
    assert any(stalls)

    # diverging runs: undamped full-band quasi-Toeplitz rows, and a TV threshold far too small
    op = column_sign_randomize(make_quasi_toeplitz(128, 256, 256, 0), 5000)
    x = generate(256, 12, 1.0, 1000)
    y = measure(op, x, 0.0, 0)
    params = PriorParams(q=12 / 255, sigma0_sq=1.0, delta=1e-12)
    config = SolverConfig(max_iters=2000, damping_beta=1.0)
    tv_op = make_iid_gaussian(64, 128, 0)
    tv_x = generate(128, 6, 1.0, 1000)
    tv_y = measure(tv_op, tv_x, 0.0, 0)
    tv = SolverConfig(max_iters=3000, tol=0.0)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: solve(op, y, params, config, x))
        assert got == _outcome(lambda: solve_reference(op, y, params, config, x))
        tv_got = _outcome(lambda: tvamp_solve(tv_op, tv_y, 0.05, tv, tv_x))
        assert tv_got == _outcome(lambda: tvamp_solve_reference(tv_op, tv_y, 0.05, tv, tv_x))
    assert got == "solver state diverged at iteration 550"
    assert tv_got.startswith("solver state diverged at iteration ")
