from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ssamp.solver as solver_module
from ssamp.kernels import eta_gamma, phi_zeta
from ssamp.operators import (
    column_sign_randomize,
    make_iid_gaussian,
    make_quasi_toeplitz,
    make_subsampled_dct,
)
from oracles import dense_matrix, solve_reference, tvamp_solve_reference
from ssamp.signals import SignalSpec, generate, measure, nmse
from ssamp.solver import (
    Q_MAX,
    Q_MIN,
    SIGMA0_SQ_MIN,
    THETA_FLOOR,
    ChainDenoiser,
    DivergenceError,
    PriorParams,
    SolverConfig,
    amp_loop,
    channel_variance,
    default_em_params,
    denoise,
    em_update,
    r2p_update,
    solve,
    update_residual,
)
from ssamp.tvamp import tvamp_solve

# frozen one-step values from the 50-digit reference implementation
# (tests/oracles.py em_oracle) for rho, theta, q, sigma0_sq below
EM_RHO = np.array([0.0, 1.2, 1.1, -0.3, -0.25, -0.3])
EM_THETA = 0.4
EM_Q, EM_S0 = 0.2, 1.5
EM_Q_NEW = 0.1685267878739696
EM_S0_NEW = 0.91929286264745691


def _easy_instance(n=200, m=100, k=10, op_seed=0, sig_seed=7, delta=0.0):
    op = make_iid_gaussian(m, n, op_seed)
    spec = SignalSpec(n=n, model="gaussian_pwc", sigma0=1.0, seed=sig_seed)
    x = generate(spec, k)
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

    def __call__(self, rho, r):
        self.calls.append((rho, r))
        return self.mu, self.onsager


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
    rho, r = rec.calls[0]
    np.testing.assert_array_equal(r, y)
    np.testing.assert_array_equal(rho, op.adjoint(y))


def test_amp_loop_residual_is_a_copy_of_y():
    op = make_iid_gaussian(3, 5, 0)
    y = np.array([1.0, 2.0, 3.0])
    rec = _Recorder(np.zeros(5))
    amp_loop(op, y, rec, SolverConfig(max_iters=1, tol=0.0))
    _, r = rec.calls[0]
    y[0] = 99.0
    assert r[0] == 1.0
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
    spec = SignalSpec(n=n, model="gaussian_pwc", sigma0=1.0, seed=5)
    x = generate(spec, k)
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
    rho, r = rec.calls[1]
    np.testing.assert_allclose(rho, dense.T @ r + mu, rtol=1e-12)
    st0 = _random_state(9, 2)
    params = PriorParams(q=0.1, sigma0_sq=1.0, delta=0.0)
    theta = channel_variance(st0.sigma_sq, r, 5, params, em=False)
    assert theta == pytest.approx(np.sum(st0.sigma_sq) / 5, rel=1e-14)


def test_pseudodata_zero_residual_returns_mu():
    # an exact fit with no Onsager term leaves r = 0, so the next rho is mu
    op = make_iid_gaussian(5, 9, 1)
    mu = np.random.default_rng(2).normal(size=9)
    rec = _Recorder(mu)
    amp_loop(op, op.apply(mu), rec, SolverConfig(max_iters=2, tol=0.0))
    rho, r = rec.calls[1]
    np.testing.assert_array_equal(r, np.zeros(5))
    np.testing.assert_array_equal(rho, mu)


def test_pseudodata_theta_modes():
    sigma_sq = np.zeros(4)
    r = np.array([3.0, 4.0])
    params = PriorParams(q=0.1, sigma0_sq=1.0, delta=1e-10)
    theta = channel_variance(sigma_sq, r, 2, params, em=False)
    assert theta == pytest.approx(1e-10, rel=1e-12)
    theta = channel_variance(sigma_sq, r, 2, params, em=True)
    assert theta == pytest.approx(12.5, rel=1e-14)


def test_pseudodata_theta_floor():
    params = PriorParams(q=0.1, sigma0_sq=1.0, delta=0.0)
    for em in (False, True):
        assert channel_variance(np.zeros(4), np.zeros(2), 2, params, em) == THETA_FLOOR


# ---------------------------------------------------------------- chain messages


def test_r2p_boundary_pinned_and_shifted():
    st0 = _random_state(5, 11)
    params = PriorParams(q=0.15, sigma0_sq=0.8)
    mean, var = r2p_update(st0.rho, st0.theta, *st0.r2p, params)
    assert mean[0] == 0.0
    assert var[0] == params.sigma0_sq
    # each interior entry equals the one-coordinate single-message posterior
    # of its left neighbor, fed by the previous iteration's message there
    for i in range(1, 5):
        at = slice(i - 1, i)
        msg = (st0.r2p[0][at], st0.r2p[1][at])
        (em,), (ev,) = phi_zeta(st0.rho[at], st0.theta, msg, params.q, params.sigma0_sq)
        assert mean[i] == pytest.approx(em, rel=1e-13)
        assert var[i] == pytest.approx(ev, rel=1e-13)


def test_r2p_zero_input_symmetry():
    n = 6
    params = PriorParams(q=0.2, sigma0_sq=1.0)
    den = ChainDenoiser(n, 2, params)
    mean, var = r2p_update(np.zeros(n), 0.5, *den.r2p, params)
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
        mu, mep = fwd(rho, r)
        mu_rev, mep_rev = rev(rho[::-1].copy(), r)
        np.testing.assert_allclose(mu_rev, mu[::-1], rtol=1e-14)
        assert mep_rev == pytest.approx(mep, rel=1e-14)
        for got, want in ((rev.l2p, fwd.r2p), (rev.r2p, fwd.l2p)):
            np.testing.assert_allclose(got[0], want[0][::-1], rtol=1e-14)
            np.testing.assert_allclose(got[1], want[1][::-1], rtol=1e-14)


def test_r2p_gaussian_filtering_collapse():
    # with no spike mass the chain update is plain Gaussian fusion
    st0 = _random_state(4, 3)
    params_q0 = PriorParams(q=0.0, sigma0_sq=0.9)  # clamps to Q_MIN
    mean, var = r2p_update(st0.rho, st0.theta, *st0.r2p, params_q0)
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
    den = ChainDenoiser(n, 2, params)
    mu, sigma_sq, mep = denoise(np.zeros(n), 0.5, den.r2p, den.l2p, params)
    np.testing.assert_array_equal(mu, np.zeros(n))
    assert np.all(sigma_sq > 0)
    assert mep == pytest.approx(np.mean(sigma_sq) / 0.5, rel=1e-15)


def test_denoise_matches_scalar_kernel_calls():
    st0 = _random_state(6, 17)
    params = PriorParams(q=0.25, sigma0_sq=0.6)
    mu, sigma_sq, _ = denoise(st0.rho, st0.theta, st0.r2p, st0.l2p, params)
    # one kernel call per coordinate, on 1-element slices
    for i in range(6):
        at = slice(i, i + 1)
        r2p = (st0.r2p[0][at], st0.r2p[1][at])
        l2p = (st0.l2p[0][at], st0.l2p[1][at])
        (g,), (v,) = eta_gamma(st0.rho[at], st0.theta, r2p, l2p, params.q, params.sigma0_sq)
        assert mu[i] == pytest.approx(g, rel=1e-13, abs=1e-15)
        assert sigma_sq[i] == pytest.approx(v, rel=1e-13)


def test_denoise_identity_for_uninformative_prior():
    st0 = _random_state(8, 9, theta=1e-6)
    big = 1e8
    r2p = (st0.r2p[0], np.full(8, big))
    l2p = (st0.l2p[0], np.full(8, big))
    params = PriorParams(q=0.0, sigma0_sq=big)
    mu, _, _ = denoise(st0.rho, st0.theta, r2p, l2p, params)
    np.testing.assert_allclose(mu, st0.rho, rtol=1e-3, atol=1e-3)


def test_denoise_mean_eta_prime_matches_finite_differences():
    st0 = _random_state(12, 23)
    params = PriorParams(q=0.2, sigma0_sq=1.1)
    _, sigma_sq, mep = denoise(st0.rho, st0.theta, st0.r2p, st0.l2p, params)
    h = 1e-6
    mu_up, _, _ = denoise(st0.rho + h, st0.theta, st0.r2p, st0.l2p, params)
    mu_dn, _, _ = denoise(st0.rho - h, st0.theta, st0.r2p, st0.l2p, params)
    fd = (mu_up - mu_dn) / (2 * h)
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


def test_residual_plain_when_no_onsager():
    op = make_iid_gaussian(5, 9, 1)
    mu = np.random.default_rng(2).normal(size=9)
    r0 = np.random.default_rng(5).normal(size=5)
    y = np.random.default_rng(6).normal(size=5)
    r = update_residual(op, y, mu, r0, 0.0, 1.0)
    np.testing.assert_allclose(r, y - op.apply(mu), rtol=1e-13)


def test_residual_algebraic_case():
    op = make_iid_gaussian(5, 9, 1)
    y = np.random.default_rng(6).normal(size=5)
    c = 0.3
    r = update_residual(op, y, np.zeros(9), y.copy(), c, 1.0)
    np.testing.assert_allclose(r, y * (1 + c * 9 / 5), rtol=1e-13)


def test_residual_damping_convex_combination():
    op = make_iid_gaussian(5, 9, 1)
    mu = np.random.default_rng(2).normal(size=9)
    r0 = np.random.default_rng(5).normal(size=5)
    y = np.random.default_rng(6).normal(size=5)
    full = update_residual(op, y, mu, r0, 0.2, 1.0)
    half = update_residual(op, y, mu, r0, 0.2, 0.5)
    np.testing.assert_allclose(half, 0.5 * r0 + 0.5 * full, rtol=1e-13)


# ---------------------------------------------------------------- EM


def test_em_update_matches_frozen_reference():
    params = PriorParams(q=EM_Q, sigma0_sq=EM_S0, delta=0.3)
    out = em_update(EM_RHO, EM_THETA, params)
    assert out.q == pytest.approx(EM_Q_NEW, rel=1e-12)
    assert out.sigma0_sq == pytest.approx(EM_S0_NEW, rel=1e-12)
    assert out.delta == 0.3


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
        theta = channel_variance(sigma_sq, r, op.m, want_params, em=True)
        r2p_new = r2p_update(rho, theta, *r2p, want_params)
        l2m, l2v = r2p_update(rho[::-1], theta, l2p[0][::-1], l2p[1][::-1], want_params)
        r2p, l2p = r2p_new, (l2m[::-1], l2v[::-1])
        mu, sigma_sq, mep = denoise(rho, theta, r2p, l2p, want_params)
        r = update_residual(op, y, mu, r, mep, beta)
        want_params = em_update(rho, theta, want_params)

    got = solve(op, y, params, SolverConfig(max_iters=4, tol=0.0), em=True)
    assert got.iters_run == 4
    np.testing.assert_array_equal(got.estimate, mu)
    assert got.final_params.q == want_params.q
    assert got.final_params.sigma0_sq == want_params.sigma0_sq
    denoiser = ChainDenoiser(op.n, op.m, params, em=True)
    amp_loop(op, y, denoiser, SolverConfig(max_iters=4, tol=0.0))
    np.testing.assert_array_equal(denoiser.sigma_sq, sigma_sq)
    for got, want in ((denoiser.r2p, r2p), (denoiser.l2p, l2p)):
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
    assert denoiser.theta == theta
    assert denoiser.params == want_params


def test_chain_denoiser_fixed_point_drift():
    # with EM theta is the residual energy: at rho = x with a zero
    # residual it sits at its floor, and the denoiser must hand x back
    op, x, y, params = _easy_instance()
    denoiser = ChainDenoiser(op.n, op.m, params, em=True)
    mu, _ = denoiser(x.copy(), np.zeros(op.m))
    assert nmse(x, mu) <= 1e-10


def test_variances_stay_positive():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(8, 40))
        m = max(2, int(n * rng.uniform(0.3, 0.9)))
        k = max(1, int(0.1 * m))
        op = make_iid_gaussian(m, n, int(rng.integers(1 << 30)))
        spec = SignalSpec(
            n=n, model="gaussian_pwc", sigma0=1.0,
            seed=int(rng.integers(1 << 30)),
        )
        x = generate(spec, min(k, n - 1))
        y = measure(op, x, 0.0, int(rng.integers(1 << 30)))
        params = PriorParams(q=k / (n - 1), sigma0_sq=1.0, delta=1e-12)
        denoiser = ChainDenoiser(n, m, params)
        calls = []

        def checked(rho, r):
            out = denoiser(rho, r)
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

    def recorded(rho, r):
        params = denoiser.params
        out = denoiser(rho, r)
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
    spec = SignalSpec(n=n, model="gaussian_pwc", sigma0=1.0, seed=1000)
    x = generate(spec, k)
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

        def rejecting(rho, r, exc=exc):
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

    def __call__(self, rho, r):
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
        spec = SignalSpec(n=n, model="gaussian_pwc", sigma0=1.0, seed=50 + case)
        x = generate(spec, k)
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
    spec = SignalSpec(n=256, model="gaussian_pwc", sigma0=1.0, seed=1000)
    x = generate(spec, 12)
    y = measure(op, x, 0.0, 0)
    params = PriorParams(q=12 / 255, sigma0_sq=1.0, delta=1e-12)
    config = SolverConfig(max_iters=2000, damping_beta=1.0)
    tv_op = make_iid_gaussian(64, 128, 0)
    spec = SignalSpec(n=128, model="gaussian_pwc", sigma0=1.0, seed=1000)
    tv_x = generate(spec, 6)
    tv_y = measure(tv_op, tv_x, 0.0, 0)
    tv = SolverConfig(max_iters=3000, tol=0.0)
    with np.errstate(all="ignore"):
        got = _outcome(lambda: solve(op, y, params, config, x))
        assert got == _outcome(lambda: solve_reference(op, y, params, config, x))
        tv_got = _outcome(lambda: tvamp_solve(tv_op, tv_y, 0.05, tv, tv_x))
        assert tv_got == _outcome(lambda: tvamp_solve_reference(tv_op, tv_y, 0.05, tv, tv_x))
    assert got == "solver state diverged at iteration 550"
    assert tv_got.startswith("solver state diverged at iteration ")
