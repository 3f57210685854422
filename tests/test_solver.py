import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ssamp.kernels import SsfMessage, eta_gamma, phi_zeta
from ssamp.operators import (
    column_sign_randomize,
    make_iid_gaussian,
    make_quasi_toeplitz,
    make_subsampled_dct,
)
from ssamp.signals import SignalSpec, generate, measure, nmse
from ssamp.solver import (
    Q_MAX,
    Q_MIN,
    SIGMA0_SQ_MIN,
    THETA_FLOOR,
    DivergenceError,
    PriorParams,
    SolverConfig,
    SolverState,
    default_em_params,
    denoise,
    em_update,
    init_state,
    iterate,
    l2p_update,
    r2p_update,
    resolve_beta,
    solve,
    update_pseudodata,
    update_residual,
)

# frozen one-step values from the 50-digit reference implementation
# (tests/oracles.py em_oracle) for rho, theta, q, sigma0_sq below
EM_RHO = np.array([0.0, 1.2, 1.1, -0.3, -0.25, -0.3])
EM_THETA = 0.4
EM_Q, EM_S0 = 0.2, 1.5
EM_Q_NEW = 0.1685267878739696
EM_S0_NEW = 0.91929286264745691


def _easy_instance(n=200, m=100, k=10, op_seed=0, sig_seed=7, delta=0.0):
    op = make_iid_gaussian(m, n, op_seed)
    spec = SignalSpec(n=n, model="gaussian_pwc", q=k / (n - 1), sigma0=1.0, seed=sig_seed)
    x, _ = generate(spec, force_k=k)
    y = measure(op, x, delta, 3)
    params = PriorParams(q=k / (n - 1), sigma0_sq=1.0, delta=delta)
    return op, x, y, params


def _random_state(n, seed, theta=0.7):
    rng = np.random.default_rng(seed)
    return SolverState(
        mu=rng.normal(size=n),
        sigma_sq=np.exp(rng.uniform(-2, 1, n)),
        r=rng.normal(size=n),  # unused by the chain updates
        rho=rng.normal(size=n) * 2,
        theta=theta,
        r2p_mean=rng.normal(size=n),
        r2p_var=np.exp(rng.uniform(-2, 1, n)),
        l2p_mean=rng.normal(size=n),
        l2p_var=np.exp(rng.uniform(-2, 1, n)),
        iteration=3,
    )


# ---------------------------------------------------------------- init


def test_init_state_fields():
    y = np.array([1.0, 2.0])
    st0 = init_state(4, 2, y, PriorParams(q=0.1, sigma0_sq=1.0))
    assert np.array_equal(st0.mu, np.zeros(4))
    assert np.array_equal(st0.sigma_sq, np.ones(4))
    assert np.array_equal(st0.r, y)
    assert np.array_equal(st0.r2p_mean, np.zeros(4))
    assert np.array_equal(st0.r2p_var, np.ones(4))
    assert np.array_equal(st0.l2p_mean, np.zeros(4))
    assert np.array_equal(st0.l2p_var, np.ones(4))
    assert st0.iteration == 0


def test_init_state_residual_is_a_copy():
    y = np.array([1.0, 2.0, 3.0])
    st0 = init_state(5, 3, y, PriorParams(q=0.1, sigma0_sq=0.25))
    y[0] = 99.0
    assert st0.r[0] == 1.0
    assert np.all(st0.sigma_sq == 0.25)


def test_init_state_validation():
    p = PriorParams(q=0.1, sigma0_sq=1.0)
    with pytest.raises(ValueError):
        init_state(1, 2, np.zeros(2), p)
    with pytest.raises(ValueError):
        init_state(4, 2, np.zeros(3), p)


# ---------------------------------------------------------------- params / config


def test_prior_params_clamping():
    assert PriorParams(q=0.0, sigma0_sq=1.0).q == Q_MIN
    assert PriorParams(q=1.0, sigma0_sq=1.0).q == Q_MAX
    assert PriorParams(q=0.3, sigma0_sq=0.0).sigma0_sq == SIGMA0_SQ_MIN
    with pytest.raises(ValueError):
        PriorParams(q=0.3, sigma0_sq=1.0, delta=-0.1)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(damping_beta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping_beta=1.5)
    with pytest.raises(ValueError):
        SolverConfig(theta_mode="nope")


def test_resolve_beta():
    cfg = SolverConfig()
    assert resolve_beta(cfg, make_iid_gaussian(4, 8, 0)) == 1.0
    assert resolve_beta(cfg, make_subsampled_dct(4, 8, 0)) == 1.0
    qt = make_quasi_toeplitz(4, 8, 8, 0)
    assert resolve_beta(cfg, qt) == 0.5
    assert resolve_beta(cfg, column_sign_randomize(qt, 1)) == 0.5
    assert resolve_beta(SolverConfig(damping_beta=0.9), qt) == 0.9


# ---------------------------------------------------------------- pseudodata


def test_pseudodata_matches_dense_formula():
    op = make_iid_gaussian(5, 9, 1)
    dense = op.to_dense()
    st0 = _random_state(9, 2)
    params = PriorParams(q=0.1, sigma0_sq=1.0, delta=0.0)
    st0 = dataclasses.replace(st0, r=np.random.default_rng(5).normal(size=5))
    rho, theta = update_pseudodata(st0, op, params, SolverConfig())
    np.testing.assert_allclose(rho, dense.T @ st0.r + st0.mu, rtol=1e-12)
    assert theta == pytest.approx(np.sum(st0.sigma_sq) / 5, rel=1e-14)


def test_pseudodata_zero_residual_returns_mu():
    op = make_iid_gaussian(5, 9, 1)
    st0 = _random_state(9, 2)
    st0 = dataclasses.replace(st0, r=np.zeros(5))
    rho, _ = update_pseudodata(st0, op, PriorParams(q=0.1, sigma0_sq=1.0), SolverConfig())
    np.testing.assert_array_equal(rho, st0.mu)


def test_pseudodata_theta_modes():
    op = make_iid_gaussian(2, 4, 1)
    st0 = _random_state(4, 2)
    st0 = dataclasses.replace(st0, sigma_sq=np.zeros(4), r=np.array([3.0, 4.0]))
    params = PriorParams(q=0.1, sigma0_sq=1.0, delta=1e-10)
    _, theta = update_pseudodata(st0, op, params, SolverConfig(theta_mode="variance_sum"))
    assert theta == pytest.approx(1e-10, rel=1e-12)
    _, theta = update_pseudodata(st0, op, params, SolverConfig(theta_mode="residual_norm"))
    assert theta == pytest.approx(12.5, rel=1e-14)


def test_pseudodata_theta_floor():
    op = make_iid_gaussian(2, 4, 1)
    st0 = _random_state(4, 2)
    st0 = dataclasses.replace(st0, sigma_sq=np.zeros(4), r=np.zeros(2))
    params = PriorParams(q=0.1, sigma0_sq=1.0, delta=0.0)
    for mode in ("variance_sum", "residual_norm"):
        _, theta = update_pseudodata(st0, op, params, SolverConfig(theta_mode=mode))
        assert theta == THETA_FLOOR


# ---------------------------------------------------------------- chain messages


def test_r2p_boundary_pinned_and_shifted():
    st0 = _random_state(5, 11)
    params = PriorParams(q=0.15, sigma0_sq=0.8)
    mean, var = r2p_update(st0, params)
    assert mean[0] == 0.0
    assert var[0] == params.sigma0_sq
    # each interior entry equals the scalar single-message posterior of
    # its left neighbor, fed by the previous iteration's message there
    for i in range(1, 5):
        msg = SsfMessage(
            mean=st0.r2p_mean[i - 1],
            variance=st0.r2p_var[i - 1],
            spike_weight=1.0 - params.q,
            slab_extra_variance=params.sigma0_sq,
        )
        em, ev = phi_zeta(st0.rho[i - 1], st0.theta, msg)
        assert mean[i] == pytest.approx(em, rel=1e-13)
        assert var[i] == pytest.approx(ev, rel=1e-13)


def test_r2p_zero_input_symmetry():
    n = 6
    params = PriorParams(q=0.2, sigma0_sq=1.0)
    st0 = init_state(n, 3, np.zeros(3), params)
    st0 = dataclasses.replace(st0, rho=np.zeros(n), theta=0.5)
    mean, var = r2p_update(st0, params)
    np.testing.assert_array_equal(mean, np.zeros(n))
    assert np.all(var > 0)


def test_l2p_is_mirror_of_r2p():
    st0 = _random_state(7, 21)
    params = PriorParams(q=0.1, sigma0_sq=1.3)
    mirrored = dataclasses.replace(
        st0,
        rho=st0.rho[::-1].copy(),
        r2p_mean=st0.l2p_mean[::-1].copy(),
        r2p_var=st0.l2p_var[::-1].copy(),
    )
    m_rev, v_rev = r2p_update(mirrored, params)
    m_l2p, v_l2p = l2p_update(st0, params)
    np.testing.assert_allclose(m_l2p, m_rev[::-1], rtol=1e-14)
    np.testing.assert_allclose(v_l2p, v_rev[::-1], rtol=1e-14)


def test_r2p_gaussian_filtering_collapse():
    # with no spike mass the chain update is plain Gaussian fusion
    st0 = _random_state(4, 3)
    params_q0 = PriorParams(q=0.0, sigma0_sq=0.9)  # clamps to Q_MIN
    mean, var = r2p_update(st0, params_q0)
    for i in range(1, 4):
        # no jump mass: fuse (rho, theta) with the spike (prev_mean, prev_var)
        va = st0.theta
        vb = st0.r2p_var[i - 1]
        expect_var = va * vb / (va + vb)
        expect_mean = expect_var * (st0.rho[i - 1] / va + st0.r2p_mean[i - 1] / vb)
        assert mean[i] == pytest.approx(expect_mean, rel=1e-6, abs=1e-6)
        assert var[i] == pytest.approx(expect_var, rel=1e-6)


# ---------------------------------------------------------------- denoise


def test_denoise_zero_symmetry():
    n = 6
    params = PriorParams(q=0.2, sigma0_sq=1.0)
    st0 = init_state(n, 3, np.zeros(3), params)
    st0 = dataclasses.replace(st0, rho=np.zeros(n), theta=0.5)
    mu, sigma_sq, mep = denoise(st0, params)
    np.testing.assert_array_equal(mu, np.zeros(n))
    assert np.all(sigma_sq > 0)
    assert mep == pytest.approx(np.mean(sigma_sq) / st0.theta, rel=1e-15)


def test_denoise_matches_scalar_kernel_calls():
    st0 = _random_state(6, 17)
    params = PriorParams(q=0.25, sigma0_sq=0.6)
    mu, sigma_sq, _ = denoise(st0, params)
    for i in range(6):
        r2p = SsfMessage(st0.r2p_mean[i], st0.r2p_var[i], 1 - params.q, params.sigma0_sq)
        l2p = SsfMessage(st0.l2p_mean[i], st0.l2p_var[i], 1 - params.q, params.sigma0_sq)
        g, v = eta_gamma(st0.rho[i], st0.theta, r2p, l2p)
        assert mu[i] == pytest.approx(g, rel=1e-13, abs=1e-15)
        assert sigma_sq[i] == pytest.approx(v, rel=1e-13)


def test_denoise_identity_for_uninformative_prior():
    st0 = _random_state(8, 9, theta=1e-6)
    big = 1e8
    st0 = dataclasses.replace(
        st0,
        r2p_var=np.full(8, big),
        l2p_var=np.full(8, big),
    )
    params = PriorParams(q=0.0, sigma0_sq=big)
    mu, _, _ = denoise(st0, params)
    np.testing.assert_allclose(mu, st0.rho, rtol=1e-3, atol=1e-3)


def test_denoise_mean_eta_prime_matches_finite_differences():
    st0 = _random_state(12, 23)
    params = PriorParams(q=0.2, sigma0_sq=1.1)
    _, sigma_sq, mep = denoise(st0, params)
    h = 1e-6
    up = dataclasses.replace(st0, rho=st0.rho + h)
    dn = dataclasses.replace(st0, rho=st0.rho - h)
    mu_up, _, _ = denoise(up, params)
    mu_dn, _, _ = denoise(dn, params)
    fd = (mu_up - mu_dn) / (2 * h)
    assert mep == pytest.approx(float(np.mean(fd)), rel=1e-5)


def test_denoiser_linear_when_spike_absent():
    # pure-slab messages make the posterior a single Gaussian, so the
    # denoiser must be affine in the pseudodata
    rng = np.random.default_rng(4)
    rho1, rho2 = rng.normal(size=10), rng.normal(size=10)
    msg_a = SsfMessage(rng.normal(size=10), np.exp(rng.normal(size=10)), 1.0, 0.7)
    msg_b = SsfMessage(rng.normal(size=10), np.exp(rng.normal(size=10)), 1.0, 0.7)
    a = 0.37
    g_mix, _ = eta_gamma(a * rho1 + (1 - a) * rho2, 0.8, msg_a, msg_b)
    g1, _ = eta_gamma(rho1, 0.8, msg_a, msg_b)
    g2, _ = eta_gamma(rho2, 0.8, msg_a, msg_b)
    np.testing.assert_allclose(g_mix, a * g1 + (1 - a) * g2, atol=1e-10)


# ---------------------------------------------------------------- residual


def test_residual_plain_when_no_onsager():
    op = make_iid_gaussian(5, 9, 1)
    st0 = _random_state(9, 2)
    st0 = dataclasses.replace(st0, r=np.random.default_rng(5).normal(size=5))
    y = np.random.default_rng(6).normal(size=5)
    r = update_residual(st0, op, y, 0.0, 1.0)
    np.testing.assert_allclose(r, y - op.apply(st0.mu), rtol=1e-13)


def test_residual_algebraic_case():
    op = make_iid_gaussian(5, 9, 1)
    y = np.random.default_rng(6).normal(size=5)
    st0 = _random_state(9, 2)
    st0 = dataclasses.replace(st0, mu=np.zeros(9), r=y.copy())
    c = 0.3
    r = update_residual(st0, op, y, c, 1.0)
    np.testing.assert_allclose(r, y * (1 + c * 9 / 5), rtol=1e-13)


def test_residual_damping_convex_combination():
    op = make_iid_gaussian(5, 9, 1)
    st0 = _random_state(9, 2)
    st0 = dataclasses.replace(st0, r=np.random.default_rng(5).normal(size=5))
    y = np.random.default_rng(6).normal(size=5)
    full = update_residual(st0, op, y, 0.2, 1.0)
    half = update_residual(st0, op, y, 0.2, 0.5)
    np.testing.assert_allclose(half, 0.5 * st0.r + 0.5 * full, rtol=1e-13)


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
        rep = solve(
            op, y, None,
            SolverConfig(max_iters=60, em_enabled=True, theta_mode="residual_norm"),
        )
        q_true = k / (n - 1)
        if q_true / 2 <= rep.final_params.q <= q_true * 2:
            hits += 1
    assert hits >= 5


# ---------------------------------------------------------------- iterate


def test_iterate_composes_sub_operations():
    op, x, y, params = _easy_instance()
    config = SolverConfig(em_enabled=True, theta_mode="variance_sum")
    state = init_state(op.n, op.m, y, params)
    # drive a couple of steps so the state is generic
    for _ in range(3):
        state, params = iterate(state, op, y, params, config)

    got_state, got_params = iterate(state, op, y, params, config)

    rho, theta = update_pseudodata(state, op, params, config)
    st = dataclasses.replace(state, rho=rho, theta=theta)
    r2m, r2v = r2p_update(st, params)
    l2m, l2v = l2p_update(st, params)
    st = dataclasses.replace(st, r2p_mean=r2m, r2p_var=r2v, l2p_mean=l2m, l2p_var=l2v)
    mu, sigma_sq, mep = denoise(st, params)
    st = dataclasses.replace(st, mu=mu, sigma_sq=sigma_sq)
    r = update_residual(st, op, y, mep, resolve_beta(config, op))
    st = dataclasses.replace(st, r=r, iteration=state.iteration + 1)
    want_params = em_update(st.rho, st.theta, params)

    assert got_state.iteration == st.iteration
    for field in ("mu", "sigma_sq", "r", "rho", "r2p_mean", "r2p_var", "l2p_mean", "l2p_var"):
        np.testing.assert_array_equal(getattr(got_state, field), getattr(st, field))
    assert got_state.theta == st.theta
    assert got_params.q == want_params.q
    assert got_params.sigma0_sq == want_params.sigma0_sq


def test_iterate_fixed_point_drift():
    op, x, y, params = _easy_instance()
    config = SolverConfig(theta_mode="residual_norm")
    state = init_state(op.n, op.m, y, params)
    state = dataclasses.replace(state, mu=x.copy(), r=np.zeros(op.m))
    state, _ = iterate(state, op, y, params, config)
    assert nmse(x, state.mu) <= 1e-10


def test_theta_modes_agree_on_easy_instance():
    # both channel-variance estimates settle on the same noise-limited
    # floor; compare once both have reached it
    op, x, y, params = _easy_instance(n=200, m=100, k=5, delta=1e-4)
    traces = []
    for mode in ("variance_sum", "residual_norm"):
        rep = solve(op, y, params, SolverConfig(max_iters=20, tol=0.0, theta_mode=mode), truth=x)
        traces.append(rep.nmse_trace)
    db = [10 * np.log10(t[19]) for t in traces]
    assert abs(db[0] - db[1]) <= 1.0


def test_variances_stay_positive():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n = int(rng.integers(8, 40))
        m = max(2, int(n * rng.uniform(0.3, 0.9)))
        k = max(1, int(0.1 * m))
        op = make_iid_gaussian(m, n, int(rng.integers(1 << 30)))
        spec = SignalSpec(
            n=n, model="gaussian_pwc", q=k / (n - 1), sigma0=1.0,
            seed=int(rng.integers(1 << 30)),
        )
        x, _ = generate(spec, force_k=min(k, n - 1))
        y = measure(op, x, 0.0, int(rng.integers(1 << 30)))
        params = PriorParams(q=k / (n - 1), sigma0_sq=1.0, delta=1e-12)
        state = init_state(n, m, y, params)
        config = SolverConfig()
        for _ in range(50):
            state, params = iterate(state, op, y, params, config)
            assert np.all(state.sigma_sq > 0)
            assert np.all(state.r2p_var > 0)
            assert np.all(state.l2p_var > 0)
            assert state.theta > 0


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


def test_noiseless_recovery_small():
    op, x, y, params = _easy_instance(n=120, m=60, k=6)
    rep = solve(op, y, params, SolverConfig(max_iters=150), truth=x)
    assert rep.converged
    assert nmse(x, rep.estimate) <= 1e-8
    assert rep.nmse_trace.shape == (rep.iters_run,)


def test_em_recovery_small():
    op, x, y, _ = _easy_instance(n=120, m=60, k=6)
    rep = solve(
        op, y, None,
        SolverConfig(max_iters=200, em_enabled=True, theta_mode="residual_norm"),
        truth=x,
    )
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
    cfg = SolverConfig(max_iters=40, em_enabled=True, theta_mode="residual_norm")
    params0 = default_em_params(op, y)
    state = init_state(op.n, op.m, y, params0)
    params = params0
    for _ in range(5):
        state, params = iterate(state, op, y, params, cfg)
    assert params.sigma0_sq != params0.sigma0_sq
    tracked, _ = iterate(state, op, y, params, cfg)
    assert tracked.r2p_var[0] == params.sigma0_sq
    assert tracked.l2p_var[-1] == params.sigma0_sq
    rep = solve(op, y, None, cfg)
    assert np.isfinite(rep.estimate).all()


def test_divergence_raises_named_iteration():
    # full-band shifted-row ensemble without damping is a known unstable
    # combination; the solver must fail loudly, not return garbage
    n, m, k = 1024, 256, 26
    op = column_sign_randomize(make_quasi_toeplitz(m, n, n, 0), 5000)
    spec = SignalSpec(n=n, model="gaussian_pwc", q=k / (n - 1), sigma0=1.0, seed=1000)
    x, _ = generate(spec, force_k=k)
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
