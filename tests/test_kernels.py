import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    central_difference,
    eta_gamma_reference,
    mp_posterior_moments,
    phi_zeta_reference,
    quad_posterior_moments,
)
from ssamp.kernels import VARIANCE_FLOOR, eta_gamma, log_gauss, phi_zeta
from ssamp.solver import PriorParams, denoise

# frozen quadrature values for the named cases (tests/oracles.py, rel_tol 1e-11);
# a case is (rho, theta, message(s) as (mean, var), q, s0)
SINGLE_CASE = (1.0, 0.5, (0.0, 0.2), 0.1, 1.0)
SINGLE_MEAN = 0.32685136386136865
SINGLE_VAR = 0.17901790934862649

DOUBLE_CASE = (0.7, 0.3, (0.5, 0.1), (-0.2, 0.4), 0.05, 1.0)
DOUBLE_MEAN = 0.43283515877119499
DOUBLE_VAR = 0.066160210812772832


def test_log_gauss_standard_normal_peak():
    assert log_gauss(0.0, 0.0, 1.0) == pytest.approx(-0.5 * np.log(2 * np.pi), abs=0)


def test_log_gauss_matches_reference_logpdf():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, m = rng.normal(size=2) * 3
        v = float(np.exp(rng.uniform(-3, 3)))
        assert log_gauss(x, m, v) == pytest.approx(
            scipy.stats.norm.logpdf(x, m, np.sqrt(v)), rel=1e-12
        )


def test_log_gauss_rejects_nonpositive_variance():
    with pytest.raises(ValueError):
        log_gauss(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        log_gauss(0.0, 0.0, -1.0)


def _pair(ma, va, mb, vb):
    """Plain two-Gaussian fusion through phi_zeta: jump probability 0 leaves
    the channel N(x; ma, va) fused with the message spike N(x; mb, vb) alone."""
    return phi_zeta(ma, va, (mb, vb), 0.0, 1.0)


def test_fuse_pair_known_case():
    mean, var = _pair(1.0, 1.0, 3.0, 2.0)
    assert var == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert mean == pytest.approx(5.0 / 3.0, rel=1e-15)


@given(
    ma=st.floats(-50, 50),
    mb=st.floats(-50, 50),
    va=st.floats(1e-6, 1e6),
    vb=st.floats(1e-6, 1e6),
)
@settings(max_examples=100)
def test_fuse_pair_symmetric(ma, mb, va, vb):
    m1, v1 = _pair(ma, va, mb, vb)
    m2, v2 = _pair(mb, vb, ma, va)
    assert m1 == pytest.approx(m2, rel=1e-12, abs=1e-12)
    assert v1 == pytest.approx(v2, rel=1e-12)


def test_fuse_pair_floors_zero_variance():
    # a zero message variance is clamped up to the floor, not divided by
    mean, var = _pair(0.0, 1.0, 2.0, 0.0)
    expected_var = 1.0 / (1.0 / VARIANCE_FLOOR + 1.0)
    assert var == pytest.approx(expected_var, rel=1e-12)
    assert mean == pytest.approx(2.0, rel=1e-9)


def test_fuse_pair_rejects_negative_variance():
    with pytest.raises(ValueError):
        _pair(0.0, 1.0, 0.0, -1e-3)
    with pytest.raises(ValueError):
        eta_gamma(0.0, 1.0, (0.0, 1.0), (0.0, -1e-3), 0.1, 1.0)


def test_posterior_rejects_bad_prior():
    # q outside [0, 1] and a nonpositive slab variance, in both kernels
    for q, s0 in ((-0.1, 1.0), (1.5, 1.0), (0.1, 0.0), (0.1, -2.0)):
        with pytest.raises(ValueError):
            phi_zeta(0.0, 1.0, (0.0, 1.0), q, s0)
        with pytest.raises(ValueError):
            eta_gamma(0.0, 1.0, (0.0, 1.0), (0.0, 1.0), q, s0)


def test_posterior_single_weights_normalized():
    # channel and message agree on the mean, so every component has that
    # mean and the posterior mean is it times the total weight
    c = 0.8
    _, theta, (_, var), q, s0 = SINGLE_CASE
    mean, _ = phi_zeta(c, theta, (c, var), q, s0)
    assert abs(mean / c - 1.0) <= 1e-12


def test_posterior_single_matches_quadrature():
    mean, var = phi_zeta(*SINGLE_CASE)
    assert mean == pytest.approx(SINGLE_MEAN, rel=1e-10)
    assert var == pytest.approx(SINGLE_VAR, rel=1e-10)


def test_posterior_single_collapses_at_full_spike_weight():
    # q = 0 puts all weight on the spike: plain Gaussian fusion
    mean, var = phi_zeta(1.1, 0.4, (0.3, 0.7), 0.0, 2.0)
    fused_var = 1.0 / (1.0 / 0.4 + 1.0 / 0.7)
    assert mean == pytest.approx(fused_var * (1.1 / 0.4 + 0.3 / 0.7), rel=1e-15)
    assert var == pytest.approx(fused_var, rel=1e-15)


def test_posterior_rejects_nonpositive_theta():
    msg = (0.0, 1.0)
    with pytest.raises(ValueError):
        phi_zeta(0.0, 0.0, msg, 0.1, 1.0)
    with pytest.raises(ValueError):
        eta_gamma(0.0, -1.0, msg, msg, 0.1, 1.0)


def test_posterior_double_weights_normalized():
    # as in the single case: a common mean c makes the posterior mean
    # c times the total weight of the four components
    c = -0.6
    _, theta, (_, r_var), (_, l_var), q, s0 = DOUBLE_CASE
    mean, _ = eta_gamma(c, theta, (c, r_var), (c, l_var), q, s0)
    assert abs(mean / c - 1.0) <= 1e-12


def test_posterior_double_matches_quadrature():
    mean, var = eta_gamma(*DOUBLE_CASE)
    assert mean == pytest.approx(DOUBLE_MEAN, rel=1e-10)
    assert var == pytest.approx(DOUBLE_VAR, rel=1e-10)


def test_posterior_double_fusion_order_invariant():
    # swapping the two messages must not change the posterior moments
    rho, theta, r2p, l2p, q, s0 = DOUBLE_CASE
    m1, v1 = eta_gamma(rho, theta, r2p, l2p, q, s0)
    m2, v2 = eta_gamma(rho, theta, l2p, r2p, q, s0)
    assert m1 == pytest.approx(m2, rel=1e-13)
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_eta_reduces_to_linear_mmse_without_slabs():
    # q = 0 in both messages: three-Gaussian fusion, affine in rho
    r2p = (0.4, 0.3)
    l2p = (-0.6, 0.8)
    theta = 0.5
    prec = 1.0 / theta + 1.0 / 0.3 + 1.0 / 0.8
    for rho in (-2.0, 0.0, 0.7, 3.5):
        mean, var = eta_gamma(rho, theta, r2p, l2p, 0.0, 1.0)
        expect_mean = (rho / theta + 0.4 / 0.3 + -0.6 / 0.8) / prec
        assert mean == pytest.approx(expect_mean, rel=1e-14)
        assert var == pytest.approx(1.0 / prec, rel=1e-14)


def test_eta_monotone_in_rho():
    r2p = (0.2, 0.4)
    l2p = (-0.1, 0.7)
    rho = np.linspace(-8.0, 8.0, 400)
    mean, _ = eta_gamma(rho, 0.6, r2p, l2p, 0.1, 1.5)
    assert np.all(np.diff(mean) > 0)


def test_eta_prime_equals_gamma_over_theta():
    # the solver's Onsager term is the mean of eta' = gamma / theta
    rng = np.random.default_rng(5)
    rho, theta = rng.normal(size=12), 0.3
    r2p = (rng.normal(size=12), np.exp(rng.normal(size=12)))
    l2p = (rng.normal(size=12), np.exp(rng.normal(size=12)))
    _, gamma = eta_gamma(rho, theta, r2p, l2p, 0.05, 1.0)
    _, _, mean_eta_prime = denoise(rho, theta, r2p, l2p, PriorParams(q=0.05, sigma0_sq=1.0))
    assert mean_eta_prime == pytest.approx(np.mean(gamma / theta), rel=1e-15)


def test_eta_prime_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(50):
        theta = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        r2p = (rng.uniform(-3, 3), float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))))
        l2p = (rng.uniform(-3, 3), float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))))
        q = rng.uniform(0.005, 0.95)
        s0 = float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
        rho = rng.uniform(-4, 4)
        analytic = eta_gamma(rho, theta, r2p, l2p, q, s0)[1] / theta
        fd = central_difference(
            lambda r: eta_gamma(r, theta, r2p, l2p, q, s0)[0], rho, 1e-5
        )
        if abs(analytic) > 1e-8:
            assert fd == pytest.approx(analytic, rel=1e-6)


def test_vector_call_equals_per_index_scalars():
    rng = np.random.default_rng(3)
    n = 40
    rho = rng.normal(size=n)
    theta = 0.37
    r_mean, l_mean = rng.normal(size=(2, n))
    r_var, l_var = np.exp(rng.uniform(-2, 1, size=(2, n)))
    mean_vec, var_vec = eta_gamma(rho, theta, (r_mean, r_var), (l_mean, l_var), 0.08, 1.3)
    for i in range(n):
        m_i, v_i = eta_gamma(
            rho[i], theta, (r_mean[i], r_var[i]), (l_mean[i], l_var[i]), 0.08, 1.3
        )
        assert mean_vec[i] == m_i
        assert var_vec[i] == v_i


@given(
    rho=st.floats(-1e6, 1e6),
    theta=st.floats(1e-12, 1e12),
    mean=st.floats(-1e6, 1e6),
    var=st.floats(1e-12, 1e12),
    q=st.floats(0.0, 1.0),
    s0=st.floats(1e-12, 1e12),
)
@settings(max_examples=300)
def test_posteriors_finite_over_extreme_inputs(rho, theta, mean, var, q, s0):
    msg = (mean, var)
    mean1, var1 = phi_zeta(rho, theta, msg, q, s0)
    mean2, var2 = eta_gamma(rho, theta, msg, msg, q, s0)
    assert np.isfinite(mean1) and np.isfinite(var1)
    assert np.isfinite(mean2) and np.isfinite(var2)
    assert var1 >= 0.0 and var2 >= 0.0


@given(
    rho=st.floats(-10, 10),
    theta=st.floats(1e-3, 1e3),
    mean_r=st.floats(-10, 10),
    mean_l=st.floats(-10, 10),
    var_r=st.floats(1e-6, 1e3),
    var_l=st.floats(1e-6, 1e3),
    q=st.floats(0.0, 1.0),
    s0=st.floats(1e-6, 1e3),
)
@settings(max_examples=300)
def test_gamma_bounded_by_theta_plus_widest_component(
    rho, theta, mean_r, mean_l, var_r, var_l, q, s0
):
    _, gamma = eta_gamma(rho, theta, (mean_r, var_r), (mean_l, var_l), q, s0)
    widest = max(var_r, var_l) + s0
    assert 0.0 <= gamma <= theta + widest + 1e-9


def test_moments_against_live_quadrature_draws():
    rng = np.random.default_rng(21)
    for _ in range(25):
        rho = rng.uniform(-4, 4)
        theta = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
        pairs = [
            (rng.uniform(-3, 3), float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))))
            for _ in range(2)
        ]
        q = rng.uniform(0.001, 0.95)
        s0 = float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
        mean, var = eta_gamma(rho, theta, *pairs, q, s0)
        msgs = [(m, v, 1.0 - q, s0) for m, v in pairs]
        qmean, qvar = quad_posterior_moments(rho, theta, msgs)
        if abs(qmean) > 1e-6:
            assert mean == pytest.approx(qmean, rel=1e-8)
        else:
            assert mean == pytest.approx(qmean, abs=1e-10)
        assert var == pytest.approx(qvar, rel=1e-8)


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), n))


def test_closed_forms_agree_with_log_sum_exp_reference():
    """The closed-form kernels against the frozen log-sum-exp ones.

    10,000 draws: q uniform or one of 0, 1, 1e-8, 1 - 1e-8; a fifth of the
    message variances zero; theta, s0 and the other variances log-uniform
    in [1e-12, 1e12]; rho and message means up to 1e6 in magnitude.  With
    S the largest |rho| or |message mean| of a draw, the two agree to
    rel 1e-11 plus an absolute floor of 1e-12 S on the mean and
    1e-12 S sqrt(var) on the variance.  Where they do not, the reference
    has lost its normalization: log-sum-exp rounds log Z at the size of the
    log weights, which reach 1e21 here.  There the closed form must be
    within that tolerance of 40-digit arithmetic and the reference not.
    """
    rng = np.random.default_rng(2024)
    n = 10_000
    special_q = np.array([0.0, 1.0, 1e-8, 1.0 - 1e-8])
    q = np.where(
        rng.uniform(size=n) < 0.5,
        rng.uniform(0.0, 1.0, n),
        special_q[rng.integers(0, 4, n)],
    )
    theta = _log_uniform(rng, 1e-12, 1e12, n)
    s0 = _log_uniform(rng, 1e-12, 1e12, n)
    rho, r_mean, l_mean = (
        rng.uniform(-1.0, 1.0, n) * _log_uniform(rng, 1e-6, 1e6, n) for _ in range(3)
    )
    r_var, l_var = (
        np.where(rng.uniform(size=n) < 0.2, 0.0, _log_uniform(rng, 1e-12, 1e12, n))
        for _ in range(2)
    )
    r2p, l2p = (r_mean, r_var), (l_mean, l_var)
    cases = (
        (phi_zeta, phi_zeta_reference, (rho, theta, r2p, q, s0), (r2p,)),
        (eta_gamma, eta_gamma_reference, (rho, theta, r2p, l2p, q, s0), (r2p, l2p)),
    )
    for kernel, reference, args, msgs in cases:
        scale = np.max(np.abs([rho, *(m for m, _ in msgs)]), axis=0)
        new_mean, new_var = kernel(*args)
        ref_mean, ref_var = reference(*args)

        def within(mean, var, mean_to, var_to, i=slice(None)):
            mean_ok = np.abs(mean - mean_to) <= 1e-11 * np.abs(mean_to) + 1e-12 * scale[i]
            var_tol = 1e-11 * var_to + 1e-12 * scale[i] * np.sqrt(var_to)
            return mean_ok & (np.abs(var - var_to) <= var_tol)

        apart = np.flatnonzero(~within(new_mean, new_var, ref_mean, ref_var))
        assert apart.size < n // 10
        for i in apart:
            exact = mp_posterior_moments(
                rho[i], theta[i], [(m[i], v[i]) for m, v in msgs], q[i], s0[i]
            )
            assert within(new_mean[i], new_var[i], *exact, i), (kernel.__name__, i)
            assert not within(ref_mean[i], ref_var[i], *exact, i), (kernel.__name__, i)
