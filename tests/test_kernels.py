import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    central_difference,
    eta_gamma_closed_form,
    eta_gamma_reference,
    mp_posterior_moments,
    phi_zeta_closed_form,
    phi_zeta_reference,
    quad_posterior_moments,
)
from ssamp.kernels import VARIANCE_FLOOR, eta_gamma, phi_zeta
from ssamp.solver import ChainDenoiser, PriorParams

# frozen quadrature values for the named cases (tests/oracles.py, rel_tol 1e-11);
# a case is (rho, theta, message(s) as (mean, var), q, s0)
SINGLE_CASE = (1.0, 0.5, (0.0, 0.2), 0.1, 1.0)
SINGLE_MEAN = 0.32685136386136865
SINGLE_VAR = 0.17901790934862649

DOUBLE_CASE = (0.7, 0.3, (0.5, 0.1), (-0.2, 0.4), 0.05, 1.0)
DOUBLE_MEAN = 0.43283515877119499
DOUBLE_VAR = 0.066160210812772832


def _coord(kernel, rho, *args):
    """A kernel's (mean, var) at the one coordinate rho, called on a
    1-element array; the scalar messages broadcast to it."""
    mean, var = kernel(np.array([rho]), *args)
    return mean[0], var[0]


def _pair(ma, va, mb, vb):
    """Plain two-Gaussian fusion through phi_zeta: jump probability 0 leaves
    the channel N(x; ma, va) fused with the message spike N(x; mb, vb) alone."""
    return _coord(phi_zeta, ma, va, (mb, vb), 0.0, 1.0)


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
        eta_gamma(np.zeros(1), 1.0, (0.0, 1.0), (0.0, -1e-3), 0.1, 1.0)


def test_posterior_rejects_bad_prior():
    # q outside [0, 1] and a nonpositive slab variance, in both kernels
    for q, s0 in ((-0.1, 1.0), (1.5, 1.0), (0.1, 0.0), (0.1, -2.0)):
        with pytest.raises(ValueError):
            phi_zeta(np.zeros(1), 1.0, (0.0, 1.0), q, s0)
        with pytest.raises(ValueError):
            eta_gamma(np.zeros(1), 1.0, (0.0, 1.0), (0.0, 1.0), q, s0)


def test_posterior_single_weights_normalized():
    # channel and message agree on the mean, so every component has that
    # mean and the posterior mean is it times the total weight
    c = 0.8
    _, theta, (_, var), q, s0 = SINGLE_CASE
    mean, _ = _coord(phi_zeta, c, theta, (c, var), q, s0)
    assert abs(mean / c - 1.0) <= 1e-12


def test_posterior_single_matches_quadrature():
    mean, var = _coord(phi_zeta, *SINGLE_CASE)
    assert mean == pytest.approx(SINGLE_MEAN, rel=1e-10)
    assert var == pytest.approx(SINGLE_VAR, rel=1e-10)


def test_posterior_single_collapses_at_full_spike_weight():
    # q = 0 puts all weight on the spike: plain Gaussian fusion
    mean, var = _coord(phi_zeta, 1.1, 0.4, (0.3, 0.7), 0.0, 2.0)
    fused_var = 1.0 / (1.0 / 0.4 + 1.0 / 0.7)
    assert mean == pytest.approx(fused_var * (1.1 / 0.4 + 0.3 / 0.7), rel=1e-15)
    assert var == pytest.approx(fused_var, rel=1e-15)


def test_posterior_rejects_nonpositive_theta():
    msg = (0.0, 1.0)
    with pytest.raises(ValueError):
        phi_zeta(np.zeros(1), 0.0, msg, 0.1, 1.0)
    with pytest.raises(ValueError):
        eta_gamma(np.zeros(1), -1.0, msg, msg, 0.1, 1.0)


def test_posterior_double_weights_normalized():
    # as in the single case: a common mean c makes the posterior mean
    # c times the total weight of the four components
    c = -0.6
    _, theta, (_, r_var), (_, l_var), q, s0 = DOUBLE_CASE
    mean, _ = _coord(eta_gamma, c, theta, (c, r_var), (c, l_var), q, s0)
    assert abs(mean / c - 1.0) <= 1e-12


def test_posterior_double_matches_quadrature():
    mean, var = _coord(eta_gamma, *DOUBLE_CASE)
    assert mean == pytest.approx(DOUBLE_MEAN, rel=1e-10)
    assert var == pytest.approx(DOUBLE_VAR, rel=1e-10)


def test_posterior_double_fusion_order_invariant():
    # swapping the two messages must not change the posterior moments
    rho, theta, r2p, l2p, q, s0 = DOUBLE_CASE
    m1, v1 = _coord(eta_gamma, rho, theta, r2p, l2p, q, s0)
    m2, v2 = _coord(eta_gamma, rho, theta, l2p, r2p, q, s0)
    assert m1 == pytest.approx(m2, rel=1e-13)
    assert v1 == pytest.approx(v2, rel=1e-13)


def test_eta_reduces_to_linear_mmse_without_slabs():
    # q = 0 in both messages: three-Gaussian fusion, affine in rho
    r2p = (0.4, 0.3)
    l2p = (-0.6, 0.8)
    theta = 0.5
    prec = 1.0 / theta + 1.0 / 0.3 + 1.0 / 0.8
    for rho in (-2.0, 0.0, 0.7, 3.5):
        mean, var = _coord(eta_gamma, rho, theta, r2p, l2p, 0.0, 1.0)
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
    # an EM chain call at energy theta, from these messages; gamma at the messages it used
    denoiser = ChainDenoiser(12, 6, PriorParams(q=0.05, sigma0_sq=1.0), em=True)
    denoiser.r2p, denoiser.l2p = r2p, l2p
    _, mean_eta_prime = denoiser(rho, theta)
    _, gamma = eta_gamma(rho, theta, denoiser.r2p, denoiser.l2p, 0.05, 1.0)
    np.testing.assert_array_equal(denoiser.sigma_sq, gamma)
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
        analytic = _coord(eta_gamma, rho, theta, r2p, l2p, q, s0)[1] / theta
        fd = central_difference(
            lambda r: _coord(eta_gamma, r, theta, r2p, l2p, q, s0)[0], rho, 1e-5
        )
        if abs(analytic) > 1e-8:
            assert fd == pytest.approx(analytic, rel=1e-6)


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
    mean1, var1 = _coord(phi_zeta, rho, theta, msg, q, s0)
    mean2, var2 = _coord(eta_gamma, rho, theta, msg, msg, q, s0)
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
    _, gamma = _coord(eta_gamma, rho, theta, (mean_r, var_r), (mean_l, var_l), q, s0)
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
        mean, var = _coord(eta_gamma, rho, theta, *pairs, q, s0)
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

    10,000 draws, each a kernel call on a 1-element rho with scalar theta,
    q and s0 (the reference runs on all draws at once): q uniform or one of
    0, 1, 1e-8, 1 - 1e-8; a fifth of the message variances zero; theta, s0 and the
    other variances log-uniform in [1e-12, 1e12]; rho and message means up
    to 1e6 in magnitude.  With S the largest |rho| or |message mean| of a
    draw, the two agree to rel 1e-11 plus an absolute floor of 1e-12 S on
    the mean and 1e-12 S sqrt(var) on the variance.  Where they do not, the
    reference has lost its normalization: log-sum-exp rounds log Z at the
    size of the log weights, which reach 1e21 here.  There the closed form
    must be within that tolerance of 40-digit arithmetic and the reference
    not.
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

    def draw(args, i):
        """Draw i of the arrays in args, messages as (mean, var) pairs and
        rho as a 1-element array."""
        rho, *rest = [
            tuple(a[i] for a in arg) if isinstance(arg, tuple) else arg[i] for arg in args
        ]
        return [np.array([rho]), *rest]

    for kernel, reference, args, msgs in cases:
        scale = np.max(np.abs([rho, *(m for m, _ in msgs)]), axis=0)
        draws = [kernel(*draw(args, i)) for i in range(n)]
        new_mean, new_var = np.array(draws).reshape(n, 2).T
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
    # theta, q and s0 must be scalars: the all-draws call is a TypeError
    for kernel, _, args, _ in cases:
        with pytest.raises(TypeError):
            kernel(*args)


def _outcome(kernel, *args):
    """A kernel call's outputs as (type, shape, bytes) per output, or the
    type and message of the ValueError or TypeError it raised."""
    try:
        out = kernel(*args)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return [(type(a), np.shape(a), np.asarray(a).tobytes()) for a in out]


def _kernel_draw(rng, kind):
    """One draw of kernel arguments: arrays or negative-stride views of
    arrays, in one kind for the whole draw."""
    size = int(rng.integers(1, 65))
    step = -int(rng.integers(1, 3))  # of the reversed views
    special_q = (0.0, 1.0, 1e-8, 1.0 - 1e-8)
    q = rng.uniform() if rng.uniform() < 0.5 else special_q[rng.integers(0, 4)]
    theta, s0 = _log_uniform(rng, 1e-12, 1e12, 2)
    # rho and means all +-0.0: where every mixture term is -0.0 the mean is +0.0
    signed_zeros = rng.uniform() < 0.1

    def coords(values):
        if kind == "reversed":
            full = np.empty(size * -step)
            full[::step] = values
            return full[::step]
        return values

    def means():
        if signed_zeros:
            return coords(np.where(rng.uniform(size=size) < 0.5, 0.0, -0.0))
        return coords(rng.uniform(-1.0, 1.0, size) * _log_uniform(rng, 1e-6, 1e6, size))

    def variances():
        zero = rng.uniform(size=size) < 0.2
        return coords(np.where(zero, 0.0, _log_uniform(rng, 1e-12, 1e12, size)))

    rho = means()
    r2p, l2p = (means(), variances()), (means(), variances())
    return rho, float(theta), r2p, l2p, float(q), float(s0)


# eta_gamma draws on which numpy's scalar square (C pow) and its array square
# (a product) round differently, and the difference reaches an output; the
# kernels, array-only, must give them an array call's bytes
POW_SQUARE_CASES = [
    (
        1.5153059275466447,
        (-0.055995921206172056, 0.01844909529342838),
        (1.0235762632117298, 728.9984494554208),
    ),
    (
        -155.87015692538552,
        (-0.03290031074939531, 124.71647464686257),
        (-0.00012700317618273175, 4.014010613536737),
    ),
    (
        -0.0021659593540530467,
        (0.10738830415002039, 0.042050139027669214),
        (0.6693591645092574, 0.04901928609337383),
    ),
]


def test_kernels_match_closed_form_byte_for_byte():
    """The in-place kernels against their frozen one-expression forms.

    2,000 draws, half each of arrays of 1 to 64 coordinates and
    negative-stride views (steps -1 and -2); q uniform or one of 0, 1,
    1e-8, 1 - 1e-8, a fifth of the message variances zero, theta, s0 and
    the other variances log-uniform in [1e-12, 1e12], and rho and the
    message means up to 1e6 in magnitude (in a tenth of the draws, zeros of
    either sign); then the pinned draws above as 1-element arrays.  Output
    types, shapes and bytes must all agree.
    """
    rng = np.random.default_rng(1010)
    kinds = ("array", "reversed")
    for i in range(2000):
        rho, theta, r2p, l2p, q, s0 = _kernel_draw(rng, kinds[i % 2])
        for kernel, frozen, args in (
            (phi_zeta, phi_zeta_closed_form, (rho, theta, r2p, q, s0)),
            (eta_gamma, eta_gamma_closed_form, (rho, theta, r2p, l2p, q, s0)),
        ):
            assert _outcome(kernel, *args) == _outcome(frozen, *args), (kernel.__name__, i)
    for rho, r2p, l2p in POW_SQUARE_CASES:
        r2p, l2p = (tuple(np.array([v]) for v in msg) for msg in (r2p, l2p))
        args = (np.array([rho]), 0.37, r2p, l2p, 0.08, 1.3)
        assert _outcome(eta_gamma, *args) == _outcome(eta_gamma_closed_form, *args)


def test_kernels_in_a_reused_work_block_match_closed_form():
    """A caller's work block, NaN-filled and then reused dirty across 500
    draws, gives the closed form's bytes, and no output shares its memory."""
    rng = np.random.default_rng(2020)
    blocks = {}
    for i in range(500):
        rho, theta, r2p, l2p, q, s0 = _kernel_draw(rng, "array")
        for kernel, frozen, rows, args in (
            (phi_zeta, phi_zeta_closed_form, 8, (rho, theta, r2p, q, s0)),
            (eta_gamma, eta_gamma_closed_form, 28, (rho, theta, r2p, l2p, q, s0)),
        ):
            work = blocks.setdefault((rows, rho.size), np.full((rows, rho.size), np.nan))
            want = _outcome(frozen, *args)
            assert _outcome(kernel, *args, work) == want, (kernel.__name__, i)
            if not isinstance(want[0], type):  # not a raised error's type
                assert not any(np.shares_memory(a, work) for a in kernel(*args, work))


def test_kernels_reject_a_work_block_they_cannot_use():
    rho = np.linspace(-1.0, 1.0, 6)
    msg = (np.zeros(6), np.ones(6))
    for kernel, rows, args in ((phi_zeta, 8, (msg,)), (eta_gamma, 28, (msg, msg))):
        for bad in (
            np.empty((rows, 5)),
            np.empty((rows + 1, 6)),
            np.empty((rows, 6), dtype=np.float32),
            np.empty((6, rows)).T,
        ):
            with pytest.raises(ValueError, match="work must be a C-contiguous float block"):
                kernel(rho, 0.5, *args, 0.1, 1.0, bad)


def test_warm_chain_denoiser_call_allocates_no_work_block():
    """At n = 16384 a warmed call's traced peak stays within the bytes of the
    arrays it returns or keeps (mu, sigma_sq, both message blocks) plus 64 KiB
    of Python objects: half an n-vector, where a kernel work block is 8 or 28."""
    n = 16384
    rng = np.random.default_rng(3)
    denoiser = ChainDenoiser(n, n // 2, PriorParams(q=0.05, sigma0_sq=1.0, delta=1e-10))
    rho = np.cumsum(rng.normal(size=n) * (rng.uniform(size=n) < 0.05)) + rng.normal(size=n)
    denoiser(rho, 1.0)
    tracemalloc.start()
    try:
        mu, _ = denoiser(rho, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = {id(a.base): a.base.nbytes for a in (*denoiser.r2p, *denoiser.l2p)}
    kept = mu.nbytes + denoiser.sigma_sq.nbytes + sum(blocks.values())
    assert kept == 6 * n * 8
    assert peak <= kept + 64 * 1024


def test_vector_call_equals_per_index_slices():
    """One rounding per coordinate: for both kernels, a 1-element call gives
    the bytes of its coordinate in a vector call.  20,000 coordinates with
    rho and the message means uniform in [-1, 1] times log-uniform in
    [1e-3, 1e3] and variances log-uniform in [1e-3, 1e3] (a draw on which
    scalar and array squares once differed on 4 coordinates), then the
    pinned draws above."""
    rng = np.random.default_rng(5)
    n = 20_000
    rho, r_mean, l_mean = (
        rng.uniform(-1.0, 1.0, n) * _log_uniform(rng, 1e-3, 1e3, n) for _ in range(3)
    )
    r_var, l_var = _log_uniform(rng, 1e-3, 1e3, (2, n))
    pinned = np.array([(case[0], *case[1], *case[2]) for case in POW_SQUARE_CASES]).T
    columns = np.concatenate([(rho, r_mean, r_var, l_mean, l_var), pinned], axis=1)
    rho, r_mean, r_var, l_mean, l_var = columns
    msgs = (r_mean, r_var), (l_mean, l_var)
    for kernel, n_msgs in ((phi_zeta, 1), (eta_gamma, 2)):
        mean_vec, var_vec = kernel(rho, 0.37, *msgs[:n_msgs], 0.08, 1.3)
        for i in range(rho.size):
            at = slice(i, i + 1)
            msgs_i = [(m[at], v[at]) for m, v in msgs[:n_msgs]]
            m_i, v_i = kernel(rho[at], 0.37, *msgs_i, 0.08, 1.3)
            assert mean_vec[at].tobytes() == m_i.tobytes(), (kernel.__name__, i)
            assert var_vec[at].tobytes() == v_i.tobytes(), (kernel.__name__, i)


def test_kernels_reject_scalar_rho():
    """The kernels are array-only: a Python float, a numpy scalar, a 0-d
    array or a list as rho is a TypeError that names the rule."""
    msg = (0.0, 1.0)
    for rho in (0.5, np.float64(0.5), np.asarray(0.5), [0.5]):
        with pytest.raises(TypeError, match="ndarray with ndim >= 1"):
            phi_zeta(rho, 1.0, msg, 0.1, 1.0)
        with pytest.raises(TypeError, match="ndarray with ndim >= 1"):
            eta_gamma(rho, 1.0, msg, msg, 0.1, 1.0)


def test_kernels_take_log_of_zero_weights_without_warning():
    """At q = 0 and q = 1, and at q <= 2**-54, where q - 1.0 rounds to -1.0,
    a log weight is log(0) = -inf: both kernels must return the closed
    form's bytes and emit no warning.  Just above 2**-54 neither log is of 0."""
    rho, r2p, l2p = (0.3, -1.2), ((0.1, 0.0), (0.5, 2.0)), ((-0.4, 1.0), (0.2, 0.0))
    for q in (0.0, 1.0, 2.0**-54, 1e-300, float(np.nextafter(2.0**-54, 1.0))):
        for wrap in (np.asarray, lambda a: np.asarray(a[:1])):
            args = (wrap(rho), 0.7, tuple(map(wrap, r2p)), tuple(map(wrap, l2p)), q, 1.3)
            want = [
                _outcome(phi_zeta_closed_form, *args[:3], q, 1.3),
                _outcome(eta_gamma_closed_form, *args),
            ]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = [_outcome(phi_zeta, *args[:3], q, 1.3), _outcome(eta_gamma, *args)]
            assert got == want, q


def test_kernels_reject_bad_inputs_as_closed_form():
    """Negative or NaN variances, theta or s0 not positive, q outside [0, 1]
    and array theta, q or s0 raise the same error as the frozen forms."""
    rng = np.random.default_rng(11)
    rho, theta, r2p, l2p, q, s0 = _kernel_draw(rng, "array")
    n = rho.shape[0]
    bad_var = np.full(n, 0.5)
    bad_var[n // 2] = -1.0
    nan_var = np.full(n, 0.5)
    nan_var[-1] = np.nan
    bad = []
    for v in (-1.0, np.nan, bad_var, nan_var):
        bad += [
            (rho, theta, (r2p[0], v), l2p, q, s0),
            (rho, theta, r2p, (l2p[0], v), q, s0),
        ]
    for t in (0.0, -1.0, np.nan, np.full(n, 0.5)):
        bad.append((rho, t, r2p, l2p, q, s0))
    for s in (0.0, -2.0, np.nan, np.full(n, 1.0)):
        bad.append((rho, theta, r2p, l2p, q, s))
    for p in (-0.1, 1.1, np.nan, np.full(n, 0.1)):
        bad.append((rho, theta, r2p, l2p, p, s0))
    for rho_, theta_, r2p_, l2p_, q_, s0_ in bad:
        for kernel, frozen, args in (
            (phi_zeta, phi_zeta_closed_form, (rho_, theta_, r2p_, q_, s0_)),
            (eta_gamma, eta_gamma_closed_form, (rho_, theta_, r2p_, l2p_, q_, s0_)),
        ):
            got = _outcome(kernel, *args)
            assert got == _outcome(frozen, *args)
            # phi_zeta never reads l2p, so a bad l2p variance is no error there
            if not (kernel is phi_zeta and l2p_ is not l2p):
                assert got[0] in (ValueError, TypeError), (kernel.__name__, args)


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


def test_kernels_and_chain_step_leave_read_only_inputs_unchanged():
    """Every input made read-only, reversed views included: the kernels and
    a chain denoiser step (with and without EM) raise nothing and leave
    every input byte as it was."""
    rng = np.random.default_rng(12)
    n = 64
    rho, r_mean, r_var, l_mean, l_var = rng.normal(size=(5, n))
    r_var, l_var = np.abs(r_var), np.abs(l_var)
    inputs = [rho, r_mean, r_var, l_mean, l_var]
    _read_only(*inputs)
    views = [a[::-1] for a in inputs]
    before = [a.tobytes() for a in inputs]
    for rho_, rm, rv, lm, lv in (inputs, views):
        phi_zeta(rho_, 0.3, (rm, rv), 0.1, 1.2)
        eta_gamma(rho_, 0.3, (rm, rv), (lm, lv), 0.1, 1.2)
    assert [a.tobytes() for a in inputs] == before

    for em in (False, True):
        denoiser = ChainDenoiser(n, n // 2, PriorParams(q=0.1, sigma0_sq=1.2), em)
        energy = float(np.sum(rng.normal(size=n // 2) ** 2)) / (n // 2)
        denoiser(rho, energy)
        state = [denoiser.sigma_sq, *denoiser.r2p, *denoiser.l2p]
        _read_only(*state)
        arrays = [rho, *state]
        before = [a.tobytes() for a in arrays]
        denoiser(rho, energy)
        assert [a.tobytes() for a in arrays] == before
