import numpy as np
import pytest

from oracles import (
    tv_kkt_residual,
    tv_objective,
    tv_prox_fista,
    tv_prox_pg,
    tv_prox_sweep_reference,
)
import ssamp.tvamp
from ssamp.operators import make_iid_gaussian
from ssamp.signals import generate, measure, nmse
from ssamp.solver import DivergenceError, SolverConfig
from ssamp.tvamp import tv_divergence, tv_prox, tvamp_solve


def test_config_validation():
    op = make_iid_gaussian(10, 20, 0)
    for lam in (0.0, -1.0, np.nan, np.inf, True, "1"):
        with pytest.raises(ValueError, match="lam"):
            tvamp_solve(op, np.zeros(10), lam)
    assert tvamp_solve(op, np.zeros(10), np.float64(1.0)).converged
    # the loop settings are the shared SolverConfig, checked when it is built
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(tol=-1e-3)
    with pytest.raises(ValueError):
        SolverConfig(damping_beta=0.0)
    with pytest.raises(ValueError):
        SolverConfig(damping_beta=1.0001)
    for name in ("tol", "damping_beta"):
        with pytest.raises(ValueError, match=name):
            SolverConfig(**{name: True})


# ---------------------------------------------------------------- tv_prox


def test_prox_lambda_zero_is_identity():
    y = np.random.default_rng(0).normal(size=37)
    np.testing.assert_array_equal(tv_prox(y, 0.0), y)


def test_prox_rejects_negative_lambda():
    with pytest.raises(ValueError):
        tv_prox(np.zeros(4), -0.5)
    for bad in (np.nan, np.inf, -np.inf, np.float64(np.nan)):
        with pytest.raises(ValueError, match="finite"):
            tv_prox(np.zeros(4), bad)
    for lam in (0.0, 0.5):
        for values in (np.zeros((2, 3)), np.zeros((1, 4)), np.float64(1.0)):
            with pytest.raises(ValueError, match="one-dimensional"):
                tv_prox(values, lam)


def test_prox_matches_numpy_sweep_byte_for_byte():
    rng = np.random.default_rng(10)
    cases = []
    for _ in range(1500):
        n = int(rng.integers(1, 701))
        scale = float(10.0 ** rng.uniform(-8, 8))
        if rng.random() < 0.3:
            # piecewise constant: plateaus make exact ties in the sweep's comparisons
            levels = np.round(rng.normal(size=int(rng.integers(1, 8))), 1)
            y = np.repeat(levels, -(-n // levels.size))[:n] * scale
        else:
            y = rng.normal(size=n) * scale
        top = float(np.max(np.abs(y)))
        lam = float(rng.choice([0.0, 1e-6 * scale, top * 10.0 ** rng.uniform(-6, 1)]))
        cases.append((y, lam))
        cases.append((y, np.float64(lam)))
    for y, lam in cases:
        ours = tv_prox(y, lam)
        assert ours.dtype == np.float64 and ours.shape == y.shape
        assert ours.tobytes() == tv_prox_sweep_reference(y, lam).tobytes()


def test_prox_singleton_and_empty():
    np.testing.assert_array_equal(tv_prox(np.array([3.0]), 2.0), np.array([3.0]))
    assert tv_prox(np.array([]), 2.0).size == 0


def test_prox_saturates_to_mean():
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = rng.normal(size=25) * 3
        lam = 25 * np.max(np.abs(y - np.mean(y)))
        out = tv_prox(y, lam)
        np.testing.assert_allclose(out, np.full(25, np.mean(y)), rtol=0, atol=1e-10)


def test_prox_preserves_mean():
    # the prox only moves mass between neighbors, never off the vector
    rng = np.random.default_rng(2)
    for _ in range(20):
        y = rng.normal(size=int(rng.integers(2, 60)))
        out = tv_prox(y, float(np.exp(rng.uniform(-3, 2))))
        assert np.mean(out) == pytest.approx(np.mean(y), rel=1e-12, abs=1e-12)


def test_prox_beats_projected_gradient_oracle():
    rng = np.random.default_rng(3)
    y = rng.normal(size=30) * 2
    lam = 0.7
    ours = tv_prox(y, lam)
    ref = tv_prox_pg(y, lam, 100000)
    assert tv_objective(ours, y, lam) <= tv_objective(ref, y, lam) + 1e-9
    assert tv_kkt_residual(ours, y, lam) <= 1e-8


def test_prox_matches_fista_oracle_across_instances():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(2, 80))
        y = rng.normal(size=n) * float(np.exp(rng.uniform(-1, 2)))
        lam = float(np.exp(rng.uniform(-3, 1.5)))
        ours = tv_prox(y, lam)
        ref = tv_prox_fista(y, lam)
        assert tv_objective(ours, y, lam) <= tv_objective(ref, y, lam) + 1e-9
        np.testing.assert_allclose(ours, ref, atol=5e-6)


def test_prox_kkt_residuals_on_random_instances():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 120))
        y = rng.normal(size=n) * 3
        lam = float(np.exp(rng.uniform(-4, 2)))
        out = tv_prox(y, lam)
        assert tv_kkt_residual(out, y, lam) <= 1e-8


def test_prox_nonexpansive():
    rng = np.random.default_rng(6)
    for _ in range(100):
        n = int(rng.integers(2, 64))
        a = rng.normal(size=n) * 2
        b = a + rng.normal(size=n) * float(np.exp(rng.uniform(-4, 1)))
        lam = float(np.exp(rng.uniform(-3, 2)))
        lhs = np.linalg.norm(tv_prox(a, lam) - tv_prox(b, lam))
        assert lhs <= np.linalg.norm(a - b) + 1e-12


def test_prox_segments_nonincreasing_in_lambda():
    rng = np.random.default_rng(7)
    for _ in range(10):
        y = rng.normal(size=50)
        lams = np.exp(np.linspace(-4, 3, 12))
        segs = [tv_divergence(tv_prox(y, lam)) for lam in lams]
        assert all(a >= b - 1e-15 for a, b in zip(segs, segs[1:]))


def test_prox_tv_seminorm_nonincreasing_in_lambda():
    rng = np.random.default_rng(8)
    y = rng.normal(size=60)
    lams = np.exp(np.linspace(-4, 3, 12))
    tvs = [float(np.sum(np.abs(np.diff(tv_prox(y, lam))))) for lam in lams]
    assert all(a >= b - 1e-12 for a, b in zip(tvs, tvs[1:]))


# ---------------------------------------------------------------- divergence


def test_divergence_constant_and_monotone():
    assert tv_divergence(np.full(8, 3.2)) == pytest.approx(1 / 8)
    assert tv_divergence(np.arange(8.0)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        tv_divergence(np.array([]))


def test_tvamp_estimate_scales_with_the_measurements():
    # the exact segment count has no absolute tolerance, so TV-AMP on c y gives c times
    # the estimate for y, in the same iterations.  The worst relative error of these
    # 50 runs measured 3.4e-15; counting only jumps above 1e-10 it was 0.11, and 23
    # runs changed their iteration count
    for seed in range(10):
        op = make_iid_gaussian(100, 200, seed)
        y = op.apply(generate(200, 10 + seed, 1.0, 100 + seed))
        base = tvamp_solve(op, y, 1.0, SolverConfig(500))
        for c in (1e-8, 1e-5, 1e-3, 1e3, 1e8):
            rep = tvamp_solve(op, c * y, 1.0, SolverConfig(500))
            assert rep.iters_run == base.iters_run
            err = np.linalg.norm(rep.estimate / c - base.estimate)
            assert err <= 1e-14 * np.linalg.norm(base.estimate)


def test_divergence_matches_finite_difference_trace():
    rng = np.random.default_rng(9)
    for _ in range(5):
        y = rng.normal(size=40) * 2
        lam = 0.6
        out = tv_prox(y, lam)
        h = 1e-7
        trace = 0.0
        for i in range(40):
            up = y.copy(); up[i] += h
            dn = y.copy(); dn[i] -= h
            trace += (tv_prox(up, lam)[i] - tv_prox(dn, lam)[i]) / (2 * h)
        assert tv_divergence(out) == pytest.approx(trace / 40, rel=0.02)


# ---------------------------------------------------------------- tvamp_solve


def test_zero_measurements_zero_estimate():
    op = make_iid_gaussian(10, 20, 0)
    rep = tvamp_solve(op, np.zeros(10), 1.0)
    assert rep.iters_run == 1
    assert rep.converged
    np.testing.assert_array_equal(rep.estimate, np.zeros(20))


def test_first_iteration_composes_prox_and_residual():
    op = make_iid_gaussian(30, 60, 1)
    y = np.random.default_rng(2).normal(size=30)
    lam = 0.9
    rep = tvamp_solve(op, y, lam, SolverConfig(max_iters=1, tol=0.0))
    theta = np.sum(y**2) / 30
    mu1 = tv_prox(op.adjoint(y), lam * np.sqrt(theta))
    np.testing.assert_array_equal(rep.estimate, mu1)


def test_solve_calls_prox_through_module_name(monkeypatch):
    # callers may hook ssamp.tvamp.tv_prox; tvamp_solve must look it up each iteration
    calls = []

    def counting(values, lam):
        calls.append(lam)
        return tv_prox(values, lam)

    monkeypatch.setattr(ssamp.tvamp, "tv_prox", counting)
    op = make_iid_gaussian(30, 60, 1)
    y = np.random.default_rng(2).normal(size=30)
    rep = tvamp_solve(op, y, 0.9, SolverConfig(max_iters=7, tol=0.0))
    assert rep.iters_run == 7
    assert len(calls) == rep.iters_run


def test_solve_validates_shape():
    op = make_iid_gaussian(10, 20, 0)
    with pytest.raises(ValueError):
        tvamp_solve(op, np.zeros(11), 1.0)
    for bad in (np.nan, -np.inf):
        y = np.zeros(10)
        y[0] = bad
        with pytest.raises(ValueError, match="finite"):
            tvamp_solve(op, y, 1.0)
    # a target needs a finite truth to be checked against
    x = np.zeros(20)
    with pytest.raises(ValueError, match="target_nmse"):
        tvamp_solve(op, np.zeros(10), 1.0, target_nmse=1e-2)
    for bad in (np.nan, -1.0):
        with pytest.raises(ValueError, match="target_nmse"):
            tvamp_solve(op, np.zeros(10), 1.0, truth=x, target_nmse=bad)
    x[0] = np.nan
    with pytest.raises(ValueError, match="truth must be finite"):
        tvamp_solve(op, np.zeros(10), 1.0, truth=x)


def test_easy_point_recovery():
    n, m, k = 625, 312, 31
    ok = 0
    for seed in range(20):
        op = make_iid_gaussian(m, n, seed)
        x = generate(n, k, 1.0, 1000 + seed)
        y = measure(op, x, 0.0, 0)
        rep = tvamp_solve(op, y, 1.0, SolverConfig(max_iters=100), truth=x)
        ok += nmse(x, rep.estimate) <= 1e-4
    assert ok >= 15


def test_divergence_raises():
    # threshold far too small: the segment-count Onsager factor exceeds
    # one and the residual recursion blows up
    n, m, k = 625, 312, 31
    op = make_iid_gaussian(m, n, 3)
    x = generate(n, k, 1.0, 1003)
    y = measure(op, x, 0.0, 0)
    with np.errstate(all="ignore"):
        with pytest.raises(DivergenceError):
            tvamp_solve(op, y, 0.05, SolverConfig(max_iters=2000, tol=0.0))


def test_trace_shape_and_target_stop():
    op = make_iid_gaussian(60, 120, 1)
    x = generate(120, 6, 1.0, 5)
    y = measure(op, x, 0.0, 0)
    rep = tvamp_solve(op, y, 1.0, SolverConfig(max_iters=100), truth=x, target_nmse=1e-3)
    assert rep.converged
    assert rep.nmse_trace.shape == (rep.iters_run,)
    assert rep.nmse_trace[-1] <= 1e-3
    assert rep.final_params is None
