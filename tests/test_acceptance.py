"""End-to-end acceptance checks for the solver, priors, ensembles, and harness.

Each test covers one shipping criterion and prints a single PASS/FAIL line
with the measured numbers (visible under ``pytest -s``); the assert carries
the same condition so ``pytest -v`` reports one status line per criterion.
Everything is seeded, so reruns are exact.
"""

import time

import numpy as np
import pytest

from oracles import (
    central_difference,
    em_oracle,
    quad_posterior_moments,
    tv_kkt_residual,
    tv_objective,
    tv_prox_pg,
)
from ssamp.cli import main
from ssamp.harness import ExperimentConfig, pt_curve, run_phase_grid, run_single_trial
from ssamp.kernels import eta_gamma, phi_zeta
from ssamp.solver import PriorParams, em_posteriors, em_update
from ssamp.tvamp import tv_prox


def _report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def _draw_case(rng):
    """rho, theta, two (mean, var) messages, and the (q, s0) both share."""
    rho = rng.uniform(-4, 4)
    theta = float(np.exp(rng.uniform(np.log(0.05), np.log(5.0))))
    msgs = [
        (rng.uniform(-3, 3), float(np.exp(rng.uniform(np.log(0.05), np.log(5.0)))))
        for _ in range(2)
    ]
    q = rng.uniform(0.001, 0.95)
    s0 = float(np.exp(rng.uniform(np.log(0.1), np.log(5.0))))
    return rho, theta, msgs, q, s0


def _recovery_cell(**overrides):
    """Success rate at the reference operating point n=625, m/n=0.5, k/m=0.1."""
    config = ExperimentConfig(
        n=625,
        grid_m_over_n=(0.5,),
        grid_k_over_m=(0.1,),
        trials=20,
        **overrides,
    )
    (cell,) = run_phase_grid(config)
    return cell


def test_01_denoiser_matches_quadrature_oracle():
    rng = np.random.default_rng(11)
    started = time.perf_counter()
    worst = 0.0
    checked = 0
    for _ in range(10_000):
        rho, theta, msgs, q, s0 = _draw_case(rng)
        # the oracle takes each message as (mean, var, spike weight, slab variance)
        oracle_msgs = [(mean, var, 1.0 - q, s0) for mean, var in msgs]
        # the kernels take the one coordinate as a 1-element rho
        pairs = [
            (
                eta_gamma(np.array([rho]), theta, msgs[0], msgs[1], q, s0),
                quad_posterior_moments(rho, theta, oracle_msgs),
            ),
            (
                phi_zeta(np.array([rho]), theta, msgs[0], q, s0),
                quad_posterior_moments(rho, theta, oracle_msgs[:1]),
            ),
        ]
        for ((mean,), (var,)), (qmean, qvar) in pairs:
            for got, want in ((mean, qmean), (var, qvar)):
                err = abs(got - want)
                assert err <= max(1e-8 * abs(want), 1e-10), (rho, theta, msgs, q, s0)
                if abs(want) > 1e-6:
                    worst = max(worst, err / abs(want))
                checked += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    _report(
        1,
        ok,
        f"{checked} posterior moments within 1e-8 of quadrature "
        f"(worst rel {worst:.1e}) in {elapsed:.1f}s (budget 60s)",
    )


def test_02_posterior_mean_derivative_identity():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1_000):
        rho, theta, (r2p, l2p), q, s0 = _draw_case(rng)
        analytic = eta_gamma(np.array([rho]), theta, r2p, l2p, q, s0)[1][0] / theta

        def mean_of(t):
            return eta_gamma(np.array([t]), theta, r2p, l2p, q, s0)[0][0]

        step = 1e-4 * max(1.0, abs(rho))
        coarse = central_difference(mean_of, rho, step)
        fine = central_difference(mean_of, rho, step / 2.0)
        fd = (4.0 * fine - coarse) / 3.0
        rel = abs(analytic - fd) / abs(fd)
        worst = max(worst, rel)
        assert rel <= 1e-6, (rho, theta, r2p, l2p, q, s0)
    _report(2, True, f"variance/theta derivative identity, worst rel {worst:.1e}")


def test_03_em_step_matches_extended_precision():
    rng = np.random.default_rng(13)

    def close(got, want):
        err = np.max(np.abs(np.asarray(got) - np.asarray(want)))
        scale = np.max(np.abs(np.asarray(want)))
        return err <= max(1e-12 * scale, 1e-12), err / max(scale, 1e-300)

    worst = 0.0
    done = 0
    while done < 1_000:
        rho = rng.normal(size=8) * 2.0
        theta = float(np.exp(rng.uniform(np.log(0.01), np.log(2.0))))
        q = rng.uniform(0.02, 0.9)
        s0 = float(np.exp(rng.uniform(np.log(0.1), np.log(4.0))))
        pi_o, gamma_o, nu_o, q_o, s0_o = em_oracle(rho, theta, q, s0)
        if not 1e-6 < q_o < 1.0 - 1e-6:
            continue  # the update would hit the documented safety clamps
        params = PriorParams(q=q, sigma0_sq=s0, delta=0.0)
        pi, gamma_d, nu = em_posteriors(rho, theta, params)
        new = em_update(rho, theta, params)
        for got, want in (
            (pi, pi_o),
            (gamma_d, gamma_o),
            (nu, nu_o),
            (new.q, q_o),
            (new.sigma0_sq, s0_o),
        ):
            ok, rel = close(got, want)
            worst = max(worst, rel)
            assert ok, (rho, theta, q, s0)
        assert new.delta == params.delta
        done += 1
    _report(3, True, f"1000 EM draws match extended precision, worst rel {worst:.1e}")


def test_04_noiseless_recovery_success_rate():
    started = time.perf_counter()
    cell = _recovery_cell(max_iters=100)
    elapsed = time.perf_counter() - started
    ok = cell.successes >= 18 and elapsed < 120.0
    _report(
        4,
        ok,
        f"{cell.successes}/20 seeds reached 1e-4 within 100 iterations "
        f"(mean {cell.mean_iters:.0f}) in {elapsed:.1f}s (budget 120s)",
    )


def test_05_iterations_to_target_large_problem():
    started = time.perf_counter()
    config = ExperimentConfig(n=3600, delta=1e-10, trials=3, max_iters=2000)
    iters = [
        run_single_trial(config, 0.5, 0.1, 1800, 180, trial, target_nmse=1e-4).iters
        for trial in range(3)
    ]
    elapsed = time.perf_counter() - started
    mean_iters = float(np.mean(iters))
    ok = mean_iters <= 45.0 and elapsed < 300.0
    _report(
        5,
        ok,
        f"n=3600 m/n=0.5 k/m=0.1: mean {mean_iters:.1f} iterations to -40 dB "
        f"(budget 45) in {elapsed:.1f}s (budget 300s)",
    )


def test_06_em_tracks_oracle_success():
    oracle = _recovery_cell(max_iters=2000).success_rate
    em = _recovery_cell(solver="ssamp_em", max_iters=2000).success_rate
    ok = abs(em - oracle) <= 0.1
    _report(6, ok, f"em success {em:.2f} vs oracle-prior {oracle:.2f} (gap <= 0.1)")


def test_07_structured_ensemble_matches_gaussian():
    gaussian = _recovery_cell(max_iters=100).success_rate
    dct = _recovery_cell(
        matrix="subsampled_dct", sign_randomize=True, max_iters=100
    ).success_rate
    ok = abs(dct - gaussian) <= 0.1
    _report(
        7, ok, f"sign-randomized dct success {dct:.2f} vs gaussian {gaussian:.2f}"
    )


def test_08_damped_quasi_toeplitz_recovery():
    config = ExperimentConfig(
        matrix="quasi_toeplitz",
        sign_randomize=True,
        n=1024,
        grid_m_over_n=(0.25,),
        grid_k_over_m=(0.1,),
        trials=20,
        max_iters=2000,
        beta=0.5,
    )
    (cell,) = run_phase_grid(config)
    ok = cell.success_rate >= 0.8
    _report(
        8,
        ok,
        f"full-band rows with beta=0.5: success {cell.success_rate:.2f} "
        f"(mean {cell.mean_iters:.0f} iterations)",
    )


def test_09_solver_ordering_on_transition():
    grid_k = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    crossings = {}
    for solver in ("ssamp_oracle", "tvamp"):
        config = ExperimentConfig(
            solver=solver,
            n=500,
            grid_m_over_n=(0.5,),
            grid_k_over_m=grid_k,
            trials=20,
            max_iters=1000,
        )
        cells = run_phase_grid(config)
        curve = pt_curve(cells)
        if curve:
            crossings[solver] = curve[0][1]
        elif all(c.success_rate >= 0.5 for c in cells):
            crossings[solver] = grid_k[-1]  # never drops below half: lower bound
        else:
            crossings[solver] = 0.0
    ok = crossings["ssamp_oracle"] >= crossings["tvamp"]
    _report(
        9,
        ok,
        f"half-success k/m at m/n=0.5: ssamp {crossings['ssamp_oracle']:.2f} "
        f">= tvamp {crossings['tvamp']:.2f}",
    )


def test_10_tv_prox_certificates():
    rng = np.random.default_rng(14)
    worst_gap = -np.inf
    worst_kkt = 0.0
    for _ in range(100):
        n = int(rng.integers(5, 101))
        y = rng.normal(size=n) * 2.0
        lam = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        x = tv_prox(y, lam)
        reference = tv_prox_pg(y, lam, 50_000)
        gap = tv_objective(x, y, lam) - tv_objective(reference, y, lam)
        kkt = tv_kkt_residual(x, y, lam)
        worst_gap = max(worst_gap, gap)
        worst_kkt = max(worst_kkt, kkt)
        assert gap <= 1e-9 and kkt <= 1e-8, (n, lam)
    for _ in range(100):
        n = int(rng.integers(5, 101))
        a = rng.normal(size=n) * 2.0
        b = a + rng.normal(size=n) * rng.uniform(0.01, 2.0)
        lam = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        d_out = float(np.linalg.norm(tv_prox(a, lam) - tv_prox(b, lam)))
        d_in = float(np.linalg.norm(a - b))
        assert d_out <= d_in * (1.0 + 1e-12) + 1e-12, (n, lam)
    _report(
        10,
        True,
        f"100 prox instances: worst objective gap {worst_gap:.1e}, "
        f"worst kkt {worst_kkt:.1e}; nonexpansive on 100 pairs",
    )


def test_11_repeated_runs_byte_identical(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(
        '{"n": 128, "grid_m_over_n": [0.4, 0.6], "grid_k_over_m": [0.1, 0.3],'
        ' "trials": 3, "max_iters": 300}'
    )
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    assert main(["pt", str(cfg), "--out", str(first)]) == 0
    assert main(["pt", str(cfg), "--out", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    _report(11, ok, f"repeated pt runs byte-identical ({first.stat().st_size} bytes)")
