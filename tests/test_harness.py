import csv
import dataclasses
import json

import numpy as np
import pytest

import ssamp.harness
from ssamp.harness import (
    ConvergenceResult,
    ExperimentConfig,
    PhaseCell,
    Table,
    build_operator,
    cell_sizes,
    convergence_table,
    curve_table,
    derive_seed,
    emit,
    make_instance,
    phase_table,
    pt_curve,
    ratio_key,
    run_convergence,
    run_phase_grid,
    run_runtime,
    run_single_trial,
    runtime_table,
    solve_instance,
)
from ssamp.signals import nmse
from ssamp.solver import DivergenceError, SolverConfig, default_em_params, solve


def _cell(m_over_n, k_over_m, successes, trials=10, skipped=False):
    return PhaseCell(
        m_over_n=m_over_n,
        k_over_m=k_over_m,
        m=int(100 * m_over_n),
        k=int(100 * m_over_n * k_over_m),
        trials=0 if skipped else trials,
        successes=successes,
        mean_iters=0.0,
        skipped=skipped,
    )


# ---------------------------------------------------------------- seeds


def test_ratio_key_is_stable_and_distinct():
    assert ratio_key(0.5) == ratio_key(0.5)
    assert ratio_key(0.5) != ratio_key(0.1)
    assert ratio_key(0.1) != ratio_key(0.1 + 1e-12)


def test_derive_seed_deterministic_and_split():
    a = derive_seed(42, 1, 2, 3)
    assert a == derive_seed(42, 1, 2, 3)
    assert a != derive_seed(42, 1, 2, 4)
    assert a != derive_seed(43, 1, 2, 3)
    assert 0 <= a < 2**64
    purposes = {derive_seed(0, ratio_key(0.5), ratio_key(0.1), 0, p) for p in range(4)}
    assert len(purposes) == 4


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(solver="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(matrix="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(signal_model="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(n=1)
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(grid_m_over_n=())
    with pytest.raises(ValueError):
        ExperimentConfig(grid_m_over_n=(0.0, 0.5))
    with pytest.raises(ValueError):
        ExperimentConfig(grid_k_over_m=(1.2,))


def test_config_rejects_bad_solver_settings():
    # each fails at construction, not at a grid's first trial (or never,
    # when every cell is skipped or q is clamped into range)
    bad = [
        {"beta": 2.0},
        {"beta": 0.0},
        {"max_iters": 0},
        {"tol": -1.0},
        {"sigma0": 0.0},
        {"sigma0": float("inf")},
        {"delta": -1.0},
        {"delta": float("nan")},
        {"delta": float("inf")},
        {"q": 2.0},
        {"q": -0.1},
        {"lam": 0.0},
        {"lam": float("nan")},
        {"lam": float("inf")},
        # a NaN target used to count every trial a failure
        {"success_nmse": float("nan")},
        {"success_nmse": float("inf")},
        {"success_nmse": -1e-4},
    ]
    for fields in bad:
        with pytest.raises(ValueError):
            ExperimentConfig(**fields)
    cfg = ExperimentConfig(max_iters=50, tol=0.0, beta=0.5, q=1.0)
    assert cfg.solver_config == SolverConfig(max_iters=50, tol=0.0, damping_beta=0.5)
    assert dataclasses.replace(cfg, tol=1e-9).solver_config.tol == 1e-9


def test_config_rejects_bad_operator_settings():
    # band=0 used to run full-band rows, and the others failed only when a
    # trial built its operator
    for fields in ({"band": 0}, {"band": -3}, {"band": 65}, {"col_weight": 0}):
        with pytest.raises(ValueError):
            ExperimentConfig(matrix="quasi_toeplitz", n=64, **fields)
    assert ExperimentConfig(matrix="quasi_toeplitz", n=64, band=64).band == 64


def test_config_rejects_non_integer_counts():
    # JSON floats (64.0, 2e2) and bools got past construction and failed mid-run
    for name in ("n", "trials", "seed_base", "max_iters", "band", "col_weight"):
        for value in (64.0, 2e2, True, "64"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ExperimentConfig(matrix="quasi_toeplitz", **{"n": 256, name: value})
    cfg = ExperimentConfig(n=np.int64(64), trials=3, seed_base=7, band=None, max_iters=5)
    assert cfg.solver_config.max_iters == 5
    for value in (5.0, False, None):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=value)


def test_config_rejects_unsigned_fast_transforms():
    # without column signs AMP fails every trial on these; say so up front
    for kind in ("subsampled_dct", "subsampled_wht"):
        with pytest.raises(ValueError, match="needs sign_randomize"):
            ExperimentConfig(matrix=kind, n=64)
        assert ExperimentConfig(matrix=kind, n=64, sign_randomize=True).sign_randomize


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        ExperimentConfig.from_dict({"n": 64, "bogus": 1})
    cfg = ExperimentConfig.from_dict({"n": 64, "grid_m_over_n": [0.5], "grid_k_over_m": [0.1]})
    assert cfg.n == 64
    assert cfg.grid_m_over_n == (0.5,)


def test_config_lists_become_tuples():
    cfg = ExperimentConfig(grid_m_over_n=[0.25, 0.5], grid_k_over_m=[0.1])
    assert isinstance(cfg.grid_m_over_n, tuple)
    assert hash(cfg) == hash(dataclasses.replace(cfg))


# ---------------------------------------------------------------- operators


def test_build_operator_dispatch():
    kinds = {
        "iid_gaussian": {},
        "subsampled_dct": {"sign_randomize": True},
        "subsampled_wht": {"sign_randomize": True},
        "quasi_toeplitz": {},
        "sparse_bernoulli": {"col_weight": 4},
    }
    for kind, extra in kinds.items():
        n = 64
        cfg = ExperimentConfig(matrix=kind, n=n, **extra)
        op = build_operator(cfg, 32, 7, 8)
        assert op.kind == kind
        assert (op.m, op.n) == (32, n)
        # signs wrap the operator; without them build_operator returns it bare
        assert hasattr(op, "signs") == cfg.sign_randomize
    cfg = ExperimentConfig(matrix="iid_gaussian", n=64, sign_randomize=True)
    op = build_operator(cfg, 32, 7, 8)
    assert op.kind == "iid_gaussian" and hasattr(op, "signs")


def test_build_operator_band_default_and_override():
    cfg = ExperimentConfig(matrix="quasi_toeplitz", n=64)
    assert build_operator(cfg, 16, 0, 0).coeffs.shape == (64,)
    cfg = ExperimentConfig(matrix="quasi_toeplitz", n=64, band=16)
    assert build_operator(cfg, 16, 0, 0).coeffs.shape == (16,)


# ---------------------------------------------------------------- trials & grids


def test_single_trial_easy_cell_succeeds():
    cfg = ExperimentConfig(n=200, trials=1, max_iters=300)
    r = run_single_trial(cfg, 0.5, 0.1, 100, 10, 0)
    assert r.success
    assert r.nmse <= cfg.success_nmse
    assert 0 < r.iters <= 300
    assert r.seconds > 0.0  # the solve's wall-clock seconds


def test_single_trial_hopeless_cell_fails():
    cfg = ExperimentConfig(n=256, trials=1, max_iters=300)
    r = run_single_trial(cfg, 0.05, 0.99, 13, 13, 0)
    assert not r.success


def test_single_trial_swallows_divergence():
    cfg = ExperimentConfig(
        solver="tvamp", n=200, lam=0.05, max_iters=2000, tol=0.0, trials=1
    )
    with np.errstate(all="ignore"):
        r = run_single_trial(cfg, 0.5, 0.1, 100, 10, 0)
    assert not r.success
    assert r.nmse == float("inf")
    # the iterations the run made up to its divergence, not max_iters
    op, _, y = make_instance(cfg, 0.5, 0.1, 100, 10, 0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        solve_instance(cfg, op, y, 10, truth=None, target_nmse=None)
    assert r.iters == info.value.iteration < 2000


def test_cell_sizes_rounding_and_feasibility():
    cfg = ExperimentConfig(n=250)
    assert cell_sizes(cfg, 0.3, 0.26) == (75, 20)
    assert cell_sizes(ExperimentConfig(n=4), 0.1, 1.0) is None  # m = 0
    assert cell_sizes(ExperimentConfig(n=4), 1.0, 1.0) is None  # k = 4 > n - 1


def test_make_instance_replays_the_single_trial():
    cfg = ExperimentConfig(n=200, trials=1, max_iters=300)
    op, x, y = make_instance(cfg, 0.5, 0.1, 100, 10, 3)
    op2, x2, y2 = make_instance(cfg, 0.5, 0.1, 100, 10, 3)
    assert (op.m, op.n) == (100, 200)
    assert np.count_nonzero(np.diff(x)) == 10
    np.testing.assert_array_equal(x, x2)
    np.testing.assert_array_equal(y, y2)
    np.testing.assert_array_equal(y, op.apply(x))  # delta = 0
    report = solve_instance(cfg, op, y, 10, truth=x, target_nmse=None)
    trial = run_single_trial(cfg, 0.5, 0.1, 100, 10, 3)
    assert trial.iters == report.iters_run
    assert trial.nmse == nmse(x, report.estimate)


def test_solve_instance_em_carries_delta(monkeypatch):
    # with q unset, EM starts from the scale-derived prior at the configured delta
    starts = []

    def recording(op, y, params, *args, **kwargs):
        starts.append(params)
        return solve(op, y, params, *args, **kwargs)

    monkeypatch.setattr(ssamp.harness, "solve", recording)
    cfg = ExperimentConfig(n=120, solver="ssamp_em", delta=1e-2, max_iters=20)
    op, x, y = make_instance(cfg, 0.5, 0.1, 60, 6, 0)
    report = solve_instance(cfg, op, y, 6, truth=x, target_nmse=None)
    assert starts[-1] == default_em_params(op, y, 1e-2)
    assert starts[-1].delta == 1e-2
    assert report.final_params.delta == 1e-2


def test_library_em_solve_matches_the_harness():
    # one channel-variance rule for EM: the library call and the harness
    # trial give the same bytes
    cfg = ExperimentConfig(n=300, solver="ssamp_em", delta=1e-10)
    op, x, y = make_instance(cfg, 0.5, 0.1, 150, 15, 0)
    params = default_em_params(op, y, 1e-10)
    library = solve(op, y, params, truth=x, em=True)
    harness = solve_instance(cfg, op, y, 15, truth=x, target_nmse=None)
    assert library.iters_run == harness.iters_run
    assert library.converged == harness.converged
    assert library.final_params == harness.final_params
    assert library.estimate.tobytes() == harness.estimate.tobytes()
    assert library.nmse_trace.tobytes() == harness.nmse_trace.tobytes()


def test_phase_grid_deterministic_reproduction():
    cfg = ExperimentConfig(n=100, grid_m_over_n=(0.4,), grid_k_over_m=(0.1, 0.6), trials=2, max_iters=200)
    assert run_phase_grid(cfg) == run_phase_grid(cfg)


def test_phase_grid_cells_survive_grid_permutation():
    base = ExperimentConfig(n=100, grid_m_over_n=(0.4,), grid_k_over_m=(0.1,), trials=2, max_iters=200)
    wide = dataclasses.replace(base, grid_m_over_n=(0.8, 0.4), grid_k_over_m=(0.3, 0.1))
    lone = run_phase_grid(base)[0]
    cells = run_phase_grid(wide)
    twin = [c for c in cells if c.m_over_n == 0.4 and c.k_over_m == 0.1][0]
    assert twin == lone


def test_phase_grid_skips_infeasible_cells():
    cfg = ExperimentConfig(n=4, grid_m_over_n=(0.1, 1.0), grid_k_over_m=(1.0,), trials=1)
    cells = run_phase_grid(cfg)
    # m = round(0.4) = 0 -> skipped; m=4, k=4 > n-1 -> skipped
    assert [c.skipped for c in cells] == [True, True]
    assert all(c.trials == 0 and c.success_rate == 0.0 for c in cells)


def test_phase_grid_rounding_of_m_and_k():
    cfg = ExperimentConfig(n=250, grid_m_over_n=(0.3,), grid_k_over_m=(0.26,), trials=1, max_iters=50)
    cell = run_phase_grid(cfg)[0]
    assert cell.m == 75  # round(0.3 * 250)
    assert cell.k == 20  # round(0.26 * 75)
    assert cell.trials == 1


# ---------------------------------------------------------------- pt_curve


def test_pt_curve_midpoint_interpolation():
    cells = [_cell(0.5, 0.1, 10), _cell(0.5, 0.2, 0)]
    assert pt_curve(cells) == [(0.5, pytest.approx(0.15))]


def test_pt_curve_exact_half_uses_lower_row():
    cells = [_cell(0.5, 0.1, 5), _cell(0.5, 0.2, 0)]
    assert pt_curve(cells) == [(0.5, pytest.approx(0.1))]


def test_pt_curve_omits_columns_without_crossing():
    cells = [
        _cell(0.3, 0.1, 10), _cell(0.3, 0.2, 10),     # all success
        _cell(0.6, 0.1, 0), _cell(0.6, 0.2, 0),       # all failure
        _cell(0.9, 0.1, 10), _cell(0.9, 0.2, 4),      # crosses
    ]
    curve = pt_curve(cells)
    assert [p[0] for p in curve] == [0.9]


def test_pt_curve_interpolates_within_bracketing_rows():
    rng = np.random.default_rng(0)
    ks = np.linspace(0.05, 0.95, 8)
    rates = np.clip(np.linspace(1.0, 0.0, 8) + rng.normal(0, 0.03, 8), 0, 1)
    cells = [_cell(0.5, float(k), int(round(r * 10))) for k, r in zip(ks, rates)]
    curve = pt_curve(cells)
    assert len(curve) == 1
    m_over_n, k_star = curve[0]
    assert ks[0] <= k_star <= ks[-1]


def test_pt_curve_ignores_skipped_cells():
    cells = [
        _cell(0.5, 0.1, 10),
        _cell(0.5, 0.15, 0, skipped=True),
        _cell(0.5, 0.2, 0),
    ]
    # the skipped row must not participate in bracketing
    curve = pt_curve(cells)
    assert curve == [(0.5, pytest.approx(0.15))]


def test_pt_curve_example_from_first_grid_scan():
    # non-monotone rates: the first bracketing pair from below wins
    cells = [
        _cell(0.5, 0.1, 8),
        _cell(0.5, 0.2, 2),
        _cell(0.5, 0.3, 6),
        _cell(0.5, 0.4, 0),
    ]
    curve = pt_curve(cells)
    assert curve[0][1] == pytest.approx(0.1 + 0.1 * (0.5 - 0.8) / (0.2 - 0.8))


# ---------------------------------------------------------------- convergence


def test_convergence_trace_shape_and_determinism():
    cfg = ExperimentConfig(
        n=200, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=2, max_iters=60
    )
    results = run_convergence(cfg)
    assert len(results) == 1
    res = results[0]
    assert len(res.rows) == 60
    assert res.rows[0][0] == 1 and res.rows[-1][0] == 60
    again = run_convergence(cfg)[0]
    assert again == res


def test_convergence_free_runs_do_not_stall(monkeypatch):
    # TV-AMP past its transition: stopped by tol, these runs stall; free runs (tol = 0) never do
    cfg = ExperimentConfig(
        solver="tvamp", n=200, grid_m_over_n=(0.5,), grid_k_over_m=(0.5,), trials=3, max_iters=120
    )
    reports = []

    def recording(*args, **kwargs):
        reports.append(solve_instance(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(ssamp.harness, "solve_instance", recording)
    stopped = [run_single_trial(cfg, 0.5, 0.5, 100, 50, t) for t in range(cfg.trials)]
    assert any(not rep.converged and rep.iters_run < 120 for rep in reports)
    assert [r.iters for r in stopped] == [rep.iters_run for rep in reports]
    reports.clear()
    res = run_convergence(cfg)[0]
    assert len(res.rows) == 120
    assert [rep.iters_run for rep in reports] == [120] * cfg.trials


def test_convergence_requires_paired_grids():
    cfg = ExperimentConfig(
        n=100, grid_m_over_n=(0.5, 0.6), grid_k_over_m=(0.1,), trials=1, max_iters=3
    )
    with pytest.raises(ValueError, match="pairwise"):
        run_convergence(cfg)


def test_convergence_rejects_infeasible_case():
    cfg = ExperimentConfig(
        n=4, grid_m_over_n=(0.1,), grid_k_over_m=(0.5,), trials=1, max_iters=3
    )
    with pytest.raises(ValueError, match="infeasible"):
        run_convergence(cfg)


def test_convergence_db_values_are_finite():
    cfg = ExperimentConfig(
        n=200, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=2, max_iters=60
    )
    res = run_convergence(cfg)[0]
    means = np.array([row[1] for row in res.rows])
    assert np.all(np.isfinite(means))


# ---------------------------------------------------------------- runtime


def test_runtime_rows_and_consistency():
    cfg = ExperimentConfig(
        n=128, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=3, max_iters=300
    )
    rows = run_runtime(cfg)
    assert len(rows) == 1
    m_over_n, k_over_m, n, trials, mean_iters, mean_seconds, per_iter = rows[0]
    assert (m_over_n, k_over_m, n, trials) == (0.5, 0.1, 128, 3)
    assert mean_seconds > 0 and per_iter > 0 and mean_iters > 0
    assert mean_seconds == pytest.approx(mean_iters * per_iter, rel=0.2)


def test_runtime_iteration_counts_deterministic():
    cfg = ExperimentConfig(
        n=128, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=2, max_iters=300
    )
    a = run_runtime(cfg)
    b = run_runtime(cfg)
    assert a[0][4] == b[0][4]  # mean_iters identical; seconds may differ


def test_runtime_scales_with_problem_size():
    small = ExperimentConfig(n=64, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=2, max_iters=300)
    large = ExperimentConfig(n=1024, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=2, max_iters=300)
    per_small = run_runtime(small)[0][6]
    per_large = run_runtime(large)[0][6]
    assert per_large > per_small


# ---------------------------------------------------------------- tables & emit


def test_phase_table_columns_and_rows():
    cells = [_cell(0.5, 0.1, 7)]
    table = phase_table(cells)
    assert table.columns == (
        "m_over_n", "k_over_m", "trials", "successes",
        "success_rate", "mean_iters",
    )
    assert table.rows[0] == (0.5, 0.1, 10, 7, 0.7, 0.0)


def test_other_table_columns():
    assert curve_table([]).columns == ("m_over_n", "k_over_m_at_half_success")
    res = ConvergenceResult(0.5, 0.1, ((1, -3.0, 0.1),))
    assert convergence_table(res).columns == ("iter", "nmse_db_mean", "nmse_db_std")
    assert runtime_table([]).columns == (
        "m_over_n", "k_over_m", "n", "trials",
        "mean_iters", "mean_seconds", "mean_per_iter_seconds",
    )


def test_emit_csv_round_trip_exact(tmp_path):
    rows = ((1 / 3, 0.1, 20, 17, 0.85, 33.25), (0.30000000000000004, 0.9, 20, 0, 0.0, 2000.0))
    table = phase_table([PhaseCell(r[0], r[1], 1, 1, r[2], r[3], r[5]) for r in rows])
    path = tmp_path / "t.csv"
    emit(table, "csv", path)
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert tuple(parsed[0]) == table.columns
    for want, got in zip(table.rows, parsed[1:]):
        assert float(got[0]) == want[0]
        assert float(got[1]) == want[1]
        assert int(got[2]) == want[2]
        assert int(got[3]) == want[3]
        assert float(got[4]) == want[4]
        assert float(got[5]) == want[5]


def test_emit_empty_table_is_header_only(tmp_path):
    path = tmp_path / "e.csv"
    emit(Table(columns=("a", "b"), rows=()), "csv", path)
    assert path.read_text() == "a,b\n"


def test_emit_json_mirrors_csv_fields(tmp_path):
    table = phase_table([_cell(0.5, 0.1, 7)])
    path = tmp_path / "t.json"
    emit(table, "json", path)
    payload = json.loads(path.read_text())
    assert payload[0] == {
        "m_over_n": 0.5, "k_over_m": 0.1, "trials": 10, "successes": 7,
        "success_rate": 0.7, "mean_iters": 0.0,
    }


def test_emit_byte_identical_repeats(tmp_path):
    table = phase_table([_cell(0.5, 0.1, 7), _cell(0.5, 0.2, 3)])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit(table, "csv", p1)
    emit(table, "csv", p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit(Table(columns=("a",), rows=()), "yaml", tmp_path / "x")
