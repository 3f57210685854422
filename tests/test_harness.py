import csv
import dataclasses
import json

import numpy as np
import pytest

import ssamp.harness
from oracles import dense_matrix
from ssamp.harness import (
    SOLVERS,
    ExperimentConfig,
    PhaseCell,
    Table,
    build_operator,
    cell_sizes,
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
)
from ssamp.operators import (
    KINDS,
    SIGNED_KINDS,
    column_sign_randomize,
    make_quasi_toeplitz,
    make_subsampled_dct,
    make_subsampled_wht,
)
from ssamp.signals import nmse
from ssamp.solver import DivergenceError, PriorParams, SolverConfig, default_em_params, solve
from ssamp.tvamp import tvamp_solve


def _cell(m_over_n, k_over_m, successes, trials=10):
    # trials=0 stands for a cell with infeasible sizes
    rate = successes / trials if trials else 0.0
    return PhaseCell(m_over_n, k_over_m, trials, successes, rate, 0.0)


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
    # a JSON true or "false" passed as 1.0 or as a truthy sign flag
    for name in ("delta", "success_nmse", "sigma0", "q", "lam", "beta", "tol"):
        for value in (True, "0.5", None):
            if value is None and name in ("q", "beta"):
                continue  # unset
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                ExperimentConfig(**{name: value})
    # the retired sign_randomize key is absent or the bool the matrix kind implies
    for value in ("false", 1, 0, np.False_):
        with pytest.raises(ValueError, match="sign_randomize must be false or absent"):
            ExperimentConfig(sign_randomize=value)
    for name in ("grid_m_over_n", "grid_k_over_m"):
        for value in ((True,), 0.5, "0.5", (0.5, "0.1")):
            with pytest.raises(ValueError, match=f"{name} must be a list of numbers"):
                ExperimentConfig(**{name: value})
    with pytest.raises(ValueError, match="seed_base must be at least 0"):
        ExperimentConfig(seed_base=-1)
    # an integer too large for a float is infinite: no finite field takes it, tol
    # reads it as infinity, and a seed of any size still runs its trials
    for name in ("n", "trials", "col_weight", "delta", "success_nmse", "sigma0", "q", "lam",
                 "beta", "max_iters"):
        with pytest.raises(ValueError, match=f"{name} must be"):
            ExperimentConfig(**{name: 10**400})
    assert ExperimentConfig(tol=10**400).tol == float("inf")
    huge = ExperimentConfig(n=16, seed_base=10**400, max_iters=20)
    assert huge.seed_base == 10**400
    assert run_single_trial(huge, 0.5, 0.25, 8, 2, 0).iters >= 1
    cfg = ExperimentConfig(grid_m_over_n=[np.float64(0.5), 1], q=np.float64(0.1), lam=2)
    assert cfg.grid_m_over_n == (0.5, 1) and cfg.q == 0.1


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
        with pytest.raises(ValueError, match="band|col_weight"):
            ExperimentConfig(matrix="quasi_toeplitz", sign_randomize=True, n=64, **fields)
    cfg = ExperimentConfig(matrix="quasi_toeplitz", sign_randomize=True, n=64, band=64)
    assert cfg.band == 64


def test_config_rejects_wht_off_power_of_two():
    # such a config used to pass construction and fail at its first trial
    with pytest.raises(ValueError, match="power of two"):
        ExperimentConfig(matrix="subsampled_wht", sign_randomize=True, n=200)
    assert ExperimentConfig(matrix="subsampled_wht", sign_randomize=True, n=256).n == 256


def test_config_rejects_col_weight_above_a_grid_columns_m():
    # `ssamp pt` on this grid used to run two cells and fail at the third, m = 20
    grid = dict(n=200, grid_m_over_n=(0.5, 0.1), grid_k_over_m=(0.1, 0.2))
    with pytest.raises(ValueError, match="col_weight 50 exceeds m = 20"):
        ExperimentConfig(matrix="sparse_bernoulli", col_weight=50, **grid)
    assert ExperimentConfig(matrix="sparse_bernoulli", col_weight=20, **grid).col_weight == 20
    assert ExperimentConfig(col_weight=50, **grid).col_weight == 50  # unused off sparse rows
    # a column whose cells are all skipped (m < 1) builds no operator
    skipped = dict(n=200, grid_m_over_n=(0.001, 0.5), grid_k_over_m=(0.1,))
    assert ExperimentConfig(matrix="sparse_bernoulli", **skipped).col_weight == 8


def test_config_rejects_non_integer_counts():
    # JSON floats (64.0, 2e2) and bools got past construction and failed mid-run
    for name in ("n", "trials", "seed_base", "max_iters", "band", "col_weight"):
        for value in (64.0, 2e2, True, "64"):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ExperimentConfig(
                    matrix="quasi_toeplitz", sign_randomize=True, **{"n": 256, name: value}
                )
    cfg = ExperimentConfig(n=np.int64(64), trials=3, seed_base=7, band=None, max_iters=5)
    assert cfg.solver_config.max_iters == 5
    for value in (5.0, False, None):
        with pytest.raises(ValueError, match="max_iters must be an integer"):
            SolverConfig(max_iters=value)


def test_config_rejects_unsigned_fast_transforms():
    # the transforms always run behind column signs (without them AMP fails every
    # trial) and the stored ensembles never, so the retired sign_randomize key may
    # only agree: false on a transform, or true on a stored ensemble, whose bytes
    # it used to change, is an error, and so is any value that is not a bool
    assert SIGNED_KINDS == ("subsampled_dct", "subsampled_wht", "quasi_toeplitz")
    for kind in KINDS:
        signed = kind in SIGNED_KINDS
        fields = dict(matrix=kind, n=64, col_weight=4)
        assert ExperimentConfig(**fields, sign_randomize=signed) == ExperimentConfig(**fields)
        for value in (not signed, int(signed), str(signed).lower(), np.bool_(signed)):
            want = f"sign_randomize must be {str(signed).lower()} or absent on {kind}"
            with pytest.raises(ValueError, match=want):
                ExperimentConfig(**fields, sign_randomize=value)


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


def test_config_stores_plain_numbers():
    # numpy scalars, and ints where floats go, are stored as the plain numbers they
    # mean: the fields dump to JSON (an np.int64 n used to raise TypeError), and a
    # trial runs the same bytes
    plain = dict(n=64, grid_m_over_n=(0.5, 1.0), grid_k_over_m=(0.2,), trials=2, sigma0=2.0,
                 q=0.1, lam=1.0, delta=0.0, max_iters=50, tol=0.0, beta=0.5, seed_base=3)
    numpy = dict(n=np.int64(64), grid_m_over_n=[np.float64(0.5), 1],
                 grid_k_over_m=[np.float64(0.2)], trials=np.int64(2), sigma0=2,
                 q=np.float64(0.1), lam=1, delta=0, max_iters=np.int64(50), tol=0,
                 beta=np.float64(0.5), seed_base=np.int64(3))
    fields = dataclasses.asdict(ExperimentConfig(**numpy))
    assert fields == dataclasses.asdict(ExperimentConfig(**plain))
    assert json.loads(json.dumps(fields))["n"] == 64
    for name, value in fields.items():
        for v in value if isinstance(value, tuple) else (value,):
            assert type(v) in (int, float, str, bool, type(None)), name
    assert type(fields["sigma0"]) is float and type(fields["grid_m_over_n"][1]) is float
    for solver in SOLVERS:
        want, got = (run_single_trial(ExperimentConfig(solver=solver, **c), 0.5, 0.2, 32, 6, 0)
                     for c in (plain, numpy))
        assert got.report.estimate.tobytes() == want.report.estimate.tobytes()


# ---------------------------------------------------------------- operators


def test_build_operator_dispatch():
    # a transform comes wrapped in column signs drawn from the sign seed, the bytes of
    # column_sign_randomize on its maker; a stored ensemble comes bare
    n = 64
    makers = {
        "subsampled_dct": lambda: make_subsampled_dct(32, n, 7),
        "subsampled_wht": lambda: make_subsampled_wht(32, n, 7),
        "quasi_toeplitz": lambda: make_quasi_toeplitz(32, n, n, 7),
    }
    rng = np.random.default_rng(0)
    x, r = rng.standard_normal(n), rng.standard_normal(32)
    for kind in KINDS:
        op = build_operator(ExperimentConfig(matrix=kind, n=n, col_weight=4), 32, 7, 8)
        assert op.kind == kind
        assert (op.m, op.n) == (32, n)
        assert hasattr(op, "signs") == (kind in makers)
        if kind in makers:
            want = column_sign_randomize(makers[kind](), 8)
            assert op.apply(x).tobytes() == want.apply(x).tobytes()
            assert op.adjoint(r).tobytes() == want.adjoint(r).tobytes()


def test_build_operator_band_default_and_override():
    cfg = ExperimentConfig(matrix="quasi_toeplitz", sign_randomize=True, n=64)
    # the band is the first row's support, zero past it to FFT rounding
    band = lambda op: np.count_nonzero(np.abs(dense_matrix(op)[0]) > 1e-12)
    assert band(build_operator(cfg, 16, 0, 0)) == 64
    # band 16 exceeds n - m = 6 at the grid's m = 58
    cfg = ExperimentConfig(
        matrix="quasi_toeplitz", sign_randomize=True, n=64, band=16, grid_m_over_n=(0.9,)
    )
    assert band(build_operator(cfg, 58, 0, 0)) == 16


def test_accepted_quasi_toeplitz_bands_measure_every_column():
    # the first m shifts of a band-b row leave n - m - b + 1 columns zero when
    # b <= n - m, so a config takes only bands above n - m for every cell's m
    n = 64
    for grid in ((0.5,), (0.25, 0.75), (0.9,)):
        m_min = min(cell_sizes(ExperimentConfig(n=n), g, 0.1)[0] for g in grid)
        for band in range(1, n + 1):
            fields = dict(matrix="quasi_toeplitz", sign_randomize=True, n=n, band=band)
            if band <= n - m_min:
                with pytest.raises(ValueError, match=f"band {band} leaves columns unmeasured"):
                    ExperimentConfig(grid_m_over_n=grid, grid_k_over_m=(0.1,), **fields)
                continue
            cfg = ExperimentConfig(grid_m_over_n=grid, grid_k_over_m=(0.1,), **fields)
            for g in grid:
                m, _ = cell_sizes(cfg, g, 0.1)
                op = build_operator(cfg, m, band, band + 1)
                assert np.min(np.sum(dense_matrix(op) ** 2, axis=0)) > 1e-20
        # the check is tight: the largest rejected band leaves one column zero
        op = make_quasi_toeplitz(m_min, n, n - m_min, 0)
        energy = np.sum(dense_matrix(op) ** 2, axis=0)
        assert np.sum(energy < 1e-20) == 1


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
    assert r.report is None
    # the iterations the run made up to its divergence, not max_iters
    op, _, y = make_instance(cfg, 0.5, 0.1, 100, 10, 0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        tvamp_solve(op, y, cfg.lam, cfg.solver_config)
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
    # the oracle prior: q = k / (n - 1)
    report = solve(op, y, PriorParams(10 / 199, 1.0), cfg.solver_config, truth=x)
    trial = run_single_trial(cfg, 0.5, 0.1, 100, 10, 3)
    assert trial.iters == report.iters_run
    assert trial.nmse == nmse(x, report.estimate)
    assert trial.report.estimate.tobytes() == report.estimate.tobytes()


def test_single_trial_q_overrides_the_prior():
    # a set q replaces the oracle's k / (n - 1), and EM's default_em_params start
    cfg = ExperimentConfig(n=200, q=0.08, sigma0=2.0, delta=1e-6, max_iters=300)
    op, x, y = make_instance(cfg, 0.5, 0.1, 100, 10, 3)
    params = PriorParams(0.08, 4.0, 1e-6)
    for solver, em in (("ssamp_oracle", False), ("ssamp_em", True)):
        report = solve(op, y, params, cfg.solver_config, truth=x, em=em)
        trial = run_single_trial(dataclasses.replace(cfg, solver=solver), 0.5, 0.1, 100, 10, 3)
        assert trial.report.estimate.tobytes() == report.estimate.tobytes()
        assert trial.iters == report.iters_run


def test_single_trial_em_carries_delta(monkeypatch):
    # with q unset, EM starts from the scale-derived prior at the configured delta
    starts = []

    def recording(op, y, params, *args, **kwargs):
        starts.append(params)
        return solve(op, y, params, *args, **kwargs)

    monkeypatch.setattr(ssamp.harness, "solve", recording)
    cfg = ExperimentConfig(n=120, solver="ssamp_em", delta=1e-2, max_iters=20)
    op, x, y = make_instance(cfg, 0.5, 0.1, 60, 6, 0)
    report = run_single_trial(cfg, 0.5, 0.1, 60, 6, 0).report
    assert starts == [default_em_params(op, y, 1e-2)]
    assert starts[-1].delta == 1e-2
    assert report.final_params.delta == 1e-2


def test_library_em_solve_matches_the_harness():
    # one channel-variance rule for EM: the library call and the harness
    # trial give the same bytes
    cfg = ExperimentConfig(n=300, solver="ssamp_em", delta=1e-10)
    op, x, y = make_instance(cfg, 0.5, 0.1, 150, 15, 0)
    params = default_em_params(op, y, 1e-10)
    library = solve(op, y, params, truth=x, em=True)
    harness = run_single_trial(cfg, 0.5, 0.1, 150, 15, 0).report
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
    # m = round(0.4) = 0 and m=4, k=4 > n-1: both run no trials
    assert cells == [PhaseCell(0.1, 1.0, 0, 0, 0.0, 0.0), PhaseCell(1.0, 1.0, 0, 0, 0.0, 0.0)]


def test_phase_grid_rounding_of_m_and_k(monkeypatch):
    cfg = ExperimentConfig(n=250, grid_m_over_n=(0.3,), grid_k_over_m=(0.26,), trials=1, max_iters=50)
    sizes = []

    def recording(config, m_over_n, k_over_m, m, k, *rest):
        sizes.append((m, k))
        return run_single_trial(config, m_over_n, k_over_m, m, k, *rest)

    monkeypatch.setattr(ssamp.harness, "run_single_trial", recording)
    cell = run_phase_grid(cfg)[0]
    assert sizes == [(75, 20)]  # round(0.3 * 250), round(0.26 * 75)
    assert cell.trials == 1


# ---------------------------------------------------------------- pt_curve


def test_pt_curve_midpoint_interpolation():
    cells = [_cell(0.5, 0.1, 10), _cell(0.5, 0.2, 0)]
    assert pt_curve(cells) == [(0.5, pytest.approx(0.15))]


def test_pt_curve_exact_half_uses_lower_row():
    cells = [_cell(0.5, 0.1, 5), _cell(0.5, 0.2, 0)]
    assert pt_curve(cells) == [(0.5, 0.1)]


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
        _cell(0.5, 0.15, 0, trials=0),
        _cell(0.5, 0.2, 0),
    ]
    # the infeasible row must not participate in bracketing
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
    assert res.columns == ("iter", "nmse_db_mean", "nmse_db_std")
    assert len(res.rows) == 60
    assert res.rows[0][0] == 1 and res.rows[-1][0] == 60
    again = run_convergence(cfg)[0]
    assert again == res


def test_convergence_statistics_at_ten_trials():
    # from 9 trials on numpy sums in blocks; recompute each iteration's statistics from
    # the free-run trials' traces, one dB value at a time
    cfg = ExperimentConfig(
        n=200, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=10, max_iters=60
    )
    free_run = dataclasses.replace(cfg, tol=0.0)
    reports = [run_single_trial(free_run, 0.5, 0.1, 100, 10, t).report for t in range(10)]
    traces = [report.nmse_trace for report in reports]
    rows = []
    for it in range(cfg.max_iters):
        db = [10.0 * np.log10(max(tr[min(it, tr.size - 1)], 1e-300)) for tr in traces]
        rows.append((it + 1, float(np.mean(db)), float(np.std(db))))
    assert run_convergence(cfg)[0].rows == tuple(rows)


def test_convergence_free_runs_do_not_stall(monkeypatch):
    # TV-AMP past its transition: stopped by tol, these runs stall; free runs (tol = 0) never do
    cfg = ExperimentConfig(
        solver="tvamp", n=200, grid_m_over_n=(0.5,), grid_k_over_m=(0.5,), trials=3, max_iters=120
    )
    reports = []

    def recording(*args, **kwargs):
        reports.append(tvamp_solve(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(ssamp.harness, "tvamp_solve", recording)
    stopped = [run_single_trial(cfg, 0.5, 0.5, 100, 50, t) for t in range(cfg.trials)]
    assert any(not rep.converged and rep.iters_run < 120 for rep in reports)
    assert [r.iters for r in stopped] == [rep.iters_run for rep in reports]
    reports.clear()
    res = run_convergence(cfg)[0]
    assert len(res.rows) == 120
    assert [rep.iters_run for rep in reports] == [120] * cfg.trials


def _count_trials(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return run_single_trial(*args, **kwargs)

    monkeypatch.setattr(ssamp.harness, "run_single_trial", counting)
    return calls


def test_convergence_requires_paired_grids(monkeypatch):
    calls, lines = _count_trials(monkeypatch), []
    cfg = ExperimentConfig(
        n=100, grid_m_over_n=(0.5, 0.6), grid_k_over_m=(0.1,), trials=1, max_iters=3
    )
    for run in (run_convergence, run_runtime):
        with pytest.raises(ValueError, match="pairwise"):
            run(cfg, lines.append)
    assert calls == [] and lines == []


def test_convergence_rejects_infeasible_case(monkeypatch):
    # the feasible first case runs no trial either: every case is checked before any runs
    calls, lines = _count_trials(monkeypatch), []
    cfg = ExperimentConfig(
        n=4, grid_m_over_n=(0.5, 0.1), grid_k_over_m=(0.5, 0.5), trials=1, max_iters=3
    )
    for run in (run_convergence, run_runtime):
        with pytest.raises(ValueError, match=r"case \(m/n=0.1, k/m=0.5\) is infeasible"):
            run(cfg, lines.append)
    assert calls == [] and lines == []


def test_convergence_stops_at_the_first_diverged_trial(monkeypatch):
    # the TV-AMP instance of test_single_trial_swallows_divergence: trial 0 diverges,
    # and trials 1 and 2 never run
    calls = _count_trials(monkeypatch)
    cfg = ExperimentConfig(
        solver="tvamp", n=200, lam=0.05, tol=0.0, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,),
        trials=3,
    )
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        run_convergence(cfg)
    assert info.value.iteration == 1217
    assert len(calls) == 1


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
    table = run_runtime(cfg)
    assert table.columns == (
        "m_over_n", "k_over_m", "n", "trials",
        "mean_iters", "mean_seconds", "mean_per_iter_seconds",
    )
    assert len(table.rows) == 1
    m_over_n, k_over_m, n, trials, mean_iters, mean_seconds, per_iter = table.rows[0]
    assert (m_over_n, k_over_m, n, trials) == (0.5, 0.1, 128, 3)
    assert mean_seconds > 0 and per_iter > 0 and mean_iters > 0
    assert mean_seconds == pytest.approx(mean_iters * per_iter, rel=0.2)


def test_runtime_iteration_counts_deterministic():
    cfg = ExperimentConfig(
        n=128, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=2, max_iters=300
    )
    a = run_runtime(cfg)
    b = run_runtime(cfg)
    assert a.rows[0][4] == b.rows[0][4]  # mean_iters identical; seconds may differ


def test_runtime_scales_with_problem_size():
    small = ExperimentConfig(n=64, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=2, max_iters=300)
    large = ExperimentConfig(n=1024, grid_m_over_n=(0.5,), grid_k_over_m=(0.1,), trials=2, max_iters=300)
    per_small = run_runtime(small).rows[0][6]
    per_large = run_runtime(large).rows[0][6]
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
    # the convergence and runtime columns are checked on their runners' tables
    assert curve_table([]).columns == ("m_over_n", "k_over_m_at_half_success")


def test_emit_csv_round_trip_exact(tmp_path):
    rows = ((1 / 3, 0.1, 20, 17, 0.85, 33.25), (0.30000000000000004, 0.9, 20, 0, 0.0, 2000.0))
    table = phase_table([PhaseCell(*r) for r in rows])
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


def test_emit_csv_text_exact(tmp_path):
    # 17 digits, the exponent form, an integral float, an int column and zero
    table = Table(columns=("a", "b", "c", "d", "e"), rows=((0.1, 1e-300, 2000.0, 20, 0.0),))
    path = tmp_path / "t.csv"
    emit(table, "csv", path)
    assert path.read_text() == "a,b,c,d,e\n0.10000000000000001,1e-300,2000,20,0\n"


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
