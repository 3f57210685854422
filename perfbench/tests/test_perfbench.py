"""The benchmark's own tests: tracing must not change results, hooks must be
restored, trials must follow the harness seed contract, and the command must
print what BENCHMARK.json declares.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import ssamp
import ssamp.harness
import ssamp.solver
from perfbench import calibration, tracing
from perfbench.workloads import CorrectnessError, Workload, run_trial
from ssamp import operators

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def small(solver: str, stop_at_target: bool = False) -> Workload:
    fields = dict(
        solver=solver,
        matrix="iid_gaussian",
        n=120,
        grid_m_over_n=(0.5,),
        grid_k_over_m=(0.2, 0.4, 0.6),
        delta=0.0,
        max_iters=300,
    )
    return Workload(f"small_{solver}", "test", fields, stop_at_target=stop_at_target)


OPERATORS = {
    "iid_gaussian": lambda: operators.make_iid_gaussian(40, 64, 1),
    "dct_signs": lambda: operators.column_sign_randomize(
        operators.make_subsampled_dct(32, 64, 2), 3
    ),
    "wht": lambda: operators.make_subsampled_wht(32, 64, 4),
    "quasi_toeplitz": lambda: operators.make_quasi_toeplitz(32, 64, 9, 5),
    "sparse_bernoulli": lambda: operators.make_sparse_bernoulli(32, 64, 4, 6),
}


@pytest.mark.parametrize("kind", sorted(OPERATORS))
def test_traced_operator_is_bit_identical(kind):
    op = OPERATORS[kind]()
    tracer = tracing.Tracer()
    wrapped = tracer.wrap_operator(op)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(op.n)
    r = rng.standard_normal(op.m)
    assert wrapped.apply(x).tobytes() == op.apply(x).tobytes()
    assert wrapped.adjoint(r).tobytes() == op.adjoint(r).tobytes()
    assert (wrapped.m, wrapped.n, wrapped.kind) == (op.m, op.n, op.kind)
    assert [s[tracing.NAME] for s in tracer.spans] == ["operators.apply", "operators.adjoint"]


@pytest.mark.parametrize(
    "solver, layers",
    [
        ("ssamp_oracle", {"kernels.phi_zeta", "kernels.eta_gamma", "solver.solve"}),
        ("ssamp_em", {"kernels.phi_zeta", "kernels.eta_gamma", "solver.em_update"}),
        ("tvamp", {"tvamp.tv_prox", "tvamp.tv_divergence", "tvamp.solve"}),
    ],
)
def test_traced_and_untraced_trials_agree(solver, layers):
    workload = small(solver)
    config = workload.config(seed_base=5)
    tracer = tracing.Tracer()
    trials = range(6)
    for index in trials:
        plain = run_trial(workload, config, index)
        with tracing.installed(tracer) as absent:
            traced = run_trial(workload, config, index, tracer)
        assert absent == []
        assert (traced.iters, traced.estimate_sha256) == (plain.iters, plain.estimate_sha256)
    names = {s[tracing.NAME] for s in tracer.spans}
    harness_calls = {"operators.build", "signals.generate", "signals.measure"}
    assert layers | harness_calls | {"harness.trial", "operators.apply"} <= names
    assert tracing.self_times_sum_to_trials(tracer.spans)


def test_every_hook_is_restored_after_a_traced_run():
    before = tracing.current_hooks()
    assert all(fn is not None for fn in before.values())
    workload = small("ssamp_oracle")
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        during = tracing.current_hooks()
        run_trial(workload, workload.config(0), 0, tracer)
    assert all(during[key] is not before[key] for key in before)
    assert tracing.current_hooks() == before
    with pytest.raises(KeyError):
        with tracing.installed(tracer):
            raise KeyError("trial failed")
    assert tracing.current_hooks() == before


@pytest.mark.parametrize(
    "solver, module, attr, span",
    [
        ("tvamp", ssamp.solver, "phi_zeta", "kernels.phi_zeta"),
        ("ssamp_oracle", ssamp.harness, "tvamp_solve", "tvamp.solve"),
    ],
)
def test_missing_hook_point_is_an_absent_layer(monkeypatch, solver, module, attr, span):
    monkeypatch.delattr(module, attr)
    workload = small(solver)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as absent:
        outcome = run_trial(workload, workload.config(0), 0, tracer)
    assert absent == [span]
    assert outcome.iters > 0
    assert not hasattr(module, attr)


def _returning(estimate_of):
    """A stand-in for ssamp.harness.solve whose report carries a bad estimate."""
    real = ssamp.harness.solve

    def solve(*args, **kwargs):
        report = real(*args, **kwargs)
        return dataclasses.replace(report, estimate=estimate_of(report.estimate))

    return solve


@pytest.mark.parametrize(
    "estimate_of, message",
    [
        (lambda e: e[:-1], "estimate shape"),
        (lambda e: np.where(np.arange(e.size) == 3, np.nan, e), "non-finite"),
    ],
    ids=["wrong_shape", "non_finite"],
)
def test_bad_estimate_from_the_harness_solver_fails_the_check(monkeypatch, estimate_of, message):
    monkeypatch.setattr(ssamp.harness, "nmse", lambda x, e: 0.0)
    monkeypatch.setattr(ssamp.harness, "solve", _returning(estimate_of))
    workload = small("ssamp_oracle")
    with pytest.raises(CorrectnessError, match=message):
        run_trial(workload, workload.config(0), 0)


def test_trial_that_the_harness_does_not_solve_through_the_capture_fails(monkeypatch):
    monkeypatch.setattr(ssamp.harness, "run_single_trial", lambda *a, **k: None)
    workload = small("ssamp_oracle")
    with pytest.raises(CorrectnessError, match="cannot be checked"):
        run_trial(workload, workload.config(0), 0)


def test_missed_target_fails_a_stop_at_target_workload():
    workload = small("ssamp_oracle", stop_at_target=True)
    config = dataclasses.replace(workload.config(0), max_iters=2)
    with pytest.raises(CorrectnessError, match="misses the target"):
        run_trial(workload, config, 0)


@pytest.mark.parametrize("solver", ["ssamp_oracle", "tvamp"])
def test_trials_follow_the_phase_grid_seed_contract(solver):
    workload = small(solver)
    config = workload.config(seed_base=11)
    trials = 4
    cells = ssamp.run_phase_grid(dataclasses.replace(config, trials=trials))
    outcomes = [run_trial(workload, config, i) for i in range(trials * len(cells))]
    assert any(c.successes < trials for c in cells)  # failures are covered too
    for cell in cells:
        mine = [o for o in outcomes if o.k_over_m == cell.k_over_m]
        assert len(mine) == trials
        assert sum(o.success for o in mine) == cell.successes
        # the harness records a diverged trial as max_iters
        iters = [config.max_iters if o.diverged else o.iters for o in mine]
        assert float(np.mean(iters)) == cell.mean_iters


def test_calibration_rescales_each_trial_by_the_reference_blocks_around_it():
    nominal = calibration.NOMINAL_S
    w = calibration.WINDOW
    # The machine halves its speed after trial 20: later trials take twice
    # as long, and so do the reference blocks beside them.
    seconds = [0.3] * 20 + [0.6] * 20
    reference = [nominal] * 20 + [2 * nominal] * 20
    cal = calibration.calibrated(seconds, reference)
    assert cal[: 20 - w] == pytest.approx([0.3] * (20 - w))
    assert cal[20 + w :] == pytest.approx([0.3] * (20 - w))
    with pytest.raises(ValueError):
        calibration.calibrated(seconds, reference[:-1])


def _last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_command_prints_every_declared_metric(trace, key):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    cmd = bench["command"][1:] + [
        "--workload", "pt500_oracle", "--seed", "3", "--seconds", "1", "--trace", str(trace),
    ]
    out = subprocess.run(
        [sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in bench[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("results", "__pycache__"),
    )
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pt500_oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert _last_json(out.stdout) is None
