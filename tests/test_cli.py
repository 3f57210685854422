import csv
import json
import pathlib
import re

import numpy as np
import pytest

from ssamp.cli import main
from ssamp.harness import ExperimentConfig

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields))
    return str(path)


def test_solve_writes_json_payload(tmp_path):
    out = tmp_path / "result.json"
    assert main(["solve", "--n", "64", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 64
    assert payload["m"] == 6  # first grid entry 0.1
    assert payload["solver"] == "ssamp_oracle"
    assert len(payload["estimate"]) == 64
    assert isinstance(payload["converged"], bool)
    assert np.isfinite(payload["nmse"])
    assert payload["final_params"]["q"] > 0


def test_solve_csv_writes_loadable_signal(tmp_path):
    # one round-trip decimal per line: the CSV reads back to the JSON payload's estimate
    out, ref = tmp_path / "estimate.csv", tmp_path / "estimate.json"
    assert main(["solve", "--n", "64", "--out", str(out)]) == 0
    assert main(["solve", "--n", "64", "--out", str(ref)]) == 0
    estimate = json.loads(ref.read_text())["estimate"]
    assert len(estimate) == 64
    assert out.read_text() == "".join(f"{v:.17g}\n" for v in estimate)
    assert np.array_equal(np.loadtxt(out), estimate)


def test_solve_reproduces_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["solve", "--n", "64", "--seed", "9", "--out", str(a)]) == 0
    assert main(["solve", "--n", "64", "--seed", "9", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.json"
    assert main(["solve", "--n", "64", "--seed", "10", "--out", str(c)]) == 0
    assert json.loads(c.read_text())["estimate"] != json.loads(a.read_text())["estimate"]


def test_flag_overrides_config_file(tmp_path):
    cfg = _write_config(tmp_path, n=32, grid_m_over_n=[0.5], grid_k_over_m=[0.2])
    out = tmp_path / "r.json"
    assert main(["solve", cfg, "--n", "64", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 64
    assert payload["m"] == 32


@pytest.mark.parametrize("kind", ["subsampled_dct", "subsampled_wht", "quasi_toeplitz"])
def test_solve_runs_a_transform_from_flags_alone(tmp_path, kind):
    # a transform carries its column signs: it used to need a config file holding
    # {"sign_randomize": true}, and that file still writes the same bytes
    flags, keyed = tmp_path / "flags.json", tmp_path / "keyed.json"
    assert main(["solve", "--n", "64", "--matrix", kind, "--out", str(flags)]) == 0
    cfg = _write_config(tmp_path, sign_randomize=True)
    assert main(["solve", cfg, "--n", "64", "--matrix", kind, "--out", str(keyed)]) == 0
    assert flags.read_bytes() == keyed.read_bytes()


def test_solver_flag_selects_em_solver(tmp_path):
    out = tmp_path / "r.json"
    cfg = _write_config(
        tmp_path, n=128, grid_m_over_n=[0.5], grid_k_over_m=[0.1], max_iters=300
    )
    assert main(["solve", cfg, "--solver", "ssamp_em", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["solver"] == "ssamp_em"
    assert payload["nmse"] < 1e-4


def test_em_flag_is_gone(tmp_path, capsys):
    # --solver ssamp_em is the one spelling; --em was a second one that could conflict with it
    out = tmp_path / "r.json"
    with pytest.raises(SystemExit) as info:
        main(["solve", "--n", "64", "--solver", "ssamp_em", "--em", "--out", str(out)])
    assert info.value.code == 2
    assert "unrecognized arguments: --em" in capsys.readouterr().err
    assert not out.exists()


def test_tvamp_with_lambda_flag(tmp_path):
    out = tmp_path / "r.json"
    cfg = _write_config(
        tmp_path, n=128, grid_m_over_n=[0.5], grid_k_over_m=[0.1], max_iters=200
    )
    assert main(["solve", cfg, "--solver", "tvamp", "--lambda", "1.0",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["solver"] == "tvamp"
    assert payload["final_params"] is None
    assert payload["nmse"] < 1e-4


def test_pt_writes_grid_and_curve(tmp_path):
    cfg = _write_config(
        tmp_path, n=64, grid_m_over_n=[0.5], grid_k_over_m=[0.05, 0.9],
        trials=2, max_iters=200,
    )
    out = tmp_path / "grid.csv"
    curve_out = tmp_path / "curve.csv"
    assert main(["pt", cfg, "--out", str(out), "--curve-out", str(curve_out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "m_over_n", "k_over_m", "trials", "successes",
        "success_rate", "mean_iters",
    ]
    assert len(rows) == 3
    with open(curve_out, newline="") as fh:
        crows = list(csv.reader(fh))
    assert crows[0] == ["m_over_n", "k_over_m_at_half_success"]


def test_pt_byte_identical_repeats(tmp_path):
    cfg = _write_config(
        tmp_path, n=64, grid_m_over_n=[0.5], grid_k_over_m=[0.1],
        trials=2, max_iters=200,
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["pt", cfg, "--out", str(a)]) == 0
    assert main(["pt", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_pt_json_format(tmp_path):
    cfg = _write_config(
        tmp_path, n=64, grid_m_over_n=[0.5], grid_k_over_m=[0.1],
        trials=1, max_iters=200,
    )
    out = tmp_path / "grid.json"
    assert main(["pt", cfg, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert isinstance(payload, list) and payload[0]["m_over_n"] == 0.5


def test_convergence_single_case(tmp_path):
    cfg = _write_config(
        tmp_path, n=128, grid_m_over_n=[0.5], grid_k_over_m=[0.1],
        trials=2, max_iters=25,
    )
    out = tmp_path / "conv.csv"
    assert main(["convergence", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["iter", "nmse_db_mean", "nmse_db_std"]
    assert len(rows) == 26
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 26))


def test_convergence_multi_case_files(tmp_path):
    cfg = _write_config(
        tmp_path, n=128, grid_m_over_n=[0.5, 0.6], grid_k_over_m=[0.1, 0.1],
        trials=1, max_iters=10,
    )
    out = tmp_path / "conv.csv"
    assert main(["convergence", cfg, "--out", str(out)]) == 0
    assert (tmp_path / "conv_case0.csv").exists()
    assert (tmp_path / "conv_case1.csv").exists()


def test_convergence_multi_case_files_in_dotted_paths(tmp_path, monkeypatch):
    # the case number goes into the file name, never into a dotted directory
    cfg = _write_config(
        tmp_path, n=128, grid_m_over_n=[0.5, 0.6], grid_k_over_m=[0.1, 0.1],
        trials=1, max_iters=10,
    )
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v1.2").mkdir()
    for out, written in (("v1.2/trace", "v1.2/trace_case{}"), ("./trace", "trace_case{}")):
        assert main(["convergence", cfg, "--out", out]) == 0
        for i in (0, 1):
            rows = (tmp_path / written.format(i)).read_text().splitlines()
            assert rows[0] == "iter,nmse_db_mean,nmse_db_std" and len(rows) == 11


def test_diverged_trial_is_an_error(tmp_path, capsys):
    # the TV-AMP instance of test_single_trial_swallows_divergence
    cfg = _write_config(
        tmp_path, solver="tvamp", n=200, lam=0.05, tol=0.0,
        grid_m_over_n=[0.5], grid_k_over_m=[0.1],
    )
    for command in ("solve", "convergence"):
        out = tmp_path / f"{command}.csv"
        with np.errstate(all="ignore"):
            assert main([command, cfg, "--out", str(out)]) == 1
        assert "error: solver state diverged at iteration 1217" in capsys.readouterr().err
        assert not out.exists()


def test_bench_writes_runtime_table(tmp_path):
    cfg = _write_config(
        tmp_path, n=128, grid_m_over_n=[0.5], grid_k_over_m=[0.1],
        trials=2, max_iters=300,
    )
    out = tmp_path / "bench.csv"
    assert main(["bench", cfg, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "m_over_n" and rows[0][-1] == "mean_per_iter_seconds"
    assert len(rows) == 2
    assert float(rows[1][5]) > 0  # mean_seconds measured


def test_missing_config_file_errors(tmp_path, capsys):
    assert main(["pt", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path, n=64, bogus=True)
    assert main(["solve", cfg]) == 1
    assert "unknown config keys" in capsys.readouterr().err
    listed = tmp_path / "list.json"
    listed.write_text(json.dumps([{"n": 64}]))
    assert main(["solve", str(listed)]) == 1
    assert "error: config file must hold a JSON object" in capsys.readouterr().err


def test_non_integer_config_fields_error_before_any_run(tmp_path, capsys):
    # these built an instance and then failed with "'float' object cannot be
    # interpreted as an integer"; a negative seed base failed in SeedSequence
    # after the first pt cell had started
    out = tmp_path / "x.json"
    for command, fields, message in (
        ("solve", {"n": 64, "max_iters": 2e2}, "max_iters must be an integer"),
        ("solve", {"n": 64.0}, "n must be an integer"),
        ("pt", {"n": 64, "grid_m_over_n": [0.5], "grid_k_over_m": [0.1], "trials": 2.0},
         "trials must be an integer"),
        ("pt", {"n": 64, "seed_base": -1}, "seed_base must be at least 0"),
    ):
        cfg = _write_config(tmp_path, **fields)
        assert main([command, cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert f"{command}: " not in err  # rejected before any progress line
    assert not out.exists()


def test_infeasible_point_errors(tmp_path, capsys):
    cfg = _write_config(tmp_path, n=4, grid_m_over_n=[0.1], grid_k_over_m=[0.5])
    assert main(["solve", cfg, "--out", str(tmp_path / "x.json")]) == 1
    assert "infeasible" in capsys.readouterr().err


def test_progress_goes_to_stderr(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["solve", "--n", "64", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "solve:" in captured.err
    assert captured.out == ""


def test_pt_writes_infeasible_cells_as_zero_rows(tmp_path, capsys):
    # m = round(0.1 * 4) = 0 leaves the m/n = 0.1 cells without a trial
    cfg = _write_config(
        tmp_path, n=4, grid_m_over_n=[0.1, 0.5], grid_k_over_m=[0.5, 1.0],
        trials=1, max_iters=20,
    )
    out, curve_out = tmp_path / "grid.csv", tmp_path / "curve.csv"
    assert main(["pt", cfg, "--out", str(out), "--curve-out", str(curve_out)]) == 0
    rows = out.read_text().splitlines()
    assert rows[1:3] == ["0.10000000000000001,0.5,0,0,0,0", "0.10000000000000001,1,0,0,0,0"]
    assert [r.split(",")[2] for r in rows[3:]] == ["1", "1"]
    assert curve_out.read_text() == "m_over_n,k_over_m_at_half_success\n"
    assert capsys.readouterr().err.splitlines()[0] == "pt: case 3/4 m/n=0.5 k/m=0.5 trial 1/1"


def test_paired_case_progress_counts_from_one(tmp_path, capsys):
    cfg = _write_config(
        tmp_path, n=64, grid_m_over_n=[0.5, 0.4], grid_k_over_m=[0.1, 0.1],
        trials=2, max_iters=20,
    )
    for command in ("convergence", "bench"):
        assert main([command, cfg, "--out", str(tmp_path / f"{command}.csv")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[:4] == [
            f"{command}: case {c}/2 m/n={r} k/m=0.1 trial {t}/2"
            for c, r in ((1, 0.5), (2, 0.4))
            for t in (1, 2)
        ]


def test_readme_configs_are_valid():
    # every README config, and each config on a fast transform as the README runs
    # them: the config as it is, with only the matrix (and a WHT's power-of-two n) set
    blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) >= 4
    for block in blocks:
        data = json.loads(block)
        ExperimentConfig.from_dict(data)
        for kind, n in (("subsampled_dct", data.get("n", 256)), ("subsampled_wht", 512)):
            assert ExperimentConfig.from_dict(dict(data, matrix=kind, n=n)).matrix == kind
