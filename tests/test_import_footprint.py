"""scipy is loaded only where a solve uses it, checked in fresh interpreters.

The package and the CLI import numpy alone; building a subsampled-DCT or a
sparse-Bernoulli operator loads scipy's fft or sparse module.  The EM
refresh, and oracle, EM and TV-AMP solves on the other ensembles, load no
scipy module.
"""

import json
import os
import subprocess
import sys

import pytest

import ssamp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ssamp.__file__)))

PRELUDE = """
import json, sys
import numpy as np
import ssamp.cli
from ssamp import PriorParams, em_update, make_sparse_bernoulli, make_subsampled_dct
from ssamp.harness import ExperimentConfig, run_single_trial

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

def solve(**fields):
    run_single_trial(ExperimentConfig(n=64, max_iters=30, **fields), 0.5, 0.1, 32, 3, 0)
"""


def scipy_modules_after(code: str) -> dict:
    """Run PRELUDE + code in a fresh interpreter; code fills ``seen``, a
    dict of step name -> the scipy modules loaded by then."""
    script = PRELUDE + "seen = {}\n" + code + "\nprint(json.dumps(seen))\n"
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_cli_and_numpy_only_solves_load_no_scipy():
    seen = scipy_modules_after(
        """
seen["import ssamp.cli"] = scipy_modules()
for matrix, extra in (
    ("iid_gaussian", {}),
    ("quasi_toeplitz", {"sign_randomize": True}),
    ("subsampled_wht", {"sign_randomize": True}),
):
    for solver in ("ssamp_oracle", "ssamp_em", "tvamp"):
        solve(matrix=matrix, solver=solver, **extra)
        seen[solver + " on " + matrix] = scipy_modules()
"""
    )
    assert len(seen) == 10
    assert seen == {step: [] for step in seen}


@pytest.mark.parametrize(
    "step, module",
    [
        ("make_subsampled_dct(32, 64, 0)", "scipy.fft"),
        ("make_sparse_bernoulli(32, 64, 4, 0)", "scipy.sparse"),
        # the responsibilities' logistic is numpy's exp, not scipy.special.expit
        ("em_update(np.linspace(0.0, 1.0, 64), 0.1, PriorParams(0.1, 1.0))", None),
    ],
    ids=["subsampled_dct", "sparse_bernoulli", "em_update"],
)
def test_scipy_loaded_where_a_solve_uses_it(step, module):
    """``module`` is the scipy module the step loads; None: it loads none."""
    seen = scipy_modules_after(
        f"""
seen["before"] = scipy_modules()
{step}
seen["after"] = scipy_modules()
"""
    )
    assert seen["before"] == []
    if module is None:
        assert seen["after"] == []
    else:
        assert module in seen["after"]
