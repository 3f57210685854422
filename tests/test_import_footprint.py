"""No solve loads scipy, checked in fresh interpreters.

The package and the CLI import numpy alone.  Building a subsampled-DCT or a
sparse-Bernoulli operator, the EM refresh, and oracle, EM and TV-AMP solves
on the other ensembles load no scipy module: scipy is a test dependency only.
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
    """Every solver on every ensemble, after importing the CLI."""
    seen = scipy_modules_after(
        """
seen["import ssamp.cli"] = scipy_modules()
for matrix, extra in (
    ("iid_gaussian", {}),
    ("quasi_toeplitz", {"sign_randomize": True}),
    ("subsampled_wht", {"sign_randomize": True}),
    ("subsampled_dct", {"sign_randomize": True}),
    ("sparse_bernoulli", {"col_weight": 4}),
):
    for solver in ("ssamp_oracle", "ssamp_em", "tvamp"):
        solve(matrix=matrix, solver=solver, **extra)
        seen[solver + " on " + matrix] = scipy_modules()
"""
    )
    assert len(seen) == 16
    assert seen == {step: [] for step in seen}


@pytest.mark.parametrize(
    "step",
    [
        # numpy's real FFT behind Makhoul's reordering, not scipy.fft.dct
        "make_subsampled_dct(32, 64, 0)",
        # row-index blocks and bincount, not scipy.sparse
        "make_sparse_bernoulli(32, 64, 4, 0)",
        # the responsibilities' logistic is numpy's exp, not scipy.special.expit
        "em_update(np.linspace(0.0, 1.0, 64), 0.1, PriorParams(0.1, 1.0))",
    ],
    ids=["subsampled_dct", "sparse_bernoulli", "em_update"],
)
def test_scipy_loaded_where_a_solve_uses_it(step):
    """Where a solve could have used scipy, no scipy module is loaded."""
    seen = scipy_modules_after(
        f"""
seen["before"] = scipy_modules()
{step}
seen["after"] = scipy_modules()
"""
    )
    assert seen == {"before": [], "after": []}
