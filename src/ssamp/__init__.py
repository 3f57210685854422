"""Compressed sensing of piecewise-constant signals by message passing.

Library layout:

* ``kernels``    the spike-and-slab chain denoiser on (mean, var) message pairs
* ``solver``     the AMP loop, and the spike-and-slab chain solver with optional EM tuning
* ``operators``  sensing matrix ensembles behind one apply/adjoint interface
* ``signals``    piecewise-constant test signals, measurements, NMSE
* ``tvamp``      total-variation AMP baseline (the same loop, a TV prox denoiser)
* ``harness``    Monte-Carlo phase grids, convergence traces, runtime, CSV/JSON
* ``cli``        ``ssamp`` command line entry point
"""

from .kernels import eta_gamma, phi_zeta
from .operators import (
    LinearOperator,
    column_sign_randomize,
    make_iid_gaussian,
    make_quasi_toeplitz,
    make_sparse_bernoulli,
    make_subsampled_dct,
    make_subsampled_wht,
)
from .signals import generate, measure, nmse
from .solver import (
    DivergenceError,
    PriorParams,
    SolveReport,
    SolverConfig,
    default_em_params,
    em_update,
    solve,
)
from .tvamp import tv_divergence, tv_prox, tvamp_solve
from .harness import ExperimentConfig, pt_curve, run_convergence, run_phase_grid, run_runtime

__version__ = "0.1.0"
