"""latsurj: surjectivity of integer matrices onto the integer lattice.

Certify M: Z^m -> Z^n surjective or not by maximal minors and modular
annihilators, simulate the random
ensembles and the column-exposure process behind near-square surjectivity,
evaluate the limiting cokernel predictions, and verify finite-field
anti-concentration inequalities by exact computation.
"""

from .exact_linalg import (
    CokernelStructure,
    IntMatrix,
    SnfDecomposition,
    cokernel,
    det,
    format_matrix,
    parse_matrix,
    smith_normal_form,
)
from .modp import ColumnSpace, echelon, rank_mod_p
from .ensembles import (
    Distribution,
    EnsembleSpec,
    alpha_min,
    alpha_mod_p,
    parse_distribution,
    sample_matrix,
    sparse_bernoulli,
)
from .certifier import Certificate, is_surjective, verify_certificate
from .exposure import ExposureTrace, batch_size, run_exposure, u_budget
from .predictions import (
    Prediction,
    corank_prediction,
    trivial_cokernel_all_primes,
    trivial_cokernel_prediction,
)
from .fq import (
    FieldTable,
    FqDistribution,
    exact_dot_distribution,
    lo_bound_check,
    mu_hat,
    spec_set,
    spectrum_subgroup_check,
)
from .experiments import ExperimentConfig, ExperimentReport, run_experiment

__version__ = "0.1.0"
