"""Differentially private covariance estimation.

Three mechanism families over column-vector datasets in the unit l2-ball:
worst-case noise addition (Gaussian / Laplace Wigner matrices), a
separate-spectrum mechanism that privatizes eigenvalues and eigenvectors
independently, and an adaptive mechanism that privately picks a clipping
threshold from the data's norm distribution.  All mechanisms come in zCDP
and pure-DP flavours, with a reproducible benchmark harness and CLI on top.
"""

from .adaptive import (
    adaptive_cov,
    adaptive_cov_pure,
    build_histogram,
    priv_radius,
    private_trace_ub,
    svt,
    threshold_query,
)
from .bounds import (
    eta,
    lap_vec_bound,
    omega,
    slw_frob_bound,
    slw_op_bound,
    upsilon,
)
from .datagen import SynthSpec, load_csv, rescale_radius, synth
from .harness import ExperimentPlan, ResultRow, SummaryRow, run_plan, summarize, write_results
from .linalg import (
    CovSketch,
    Dataset,
    EigenDecomp,
    clip_dataset,
    covariance,
    eig_sym,
    frobenius_dist,
    radius,
    reconstruct,
    tail_gamma,
    trace_stat,
)
from .mechanisms import (
    GAUSSIAN,
    LAPLACE,
    MechanismReport,
    clip_mechanism,
    gauss_cov,
    lap_cov,
    separate_cov,
    separate_cov_pure,
    zero_cov,
)
from .privacy import (
    PrivacyBudget,
    compose,
    gaussian_scale,
    laplace_scale,
    pure,
    zcdp,
    zcdp_to_approx,
)
from .randomness import (
    RandomStream,
    gaussian_vector,
    laplace_scalar,
    laplace_vector,
    sgw_matrix,
    slw_matrix,
)

__version__ = "0.1.0"
