"""Differentially private covariance estimation.

Three mechanism families over column-vector datasets in the unit l2-ball:
worst-case noise addition (Gaussian / Laplace Wigner matrices), a
separate-spectrum mechanism that privatizes eigenvalues and eigenvectors
independently, and an adaptive mechanism that privately picks a clipping
threshold from the data's norm distribution.  All mechanisms come in zCDP
and pure-DP flavours, with a reproducible benchmark harness and CLI on top.

The package exports the mechanisms, the dataset and what runs a plan; the
samplers, norm bounds, adaptive stages and budget arithmetic live in their
modules (``dpcov.randomness``, ``dpcov.bounds``, ``dpcov.adaptive``,
``dpcov.privacy``, ...).
"""

from .adaptive import adaptive_cov, adaptive_cov_pure, svt
from .datagen import SynthSpec, load_csv, synth
from .harness import ExperimentPlan, ResultRow, SummaryRow, run_plan, write_results
from .linalg import Dataset, clip_dataset, covariance, frobenius_dist
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
from .privacy import PrivacyBudget, pure, zcdp
from .randomness import RandomStream

__version__ = "0.1.0"
