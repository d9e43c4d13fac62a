"""Private covariance estimators.

Four noise-addition mechanisms over the empirical covariance of a dataset in
the unit l2-ball:

* ``gauss_cov``    -- symmetric Gaussian noise calibrated to zCDP.
* ``lap_cov``      -- symmetric Laplace noise calibrated to pure DP.
* ``separate_cov`` -- eigenvalues and eigenvectors privatized separately,
  each with half the zCDP budget: noisy eigenvalues from a Gaussian vector,
  eigenvectors from an eigendecomposition of the Gaussian-noised covariance,
  then reassembled.  Noisy eigenvalues are used as produced (no projection or
  re-sorting) unless ``project_nonnegative`` is requested.
* ``separate_cov_pure`` -- the same split under pure DP with Laplace noise.

``clip_mechanism`` wraps any of them: clip columns to radius tau, feed the
mechanism the (1/tau)-rescaled data, and scale the estimate back by tau^2.

Every mechanism takes a :class:`Dataset` or its :class:`CovSketch` and reads
only the sketch: a dataset is summarised on entry, so callers that run many
mechanisms on one dataset should build the sketch once and pass it.

All outputs are exactly symmetric and, for a fixed stream, deterministic
functions of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import CovSketch, Dataset, Gram, covariance, eig_sym, reconstruct
from .privacy import PrivacyBudget, gaussian_scale, laplace_scale, pure, zcdp
from .randomness import RandomStream, gaussian_vector, laplace_vector, sgw_matrix, slw_matrix

__all__ = [
    "MechanismReport",
    "gauss_cov",
    "lap_cov",
    "separate_cov",
    "separate_cov_pure",
    "clip_mechanism",
    "zero_cov",
    "sensitivity_probe",
    "BASE_MECHANISMS",
]

_BALL_RTOL = 1e-9

VARIANTS = ("gauss", "lap", "separate", "separate_pure", "zero")


@dataclass(frozen=True)
class MechanismReport:
    """What a mechanism returned and what it cost.

    ``budget_spent`` is None only for the zero mechanism, which consumes no
    budget.  ``clip_threshold`` is set when the estimate came from clipped
    data.  ``details`` carries mechanism-specific diagnostics (the adaptive
    mechanism records its internal ledger there).
    """

    estimate: np.ndarray
    budget_spent: PrivacyBudget | None
    variant: str
    clip_threshold: float | None = None
    details: dict | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if not np.array_equal(self.estimate, self.estimate.T):
            raise ValueError("mechanism estimate must be exactly symmetric")


def _ball_sketch(x: Dataset | CovSketch) -> CovSketch:
    sketch = CovSketch.of(x)
    if sketch.max_norm > 1.0 + _BALL_RTOL:
        raise ValueError(f"norms exceed 1 (max norm {sketch.max_norm})")
    return sketch


def gauss_cov(x: Dataset | CovSketch, rho: float, stream: RandomStream) -> MechanismReport:
    """Covariance plus a symmetric Gaussian Wigner matrix scaled by
    1/(sqrt(rho) * n)."""
    return _gauss(_ball_sketch(x).gram(), rho, stream)


def lap_cov(x: Dataset | CovSketch, eps: float, stream: RandomStream) -> MechanismReport:
    """Covariance plus a symmetric Laplace Wigner matrix scaled by
    sqrt(2)*d/(eps*n)."""
    return _lap(_ball_sketch(x).gram(), eps, stream)


def separate_cov(
    x: Dataset | CovSketch,
    rho: float,
    stream: RandomStream,
    *,
    project_nonnegative: bool = False,
) -> MechanismReport:
    """Privatize eigenvalues and eigenvectors separately, rho/2 each.

    Eigenvalue noise is an i.i.d. Gaussian vector calibrated to the
    sqrt(2)/n l2-sensitivity of the sorted spectrum.  The basis comes from
    eigendecomposing the Gaussian-noised covariance.
    """
    return _separate(_ball_sketch(x).gram(), rho, stream, project_nonnegative)


def separate_cov_pure(
    x: Dataset | CovSketch,
    eps: float,
    stream: RandomStream,
    *,
    project_nonnegative: bool = False,
) -> MechanismReport:
    """Pure-DP variant of the eigenvalue/eigenvector split, eps/2 each.

    Eigenvalues get Laplace noise calibrated to their 2/n l1-sensitivity;
    the basis comes from the Laplace-noised covariance.
    """
    return _separate_pure(_ball_sketch(x).gram(), eps, stream, project_nonnegative)


# The mechanisms proper, on the covariance of data in the unit ball.


def _gauss(g: Gram, rho: float, stream: RandomStream) -> MechanismReport:
    scale = gaussian_scale(math.sqrt(2.0) / g.count, zcdp(rho))
    return MechanismReport(g.cov + scale * sgw_matrix(stream, g.dim), zcdp(rho), "gauss")


def _lap(g: Gram, eps: float, stream: RandomStream) -> MechanismReport:
    scale = laplace_scale(math.sqrt(2.0) * g.dim / g.count, pure(eps))
    return MechanismReport(g.cov + scale * slw_matrix(stream, g.dim), pure(eps), "lap")


def _separate(
    g: Gram, rho: float, stream: RandomStream, project_nonnegative: bool = False
) -> MechanismReport:
    zcdp(rho)  # validate
    scale = gaussian_scale(math.sqrt(2.0) / g.count, zcdp(rho / 2))
    lam_noisy = g.spectrum() + scale * gaussian_vector(stream, g.dim)
    basis = eig_sym(g.cov + scale * sgw_matrix(stream, g.dim)).basis
    if project_nonnegative:
        lam_noisy = np.maximum(lam_noisy, 0.0)
    return MechanismReport(reconstruct(basis, lam_noisy), zcdp(rho), "separate")


def _separate_pure(
    g: Gram, eps: float, stream: RandomStream, project_nonnegative: bool = False
) -> MechanismReport:
    pure(eps)  # validate
    lam_noisy = g.spectrum() + laplace_vector(
        stream, g.dim, laplace_scale(2.0 / g.count, pure(eps / 2))
    )
    scale = laplace_scale(math.sqrt(2.0) * g.dim / g.count, pure(eps / 2))
    basis = eig_sym(g.cov + scale * slw_matrix(stream, g.dim)).basis
    if project_nonnegative:
        lam_noisy = np.maximum(lam_noisy, 0.0)
    return MechanismReport(reconstruct(basis, lam_noisy), pure(eps), "separate_pure")


BASE_MECHANISMS = {
    "gauss": _gauss,
    "lap": _lap,
    "separate": _separate,
    "separate_pure": _separate_pure,
}


def clip_mechanism(
    x: Dataset | CovSketch, budget: PrivacyBudget, tau: float, stream: RandomStream, base: str
) -> MechanismReport:
    """Run a base mechanism on columns clipped to radius tau and rescaled to
    the unit ball, then scale the estimate back by tau^2."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("clip threshold must lie in (0, 1]")
    if base not in BASE_MECHANISMS:
        raise ValueError(f"unknown base mechanism {base!r}")
    expected = "pure" if base in ("lap", "separate_pure") else "zcdp"
    if budget.kind != expected:
        raise ValueError(f"base mechanism {base!r} needs a {expected} budget")
    inner = BASE_MECHANISMS[base](CovSketch.of(x).gram(tau), budget.value, stream)
    return MechanismReport(tau * tau * inner.estimate, budget, base, clip_threshold=tau)


def zero_cov(x: Dataset | CovSketch) -> MechanismReport:
    """The trivial trace-sensitive baseline: a zero matrix, zero budget."""
    return MechanismReport(np.zeros((x.dim, x.dim)), None, "zero")


def sensitivity_probe(x: Dataset, x_prime: Dataset) -> dict[str, float]:
    """Distances between the covariances and sorted spectra of two datasets.

    Test support for validating the sensitivity bounds on neighboring pairs:
    returns Frobenius and entry-wise l1 distances for the covariance, and l2
    and l1 distances for the descending eigenvalue vectors.
    """
    if x.dim != x_prime.dim or x.count != x_prime.count:
        raise ValueError("datasets must share shape")
    sig_a, sig_b = covariance(x), covariance(x_prime)
    lam_a, lam_b = eig_sym(sig_a).values, eig_sym(sig_b).values
    return {
        "sigma_fro": float(np.linalg.norm(sig_a - sig_b)),
        "lambda_fro": float(np.linalg.norm(lam_a - lam_b)),
        "sigma_l1": float(np.sum(np.abs(sig_a - sig_b))),
        "lambda_l1": float(np.sum(np.abs(lam_a - lam_b))),
    }
