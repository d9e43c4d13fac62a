"""Private covariance estimators: one body per mechanism, one noise family
per DP notion.

A :class:`NoiseFamily` holds all that the zCDP and the pure-DP form of a
mechanism differ in.  ``GAUSSIAN`` (zCDP, budget rho) calibrates Gaussian
noise to l2-sensitivities and bounds it with ``omega`` / ``upsilon`` /
``eta``; ``LAPLACE`` (pure DP, budget eps) calibrates Laplace noise to
l1-sensitivities and bounds it with ``slw_frob_bound`` / ``slw_op_bound`` /
``lap_vec_bound``.  A family also names its three mechanisms and holds the
adaptive mechanism's budget split.

Two bodies run on either family, over the covariance of data in the unit
l2-ball.  Plain (``gauss_cov`` / ``lap_cov``): the covariance plus a
symmetric Wigner noise matrix.  Separate (``separate_cov`` /
``separate_cov_pure``): half the budget each to the eigenvalues (a noise
vector on the exact spectrum, used as produced -- no projection or
re-sorting -- unless ``project_nonnegative`` is requested) and to the
eigenvectors (the eigenbasis of the noise-matrix-perturbed covariance), then
reassembled.  ``clip_mechanism`` wraps either body: clip columns to radius
tau, run it on the (1/tau)-rescaled data, and scale the estimate back by
tau^2.

Every mechanism takes a :class:`Dataset` or its :class:`CovSketch` and reads
only the sketch: callers that run many mechanisms on one dataset should
build the sketch once and pass it.  All outputs are exactly symmetric and,
for a fixed stream, deterministic functions of the inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import (
    eta,
    lap_vec_bound,
    omega,
    slw_frob_bound,
    slw_op_bound,
    upsilon,
)
from .linalg import _NORM_RTOL, CovSketch, Dataset, Gram, _is_symmetric, eig_sym, reconstruct
from .privacy import PrivacyBudget, compose, gaussian_scale, laplace_scale
from .randomness import (
    RandomStream,
    gaussian_vector,
    laplace_scalar,
    laplace_vector,
    sgw_matrix,
    slw_matrix,
)

__all__ = [
    "NoiseFamily",
    "GAUSSIAN",
    "LAPLACE",
    "FAMILIES",
    "ZERO",
    "MechanismReport",
    "gauss_cov",
    "lap_cov",
    "separate_cov",
    "separate_cov_pure",
    "clip_mechanism",
    "zero_cov",
]

# (tr_hat, tau) -> (plain bound, separate bound); see NoiseFamily.noise_bounds
NoiseBounds = Callable[[float, float], tuple[float, float]]


@dataclass(frozen=True)
class NoiseFamily:
    """The noise of one DP notion.

    ``plain``, ``separate`` and ``adaptive`` name the family's mechanisms;
    ``split`` is the adaptive budget split, (stage, share) in pipeline order.
    For ``value`` of its budget and data of n columns in dimension d, each
    family defines:

    * ``matrix_noise(stream, d, n, value)``: a symmetric noise matrix for the
      covariance; ``vector_noise(stream, d, n, value)``: a noise vector for
      its sorted spectrum;
    * ``scalar_noise(stream, sensitivity, value, p)``: a draw for a scalar of
      that sensitivity and an offset with draw + offset >= 0 with
      probability at least 1-p;
    * ``svt_eps(value)``: the pure-DP epsilon at which a stage holding
      ``value`` runs the sparse vector technique;
    * ``noise_bounds(value, beta, d, n)``: (tr_hat, tau) -> the error bounds
      of the clipped plain and separate mechanisms, each holding with
      probability at least 1-beta.  The norm bounds are evaluated once, in
      this call.
    """

    kind: str
    plain: str
    separate: str
    adaptive: str
    split: tuple[tuple[str, float], ...]

    def budget(self, value: float) -> PrivacyBudget:
        return PrivacyBudget(self.kind, value)

    def ledger(self, value: float) -> dict[str, float]:
        """The adaptive mechanism's budget per stage.  The stages are composed
        with :func:`compose`; a split that does not add up to exactly
        ``value`` raises ValueError (a check, not an assert, so it also runs
        under ``python -O``)."""
        ledger = {stage: value * share for stage, share in self.split}
        total = compose(self.budget(v) for v in ledger.values())
        if total != self.budget(value):
            raise ValueError(f"{self.adaptive} budget split composes to {total.value}, not {value}")
        return ledger


@dataclass(frozen=True)
class _Gaussian(NoiseFamily):
    def matrix_noise(self, stream, d, n, value):
        return gaussian_scale(math.sqrt(2.0) / n, self.budget(value)) * sgw_matrix(stream, d)

    def vector_noise(self, stream, d, n, value):
        return gaussian_scale(math.sqrt(2.0) / n, self.budget(value)) * gaussian_vector(stream, d)

    def scalar_noise(self, stream, sensitivity, value, p):
        scale = gaussian_scale(sensitivity, self.budget(value))
        draw = scale * float(gaussian_vector(stream, 1)[0])
        return draw, scale * math.sqrt(2.0 * math.log(1.0 / p))

    def svt_eps(self, value):
        return math.sqrt(2.0 * value)  # eps-DP implies eps^2/2-zCDP

    def noise_bounds(self, value, beta, d, n):
        frob, op, vec = omega(d, beta), upsilon(d, beta / 2), eta(d, beta / 2)

        def bounds(tr_hat, tau):
            lead = 2.0**1.25 * math.sqrt(max(tr_hat, 0.0)) / (value**0.25 * math.sqrt(n))
            return (
                tau * tau * frob / (math.sqrt(value) * n),
                tau * lead * math.sqrt(op)
                + tau * tau * math.sqrt(2.0) / (math.sqrt(value) * n) * vec,
            )

        return bounds


@dataclass(frozen=True)
class _Laplace(NoiseFamily):
    def matrix_noise(self, stream, d, n, value):
        return laplace_scale(math.sqrt(2.0) * d / n, self.budget(value)) * slw_matrix(stream, d)

    def vector_noise(self, stream, d, n, value):
        return laplace_vector(stream, d, laplace_scale(2.0 / n, self.budget(value)))

    def scalar_noise(self, stream, sensitivity, value, p):
        scale = laplace_scale(sensitivity, self.budget(value))
        return laplace_scalar(stream, scale), scale * math.log(1.0 / p)

    def svt_eps(self, value):
        return value

    def noise_bounds(self, value, beta, d, n):
        frob = slw_frob_bound(d, beta)
        op_noise = (2.0 * math.sqrt(2.0) * d / (value * n)) * slw_op_bound(d, beta / 2)
        vec = lap_vec_bound(d, beta / 2)

        def bounds(tr_hat, tau):
            return (
                tau * tau * (math.sqrt(2.0) * d / (value * n)) * frob,
                tau * 2.0 * math.sqrt(max(tr_hat, 0.0) * op_noise)
                + tau * tau * (4.0 / (value * n)) * vec,
            )

        return bounds


GAUSSIAN = _Gaussian(
    kind="zcdp",
    plain="gauss",
    separate="separate",
    adaptive="adaptive",
    split=(("radius", 1 / 8), ("trace", 1 / 8), ("svt", 1 / 4), ("mechanism", 1 / 2)),
)
LAPLACE = _Laplace(
    kind="pure",
    plain="lap",
    separate="separate-pure",
    adaptive="adaptive-pure",
    split=(("radius", 1 / 4), ("trace", 1 / 4), ("svt", 1 / 4), ("mechanism", 1 / 4)),
)
FAMILIES = {f.kind: f for f in (GAUSSIAN, LAPLACE)}
ZERO = "zero"
_VARIANTS = {ZERO} | {name for f in FAMILIES.values() for name in (f.plain, f.separate)}


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
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        shape = np.shape(self.estimate)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("mechanism estimate must be a square matrix")
        if not _is_symmetric(self.estimate):
            raise ValueError("mechanism estimate must be exactly symmetric")


def _ball_sketch(x: Dataset | CovSketch) -> CovSketch:
    sketch = CovSketch.of(x)
    if sketch.max_norm > 1.0 + _NORM_RTOL:
        raise ValueError(f"norms exceed 1 (max norm {sketch.max_norm})")
    return sketch


def gauss_cov(x: Dataset | CovSketch, rho: float, stream: RandomStream) -> MechanismReport:
    """Covariance plus a symmetric Gaussian Wigner matrix scaled by
    1/(sqrt(rho) * n)."""
    return _plain(GAUSSIAN, _ball_sketch(x).gram(), rho, stream)


def lap_cov(x: Dataset | CovSketch, eps: float, stream: RandomStream) -> MechanismReport:
    """Covariance plus a symmetric Laplace Wigner matrix scaled by
    sqrt(2)*d/(eps*n)."""
    return _plain(LAPLACE, _ball_sketch(x).gram(), eps, stream)


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
    return _separate(GAUSSIAN, _ball_sketch(x).gram(), rho, stream, project_nonnegative)


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
    return _separate(LAPLACE, _ball_sketch(x).gram(), eps, stream, project_nonnegative)


# The two mechanism bodies, on the covariance of data in the unit ball.


def _plain(family: NoiseFamily, g: Gram, value: float, stream: RandomStream) -> MechanismReport:
    noise = family.matrix_noise(stream, g.dim, g.count, value)
    return MechanismReport(g.cov + noise, family.budget(value), family.plain)


def _separate(
    family: NoiseFamily, g: Gram, value: float, stream: RandomStream, project_nonnegative=False
) -> MechanismReport:
    budget = family.budget(value)  # validate before drawing
    lam_noisy = g.spectrum() + family.vector_noise(stream, g.dim, g.count, value / 2)
    basis = eig_sym(g.cov + family.matrix_noise(stream, g.dim, g.count, value / 2)).basis
    if project_nonnegative:
        lam_noisy = np.maximum(lam_noisy, 0.0)
    return MechanismReport(reconstruct(basis, lam_noisy), budget, family.separate)


def clip_mechanism(
    x: Dataset | CovSketch, budget: PrivacyBudget, tau: float, stream: RandomStream, base: str
) -> MechanismReport:
    """Run a base mechanism (a family's plain or separate name) on columns
    clipped to radius tau and rescaled to the unit ball, then scale the
    estimate back by tau^2."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("clip threshold must lie in (0, 1]")
    family = next((f for f in FAMILIES.values() if base in (f.plain, f.separate)), None)
    if family is None:
        raise ValueError(f"unknown base mechanism {base!r}")
    if budget.kind != family.kind:
        raise ValueError(f"base mechanism {base!r} needs a {family.kind} budget")
    body = _plain if base == family.plain else _separate
    inner = body(family, CovSketch.of(x).gram(tau), budget.value, stream)
    return MechanismReport(tau * tau * inner.estimate, budget, base, clip_threshold=tau)


def zero_cov(x: Dataset | CovSketch) -> MechanismReport:
    """The trivial trace-sensitive baseline: a zero matrix, zero budget."""
    return MechanismReport(np.zeros((x.dim, x.dim)), None, ZERO)
