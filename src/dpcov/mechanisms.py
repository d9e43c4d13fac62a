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
vector on the exact spectrum, used as produced: no projection, no
re-sorting) and to the eigenvectors (the eigenbasis of the
noise-matrix-perturbed covariance), reassembled as P diag(lambda) P^T.
The unit ball is checked once, on the largest norm of the dataset a plain
or separate mechanism reads.  ``clip_mechanism`` wraps either body: clip
columns to radius tau (a power of two), run it on the (1/tau)-rescaled data,
and scale the estimate back by tau^2.

Every mechanism takes a :class:`Dataset` and reads only the summaries it
keeps (its Grams, spectra and norms; see :class:`~dpcov.linalg.Dataset`),
so repeated calls on one dataset do not rebuild them.  All outputs are
exactly symmetric and, for a fixed stream, deterministic functions of the
inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .bounds import (
    eta,
    lap_vec_bound,
    omega,
    slw_frob_bound,
    slw_op_bound,
    upsilon,
)
from .linalg import Dataset, _is_symmetric, eig_sym, reconstruct
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
    "Selection",
    "gauss_cov",
    "lap_cov",
    "separate_cov",
    "separate_cov_pure",
    "clip_mechanism",
    "zero_cov",
]

# Relative slack of the unit-ball check; clipping can overshoot by a few ulp.
_NORM_RTOL = 1e-9

# (tr_hat, tau) -> (plain bound, separate bound); see NoiseFamily.noise_bounds
NoiseBounds = Callable[[float, float], tuple[float, float]]


@dataclass(frozen=True)
class NoiseFamily:
    """The noise of one DP notion.

    ``plain``, ``separate`` and ``adaptive`` name the family's mechanisms;
    ``split`` is the adaptive budget split, (stage, share) in pipeline order.
    For ``value`` of its budget and data of n columns in dimension d, each
    family defines:

    * ``noise(d, n, value)``: ((matrix sampler, scale), (vector sampler,
      scale)), the noise of the covariance and of its sorted spectrum:
      ``sampler(stream, d)`` draws it at unit scale, and the mechanisms and
      ``noise_bounds`` multiply it by the scale calibrated to its sensitivity;
    * ``norm_bounds(d, beta)``: the matrix noise's Frobenius and operator
      norm bounds at beta and beta/2, and the vector noise's l2 bound at beta/2;
    * ``scalar_noise(stream, sensitivity, value, p)``: a draw for a scalar of
      that sensitivity and an offset with draw + offset >= 0 with
      probability at least 1-p;
    * ``svt_eps(value)``: the pure-DP epsilon at which a stage holding
      ``value`` runs the sparse vector technique.

    Both read the samplers and norm bounds from this module when called, so a
    wrapper set on the module's names sees every draw and evaluation.
    """

    kind: str
    plain: str
    separate: str
    adaptive: str
    split: tuple[tuple[str, float], ...]

    @functools.lru_cache(maxsize=64, typed=True)
    def budget(self, value: float) -> PrivacyBudget:
        """The family's budget of ``value``, built and checked once per
        (family, value).  An invalid value is not kept, so it raises
        ValueError on every call."""
        return PrivacyBudget(self.kind, value)

    @functools.lru_cache(maxsize=64, typed=True)
    def ledger(self, value: float) -> Mapping[str, float]:
        """The adaptive mechanism's budget per stage, read-only.  The stages
        are composed with :func:`compose` once per (family, value); a split
        that does not add up to exactly ``value`` raises ValueError (a check,
        not an assert, so it also runs under ``python -O``), and is not kept."""
        ledger = {stage: value * share for stage, share in self.split}
        total = compose(self.budget(v) for v in ledger.values())
        if total != self.budget(value):
            raise ValueError(f"{self.adaptive} budget split composes to {total.value}, not {value}")
        return MappingProxyType(ledger)

    @functools.lru_cache(maxsize=64, typed=True)
    def noise_bounds(self, value: float, beta: float, d: int, n: int) -> NoiseBounds:
        """(tr_hat, tau) -> the error bounds of the clipped plain and separate
        mechanisms, each holding with probability at least 1-beta, from the
        scales of ``noise`` and the ``norm_bounds``.  These are evaluated in
        this call, made once per key: the function is kept and returned again."""
        frob, op, vec = self.norm_bounds(d, beta)
        (_, plain), _ = self.noise(d, n, value)
        (_, matrix), (_, vector) = self.noise(d, n, value / 2)

        def bounds(tr_hat, tau):
            return (
                tau * tau * plain * frob,
                2.0 * tau * math.sqrt(max(tr_hat, 0.0) * matrix * op) + tau * tau * vector * vec,
            )

        return bounds


@dataclass(frozen=True)
class _Gaussian(NoiseFamily):
    def noise(self, d, n, value):
        scale = gaussian_scale(math.sqrt(2.0) / n, self.budget(value))
        return (sgw_matrix, scale), (gaussian_vector, scale)

    def norm_bounds(self, d, beta):
        return omega(d, beta), upsilon(d, beta / 2), eta(d, beta / 2)

    def scalar_noise(self, stream, sensitivity, value, p):
        scale = gaussian_scale(sensitivity, self.budget(value))
        draw = scale * float(gaussian_vector(stream, 1)[0])
        return draw, scale * math.sqrt(2.0 * math.log(1.0 / p))

    def svt_eps(self, value):
        return math.sqrt(2.0 * value)  # eps-DP implies eps^2/2-zCDP


@dataclass(frozen=True)
class _Laplace(NoiseFamily):
    def noise(self, d, n, value):
        budget = self.budget(value)
        matrix = slw_matrix, laplace_scale(math.sqrt(2.0) * d / n, budget)
        return matrix, (laplace_vector, laplace_scale(2.0 / n, budget))

    def norm_bounds(self, d, beta):
        return slw_frob_bound(d, beta), slw_op_bound(d, beta / 2), lap_vec_bound(d, beta / 2)

    def scalar_noise(self, stream, sensitivity, value, p):
        scale = laplace_scale(sensitivity, self.budget(value))
        return laplace_scalar(stream, scale), scale * math.log(1.0 / p)

    def svt_eps(self, value):
        return value


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


class Selection(NamedTuple):
    """What the adaptive mechanism's private stages released: the radius, the
    clipped-trace bound, the clip threshold and the branch run there."""

    r_tilde: float
    tr_hat: float
    tau: float
    branch: str


@dataclass(frozen=True)
class MechanismReport:
    """What a mechanism returned and what it cost.

    ``budget_spent`` is None only for the zero mechanism, which consumes no
    budget.  ``clip_threshold`` is set when the estimate came from clipped
    data.  ``selection`` is set by the adaptive mechanisms alone; the budget
    per stage they spent is ``family.ledger(value)``.
    """

    estimate: np.ndarray
    budget_spent: PrivacyBudget | None
    variant: str
    clip_threshold: float | None = None
    selection: Selection | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        shape = np.shape(self.estimate)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError("mechanism estimate must be a square matrix")
        if not _is_symmetric(self.estimate):
            raise ValueError("mechanism estimate must be exactly symmetric")


def gauss_cov(x: Dataset, rho: float, stream: RandomStream) -> MechanismReport:
    """Covariance plus a symmetric Gaussian Wigner matrix at the scale of
    ``GAUSSIAN.noise(d, n, rho)``."""
    return _release(GAUSSIAN, GAUSSIAN.plain, x, rho, stream)


def lap_cov(x: Dataset, eps: float, stream: RandomStream) -> MechanismReport:
    """Covariance plus a symmetric Laplace Wigner matrix at the scale of
    ``LAPLACE.noise(d, n, eps)``."""
    return _release(LAPLACE, LAPLACE.plain, x, eps, stream)


def separate_cov(x: Dataset, rho: float, stream: RandomStream) -> MechanismReport:
    """Privatize eigenvalues and eigenvectors separately, rho/2 each.

    The sorted spectrum gets an i.i.d. Gaussian vector and the covariance a
    Gaussian Wigner matrix, at the scales of ``GAUSSIAN.noise(d, n, rho/2)``;
    the basis comes from eigendecomposing the noised covariance.
    """
    return _release(GAUSSIAN, GAUSSIAN.separate, x, rho, stream)


def separate_cov_pure(x: Dataset, eps: float, stream: RandomStream) -> MechanismReport:
    """Pure-DP variant of the eigenvalue/eigenvector split, eps/2 each.

    The sorted spectrum gets an i.i.d. Laplace vector and the covariance a
    Laplace Wigner matrix, at the scales of ``LAPLACE.noise(d, n, eps/2)``;
    the basis comes from the noised covariance.
    """
    return _release(LAPLACE, LAPLACE.separate, x, eps, stream)


def _release(family, base, x, value, stream) -> MechanismReport:
    """The public form of ``base``: on a unit-ball dataset, one report."""
    if x.max_norm > 1.0 + _NORM_RTOL:
        raise ValueError(f"norms exceed 1 (max norm {x.max_norm})")
    budget = family.budget(value)  # validate before drawing
    estimate = _body(family, base, x, None, value, stream)
    return MechanismReport(estimate, budget, base)


def _body(family, base, x, tau, value, stream) -> np.ndarray:
    """The estimate of the family's plain or separate mechanism (``base``)
    on ``x.gram(tau)``, scaled back by tau^2 for a clip threshold tau.  The
    caller checks tau, base and budget."""
    cov, d, n = x.gram(tau), x.dim, x.count
    plain = base == family.plain
    (matrix, m_scale), (vector, v_scale) = family.noise(d, n, value if plain else value / 2)
    if not plain:  # the spectrum's noise is drawn first, from the same stream
        lam_noisy = vector(stream, d)
        lam_noisy *= v_scale
        lam_noisy += x.spectrum(tau)
    # unit noise scaled in place, and the Gram added into it: addition
    # commutes, so these are the bits of cov + noise, without a second array
    estimate = matrix(stream, d)
    estimate *= m_scale
    estimate += cov
    if not plain:
        basis = eig_sym(estimate).basis
        # freed before reconstruct's d x d temporaries: held through them, it
        # raised the wide-spectrum benchmark's peak RSS from 148 to 172 MB
        del estimate
        estimate = reconstruct(basis, lam_noisy)
    if tau is not None:
        estimate *= tau * tau
    return estimate


def clip_mechanism(
    x: Dataset, budget: PrivacyBudget, tau: float, stream: RandomStream, base: str
) -> MechanismReport:
    """Run a base mechanism (a family's plain or separate name) on columns
    clipped to radius tau, a power of two in (0, 1], and rescaled to the
    unit ball, then scale the estimate back by tau^2.  Any other tau raises
    ``ValueError`` (a non power of two from :meth:`Dataset.gram`, before
    any noise is drawn)."""
    if not 0.0 < tau <= 1.0:
        raise ValueError("clip threshold must lie in (0, 1]")
    family = next((f for f in FAMILIES.values() if base in (f.plain, f.separate)), None)
    if family is None:
        raise ValueError(f"unknown base mechanism {base!r}")
    if budget.kind != family.kind:
        raise ValueError(f"base mechanism {base!r} needs a {family.kind} budget")
    estimate = _body(family, base, x, tau, budget.value, stream)
    return MechanismReport(estimate, budget, base, clip_threshold=tau)


def zero_cov(x: Dataset) -> MechanismReport:
    """The trivial trace-sensitive baseline: a zero matrix, zero budget."""
    return MechanismReport(np.zeros((x.dim, x.dim)), None, ZERO)
