"""The tail-sensitive mechanism: private clipping-threshold selection.

Pipeline (zCDP budget rho, failure parameter beta):

1. a private radius estimate r (sparse vector technique over dyadic radii,
   rho/8),
2. clip to r and compute a private upper bound on the trace (rho/8),
3. sparse vector technique over the dyadic threshold grid r, r/2, ... with
   queries comparing an upper bound on the clipping bias against an upper
   bound on the mechanism noise (rho/4),
4. run the clipped Gaussian or clipped separate-spectrum mechanism at the
   selected threshold, whichever has the smaller noise bound (rho/2).

The sub-budgets sum exactly to rho (asserted on every invocation).  A
pure-DP variant splits eps into four equal parts and swaps every Gaussian
ingredient for its Laplace counterpart.

The bias/noise queries fed to the SVT are normalized by 4*r^2 so that each
has sensitivity at most 1 on r-clipped data; the SVT noise in original units
is then Lap(8 r^2/eps) / Lap(16 r^2/eps).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable

from .bounds import (
    BoundConstants,
    DEFAULT_CONSTANTS,
    eta,
    lap_vec_bound,
    omega,
    slw_frob_bound,
    slw_op_bound,
    upsilon,
)
from .linalg import CovSketch, Dataset
from .mechanisms import MechanismReport, clip_mechanism
from .privacy import PrivacyBudget, gaussian_scale, laplace_scale, pure, zcdp
from .randomness import RandomStream, gaussian_vector, laplace_scalar

__all__ = [
    "NormHistogram",
    "ThresholdSearchConfig",
    "svt",
    "priv_radius",
    "build_histogram",
    "bias_hat",
    "gauss_noise_bound",
    "separate_noise_bound",
    "noise_hat",
    "lap_noise_bound",
    "separate_noise_bound_pure",
    "noise_hat_pure",
    "private_trace_ub",
    "diff_query",
    "adaptive_cov",
    "adaptive_cov_pure",
]

# Exponent floors keeping every threshold a positive normal float64.  The
# nominal grids extend to 2^(-d*n) (thresholds) and 2^(-2*d*n) (radius
# offset); anything below these floors is indistinguishable from zero at
# machine precision anyway.
TAU_CAP_EXPONENT = -4096
_MIN_FLOAT_EXPONENT = -1020

_CLIP_RTOL = 1e-9


def _pow2_exponent(value: float) -> int:
    """The integer t with value == 2**t; rejects non powers of two."""
    if value <= 0 or not math.isfinite(value):
        raise ValueError("expected a positive power of two")
    mantissa, exp = math.frexp(value)
    if mantissa != 0.5:
        raise ValueError(f"{value} is not a power of two")
    return exp - 1


@dataclass(frozen=True)
class NormHistogram:
    """Dyadic counts of column norms: bucket s holds norms in (2^s, 2^(s+1)].

    Zero-norm columns belong to no bucket.  Suffix sums over the sub-unit
    buckets (s < 0) are precomputed so each bias query costs O(log #buckets).
    """

    counts: dict[int, int]
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("histogram needs a positive dataset size")
        total = sum(self.counts.values())
        if total > self.n or any(c < 0 for c in self.counts.values()):
            raise ValueError("bucket counts must be nonnegative and sum to at most n")
        neg = sorted(s for s in self.counts if s < 0)
        weights = [self.counts[s] * math.ldexp(1.0, 2 * s + 2) for s in neg]
        tallies = [self.counts[s] for s in neg]
        suffix_weight = [0.0] * (len(neg) + 1)
        suffix_count = [0] * (len(neg) + 1)
        for i in range(len(neg) - 1, -1, -1):
            suffix_weight[i] = suffix_weight[i + 1] + weights[i]
            suffix_count[i] = suffix_count[i + 1] + tallies[i]
        object.__setattr__(self, "_neg_buckets", neg)
        object.__setattr__(self, "_suffix_weight", suffix_weight)
        object.__setattr__(self, "_suffix_count", suffix_count)

    def bias_upper_bound_exp(self, t: int) -> float:
        """Bias bound at threshold 2**t, computed in exponent space so the
        grid may extend below the float64 underflow point."""
        idx = bisect_left(self._neg_buckets, t)
        tau_sq = math.ldexp(1.0, 2 * t)  # 0.0 on underflow; bound only loosens
        raw = self._suffix_weight[idx] - tau_sq * self._suffix_count[idx]
        return max(0.0, raw / self.n)


@dataclass(frozen=True)
class ThresholdSearchConfig:
    """Grid and budget for the threshold SVT."""

    smallest_tau_exponent: int
    svt_budget: PrivacyBudget
    beta: float

    def __post_init__(self):
        if self.smallest_tau_exponent >= 0:
            raise ValueError("smallest_tau_exponent must be negative")
        if not self.beta > 0:
            raise ValueError("beta must be positive")


def svt(
    queries: Iterable[float],
    sensitivity: float,
    threshold: float,
    eps: float,
    stream: RandomStream,
) -> int:
    """Sparse vector technique: the 1-based index of the first query whose
    Lap(4*sensitivity/eps)-noised value reaches the Lap(2*sensitivity/eps)-
    noised threshold, or one past the end if none does.

    Queries are consumed lazily; nothing beyond the returned index is
    evaluated.
    """
    if sensitivity <= 0:
        raise ValueError("sensitivity must be positive")
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    noisy_threshold = threshold + laplace_scalar(stream, 2.0 * sensitivity / eps)
    k = 0
    for k, q in enumerate(queries, start=1):
        if q + laplace_scalar(stream, 4.0 * sensitivity / eps) >= noisy_threshold:
            return k
    return k + 1


def priv_radius(
    x: Dataset | CovSketch, eps: float, beta: float, b: float, stream: RandomStream
) -> float:
    """Private estimate of the largest column norm.

    Runs the SVT over the count queries |{i : ||X_i|| > 2^-j}| for
    j = 0..ceil(log2(1/b)) against the threshold (6/eps)*log(2(J+1)/beta),
    and returns twice the radius at the triggering index (capped at 1), or b
    if nothing triggers.  With probability at least 1-beta the result is at
    most 2*rad(X)+b and clips at most (12/eps)*log(2(J+1)/beta) columns.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("additive offset b must lie in (0, 1)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    sketch = CovSketch.of(x)
    levels = math.ceil(math.log2(1.0 / b))
    threshold = (6.0 / eps) * math.log(2.0 * (levels + 1) / beta)
    counts_above = (float(sketch.count_above(math.ldexp(1.0, -j))) for j in range(levels + 1))
    k = svt(counts_above, 1.0, threshold, eps, stream)
    if k <= levels + 1:
        return min(1.0, math.ldexp(1.0, 2 - k))
    return b


def build_histogram(x: Dataset | CovSketch) -> NormHistogram:
    """Dyadic norm histogram of a dataset (of its clipped norms, for a
    clipped sketch)."""
    sketch = CovSketch.of(x)
    return NormHistogram(counts=sketch.histogram(), n=sketch.count)


def bias_hat(h: NormHistogram, tau: float) -> float:
    """Upper bound on the clipping bias at a dyadic threshold tau = 2^t:

        (1/n) * sum_{t <= s < 0} Count_s * (2^(2s+2) - tau^2)

    Nonnegative, nonincreasing in tau, and at most twice the tau-tail.
    """
    t = _pow2_exponent(tau)
    if t > 0:
        raise ValueError("tau must lie in (0, 1]")
    return h.bias_upper_bound_exp(t)


def gauss_noise_bound(tau: float, rho: float, beta: float, d: int, n: int) -> float:
    """Error bound of the clipped Gaussian mechanism at threshold tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return tau * tau * omega(d, beta) / (math.sqrt(rho) * n)


def separate_noise_bound(
    tr_hat: float, tau: float, rho: float, beta: float, d: int, n: int
) -> float:
    """Error bound of the clipped separate-spectrum mechanism at threshold
    tau, given a (privatized) trace upper bound."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    lead = 2.0**1.25 * math.sqrt(max(tr_hat, 0.0)) / (rho**0.25 * math.sqrt(n))
    return tau * lead * math.sqrt(upsilon(d, beta / 2)) + (
        tau * tau * math.sqrt(2.0) / (math.sqrt(rho) * n) * eta(d, beta / 2)
    )


def noise_hat(tr_hat: float, tau: float, rho: float, beta: float, d: int, n: int) -> float:
    """The smaller of the two zCDP noise bounds."""
    return min(
        gauss_noise_bound(tau, rho, beta, d, n),
        separate_noise_bound(tr_hat, tau, rho, beta, d, n),
    )


def lap_noise_bound(
    tau: float,
    eps: float,
    beta: float,
    d: int,
    n: int,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> float:
    """Error bound of the clipped Laplace mechanism at threshold tau."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return tau * tau * (math.sqrt(2.0) * d / (eps * n)) * slw_frob_bound(d, beta, constants)


def separate_noise_bound_pure(
    tr_hat: float,
    tau: float,
    eps: float,
    beta: float,
    d: int,
    n: int,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> float:
    """Pure-DP analogue of :func:`separate_noise_bound`: eigenvector term
    from the Laplace Wigner operator-norm bound at eps/2, eigenvalue term
    from the Laplace vector bound at eps/2."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    op_noise = (2.0 * math.sqrt(2.0) * d / (eps * n)) * slw_op_bound(d, beta / 2, constants)
    return tau * 2.0 * math.sqrt(max(tr_hat, 0.0) * op_noise) + (
        tau * tau * (4.0 / (eps * n)) * lap_vec_bound(d, beta / 2, constants)
    )


def noise_hat_pure(
    tr_hat: float,
    tau: float,
    eps: float,
    beta: float,
    d: int,
    n: int,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> float:
    """The smaller of the two pure-DP noise bounds."""
    return min(
        lap_noise_bound(tau, eps, beta, d, n, constants),
        separate_noise_bound_pure(tr_hat, tau, eps, beta, d, n, constants),
    )


def private_trace_ub(
    x_clipped: Dataset | CovSketch,
    r_tilde: float,
    budget_frag: PrivacyBudget,
    beta: float,
    stream: RandomStream,
) -> float:
    """Privatized upper bound on the trace of r-clipped data.

    ``x_clipped`` is a dataset already clipped to radius r, or a sketch
    clipped with ``CovSketch.clip(r)``; any column norm above r raises.
    Adds calibrated noise (Gaussian for a zCDP fragment, Laplace for a pure
    fragment) to the clipped trace plus an offset that keeps the result above
    the true clipped trace with probability at least 1 - beta/8, then caps at
    r^2, which always dominates the clipped trace.
    """
    sketch = CovSketch.of(x_clipped)
    if sketch.max_norm > r_tilde * (1.0 + _CLIP_RTOL):
        raise ValueError("unclipped input: column norms exceed the stated radius")
    tr = sketch.trace()
    sensitivity = r_tilde * r_tilde / sketch.count
    if sensitivity == 0.0:
        # r^2 underflowed; every column norm (hence the trace) flushed to
        # zero with it, so the capped value is exact and data-independent
        return min(tr, r_tilde * r_tilde)
    if budget_frag.kind == "zcdp":
        scale = gaussian_scale(sensitivity, budget_frag)
        draw = scale * float(gaussian_vector(stream, 1)[0])
        offset = scale * math.sqrt(2.0 * math.log(8.0 / beta))
    else:
        scale = laplace_scale(sensitivity, budget_frag)
        draw = laplace_scalar(stream, scale)
        offset = scale * math.log(8.0 / beta)
    return min(tr + draw + offset, r_tilde * r_tilde)


def diff_query(
    h: NormHistogram,
    tr_hat: float,
    tau: float,
    rho: float,
    beta: float,
    r_tilde: float,
    d: int,
    n: int,
) -> float:
    """The normalized bias-vs-noise query fed to the threshold SVT:

        (n / (4 r^2)) * (bias_hat(h, tau) - noise_hat(tr_hat, tau, ...))

    On r-clipped data one column change moves n*bias_hat by at most 4*r^2,
    so the normalization caps the sensitivity at 1.  Nondecreasing as tau
    walks down the dyadic grid.
    """
    t = _pow2_exponent(tau)
    return _diff_exp(h, tr_hat, t, rho, beta, r_tilde, d, n)


def _diff_exp(h, tr_hat, t, rho, beta, r_tilde, d, n):
    tau = math.ldexp(1.0, t)
    return (n / (4.0 * r_tilde * r_tilde)) * (
        h.bias_upper_bound_exp(t) - noise_hat(tr_hat, tau, rho, beta, d, n)
    )


def _diff_exp_pure(h, tr_hat, t, eps, beta, r_tilde, d, n, constants):
    tau = math.ldexp(1.0, t)
    return (n / (4.0 * r_tilde * r_tilde)) * (
        h.bias_upper_bound_exp(t) - noise_hat_pure(tr_hat, tau, eps, beta, d, n, constants)
    )


def _radius_offset_exponent(d: int, n: int) -> int:
    return max(-2 * d * n, _MIN_FLOAT_EXPONENT)


def _select_tau(
    r_tilde: float,
    diff_at,
    svt_eps: float,
    config: ThresholdSearchConfig,
    stream: RandomStream,
) -> float:
    """Run the SVT down the dyadic grid and step one level back up."""
    if r_tilde * r_tilde == 0.0:
        # the final estimate is scaled by tau^2 <= r^2 = 0: any threshold
        # yields the zero matrix, so skip the (ill-conditioned) search
        return r_tilde
    start = _pow2_exponent(r_tilde)
    end = config.smallest_tau_exponent
    exponents = range(start, end - 1, -1) if start >= end else range(0)
    queries = (diff_at(t) for t in exponents)
    k = svt(queries, 1.0, 0.0, svt_eps, stream)
    selected = start + 1 - k
    tau = math.ldexp(1.0, selected + 1)  # 0.0 if below the float64 range
    tau = max(tau, math.ldexp(1.0, _MIN_FLOAT_EXPONENT))
    return min(tau, r_tilde)


def adaptive_cov(
    x: Dataset | CovSketch,
    rho: float,
    beta: float,
    stream: RandomStream,
    *,
    tau_cap_exponent: int = TAU_CAP_EXPONENT,
) -> MechanismReport:
    """Tail-sensitive private covariance under rho-zCDP.

    Budget split: rho/8 radius, rho/8 trace, rho/4 threshold SVT, rho/2
    final clipped mechanism.  The returned report's variant names the branch
    that actually ran ('gauss' or 'separate'); the selected threshold,
    radius, trace bound, and ledger are in ``details``.
    """
    zcdp(rho)
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    x = CovSketch.of(x)
    d, n = x.dim, x.count
    ledger = {"radius": rho / 8, "trace": rho / 8, "svt": rho / 4, "mechanism": rho / 2}
    assert sum(ledger.values()) == rho

    eps_radius = math.sqrt(rho) / 2.0  # pure-DP, implies rho/8 zCDP
    b = math.ldexp(1.0, _radius_offset_exponent(d, n))
    r_tilde = priv_radius(x, eps_radius, beta / 8, b, stream.child("radius"))
    x_clip = x.clip(r_tilde)
    tr_hat = private_trace_ub(x_clip, r_tilde, zcdp(rho / 8), beta, stream.child("trace"))
    hist = build_histogram(x_clip)

    config = ThresholdSearchConfig(
        smallest_tau_exponent=max(-d * n, tau_cap_exponent),
        svt_budget=zcdp(rho / 4),
        beta=beta,
    )
    eps_svt = math.sqrt(rho) / math.sqrt(2.0)  # pure-DP, implies rho/4 zCDP
    tau = _select_tau(
        r_tilde,
        lambda t: _diff_exp(hist, tr_hat, t, rho / 2, beta / 2, r_tilde, d, n),
        eps_svt,
        config,
        stream.child("svt"),
    )

    sep = separate_noise_bound(tr_hat, tau, rho / 2, beta / 2, d, n)
    gau = gauss_noise_bound(tau, rho / 2, beta / 2, d, n)
    branch = "gauss" if sep >= gau else "separate"
    inner = clip_mechanism(x_clip, zcdp(rho / 2), tau, stream.child("mech"), branch)
    details = {
        "r_tilde": r_tilde,
        "tr_hat": tr_hat,
        "tau": tau,
        "branch": branch,
        "ledger": ledger,
    }
    return MechanismReport(
        inner.estimate, zcdp(rho), branch, clip_threshold=tau, details=details
    )


def adaptive_cov_pure(
    x: Dataset | CovSketch,
    eps: float,
    beta: float,
    stream: RandomStream,
    *,
    tau_cap_exponent: int = TAU_CAP_EXPONENT,
    constants: BoundConstants = DEFAULT_CONSTANTS,
) -> MechanismReport:
    """Tail-sensitive private covariance under eps-DP.

    Same pipeline as :func:`adaptive_cov` with every stage at eps/4 and the
    Laplace-side bound functions driving the threshold search and dispatch.
    """
    pure(eps)
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    x = CovSketch.of(x)
    d, n = x.dim, x.count
    ledger = {"radius": eps / 4, "trace": eps / 4, "svt": eps / 4, "mechanism": eps / 4}
    assert sum(ledger.values()) == eps

    b = math.ldexp(1.0, _radius_offset_exponent(d, n))
    r_tilde = priv_radius(x, eps / 4, beta / 8, b, stream.child("radius"))
    x_clip = x.clip(r_tilde)
    tr_hat = private_trace_ub(x_clip, r_tilde, pure(eps / 4), beta, stream.child("trace"))
    hist = build_histogram(x_clip)

    config = ThresholdSearchConfig(
        smallest_tau_exponent=max(-d * n, tau_cap_exponent),
        svt_budget=pure(eps / 4),
        beta=beta,
    )
    eps_mech = eps / 4
    tau = _select_tau(
        r_tilde,
        lambda t: _diff_exp_pure(hist, tr_hat, t, eps_mech, beta / 2, r_tilde, d, n, constants),
        eps / 4,
        config,
        stream.child("svt"),
    )

    sep = separate_noise_bound_pure(tr_hat, tau, eps_mech, beta / 2, d, n, constants)
    lap = lap_noise_bound(tau, eps_mech, beta / 2, d, n, constants)
    branch = "lap" if sep >= lap else "separate_pure"
    inner = clip_mechanism(x_clip, pure(eps_mech), tau, stream.child("mech"), branch)
    details = {
        "r_tilde": r_tilde,
        "tr_hat": tr_hat,
        "tau": tau,
        "branch": branch,
        "ledger": ledger,
    }
    return MechanismReport(
        inner.estimate, pure(eps), branch, clip_threshold=tau, details=details
    )
