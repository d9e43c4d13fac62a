"""The tail-sensitive mechanism: private clipping-threshold selection.

One pipeline serves both DP notions; a :class:`~dpcov.mechanisms.NoiseFamily`
supplies its noise, its error bounds and its budget split.  With budget B
and failure parameter beta:

1. a private radius estimate r (sparse vector technique over dyadic radii),
2. a private upper bound on the trace of the data clipped to r,
3. sparse vector technique over the dyadic threshold grid r, r/2, ... with
   queries comparing an upper bound on the clipping bias against an upper
   bound on the mechanism noise,
4. run the family's clipped plain or clipped separate mechanism at the
   selected threshold, whichever has the smaller noise bound.

The family's ledger splits B over the four stages: rho/8, rho/8, rho/4 and
rho/2 under zCDP (the two SVT stages run as eps-DP mechanisms with
eps^2/2 equal to their share), eps/4 each under pure DP.  Every run composes
the ledger with :func:`~dpcov.privacy.compose` and raises ValueError unless
it adds up to exactly B; the check also runs under ``python -O``.

Every stage after the radius reads the unclipped data and clips it to r
itself, so no stage can be handed data that was not clipped.  The bias/noise
queries fed to the SVT are normalized by n/(4*r^2) so that each has
sensitivity at most 1 on r-clipped data; the SVT noise in original units is
then Lap(8 r^2/(n eps)) / Lap(16 r^2/(n eps)) for the SVT's eps.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate
from typing import Callable, Iterable

from .linalg import CovSketch, Dataset
from .mechanisms import (
    FAMILIES,
    GAUSSIAN,
    LAPLACE,
    MechanismReport,
    NoiseBounds,
    NoiseFamily,
    clip_mechanism,
)
from .privacy import PrivacyBudget
from .randomness import RandomStream, laplace_scalar

__all__ = [
    "svt",
    "priv_radius",
    "build_histogram",
    "noise_hat",
    "private_trace_ub",
    "threshold_query",
    "adaptive_cov",
    "adaptive_cov_pure",
]

# Exponent floor keeping every threshold a positive normal float64.  The
# nominal grids extend to 2^(-d*n) (thresholds) and 2^(-2*d*n) (radius
# offset); anything below this floor is indistinguishable from zero at
# machine precision anyway.
_MIN_FLOAT_EXPONENT = -1020


def _pow2_exponent(value: float) -> int:
    """The integer t with value == 2**t; rejects non powers of two."""
    if value <= 0 or not math.isfinite(value):
        raise ValueError("expected a positive power of two")
    mantissa, exp = math.frexp(value)
    if mantissa != 0.5:
        raise ValueError(f"{value} is not a power of two")
    return exp - 1


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
    if not (sensitivity > 0 and math.isfinite(sensitivity)):
        raise ValueError("sensitivity must be positive and finite")
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("epsilon must be positive and finite")
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


def build_histogram(x: Dataset | CovSketch, r: float = math.inf) -> dict[int, int]:
    """Dyadic counts of the column norms of a dataset clipped to radius r,
    min(||X_i||, r): bucket s holds the norms in (2^s, 2^(s+1)]; zero norms
    are in no bucket."""
    return CovSketch.of(x).histogram(r)


def noise_hat(bounds: NoiseBounds, tr_hat: float, tau: float) -> float:
    """The smaller of a family's two clipped-mechanism noise bounds at
    threshold tau, given a (privatized) trace upper bound; ``bounds`` is the
    family's :meth:`~dpcov.mechanisms.NoiseFamily.noise_bounds` at the final
    mechanism's budget."""
    return min(bounds(tr_hat, tau))


def private_trace_ub(
    x: Dataset | CovSketch,
    r_tilde: float,
    budget_frag: PrivacyBudget,
    beta: float,
    stream: RandomStream,
) -> float:
    """Privatized upper bound on the trace of the data clipped to radius r.

    Clips ``x`` to r itself, then adds calibrated noise (Gaussian for a zCDP
    fragment, Laplace for a pure fragment) to the clipped trace plus an
    offset that keeps the result above the true clipped trace with
    probability at least 1 - beta/8, then caps at r^2, which always
    dominates the clipped trace.
    """
    sketch = CovSketch.of(x)
    tr = sketch.trace(r_tilde)
    sensitivity = r_tilde * r_tilde / sketch.count
    if sensitivity == 0.0:
        # r^2 underflowed; every clipped squared norm (hence the trace)
        # flushed to zero with it, so the capped value is exact and
        # data-independent
        return min(tr, r_tilde * r_tilde)
    family = FAMILIES[budget_frag.kind]
    draw, offset = family.scalar_noise(stream, sensitivity, budget_frag.value, beta / 8)
    return min(tr + draw + offset, r_tilde * r_tilde)


def threshold_query(
    bounds: NoiseBounds, counts: dict[int, int], tr_hat: float, r_tilde: float, n: int
) -> Callable[[int], float]:
    """The threshold SVT's query at tau = 2^t, as a function of t:

        (n / (4 r^2)) * (bias - noise_hat(bounds, tr_hat, tau)),
        bias = (1/n) * sum_{t <= s < log2 r} Count_s * (2^(2s+2) - tau^2),

    for a private radius r > 0 and the dyadic counts of the r-clipped norms
    (:func:`build_histogram`).  bias bounds the clipping bias at tau from
    above.  A column adds at most 2^(2s+2) <= 4 r^2 to n*bias, so one column
    change moves it by at most 4 r^2 and the normalization caps the
    sensitivity at 1.  Nondecreasing as tau walks down the dyadic grid.

    Bias and noise are evaluated in units of r, at tau/r and tr_hat/r^2,
    times n/4.  r is a power of two, so this equals the direct form wherever
    no intermediate is subnormal, and it stays finite where n/(4 r^2)
    overflows (r below about 2^-512).
    """
    unit = _pow2_exponent(r_tilde)
    # sub-unit buckets in units of r, with suffix sums of their bias weights
    neg = sorted(s - unit for s in counts if s < unit)
    weights = (counts[s + unit] * math.ldexp(1.0, 2 * s + 2) for s in reversed(neg))
    tallies = (counts[s + unit] for s in reversed(neg))
    suffix_weight = list(accumulate(weights, initial=0.0))[::-1]
    suffix_count = list(accumulate(tallies, initial=0))[::-1]
    tr_unit = math.ldexp(tr_hat, -2 * unit)

    def query(t: int) -> float:
        s = t - unit
        idx = bisect_left(neg, s)
        tau_sq = math.ldexp(1.0, 2 * s)  # 0.0 on underflow; the bound only loosens
        bias = max(0.0, (suffix_weight[idx] - tau_sq * suffix_count[idx]) / n)
        return n / 4.0 * (bias - noise_hat(bounds, tr_unit, math.ldexp(1.0, s)))

    return query


def adaptive_cov(
    x: Dataset | CovSketch,
    rho: float,
    beta: float,
    stream: RandomStream,
) -> MechanismReport:
    """Tail-sensitive private covariance under rho-zCDP.

    Budget split: rho/8 radius, rho/8 trace, rho/4 threshold SVT, rho/2
    final clipped mechanism.  The returned report's variant names the branch
    that actually ran ('gauss' or 'separate'); the selected threshold,
    radius, trace bound, and ledger are in ``details``.
    """
    return _adaptive(GAUSSIAN, x, rho, beta, stream)


def adaptive_cov_pure(
    x: Dataset | CovSketch,
    eps: float,
    beta: float,
    stream: RandomStream,
) -> MechanismReport:
    """Tail-sensitive private covariance under eps-DP.

    Same pipeline as :func:`adaptive_cov` with every stage at eps/4, Laplace
    noise, and the Laplace-side bounds driving the threshold search and
    dispatch ('lap' or 'separate-pure').
    """
    return _adaptive(LAPLACE, x, eps, beta, stream)


def _adaptive(
    family: NoiseFamily, x, value: float, beta: float, stream: RandomStream
) -> MechanismReport:
    budget = family.budget(value)
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    ledger = family.ledger(value)
    x = CovSketch.of(x)
    d, n = x.dim, x.count

    b = math.ldexp(1.0, max(-2 * d * n, _MIN_FLOAT_EXPONENT))
    r_tilde = priv_radius(x, family.svt_eps(ledger["radius"]), beta / 8, b, stream.child("radius"))
    trace_budget = family.budget(ledger["trace"])
    tr_hat = private_trace_ub(x, r_tilde, trace_budget, beta, stream.child("trace"))
    hist = build_histogram(x, r_tilde)

    bounds = family.noise_bounds(ledger["mechanism"], beta / 2, d, n)
    if r_tilde * r_tilde == 0.0:
        # the final estimate is scaled by tau^2 <= r^2 = 0: any threshold
        # yields the zero matrix, so skip the (ill-conditioned) search
        tau = r_tilde
    else:
        # SVT down the dyadic grid r, r/2, ..., 2^end, then one level back up
        query = threshold_query(bounds, hist, tr_hat, r_tilde, n)
        start, end = _pow2_exponent(r_tilde), max(-d * n, _MIN_FLOAT_EXPONENT)
        queries = (query(t) for t in range(start, end - 1, -1))
        k = svt(queries, 1.0, 0.0, family.svt_eps(ledger["svt"]), stream.child("svt"))
        # the k-th query is at 2^(start+1-k), so tau >= 2^end
        tau = min(math.ldexp(1.0, start + 2 - k), r_tilde)

    plain, separate = bounds(tr_hat, tau)
    branch = family.plain if separate >= plain else family.separate
    mech_budget = family.budget(ledger["mechanism"])
    inner = clip_mechanism(x, mech_budget, tau, stream.child("mech"), branch)
    details = dict(r_tilde=r_tilde, tr_hat=tr_hat, tau=tau, branch=branch, ledger=ledger)
    return MechanismReport(inner.estimate, budget, branch, clip_threshold=tau, details=details)
