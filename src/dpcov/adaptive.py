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
eps^2/2 equal to their share), eps/4 each under pure DP.  The ledger is
composed with :func:`~dpcov.privacy.compose` and checked once per (family,
B), and a split that does not add up to exactly B raises ValueError; the
check also runs under ``python -O``.

What depends only on the data is built once per dataset and kept there
(see :class:`~dpcov.linalg.Dataset`): the radius search's count at every
level, the clipped trace and histogram at each radius r, the threshold
queries' bias tables at each r, and the clipped Gram of the last threshold
chosen.  Repeated runs on one dataset then pay for their draws and their
d x d algebra.

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
from typing import Callable, Iterable, Mapping

from .linalg import Dataset, _pow2_exponent
from .mechanisms import (
    FAMILIES,
    GAUSSIAN,
    LAPLACE,
    MechanismReport,
    NoiseBounds,
    NoiseFamily,
    _clipped,
)
from .privacy import PrivacyBudget
from .randomness import RandomStream, laplace_sampler, laplace_scalar

__all__ = [
    "svt",
    "priv_radius",
    "build_histogram",
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
    evaluated, and one noise value is drawn per query pulled.
    """
    if not (sensitivity > 0 and math.isfinite(sensitivity)):
        raise ValueError("sensitivity must be positive and finite")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    if not (eps > 0 and math.isfinite(eps)):
        raise ValueError("epsilon must be positive and finite")
    noisy_threshold = threshold + laplace_scalar(stream, 2.0 * sensitivity / eps)
    noise = laplace_sampler(stream, 4.0 * sensitivity / eps)
    k = 0
    for k, q in enumerate(queries, start=1):
        if q + noise() >= noisy_threshold:
            return k
    return k + 1


def priv_radius(x: Dataset, eps: float, beta: float, b: float, stream: RandomStream) -> float:
    """Private estimate of the largest column norm.

    Runs the SVT over the count queries |{i : ||X_i|| > 2^-j}| for
    j = 0..ceil(log2(1/b)) against the threshold (6/eps)*log(2(J+1)/beta),
    and returns twice the radius at the triggering index (capped at 1), or b
    if nothing triggers.  The count at 2^-j sums the dataset's dyadic
    histogram over the buckets s >= -j; the counts at every level are summed
    once per dataset and number of levels, and kept on the dataset.  With
    probability at least 1-beta the result is at most 2*rad(X)+b and clips
    at most (12/eps)*log(2(J+1)/beta) columns.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("additive offset b must lie in (0, 1)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    levels = math.ceil(-math.log2(b))  # 1/b overflows for subnormal b
    threshold = (6.0 / eps) * math.log(2.0 * (levels + 1) / beta)
    counts = x._cached(("level counts", levels), lambda: _level_counts(x, levels))
    k = svt(counts, 1.0, threshold, eps, stream)
    if k <= levels + 1:
        return min(1.0, math.ldexp(1.0, 2 - k))
    return b


def _level_counts(x: Dataset, levels: int) -> tuple[int, ...]:
    """|{i : ||X_i|| > 2^-j}| for j = 0..levels."""
    # the count above 2^0 sums every bucket s >= 0; each level after it adds
    # one bucket
    hist = x.histogram()
    at_one = sum(c for s, c in hist.items() if s >= 0)
    return tuple(accumulate((hist.get(-j, 0) for j in range(1, levels + 1)), initial=at_one))


def build_histogram(x: Dataset, r: float = math.inf) -> Mapping[int, int]:
    """Dyadic counts of the column norms of a dataset clipped to radius r,
    min(||X_i||, r): bucket s holds the norms in (2^s, 2^(s+1)]; zero norms
    are in no bucket.  Read-only: the dataset's own table."""
    return x.histogram(r)


def private_trace_ub(
    x: Dataset, r_tilde: float, budget_frag: PrivacyBudget, beta: float, stream: RandomStream
) -> float:
    """Privatized upper bound on the trace of the data clipped to radius r.

    Clips ``x`` to r itself, then adds calibrated noise (Gaussian for a zCDP
    fragment, Laplace for a pure fragment) to the clipped trace plus an
    offset that keeps the result above the true clipped trace with
    probability at least 1 - beta/8, then caps at r^2, which always
    dominates the clipped trace.
    """
    # noised in units of 2^e, where r / 2^e lies in [1/2, 1), so the
    # sensitivity r^2/n cannot underflow to 0 however small r is; the
    # rescaling is exact wherever the direct form is
    _, e = math.frexp(r_tilde)
    cap = math.ldexp(r_tilde, -e) ** 2
    tr = math.ldexp(x.trace(r_tilde), -2 * e)
    family = FAMILIES[budget_frag.kind]
    draw, offset = family.scalar_noise(stream, cap / x.count, budget_frag.value, beta / 8)
    return math.ldexp(min(tr + draw + offset, cap), 2 * e)


def threshold_query(
    bounds: NoiseBounds, x: Dataset, tr_hat: float, r_tilde: float
) -> Callable[[int], float]:
    """The threshold SVT's query at tau = 2^t, as a function of t:

        (n / (4 r^2)) * (bias - min(bounds(tr_hat, tau))),
        bias = (1/n) * sum_{t <= s < log2 r} Count_s * (2^(2s+2) - tau^2),

    for a private radius r > 0 and the dyadic counts Count_s of the
    r-clipped norms of ``x`` (:func:`build_histogram`); the suffix sums of
    the bias weights are built once per dataset and r.  bias bounds the
    clipping bias at tau from above.  A column adds 2^(2s+2) - tau^2 < r^2
    to n*bias (s < log2 r), so one column change moves the query by at most
    1/4, all queries the same way; the SVT runs at sensitivity 1, as
    calibrated in the paper.
    Nondecreasing as tau walks down the dyadic grid.

    Bias and noise are evaluated in units of r, at tau/r and tr_hat/r^2,
    times n/4.  r is a power of two, so this equals the direct form wherever
    no intermediate is subnormal, and it stays finite where n/(4 r^2)
    overflows (r below about 2^-512).
    """
    unit = _pow2_exponent(r_tilde)
    neg, suffix_weight, suffix_count = x._cached(
        ("bias suffixes", unit), lambda: _bias_suffixes(x.histogram(r_tilde), unit)
    )
    n = x.count
    tr_unit = math.ldexp(tr_hat, -2 * unit)

    def query(t: int) -> float:
        s = t - unit
        idx = bisect_left(neg, s)
        tau_sq = math.ldexp(1.0, 2 * s)  # 0.0 on underflow; the bound only loosens
        bias = max(0.0, (suffix_weight[idx] - tau_sq * suffix_count[idx]) / n)
        return n / 4.0 * (bias - min(bounds(tr_unit, math.ldexp(1.0, s))))

    return query


def _bias_suffixes(counts: Mapping[int, int], unit: int) -> tuple[tuple, tuple, tuple]:
    """The buckets below 2^unit, shifted into units of r = 2^unit and sorted,
    with the suffix sums of their bias weights Count_s * 2^(2s+2) and of
    their counts."""
    neg = sorted(s - unit for s in counts if s < unit)
    weights = (counts[s + unit] * math.ldexp(1.0, 2 * s + 2) for s in reversed(neg))
    tallies = (counts[s + unit] for s in reversed(neg))
    suffix_weight = tuple(accumulate(weights, initial=0.0))[::-1]
    suffix_count = tuple(accumulate(tallies, initial=0))[::-1]
    return tuple(neg), suffix_weight, suffix_count


def adaptive_cov(x: Dataset, rho: float, beta: float, stream: RandomStream) -> MechanismReport:
    """Tail-sensitive private covariance under rho-zCDP.

    Budget split: rho/8 radius, rho/8 trace, rho/4 threshold SVT, rho/2
    final clipped mechanism.  The returned report's variant names the branch
    that actually ran ('gauss' or 'separate'); the selected threshold,
    radius, trace bound, and ledger are in ``details``.
    """
    return _adaptive(GAUSSIAN, x, rho, beta, stream)


def adaptive_cov_pure(x: Dataset, eps: float, beta: float, stream: RandomStream) -> MechanismReport:
    """Tail-sensitive private covariance under eps-DP.

    Same pipeline as :func:`adaptive_cov` with every stage at eps/4, Laplace
    noise, and the Laplace-side bounds driving the threshold search and
    dispatch ('lap' or 'separate-pure').
    """
    return _adaptive(LAPLACE, x, eps, beta, stream)


def _adaptive(
    family: NoiseFamily, x: Dataset, value: float, beta: float, stream: RandomStream
) -> MechanismReport:
    budget = family.budget(value)
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    ledger = family.ledger(value)
    d, n = x.dim, x.count

    b = math.ldexp(1.0, max(-2 * d * n, _MIN_FLOAT_EXPONENT))
    r_tilde = priv_radius(x, family.svt_eps(ledger["radius"]), beta / 8, b, stream.child("radius"))
    trace_budget = family.budget(ledger["trace"])
    tr_hat = private_trace_ub(x, r_tilde, trace_budget, beta, stream.child("trace"))

    bounds = family.noise_bounds(ledger["mechanism"], beta / 2, d, n)
    # SVT down the dyadic grid r, r/2, ..., 2^end, then one level back up
    query = threshold_query(bounds, x, tr_hat, r_tilde)
    start, end = _pow2_exponent(r_tilde), max(-d * n, _MIN_FLOAT_EXPONENT)
    queries = (query(t) for t in range(start, end - 1, -1))
    k = svt(queries, 1.0, 0.0, family.svt_eps(ledger["svt"]), stream.child("svt"))
    # the k-th query is at 2^(start+1-k), so tau >= min(2^end, r)
    tau = min(math.ldexp(1.0, start + 2 - k), r_tilde)

    plain, separate = bounds(tr_hat, tau)
    branch = family.plain if separate >= plain else family.separate
    # tau lies in (0, r] with r <= 1, and branch is one of the family's bodies
    estimate = _clipped(family, branch, x, ledger["mechanism"], tau, stream.child("mech"))
    details = dict(r_tilde=r_tilde, tr_hat=tr_hat, tau=tau, branch=branch, ledger=ledger)
    return MechanismReport(estimate, budget, branch, clip_threshold=tau, details=details)
