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
eps^2/2 equal to their share), eps/4 each under pure DP; the ledger
(``NoiseFamily.ledger``) rejects a split that does not add up to exactly B.

Stages 1-3 are :func:`_select`: no d x d work, and what they release is
returned as a :class:`~dpcov.mechanisms.Selection`, the report's
``selection``.  What depends only on the data is kept on the dataset (see
:class:`~dpcov.linalg.Dataset`): its bucket table, built with the norms,
which both SVT stages walk lazily, one bucket per query pulled, and the
clipped Gram of the last threshold chosen; nothing is kept per radius.

Every stage after the radius reads the unclipped data and clips it to r
itself, so no stage can be handed data that was not clipped.  Both SVT
stages run :func:`svt` at sensitivity 1: the radius counts have it, and the
bias/noise queries, normalized by n/(4*r^2), have at most 1 on r-clipped
data; their noise in original units is Lap(8 r^2/(n eps)) / Lap(16 r^2/(n eps)).
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Iterable, Iterator, Mapping

from .linalg import Dataset, _pow2_exponent
from .mechanisms import (
    FAMILIES,
    GAUSSIAN,
    LAPLACE,
    MechanismReport,
    NoiseBounds,
    NoiseFamily,
    PrivacyBudget,
    Selection,
    _body,
)
from .randomness import RandomStream, laplace_sampler, laplace_scalar

__all__ = [
    "svt",
    "priv_radius",
    "build_histogram",
    "private_trace_ub",
    "threshold_queries",
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
    noised threshold, or one past the end if none does.  Both scales are
    ``LAPLACE.scale``, so an eps it rejects raises before any draw.

    Queries are consumed lazily; nothing beyond the returned index is
    evaluated, and one noise value is drawn per query pulled.
    """
    if not (sensitivity > 0 and math.isfinite(sensitivity)):
        raise ValueError("sensitivity must be positive and finite")
    if not math.isfinite(threshold):
        raise ValueError("threshold must be finite")
    lo, hi = LAPLACE.scale(2.0 * sensitivity, eps), LAPLACE.scale(4.0 * sensitivity, eps)
    noisy_threshold = threshold + lo * laplace_scalar(stream)
    noise = laplace_sampler(stream)
    k = 0
    for k, q in enumerate(queries, start=1):
        if q + hi * noise() >= noisy_threshold:
            return k
    return k + 1


def priv_radius(x: Dataset, eps: float, beta: float, b: float, stream: RandomStream) -> float:
    """Private estimate of the largest column norm.

    Runs the SVT over the count queries |{i : ||X_i|| > 2^-j}| for
    j = 0..ceil(log2(1/b)) against the threshold (6/eps)*log(2(J+1)/beta),
    and returns twice the radius at the triggering index (capped at 1), or b
    if nothing triggers.  The count at 2^-j sums the dataset's dyadic
    histogram over the buckets s >= -j, one bucket added per query the SVT
    pulls.  With probability at least 1-beta the result is at most
    2*rad(X)+b and clips at most (12/eps)*log(2(J+1)/beta) columns.
    """
    if not 0.0 < b < 1.0:
        raise ValueError("additive offset b must lie in (0, 1)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    levels = math.ceil(-math.log2(b))  # 1/b overflows for subnormal b
    threshold = (6.0 / eps) * math.log(2.0 * (levels + 1) / beta)
    if math.isinf(threshold):
        raise ValueError(f"pure budget {eps} is too small: the radius threshold overflows")
    hist = x.histogram()  # each level after 2^0 adds one bucket
    steps = (hist.get(-j, 0) for j in range(1, levels + 1))
    k = svt(accumulate(steps, initial=x.count_above(1.0)), 1.0, threshold, eps, stream)
    if k <= levels + 1:
        return min(1.0, math.ldexp(1.0, 2 - k))
    return b


def build_histogram(x: Dataset, r: float = math.inf) -> Mapping[int, int]:
    """Dyadic counts of the column norms of a dataset clipped to radius r,
    min(||X_i||, r): bucket s holds the norms in (2^s, 2^(s+1)]; zero norms
    are in no bucket.  Read-only: read off the dataset's bucket table."""
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
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    # noised in units of r, as threshold_queries evaluates, so the
    # sensitivity r^2/n is 1/n however small r is; r is a power of two, so
    # the rescaling is exact wherever the direct form is
    unit = _pow2_exponent(r_tilde)
    tr = math.ldexp(x.trace(r_tilde), -2 * unit)
    family = FAMILIES[budget_frag.kind]
    draw, offset = family.scalar_noise(stream, 1.0 / x.count, budget_frag.value, beta / 8)
    return math.ldexp(min(tr + draw + offset, 1.0), 2 * unit)


def threshold_queries(
    bounds: NoiseBounds, x: Dataset, tr_hat: float, r_tilde: float, end: int
) -> Iterator[float]:
    """The threshold SVT's queries at tau = 2^t for t = log2 r, ..., end:

        (n / (4 r^2)) * (bias - min(bounds(tr_hat, tau))),
        bias = (1/n) * sum_{t <= s < log2 r} Count_s * (2^(2s+2) - tau^2),

    for a private radius r > 0 and the dyadic counts Count_s of the
    r-clipped norms of ``x`` (:func:`build_histogram`).  The sums run down
    the grid with it, one bucket added per query pulled, so nothing past
    the last query pulled is read.  bias bounds the clipping bias at tau
    from above.  A column adds 2^(2s+2) - tau^2 < r^2 to n*bias
    (s < log2 r), so one column change moves each query by at most 1/4, all
    queries the same way; the SVT runs at sensitivity 1, as calibrated in
    the paper.  Nondecreasing as tau walks down the dyadic grid.

    Bias and noise are evaluated in units of r, at tau/r and tr_hat/r^2,
    times n/4.  r is a power of two, so this equals the direct form wherever
    no intermediate is subnormal, and it stays finite where n/(4 r^2)
    overflows (r below about 2^-512).
    """
    unit = _pow2_exponent(r_tilde)
    counts, n = x.histogram(r_tilde), x.count
    tr_unit = math.ldexp(tr_hat, -2 * unit)
    weight, tally = 0.0, 0
    for s in range(0, end - unit - 1, -1):  # s = t - log2 r
        count = counts.get(s + unit)
        if count:
            weight += count * math.ldexp(1.0, 2 * s + 2)
            tally += count
        tau_sq = math.ldexp(1.0, 2 * s)  # 0.0 on underflow; the bound only loosens
        bias = max(0.0, (weight - tau_sq * tally) / n)
        yield n / 4.0 * (bias - min(bounds(tr_unit, math.ldexp(1.0, s))))


def adaptive_cov(x: Dataset, rho: float, beta: float, stream: RandomStream) -> MechanismReport:
    """Tail-sensitive private covariance under rho-zCDP.

    Budget split: rho/8 radius, rho/8 trace, rho/4 threshold SVT, rho/2
    final clipped mechanism.  The returned report's variant names the branch
    that actually ran ('gauss' or 'separate'); its ``selection`` holds the
    private radius, trace bound, threshold and branch.
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
    selected = _select(family, x, value, beta, stream)
    mechanism = family.ledger(value)["mechanism"]
    # tau lies in (0, r] with r <= 1, and branch is one of the family's bodies
    estimate = _body(family, selected.branch, x, selected.tau, mechanism, stream.child("mech"))
    return MechanismReport(estimate, budget, selected.branch, selected.tau, selection=selected)


def _select(
    family: NoiseFamily, x: Dataset, value: float, beta: float, stream: RandomStream
) -> Selection:
    """Stages 1-3 on the "radius", "trace" and "svt" children of ``stream``:
    the private radius, trace bound and threshold, and the branch with the
    smaller noise bound there.  Reads the dataset's norm tables, no Gram;
    the radius and trace stages check beta."""
    ledger = family.ledger(value)
    d, n = x.dim, x.count

    b = math.ldexp(1.0, max(-2 * d * n, _MIN_FLOAT_EXPONENT))
    r_tilde = priv_radius(x, family.svt_eps(ledger["radius"]), beta / 8, b, stream.child("radius"))
    trace_budget = family.budget(ledger["trace"])
    tr_hat = private_trace_ub(x, r_tilde, trace_budget, beta, stream.child("trace"))
    bounds = family.noise_bounds(ledger["mechanism"], beta / 2, d, n)
    # SVT down the dyadic grid r, r/2, ..., 2^end, then one level back up
    start, end = _pow2_exponent(r_tilde), max(-d * n, _MIN_FLOAT_EXPONENT)
    queries = threshold_queries(bounds, x, tr_hat, r_tilde, end)
    k = svt(queries, 1.0, 0.0, family.svt_eps(ledger["svt"]), stream.child("svt"))
    # the k-th query is at 2^(start+1-k), so tau >= min(2^end, r)
    tau = min(math.ldexp(1.0, start + 2 - k), r_tilde)

    plain, separate = bounds(tr_hat, tau)
    return Selection(r_tilde, tr_hat, tau, family.plain if separate >= plain else family.separate)
