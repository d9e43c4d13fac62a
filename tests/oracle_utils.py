"""Independent oracle implementations shared by the test modules.

Everything here recomputes quantities straight from definitions (per-vector
loops, direct formula transcriptions) so the package code is checked against
a second, structurally different path.
"""

import csv
import math
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from dpcov.adaptive import priv_radius, private_trace_ub
from dpcov.datagen import SynthSpec, zipf_bin_counts
from dpcov.linalg import Dataset, EigenDecomp, clip_dataset, column_norms, covariance, eig_sym
from dpcov.mechanisms import GAUSSIAN, LAPLACE
from dpcov.privacy import zcdp
from dpcov.randomness import RandomStream


def clip_vector(x: np.ndarray, tau: float) -> np.ndarray:
    """Rescale one vector onto the radius-tau ball, min(1, tau/||x||) * x:
    the per-vector oracle of ``clip_dataset``.

    tau = 0 sends every vector to the origin; the zero vector maps to itself.
    """
    if tau < 0:
        raise ValueError("clip threshold must be nonnegative")
    x = np.asarray(x, dtype=float)
    norm = float(column_norms(x[:, None])[0])
    if norm <= tau:
        return x.copy()
    return x * (tau / norm)


def symmetric_wigner_reference(draws: np.ndarray, d: int) -> np.ndarray:
    """The draws scattered on and above the diagonal in ``np.triu_indices``
    order and mirrored below: the two fancy-index writes that
    ``sgw_matrix`` / ``slw_matrix`` must reproduce bit for bit."""
    w = np.zeros((d, d))
    iu = np.triu_indices(d)
    w[iu] = draws
    w[(iu[1], iu[0])] = draws
    return w


def svt_scalar_draws(queries, sensitivity: float, threshold: float, eps: float, stream):
    """The sparse vector technique as defined, one scalar Laplace draw per
    query: (1-based index of the first noisy query at or above the noisy
    threshold, or one past the end; number of queries pulled)."""

    def draw(scale: float) -> float:
        return 0.0 if stream.zero_noise else float(stream.generator.laplace(0.0, scale))

    noisy_threshold = threshold + draw(2.0 * sensitivity / eps)
    pulled = 0
    for q in queries:
        pulled += 1
        if q + draw(4.0 * sensitivity / eps) >= noisy_threshold:
            return pulled, pulled
    return pulled + 1, pulled


def laplace_sf(x, scale: float) -> np.ndarray:
    """P(Lap(scale) >= x), elementwise, without cancellation in either tail."""
    x = np.asarray(x, dtype=float)
    upper = 0.5 * np.exp(-np.maximum(x, 0.0) / scale)
    return np.where(x > 0, upper, 1.0 - 0.5 * np.exp(np.minimum(x, 0.0) / scale))


def svt_index_distribution(
    queries, threshold: float, threshold_scale: float, query_scale: float, points: int = 40_000
) -> np.ndarray:
    """The exact distribution of the index the sparse vector technique
    (AboveThreshold, Dwork and Roth 2014, section 3.6) returns for fixed
    queries: entry k-1 is P(index = k), k = 1..m+1, where m+1 means that no
    query fired.  With threshold noise z ~ Lap(threshold_scale) and query
    noise ~ Lap(query_scale), CDF F,

        P(k) = int p(z) prod_{i<k} F(T+z-q_i) (1 - F(T+z-q_k)) dz,

    integrated by the trapezoid rule on ``points`` grid points that reach 60
    scales past the queries' offsets from T on both sides."""
    q = np.asarray(queries, dtype=float)
    margin = 60.0 * max(threshold_scale, query_scale)
    lo = min(0.0, float(q.min()) - threshold) - margin
    hi = max(0.0, float(q.max()) - threshold) + margin
    z, dz = np.linspace(lo, hi, points, retstep=True)
    weight = np.exp(-np.abs(z) / threshold_scale) / (2.0 * threshold_scale) * dz
    weight[[0, -1]] /= 2.0
    silent = np.ones(points)  # P(no query so far fired | z)
    out = []
    for qi in q:
        out.append(weight @ (silent * laplace_sf(threshold + z - qi, query_scale)))
        silent *= laplace_sf(qi - threshold - z, query_scale)  # F(T+z-q_i), by symmetry
    out.append(weight @ silent)
    return np.array(out)


def svt_privacy_loss(
    queries, neighbour, sensitivity: float, threshold: float, eps: float, threshold_shrink=1.0
) -> float:
    """max_k |log P(k) / P'(k)| of ``svt``'s index on two query vectors, at
    its noise: threshold Lap(2*sensitivity/eps) (divided by
    ``threshold_shrink``) and queries Lap(4*sensitivity/eps)."""
    scales = (2.0 * sensitivity / eps / threshold_shrink, 4.0 * sensitivity / eps)
    p = svt_index_distribution(queries, threshold, *scales)
    p_prime = svt_index_distribution(neighbour, threshold, *scales)
    return float(np.max(np.abs(np.log(p) - np.log(p_prime))))


def pure_to_zcdp(eps: float) -> float:
    """rho implied by eps-DP: eps^2 / 2."""
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return eps * eps / 2.0


def save_csv(x: Dataset, path: str | Path):
    """Write a dataset as rows of 17-significant-digit floats; a round trip
    through ``load_csv`` is exact."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        for row in x.columns.T:
            writer.writerow([format(v, ".17g") for v in row])


def bucket_exponent(norm: float) -> int:
    """The s with norm in (2^s, 2^(s+1)], via exact mantissa/exponent split."""
    mantissa, exp = math.frexp(norm)
    return exp - 2 if mantissa == 0.5 else exp - 1


def bias_direct(norms, tau: float, n: int) -> float:
    """Clipping-bias bound recomputed per vector (no histogram)."""
    t = math.log2(tau) if tau > 0 else -math.inf
    total = 0.0
    for v in norms:
        if v <= 0:
            continue
        s = bucket_exponent(v)
        if s >= t and s < 0:
            total += math.ldexp(1.0, 2 * s + 2) - tau * tau
    return total / n


def zero_noise_tau_oracle(x: Dataset, rho: float, beta: float):
    """Exhaustive dyadic grid scan reproducing the zero-noise threshold
    selection: recompute the radius and trace stages with zero noise, then
    pick one dyadic step above the first grid point where the bias bound
    reaches the noise bound (the grid head if that is the first point, the
    grid tail if none does)."""
    d, n = x.dim, x.count
    zero = RandomStream(0, zero_noise=True)
    b = math.ldexp(1.0, max(-2 * d * n, -1020))
    r = priv_radius(x, math.sqrt(rho) / 2, beta / 8, b, zero)
    clipped = clip_dataset(x, r)
    tr_hat = private_trace_ub(clipped, r, zcdp(rho / 8), beta, zero)
    norms = clipped.norms()
    bounds = GAUSSIAN.noise_bounds(rho / 2, beta / 2, d, n)

    start = int(math.log2(r))
    end = max(-d * n, -1020)
    if end > start:
        return r, float(r)
    exponents = list(range(start, end - 1, -1))
    trigger = None
    for t in exponents:
        tau = math.ldexp(1.0, t)
        if bias_direct(norms, tau, n) - min(bounds(tr_hat, tau)) >= 0.0:
            trigger = t
            break
    # one dyadic step above the trigger, capped at r; without a trigger the
    # search bottoms out at the grid tail
    tau = math.ldexp(1.0, trigger + 1) if trigger is not None else math.ldexp(1.0, end)
    return r, float(min(tau, r))


def dataset_from_norms(norms, d, seed):
    """Random directions with exactly these target norms (0 gives a zero column)."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, len(norms)))
    cols /= np.linalg.norm(cols, axis=0)
    return Dataset(cols * np.asarray(norms, dtype=float))


@st.composite
def datasets(draw, subnormal=False):
    """d x n data with norms spread over 2^-9..2^1, some zero, some exactly
    2^k; with ``subnormal``, also some norms in 2^-1074..2^-1023."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 30))
    kinds = ["spread", "spread", "dyadic", "zero"] + ["subnormal"] * subnormal
    norms = []
    for _ in range(n):
        kind = draw(st.sampled_from(kinds))
        exponent = draw(st.integers(-9, 0))
        if kind == "zero":
            norms.append(0.0)
        elif kind == "dyadic":
            norms.append(math.ldexp(1.0, exponent))
        elif kind == "subnormal":
            norms.append(math.ldexp(1.0, draw(st.integers(-1074, -1023))))
        else:
            norms.append(math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), exponent + 1))
    return dataset_from_norms(norms, d, draw(st.integers(0, 2**32 - 1)))


def synth_oneshot(spec: SynthSpec) -> np.ndarray:
    """The columns ``synth`` builds, by the one-shot formula: all of Z drawn,
    one product Z U, then centred and scaled as new arrays."""
    stream = RandomStream(spec.seed).child("synth")
    gen = stream.generator
    u = gen.random((spec.d, spec.d))
    z = gen.standard_normal((spec.n, spec.d))
    cols = (z @ u).T
    cols = cols - cols.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(cols, axis=0)
    counts = zipf_bin_counts(spec.n, spec.bins, spec.skew)
    assignment = np.repeat(np.arange(1, spec.bins + 1), counts)
    assignment = assignment[gen.permutation(spec.n)]
    targets = np.ldexp(1.0, assignment - spec.bins)
    return cols * (targets / norms)


def skewed_dataset(n: int, seed: int, heavy: int = 5) -> Dataset:
    """The heavy-tail construction: d = floor(n^(3/4)), a constant number of
    unit-norm columns, the rest at norm n^(-1/4)."""
    d = int(n**0.75)
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, n))
    cols /= np.linalg.norm(cols, axis=0)
    norms = np.full(n, n**-0.25)
    norms[:heavy] = 1.0
    return Dataset(cols * norms)


def jacobi_eig_sym(a: np.ndarray, tol: float = 1e-12, max_sweeps: int = 60) -> EigenDecomp:
    """Cyclic Jacobi eigendecomposition, kept as a self-contained reference
    solver to cross-check :func:`eig_sym` (it is much slower at large d).

    Sweeps over all (p, q) pairs, rotating each off-diagonal entry to zero,
    until the off-diagonal Frobenius mass falls below ``tol * ||A||_F``.
    """
    a = np.array(a, dtype=float)
    d = a.shape[0]
    v = np.eye(d)
    target = tol * max(np.linalg.norm(a), np.finfo(float).tiny)
    for _ in range(max_sweeps):
        # measured entry-wise; the ||A||^2 - sum(diag^2) form cancels badly
        off = np.linalg.norm(a - np.diag(np.diag(a)))
        if off <= target:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                rot_p, rot_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * rot_p - s * rot_q
                a[q, :] = s * rot_p + c * rot_q
                rot_p, rot_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * rot_p - s * rot_q
                a[:, q] = s * rot_p + c * rot_q
                rot_p, rot_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * rot_p - s * rot_q
                v[:, q] = s * rot_p + c * rot_q
    vals = np.diag(a).copy()
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = v[:, order]
    pick = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[pick, np.arange(d)])
    signs[signs == 0] = 1.0
    return EigenDecomp(basis=vecs * signs, values=vals)


def sensitivity_probe(x: Dataset, x_prime: Dataset) -> dict[str, float]:
    """Distances between the covariances and sorted spectra of two datasets,
    for checking the sensitivity bounds on neighboring pairs: Frobenius and
    entry-wise l1 distances for the covariance, and l2 and l1 distances for
    the descending eigenvalue vectors."""
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


def calibrations(d: int, n: int) -> dict[str, float]:
    """The sensitivities the noise families calibrate to, per key of
    :func:`sensitivity_probe`, read from the scales they draw at: at rho = 1/2
    and eps = 1 a Gaussian or Laplace scale equals its sensitivity exactly."""
    (_, sigma_fro), (_, lambda_fro) = GAUSSIAN.noise(d, n, 0.5)
    (_, sigma_l1), (_, lambda_l1) = LAPLACE.noise(d, n, 1.0)
    return {
        "sigma_fro": sigma_fro,
        "lambda_fro": lambda_fro,
        "sigma_l1": sigma_l1,
        "lambda_l1": lambda_l1,
    }
