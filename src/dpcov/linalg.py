"""Exact (non-private) linear algebra: covariance, symmetric eigendecomposition,
norm clipping, the trace/tail statistics the private mechanisms are built on,
and :class:`CovSketch`, the one-pass summary of a dataset they all read.

Matrices are plain float64 ndarrays.  Symmetric matrices are kept *exactly*
symmetric (entry-wise equal to their transpose): the Grams are by
construction, and the one general product, :func:`reconstruct`'s, is
averaged with its transpose.  Datasets are column-vector collections: shape
(d, n), one column per individual.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = [
    "Dataset",
    "CovSketch",
    "Gram",
    "EigenDecomp",
    "covariance",
    "eig_sym",
    "reconstruct",
    "frobenius_dist",
    "clip_dataset",
    "trace_stat",
    "tail_gamma",
    "radius",
    "column_norms",
]

# Relative slack for "norm <= bound" checks; clipping can overshoot by a few ulp.
_NORM_RTOL = 1e-9

# Columns per block of a norm scan or a bucket Gram: the working block is
# d * _CHUNK_COLUMNS floats whatever n is.
_CHUNK_COLUMNS = 1024

# Edge of the square tiles in which a d x d matrix is read against its
# transpose.  A one-shot pass over ``m.T`` strides d floats per read across
# the whole matrix; a tile and its mirror are 2 * 128^2 floats (256 KiB) and
# stay in L2 while the mirror is read down its columns.  A matrix below
# 2 * _TILE is one tile, read as one-shot numpy would: at d = 200 both
# operands fit in L2 anyway, and smaller tiles only added per-tile
# overhead.  See the README, "Symmetric matrices", for the sizes timed.
_TILE = 128

# Rows per block when ``synth`` draws Z and writes Z U.  The BLAS product of
# a block need not round like the same rows of the one-shot product; on
# OpenBLAS (Haswell kernels) 4096-row blocks matched it for more shapes than
# 1024-row blocks did (see the README, "Building a dataset").
_CHUNK_ROWS = 4096

# Column norms below this are recomputed from the column scaled by a power of
# two: their squares may have lost bits to underflow.
_TINY_NORM = 2.0**-500


def _blocks(n: int, size: int):
    """(start, stop) of consecutive blocks covering range(n).  The last block
    takes the remainder, so none is thinner than ``size`` (unless n is): a
    thin block can be reduced or multiplied in another order."""
    starts = range(0, max(n - size, 0) + 1, size)
    return zip(starts, [*starts[1:], n])


def _tile_spans(d: int) -> list[slice]:
    """Row (or column) ranges of the _TILE x _TILE tiles of a d x d matrix;
    the last tile takes the remainder, as in :func:`_blocks`."""
    if d < 2 * _TILE:  # skip _blocks: small matrices are bound by per-call cost
        return [slice(0, d)]
    return [slice(start, stop) for start, stop in _blocks(d, _TILE)]


def _is_symmetric(a: np.ndarray) -> bool:
    """``np.array_equal(a, a.T)`` for a square 2-D array, a tile and its
    mirror at a time: False on any NaN, and +0.0 equals -0.0.  Pass an
    integer view of a float array to compare bits instead."""
    spans = _tile_spans(a.shape[0])
    for i, rows in enumerate(spans):
        for cols in spans[i:]:
            if not (a[rows, cols] == a[cols, rows].T).all():
                return False
    return True


def _transpose_into(out: np.ndarray, a: np.ndarray) -> None:
    """out[...] = a.T for square a, a tile at a time."""
    spans = _tile_spans(a.shape[0])
    for rows in spans:
        for cols in spans:
            out[cols, rows] = a[rows, cols].T


def _mirror_upper(w: np.ndarray) -> None:
    """Copy the upper triangle of a square array onto its lower triangle,
    in place and a tile at a time; the lower triangle is only written."""
    spans = _tile_spans(w.shape[0])
    for i, rows in enumerate(spans):
        diag = w[rows, rows]
        np.copyto(diag, diag.T, where=np.tri(len(diag), k=-1, dtype=bool))
        for cols in spans[i + 1 :]:
            w[cols, rows] = w[rows, cols].T


def column_norms(cols: np.ndarray) -> np.ndarray:
    """l2 norms of the columns of a (d, n) array, _CHUNK_COLUMNS at a time.

    Each norm is exactly ``np.linalg.norm(cols, axis=0)``'s unless that one
    lost bits: a column whose norm comes out below 2^-500 (squares
    underflow) or infinite (squares overflow) is rescaled by an exact power
    of two and its norm recomputed.  Only those columns are read twice, and
    no d x n temporary is made.  Raises ``ValueError`` on a non-finite entry.
    """
    norms = np.empty(cols.shape[1])
    for start, stop in _blocks(cols.shape[1], _CHUNK_COLUMNS):
        block, out = cols[:, start:stop], norms[start:stop]
        with np.errstate(over="ignore"):
            out[:] = np.linalg.norm(block, axis=0)
        # non-finite entries give an inf or nan norm, so they land here too
        redo = np.flatnonzero(~((out >= _TINY_NORM) & (out < math.inf)))
        if redo.size:
            out[redo] = _rescaled_norms(block[:, redo])
    return norms


def _rescaled_norms(cols: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(cols)):
        raise ValueError("dataset contains non-finite entries")
    _, exponent = np.frexp(np.max(np.abs(cols), axis=0))
    return np.ldexp(np.linalg.norm(np.ldexp(cols, -exponent), axis=0), exponent)


@dataclass(frozen=True)
class Dataset:
    """A d x n collection of column vectors, one column per individual.

    ``ball_constrained=True`` asserts that every column lies in the unit
    l2-ball; this is validated at construction time.

    The column norms are computed once, at construction (the same scan
    checks that every entry is finite), and :meth:`norms` returns them
    after.  So ``columns`` must not be mutated once the dataset is built:
    the ball check, the memoised norms and any :class:`CovSketch` of the
    dataset all describe the columns as they were.
    """

    columns: np.ndarray
    ball_constrained: bool = False
    _norms: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError("dataset columns must be a 2-D array of shape (d, n)")
        if cols.shape[1] == 0:
            raise ValueError("empty dataset")
        if cols.shape[0] == 0:
            raise ValueError("dataset dimension must be at least 1")
        norms = column_norms(cols)
        norms.flags.writeable = False
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_norms", norms)
        if self.ball_constrained:
            worst = float(np.max(norms))
            if worst > 1.0 + _NORM_RTOL:
                raise ValueError(f"norms exceed 1 (max norm {worst})")

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    def norms(self) -> np.ndarray:
        """Column l2 norms, shape (n,) (read-only; see :func:`column_norms`)."""
        return self._norms


class EigenDecomp(NamedTuple):
    """Orthonormal basis (columns of ``basis``) and descending eigenvalues."""

    basis: np.ndarray
    values: np.ndarray


def _symmetrize(m: np.ndarray) -> np.ndarray:
    """``(m + m.T) / 2`` bit for bit, a tile and its mirror at a time, or
    ``m`` itself when it is already symmetric bit for bit.  numpy computes
    ``a @ a.T`` with syrk and mirrors the triangle, so the Grams pass through
    unchanged and cannot overflow in ``m + m.T``."""
    if _is_symmetric(m.view(np.uint64)):
        return m
    out = np.empty_like(m)
    spans = _tile_spans(m.shape[0])
    for rows in spans:
        for cols in spans:
            tile = out[rows, cols]
            np.add(m[rows, cols], m[cols, rows].T, out=tile)
            tile /= 2.0
    return out


def covariance(x: Dataset) -> np.ndarray:
    """Empirical second-moment matrix (1/n) * sum_i X_i X_i^T."""
    cols = x.columns
    return _symmetrize(cols @ cols.T / x.count)


def _check_square_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("non-finite matrix")
    if not _is_symmetric(a):
        raise ValueError("matrix is not symmetric")
    return a


def eig_sym(a: np.ndarray) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues in descending
    order: ``np.linalg.eigh``'s output reversed.

    The basis is a deterministic function of the input (LAPACK's), but no
    sign convention is imposed on its columns.  :func:`reconstruct` does not
    need one: flipping a column's sign flips both factors of its term.
    """
    a = _check_square_symmetric(a)
    vals, vecs = np.linalg.eigh(a)
    # column-major: the BLAS rounds reconstruct's product by memory layout,
    # and this layout keeps the separate mechanisms' results bit-stable
    basis = np.empty(vecs.shape, order="F")
    _transpose_into(basis.T, vecs[:, ::-1])
    return EigenDecomp(basis=basis, values=vals[::-1])


def reconstruct(basis: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Assemble P diag(values) P^T, symmetrized.  Negative entries in
    ``values`` are legal (noisy eigenvalues may dip below zero)."""
    basis = np.asarray(basis, dtype=float)
    values = np.asarray(values, dtype=float)
    if basis.ndim != 2 or values.ndim != 1 or basis.shape[1] != values.shape[0]:
        raise ValueError("dimension mismatch between basis and values")
    return _symmetrize((basis * values) @ basis.T)


def frobenius_dist(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance ||A - B||_F."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return float(np.linalg.norm(a - b))


def clip_dataset(x: Dataset, tau: float) -> Dataset:
    """Rescale each column onto the radius-tau ball: min(1, tau/||x||) * x.

    tau = 0 sends every column to the origin; zero columns map to themselves.
    """
    if not tau >= 0:
        raise ValueError("clip threshold must be nonnegative")
    norms = x.norms()
    factors = np.ones_like(norms)
    over = norms > tau
    factors[over] = tau / norms[over]
    return Dataset(x.columns * factors, ball_constrained=x.ball_constrained or tau <= 1.0)


def trace_stat(x: Dataset) -> float:
    """Average squared column norm (1/n) sum_i ||X_i||^2; equals the
    eigenvalue sum of the covariance matrix."""
    return float(np.sum(x.columns**2) / x.count)


def tail_gamma(x: Dataset, tau: float) -> float:
    """Squared-norm mass above the threshold: (1/n) sum ||X_i||^2 over
    columns with ||X_i|| strictly greater than tau."""
    if not tau >= 0:
        raise ValueError("tau must be nonnegative")
    sq = np.sum(x.columns**2, axis=0)
    return float(np.sum(sq[np.sqrt(sq) > tau]) / x.count)


def radius(x: Dataset) -> float:
    """Largest column norm max_i ||X_i||."""
    return float(np.max(x.norms()))


def _norm_bucket(norms: np.ndarray) -> np.ndarray:
    """The dyadic bucket s with norm in (2^s, 2^(s+1)] of each positive norm.

    frexp gives norm = m * 2^e with m in [0.5, 1), so s = e-1 except exactly
    at powers of two (m == 0.5), where s = e-2.
    """
    mantissa, exponent = np.frexp(norms)
    return np.where(mantissa == 0.5, exponent - 2, exponent - 1)


class Gram:
    """A covariance matrix of ``count`` columns and its exact spectrum.

    ``cov`` is exactly symmetric and read-only.  :meth:`spectrum` runs
    ``np.linalg.eigvalsh`` on first request and returns the same array after.
    """

    __slots__ = ("cov", "dim", "count", "_spectrum", "_lock")

    def __init__(self, cov: np.ndarray, count: int):
        cov.flags.writeable = False
        self.cov = cov
        self.dim = cov.shape[0]
        self.count = count
        self._spectrum = None
        self._lock = threading.Lock()

    def spectrum(self) -> np.ndarray:
        """Eigenvalues in descending order (read-only)."""
        with self._lock:
            if self._spectrum is None:
                values = np.linalg.eigvalsh(self.cov)[::-1]
                values.flags.writeable = False
                self._spectrum = values
            return self._spectrum


class _Layout(NamedTuple):
    """The column norms sorted ascending, with what is read off them."""

    order: np.ndarray  # column indices in norm order
    norms: np.ndarray  # sorted norms
    sq_prefix: np.ndarray  # sq_prefix[k] = sum of the k smallest squared norms
    buckets: dict[int, tuple[int, int]]  # s -> sorted positions [lo, hi)


class CovSketch:
    """Sufficient statistics of a dataset for the covariance mechanisms.

    Built from a :class:`Dataset` without reading its columns: it takes the
    dataset's memoised norms; the rest is derived on first need and kept:

    * the norms sorted, with prefix sums of their squares;
    * ``G``, which is ``covariance(x)`` bit for bit;
    * per dyadic bucket s (norms in (2^s, 2^(s+1)]): its count and sum of
      squared norms, read off the sorted norms; ``A_s``, the Gram of its
      columns; and ``B_s``, the Gram of its unit-normalised columns.

    From these, the data clipped at a radius r is summarised without
    touching the columns again: counts above a level and the clipped trace
    (``trace(r)``) by binary search over the sorted norms, the dyadic
    histogram of the clipped norms min(||x||, r) (``histogram(r)``) from the
    buckets, and the unit-ball Gram of the columns clipped at tau = 2^t,
    ``sum_{s<t} A_s / tau^2 + sum_{s>=t} B_s``.  ``A_s`` is stored divided
    by 4^(s+1) so that buckets of tiny norms stay in floating range.

    Each ``A_s`` and ``B_s`` is built the first time a clipped Gram needs
    it, in blocks of ``_CHUNK_COLUMNS`` columns, so mechanisms that never
    clip pay only for the norms and ``G``, and no second d x n array is
    ever held.  Memory: d^2 * (1 + 2 * occupied buckets + clip exponents
    queried) floats, plus 4n for the norms, their order and the prefix sums.
    The source columns are referenced, not copied.  Lazy parts are filled
    under a lock, so threads may share a sketch.
    """

    def __init__(self, x: Dataset):
        self.dim, self.count = x.dim, x.count
        self._dataset = x
        self._norms = x.norms()
        self.max_norm = float(np.max(self._norms))
        self._cache: dict = {}
        self._lock = threading.RLock()

    @classmethod
    def of(cls, x: "Dataset | CovSketch") -> "CovSketch":
        """``x`` itself if it is a sketch, else the sketch of the dataset."""
        return x if isinstance(x, cls) else cls(x)

    @property
    def G(self) -> np.ndarray:
        """``covariance(x)`` of the source dataset (read-only)."""
        return self._exact().cov

    def count_above(self, level: float) -> int:
        """Number of column norms strictly above ``level``."""
        return self.count - int(np.searchsorted(self._layout().norms, level, side="right"))

    def trace(self, r: float = math.inf) -> float:
        """(1/n) sum_i min(||X_i||, r)^2, the trace of the covariance of the
        columns clipped to norm at most r."""
        kept = self._kept(r)
        total = self._layout().sq_prefix[kept]
        if kept < self.count:
            total += (self.count - kept) * r * r
        return float(total / self.count)

    def histogram(self, r: float = math.inf) -> dict[int, int]:
        """Dyadic counts of the clipped norms min(||X_i||, r): bucket s holds
        the norms in (2^s, 2^(s+1)]; zero norms are in no bucket."""
        kept = self._kept(r)
        buckets = self._layout().buckets
        counts = {s: min(hi, kept) - lo for s, (lo, hi) in buckets.items() if lo < kept}
        if kept < self.count:
            top = int(_norm_bucket(np.float64(r)))
            counts[top] = counts.get(top, 0) + self.count - kept
        return counts

    def _exact(self) -> Gram:
        """The unclipped covariance ``covariance(x)``, with its spectrum."""
        return self._cached("G", lambda: Gram(covariance(self._dataset), self.count))

    def gram(self, tau: float | None = None) -> Gram:
        """The covariance of the columns; with ``tau``, that of the columns
        clipped at tau and rescaled to the unit ball,
        (1/n) sum_i X_i X_i^T / max(||X_i||, tau)^2.

        Results for dyadic tau, and the unclipped covariance, are cached
        with their spectra.
        """
        return self._exact() if tau is None else self._unit(tau)

    # -- internals --------------------------------------------------------

    def _cached(self, key, build):
        with self._lock:
            value = self._cache.get(key)
            if value is None:
                value = self._cache[key] = build()
            return value

    def _layout(self) -> _Layout:
        return self._cached("layout", self._sort_norms)

    def _sort_norms(self) -> _Layout:
        order = np.argsort(self._norms, kind="stable")
        norms = self._norms[order]
        sq_prefix = np.concatenate(([0.0], np.cumsum(norms * norms)))
        # buckets are runs of the sorted norms; zero columns lead and join none
        first = int(np.searchsorted(norms, 0.0, side="right"))
        ids = _norm_bucket(norms[first:])
        edges = [first, *(np.flatnonzero(np.diff(ids)) + first + 1), self.count]
        buckets = {
            int(ids[lo - first]): (int(lo), int(hi)) for lo, hi in zip(edges, edges[1:]) if lo < hi
        }
        return _Layout(order, norms, sq_prefix, buckets)

    def _kept(self, r: float) -> int:
        """Number of columns that clipping at radius r leaves unchanged."""
        if not r > 0:
            raise ValueError("clip radius must be positive")
        return int(np.searchsorted(self._layout().norms, r, side="right"))

    def _unit(self, tau: float) -> Gram:
        if not tau > 0:
            raise ValueError("clip threshold must be positive")
        mantissa, exponent = math.frexp(tau)
        if mantissa != 0.5:
            return Gram(self._unit_cov(tau), self.count)
        return self._cached(exponent - 1, lambda: Gram(self._unit_cov(tau), self.count))

    def _unit_cov(self, tau: float) -> np.ndarray:
        if tau >= self.max_norm:  # nothing is clipped
            return self.G / tau / tau
        # tau = m * 2^e with m in [0.5, 1): bucket s lies wholly at or below
        # tau when s <= e-2, wholly above it when 2^s >= tau
        mantissa, e = math.frexp(tau)
        first_clipped = e - 1 if mantissa == 0.5 else e
        total = np.zeros((self.dim, self.dim))
        for s, (lo, hi) in self._layout().buckets.items():
            if s <= e - 2:
                weight = math.ldexp((1.0 / mantissa) ** 2, 2 * (s + 1 - e))
                total += weight * self._bucket_gram("A", s)
            elif s >= first_clipped:
                total += self._bucket_gram("B", s)
            else:  # the bucket straddles a non-dyadic tau
                total += self._block_gram(lo, hi, lambda norms: np.maximum(norms, tau))
        return _symmetrize(total / self.count)

    def _bucket_gram(self, kind: str, s: int) -> np.ndarray:
        lo, hi = self._layout().buckets[s]
        if kind == "A":
            scale = math.ldexp(1.0, s + 1)
            return self._cached(("A", s), lambda: self._block_gram(lo, hi, lambda _: scale))
        return self._cached(("B", s), lambda: self._block_gram(lo, hi, lambda norms: norms))

    def _block_gram(self, lo: int, hi: int, divisor) -> np.ndarray:
        """Gram of the columns at sorted positions lo..hi-1, each divided by
        ``divisor`` of its norm, accumulated _CHUNK_COLUMNS columns at a time."""
        layout = self._layout()
        acc = np.zeros((self.dim, self.dim))
        for start in range(lo, hi, _CHUNK_COLUMNS):
            stop = min(start + _CHUNK_COLUMNS, hi)
            block = self._dataset.columns[:, layout.order[start:stop]]
            block /= divisor(layout.norms[start:stop])
            acc += block @ block.T
        acc = _symmetrize(acc)
        acc.flags.writeable = False
        return acc
