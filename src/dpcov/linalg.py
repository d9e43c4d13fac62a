"""Exact (non-private) linear algebra: :class:`Dataset`, with the summaries
of it that the private mechanisms read, covariance, symmetric
eigendecomposition, norm clipping and the trace/tail statistics.

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
from types import MappingProxyType
from typing import Mapping, NamedTuple

import numpy as np

__all__ = [
    "Dataset",
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

# Columns per block of a clipped Gram: the working block is at most
# d * (2 * _CHUNK_COLUMNS - 1) floats whatever n is (the last block takes the
# remainder; see _blocks), and one block is held at a time.
_CHUNK_COLUMNS = 1024

# Edge of the square tiles in which a d x d matrix is read against its
# transpose.  A one-shot pass over ``m.T`` strides d floats per read across
# the whole matrix; a tile and its mirror are 2 * 128^2 floats (256 KiB) and
# stay in L2 while the mirror is read down its columns.  A matrix below
# 2 * _TILE is one tile, read as one-shot numpy would: at d = 200 both
# operands fit in L2 anyway, and smaller tiles only added per-tile
# overhead.  See the README, "Symmetric matrices", for the sizes timed.
_TILE = 128

# Floats per block (1 MiB) when ``synth`` draws Z and writes Z U: a block
# is max(1, _CHUNK_FLOATS // d) rows, so 4096 rows at d = 32 and 128 at
# d = 1024, and the last block takes the remainder (see _blocks).  The BLAS
# product of a block need not round like the same rows of the one-shot
# product; see the README, "Building a dataset", for the shapes where it does.
# The norm scan's blocks of squares are as large (see _scan_width).
_CHUNK_FLOATS = 2**17

# Column norms below this are recomputed from the column scaled by a power of
# two: their squares may have lost bits to underflow.
_TINY_NORM = 2.0**-500


def _blocks(n: int, size: int):
    """(start, stop) of consecutive blocks covering range(n).  The last block
    takes the remainder, so none is thinner than ``size`` (unless n is): a
    thin block can be reduced or multiplied in another order."""
    starts = range(0, max(n - size, 0) + 1, size)
    return zip(starts, [*starts[1:], n])


def _scan_width(d: int) -> int:
    """Columns per block of the norm scan: _CHUNK_FLOATS // d, so a block's
    squares take 1 MiB (under 2 MiB with the remainder), but two at least:
    numpy sums a lone column of a row-major array in another order."""
    return max(2, _CHUNK_FLOATS // d)


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
            # != is exactly "not ==" (nan != nan), and counting is cheaper
            # than numpy's all() on a small tile
            if np.count_nonzero(a[rows, cols] != a[cols, rows].T):
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


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


def column_norms(cols: np.ndarray) -> np.ndarray:
    """l2 norms of the columns of a (d, n) array, a block of
    :func:`_scan_width` columns at a time.

    Each norm is exactly ``np.linalg.norm(cols, axis=0)``'s unless that one
    lost bits: a column whose norm comes out below 2^-500 (squares
    underflow) or infinite (squares overflow) is rescaled by an exact power
    of two and its norm recomputed.  Only those columns are read twice, and
    no d x n temporary is made.  Raises ``ValueError`` on a non-finite entry.
    """
    norms = np.empty(cols.shape[1])
    for start, stop in _blocks(cols.shape[1], _scan_width(cols.shape[0])):
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
    """A d x n collection of column vectors, one column per individual, and
    the summaries the covariance mechanisms read off it.

    The column norms are computed once, at construction (the same scan
    checks that every entry is finite), and :meth:`norms` returns them
    after.  The rest is built on first need and kept:

    * the norms sorted, with prefix sums of their squares, and the dyadic
      buckets s (norms in (2^s, 2^(s+1)]) as runs of the sorted norms;
    * ``gram()``, which is ``covariance(x)`` bit for bit, and its spectrum;
    * for the last clip threshold tau = 2^t asked for, ``gram(tau)``, the
      unit-ball Gram of the columns clipped at tau, (1/n) sum_i X_i X_i^T /
      max(||X_i||, tau)^2, and its spectrum (``spectrum(tau)``); asking for
      another t drops them.

    The data clipped at a radius r is summarised from the sorted norms
    without touching the columns: counts above a level and the clipped trace
    (``trace(r)``) by binary search, and the dyadic histogram of the clipped
    norms min(||x||, r) (``histogram(r)``) from the buckets, each kept per r
    (read-only), as are the adaptive pipeline's tables derived from them
    (:mod:`dpcov.adaptive`).  A clipped Gram is one pass over the columns in
    blocks of ``_CHUNK_COLUMNS``, each column divided by max(||x||, tau), so
    every term lies in the unit ball and no second d x n array is ever held.

    Memory beyond the columns: 2 d^2 floats for the two Grams, d per
    spectrum, 3n for the norms, the sorted norms and their prefix sums, and
    O(buckets) per radius.  What is kept refers to the columns and norms,
    never to the dataset, so a dataset is freed with its last reference.
    Every lazy part is built once, under the dataset's one lock, so threads
    may share a dataset.  ``columns`` must not be mutated once the dataset
    is built: what it keeps describes the columns as they were.  Whether the
    columns lie in the unit ball is checked where a mechanism reads them.
    """

    columns: np.ndarray
    _norms: np.ndarray = field(init=False, repr=False, compare=False)
    max_norm: float = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)
    _lock: threading.RLock = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError("dataset columns must be a 2-D array of shape (d, n)")
        if cols.shape[1] == 0:
            raise ValueError("empty dataset")
        if cols.shape[0] == 0:
            raise ValueError("dataset dimension must be at least 1")
        norms = _frozen(column_norms(cols))
        # frozen: the fields are set through the instance dict
        vars(self).update(
            columns=cols,
            _norms=norms,
            max_norm=float(np.max(norms)),
            _cache={},
            _lock=threading.RLock(),
        )

    @property
    def dim(self) -> int:
        return self.columns.shape[0]

    @property
    def count(self) -> int:
        return self.columns.shape[1]

    def norms(self) -> np.ndarray:
        """Column l2 norms, shape (n,) (read-only; see :func:`column_norms`)."""
        return self._norms

    def count_above(self, level: float) -> int:
        """Number of column norms strictly above ``level``, which must be
        positive: one binary search of the sorted norms."""
        if not level > 0:
            raise ValueError("levels and clip radii must be positive")
        return self.count - int(np.searchsorted(self._layout().norms, level, side="right"))

    def trace(self, r: float = math.inf) -> float:
        """(1/n) sum_i min(||X_i||, r)^2, the trace of the covariance of the
        columns clipped to norm at most r; built once per r."""
        return self._cached(("trace", r), lambda: self._clipped_trace(r))

    def histogram(self, r: float = math.inf) -> Mapping[int, int]:
        """Dyadic counts of the clipped norms min(||X_i||, r): bucket s holds
        the norms in (2^s, 2^(s+1)]; zero norms are in no bucket.  Read-only,
        built once per r."""
        return self._cached(("histogram", r), lambda: self._clipped_histogram(r))

    def gram(self, tau: float | None = None) -> np.ndarray:
        """The covariance of the columns, ``covariance(x)``; with tau = 2^t,
        that of the columns clipped at tau and rescaled to the unit ball,
        (1/n) sum_i X_i X_i^T / max(||X_i||, tau)^2.  Read-only; the
        unclipped Gram is built once, a clipped one once per run of calls at
        its exponent.  Raises ``ValueError`` unless tau is a power of two."""
        if tau is None:
            return self._cached("gram", lambda: _frozen(covariance(self)))
        t = _pow2_exponent(tau)
        return self._at_exponent(t, "gram", lambda: _frozen(self._unit_cov(t)))

    def spectrum(self, tau: float | None = None) -> np.ndarray:
        """Eigenvalues of ``gram(tau)`` in descending order (read-only), kept
        as long as that Gram is."""
        def build():
            return _frozen(np.linalg.eigvalsh(self.gram(tau))[::-1])

        if tau is None:
            return self._cached("spectrum", build)
        return self._at_exponent(_pow2_exponent(tau), "spectrum", build)

    # -- internals --------------------------------------------------------

    def _cached(self, key, build):
        with self._lock:
            value = self._cache.get(key)
            if value is None:
                value = self._cache[key] = build()
            return value

    def _at_exponent(self, t: int, key: str, build):
        """``_cached`` for what is kept of clip exponent t: asking for
        another exponent first drops the last one's Gram and spectrum."""
        with self._lock:
            kept = self._cache.get("clipped")
            if kept is None or kept["t"] != t:
                self._cache.pop("clipped", None)  # freed before the next Gram is built
                kept = self._cache["clipped"] = {"t": t}
            if key not in kept:
                kept[key] = build()
            return kept[key]

    def _clipped_trace(self, r: float) -> float:
        clipped = self.count_above(r)
        total = self._layout().sq_prefix[self.count - clipped]
        if clipped:
            total += clipped * r * r
        return float(total / self.count)

    def _clipped_histogram(self, r: float) -> Mapping[int, int]:
        clipped = self.count_above(r)
        kept = self.count - clipped
        buckets = self._layout().buckets
        counts = {s: min(hi, kept) - lo for s, (lo, hi) in buckets.items() if lo < kept}
        if clipped:
            top = int(_norm_bucket(np.float64(r)))
            counts[top] = counts.get(top, 0) + clipped
        return MappingProxyType(counts)

    def _layout(self) -> _Layout:
        return self._cached("layout", self._sort_norms)

    def _sort_norms(self) -> _Layout:
        norms = np.sort(self._norms)
        sq_prefix = np.concatenate(([0.0], np.cumsum(norms * norms)))
        # buckets are runs of the sorted norms; zero columns lead and join none
        first = int(np.searchsorted(norms, 0.0, side="right"))
        ids = _norm_bucket(norms[first:])
        edges = [first, *(np.flatnonzero(np.diff(ids)) + first + 1), self.count]
        buckets = {
            int(ids[lo - first]): (int(lo), int(hi)) for lo, hi in zip(edges, edges[1:]) if lo < hi
        }
        return _Layout(norms, sq_prefix, buckets)

    def _unit_cov(self, t: int) -> np.ndarray:
        tau = math.ldexp(1.0, t)
        # each column over max(||x||, tau): clipped at tau and rescaled, it
        # lies in the unit ball whatever its norm
        cols, norms = self.columns, self._norms
        total = np.zeros((self.dim, self.dim))
        for start, stop in _blocks(self.count, _CHUNK_COLUMNS):
            block = cols[:, start:stop] / np.maximum(norms[start:stop], tau)
            total += block @ block.T
            del block  # freed before the next block is built
        total /= self.count
        return _symmetrize(total)


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


def eig_sym(a: np.ndarray) -> EigenDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues in descending
    order: ``np.linalg.eigh``'s output reversed.

    The basis is a deterministic function of the input (LAPACK's), but no
    sign convention is imposed on its columns.  :func:`reconstruct` does not
    need one: flipping a column's sign flips both factors of its term.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.isfinite(a).all():
        raise ValueError("non-finite matrix")
    if not _is_symmetric(a):
        raise ValueError("matrix is not symmetric")
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
    """Frobenius distance ||A - B||_F.

    ``np.linalg.norm(a - b)`` bit for bit wherever that is finite and at
    least 2^-500; elsewhere its squares may have overflowed or lost bits to
    underflow, so A - B is rescaled by an exact power of two, as a column is
    in :func:`column_norms`.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    with np.errstate(over="ignore"):
        diff = (a - b).ravel()
        # np.linalg.norm's own computation, without its dispatch
        dist = math.sqrt(diff.dot(diff))
    # an entry of A - B that overflowed (or is not finite) bounds the
    # distance from below, so numpy's inf (or nan) stands
    if _TINY_NORM <= dist < math.inf or diff.size == 0 or not np.all(np.isfinite(diff)):
        return dist
    return float(_rescaled_norms(diff[:, None])[0])


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
    return Dataset(x.columns * factors)


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


def _pow2_exponent(value: float) -> int:
    """The integer t with value == 2**t; rejects anything else.  Clip
    thresholds and private radii are powers of two, checked here."""
    if value <= 0 or not math.isfinite(value):
        raise ValueError("expected a positive power of two")
    mantissa, exp = math.frexp(value)
    if mantissa != 0.5:
        raise ValueError(f"{value} is not a power of two")
    return exp - 1


def _norm_bucket(norms: np.ndarray) -> np.ndarray:
    """The dyadic bucket s with norm in (2^s, 2^(s+1)] of each positive norm.

    frexp gives norm = m * 2^e with m in [0.5, 1), so s = e-1 except exactly
    at powers of two (m == 0.5), where s = e-2.
    """
    mantissa, exponent = np.frexp(norms)
    return np.where(mantissa == 0.5, exponent - 2, exponent - 1)


class _Layout(NamedTuple):
    """The column norms sorted ascending, with what is read off them."""

    norms: np.ndarray  # sorted norms
    sq_prefix: np.ndarray  # sq_prefix[k] = sum of the k smallest squared norms
    buckets: dict[int, tuple[int, int]]  # s -> sorted positions [lo, hi)
