"""Exact (non-private) linear algebra: :class:`Dataset`, with the summaries
of it that the private mechanisms read, covariance, symmetric
eigendecomposition, norm clipping and the trace/tail statistics.

Matrices are plain float64 ndarrays.  Symmetric matrices are kept *exactly*
symmetric (entry-wise equal to their transpose) by one rule: each is its
upper triangle mirrored below (:func:`_mirror_upper`).  Datasets are
column-vector collections: shape (d, n), one column per individual.
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
    mirror at a time: False on any NaN, and +0.0 equals -0.0."""
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


def _mirror_upper(w: np.ndarray) -> np.ndarray:
    """Copy the upper triangle of a square array onto its lower triangle,
    in place and a tile at a time, and return the array; the lower triangle
    is only written."""
    spans = _tile_spans(w.shape[0])
    for i, rows in enumerate(spans):
        diag = w[rows, rows]
        np.copyto(diag, diag.T, where=np.tri(len(diag), k=-1, dtype=bool))
        for cols in spans[i + 1 :]:
            w[cols, rows] = w[rows, cols].T
    return w


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
    with np.errstate(over="ignore"):  # a norm past the float range is inf
        return np.ldexp(np.linalg.norm(np.ldexp(cols, -exponent), axis=0), exponent)


@dataclass(frozen=True, eq=False)
class Dataset:
    """A d x n collection of column vectors, one column per individual, and
    the summaries the covariance mechanisms read off it.

    Fixed at construction: the column norms (the scan that computes them
    checks that every entry is finite), which :meth:`norms` returns, and
    the table of their dyadic buckets s (norms in (2^s, 2^(s+1)]), per
    bucket the count of its norms and the sum of their squares.  Built on
    first need and kept under their clip exponent: ``gram()``, which is
    ``covariance(x)`` bit for bit, and its spectrum, for good; and for the
    last clip threshold tau = 2^t asked for, ``gram(tau)``, the unit-ball
    Gram of the columns clipped at tau, (1/n) sum_i X_i X_i^T /
    max(||X_i||, tau)^2, and ``spectrum(tau)``; asking for another t drops
    them before its Gram is built.

    The data clipped at a radius r = 2^t is summarised from the bucket
    table on every call, without touching the columns, as a norm above r
    lies in a bucket s >= t and is clipped to the top of bucket t-1: the
    counts above a level, the clipped trace (``trace(r)``) and the dyadic
    histogram of the clipped norms min(||x||, r) (``histogram(r)``); the
    adaptive pipeline's SVT stages walk these a bucket at a time.  A
    clipped Gram is one pass over the columns in blocks of
    ``_CHUNK_COLUMNS``, each column divided by max(||x||, tau), so every
    term lies in the unit ball and no second d x n array is held.

    Memory beyond the columns: 2 d^2 floats for the two Grams, d per
    spectrum, n for the norms, and O(buckets) for the bucket table.  What is
    kept refers to the columns and norms, never to the dataset, so a dataset
    is freed with its last reference.  Grams and spectra are built once,
    under the dataset's one lock, so threads may share a dataset.
    ``columns`` must not be mutated once the dataset is built: what it keeps
    describes the columns as they were.  Whether the columns lie in the unit
    ball is checked where a mechanism reads them.  Datasets compare and hash
    by identity, like what they keep.
    """

    columns: np.ndarray
    _norms: np.ndarray = field(init=False, repr=False)
    max_norm: float = field(init=False, repr=False)
    _counts: Mapping[int, int] = field(init=False, repr=False)
    _squares: Mapping[int, float] = field(init=False, repr=False)
    _slots: dict = field(init=False, repr=False)
    _lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError("dataset columns must be a 2-D array of shape (d, n)")
        if cols.shape[1] == 0:
            raise ValueError("empty dataset")
        if cols.shape[0] == 0:
            raise ValueError("dataset dimension must be at least 1")
        norms = _frozen(column_norms(cols))
        counts, squares = _bucket_table(norms)
        # frozen: the fields are set through the instance dict
        vars(self).update(
            columns=cols,
            _norms=norms,
            max_norm=float(np.max(norms)),
            _counts=counts,
            _squares=squares,
            _slots={},
            _lock=threading.Lock(),
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
        """Number of column norms strictly above ``level``, a power of two
        2^t or inf: the counts of the buckets s >= t."""
        t = _clip_exponent(level)
        return sum(count for s, count in self._counts.items() if s >= t)

    def trace(self, r: float = math.inf) -> float:
        """(1/n) sum_i min(||X_i||, r)^2, the trace of the covariance of the
        columns clipped to norm at most r (a power of two, or inf)."""
        t, clipped = _clip_exponent(r), self.count_above(r)
        total = math.fsum(squares for s, squares in self._squares.items() if s < t)
        if clipped:
            total += clipped * r * r
        return total / self.count

    def histogram(self, r: float = math.inf) -> Mapping[int, int]:
        """Dyadic counts of the clipped norms min(||X_i||, r), r a power of
        two or inf: bucket s holds the norms in (2^s, 2^(s+1)]; zero norms
        are in no bucket.  Read-only; at r = inf, the kept bucket counts."""
        if r == math.inf:
            return self._counts
        top = _pow2_exponent(r) - 1  # the buckets s >= top merge into top
        counts = {s: count for s, count in self._counts.items() if s < top}
        if clipped := sum(count for s, count in self._counts.items() if s >= top):
            counts[top] = clipped
        return MappingProxyType(counts)

    def gram(self, tau: float | None = None) -> np.ndarray:
        """The covariance of the columns, ``covariance(x)``; with tau = 2^t,
        that of the columns clipped at tau and rescaled to the unit ball,
        (1/n) sum_i X_i X_i^T / max(||X_i||, tau)^2.  Read-only; the
        unclipped Gram is built once, a clipped one once per run of calls at
        its exponent.  Raises ``ValueError`` unless tau is a power of two."""
        return self._kept(tau)[0]

    def spectrum(self, tau: float | None = None) -> np.ndarray:
        """Eigenvalues of ``gram(tau)`` in descending order (read-only), kept
        as long as that Gram is."""
        return self._kept(tau, spectrum=True)[1]

    # -- internals --------------------------------------------------------

    def _kept(self, tau: float | None, spectrum: bool = False) -> list:
        """[Gram, spectrum or None] of clip threshold tau, kept under its
        exponent: None's for good, a clipped exponent's until another one
        is asked for, which drops it before the new Gram is built.  The
        lock is taken only to build."""
        t = None if tau is None else _pow2_exponent(tau)
        slot = self._slots.get(t)
        if slot is None or (spectrum and slot[1] is None):
            with self._lock:
                slot = self._slots.get(t)
                if slot is None:
                    if t is not None:  # the last exponent's, freed before this Gram is built
                        for kept in self._slots.keys() - {None}:
                            del self._slots[kept]
                    gram = covariance(self) if t is None else self._unit_cov(t)
                    slot = self._slots[t] = [_frozen(gram), None]
                if spectrum and slot[1] is None:
                    slot[1] = _frozen(np.linalg.eigvalsh(slot[0])[::-1])
        return slot

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
        return _mirror_upper(total)


class EigenDecomp(NamedTuple):
    """Orthonormal basis (columns of ``basis``) and descending eigenvalues."""

    basis: np.ndarray
    values: np.ndarray


def covariance(x: Dataset) -> np.ndarray:
    """Empirical second-moment matrix (1/n) * sum_i X_i X_i^T."""
    gram = x.columns @ x.columns.T
    gram /= x.count
    return _mirror_upper(gram)


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
    """Assemble P diag(values) P^T, its upper triangle mirrored below.
    Negative entries in ``values`` are legal (noisy eigenvalues may dip
    below zero)."""
    basis = np.asarray(basis, dtype=float)
    values = np.asarray(values, dtype=float)
    if basis.ndim != 2 or values.ndim != 1 or basis.shape[1] != values.shape[0]:
        raise ValueError("dimension mismatch between basis and values")
    # a fresh output array: mirroring matmul's own result raised the
    # wide-spectrum benchmark's peak RSS (README, "Symmetric matrices")
    out = np.empty((basis.shape[0], basis.shape[0]))
    np.matmul(basis * values, basis.T, out=out)
    return _mirror_upper(out)


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
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is nan, as in numpy
        diff = (a - b).ravel()
        # np.linalg.norm's own computation, without its dispatch
        dist = math.sqrt(diff.dot(diff))
    # an entry of A - B that overflowed (or is not finite) bounds the
    # distance from below, so numpy's inf (or nan) stands
    if _TINY_NORM <= dist < math.inf or diff.size == 0 or not np.all(np.isfinite(diff)):
        return dist
    return float(_rescaled_norms(diff[:, None])[0])


# Dataset-level oracles: no mechanism calls these.  The tests check what a
# Dataset keeps against them, and the benchmark's tracer and zero-noise gate
# use them.


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


def _clip_exponent(r: float) -> float:
    """The t with r == 2^t, or inf for r = inf (no clipping)."""
    return math.inf if r == math.inf else _pow2_exponent(r)


def _norm_bucket(norms: np.ndarray) -> np.ndarray:
    """The dyadic bucket s with norm in (2^s, 2^(s+1)] of each positive norm.

    frexp gives norm = m * 2^e with m in [0.5, 1), so s = e-1 except exactly
    at powers of two (m == 0.5), where s = e-2.  An inf norm (frexp: e = 0)
    goes to bucket 1024, above every finite norm's.
    """
    mantissa, exponent = np.frexp(norms)
    return np.where(np.isinf(norms), 1024, exponent - 1 - (mantissa == 0.5))


def _bucket_table(norms: np.ndarray) -> tuple[Mapping[int, int], Mapping[int, float]]:
    """Read-only {s: count} and {s: sum of squares} of the norms in each
    dyadic bucket (2^s, 2^(s+1)], ascending in s; zero norms join none."""
    norms = norms[norms > 0]
    ids = _norm_bucket(norms)
    low = int(ids.min(initial=0))
    counts = np.bincount(ids - low)
    with np.errstate(over="ignore"):  # a square past the float range is inf
        squares = np.bincount(ids - low, weights=norms * norms)
    occupied = np.flatnonzero(counts)
    buckets = (occupied + low).tolist()
    return tuple(
        MappingProxyType(dict(zip(buckets, a[occupied].tolist()))) for a in (counts, squares)
    )
