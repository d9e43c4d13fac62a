"""Synthetic dataset generation and CSV ingestion.

Synthetic data: draw X = Z U with U uniform on (0,1)^(d x d) and Z standard
normal (n x d), center the column vectors at their empirical mean, then
assign column norms by Zipf binning: bin k of N gets a share of columns
proportional to 1/k^s (largest-remainder rounding so the counts sum to n)
and every vector in bin k is rescaled to norm 2^(k-N) exactly.  N = 1 is the
unit-norm case with trace 1.  Centering happens before scaling so the
target norms are exact.
"""

from __future__ import annotations

import csv
import math
import operator
import warnings
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

import numpy as np

from .linalg import _CHUNK_FLOATS, Dataset, _blocks, column_norms
from .randomness import RandomStream

__all__ = ["SynthSpec", "synth", "zipf_bin_counts", "rescale_radius", "load_csv"]


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one synthetic dataset."""

    n: int
    d: int
    bins: int = 1
    skew: float = 3.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n", "d", "bins"):
            value = getattr(self, name)
            try:
                operator.index(value)  # ints and numpy ints; not floats, whole or not
            except TypeError:
                message = f"n, d and bins (N) take whole numbers, not {name}={value!r}"
                raise ValueError(message) from None
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if self.bins < 1:
            raise ValueError("bins must be at least 1")
        if self.n < self.bins:
            raise ValueError("cannot populate bins: n < N")
        zipf_bin_counts(self.n, self.bins, self.skew)  # rejects a skew it cannot weigh


def zipf_bin_counts(n: int, bins: int, skew: float) -> list[int]:
    """Bin sizes proportional to 1/k^skew, largest-remainder rounded to sum
    to n.  Ties in the remainders go to the smaller bin index.  Raises
    ``ValueError`` when a weight, their sum or a bin's share is not finite
    (a NaN skew, or a negative one large enough to overflow)."""
    try:
        weights = [k ** (-skew) for k in range(1, bins + 1)]
    except OverflowError:  # a float power raises where it would be inf
        weights = [math.inf]
    total = sum(weights)
    quotas = [n * w / total for w in weights]
    if not (math.isfinite(total) and all(map(math.isfinite, quotas))):
        raise ValueError(f"skew {skew!r} gives non-finite Zipf weights over {bins} bins")
    counts = [int(math.floor(q)) for q in quotas]
    leftover = n - sum(counts)
    by_remainder = sorted(range(bins), key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return counts


def synth(spec: SynthSpec) -> Dataset:
    """Generate one synthetic dataset; byte-identical for a fixed spec.

    The data is written once, into one n x d buffer whose transpose is the
    dataset: each block of max(1, _CHUNK_FLOATS // d) rows of Z (1 MiB; the
    last block takes the remainder) is drawn into one block buffer and
    multiplied by U into the data buffer.  The block buffer is freed before
    the data is centred and scaled in place, so working memory beyond the
    data is U, a few length-n vectors and that buffer, or the norm scan's
    block of squares, as large (see :func:`~dpcov.linalg.column_norms`):
    under 2 MiB up to d = 2^16.
    """
    stream = RandomStream(spec.seed).child("synth")
    gen = stream.generator
    u = gen.random((spec.d, spec.d))
    rows = np.empty((spec.n, spec.d))
    blocks = list(_blocks(spec.n, max(1, _CHUNK_FLOATS // spec.d)))
    z = np.empty((blocks[-1][1] - blocks[-1][0], spec.d))  # the last block is the largest
    for start, stop in blocks:
        block = z[: stop - start]
        gen.standard_normal(out=block)
        np.matmul(block, u, out=rows[start:stop])
    del z, block
    rows -= rows.mean(axis=0)
    norms = column_norms(rows.T)
    if np.any(norms == 0):
        raise ValueError("degenerate column: cannot assign a target norm")

    counts = zipf_bin_counts(spec.n, spec.bins, spec.skew)
    assignment = np.repeat(np.arange(1, spec.bins + 1), counts)
    assignment = assignment[gen.permutation(spec.n)]
    targets = np.ldexp(1.0, assignment - spec.bins)
    rows *= (targets / norms)[:, np.newaxis]
    return Dataset(rows.T)


def rescale_radius(x: Dataset) -> Dataset:
    """Divide all columns by 2^ceil(log2 rad(X)), landing the radius in
    (0.5, 1]; identity when it is already there."""
    r, unit = x.max_norm, 0
    if r == 0.0:
        raise ValueError("degenerate dataset: all columns are zero")
    if r == math.inf:  # past the float range: measured in units of the largest entry
        _, unit = np.frexp(np.max(np.abs(x.columns)))
        r = float(np.max(column_norms(np.ldexp(x.columns, -unit))))  # as the result measures it
    exponent = int(unit) + math.ceil(math.log2(r))
    if exponent == 0:
        return x
    # np.ldexp, not a division by 2^exponent: that is 2^1024 for radii above
    # 2^1023, which overflows; the two agree bit for bit wherever it does not
    return Dataset(np.ldexp(x.columns, -exponent))


def load_csv(path: str | Path) -> Dataset:
    """Read an n-rows-by-d-columns CSV of finite floats into a Dataset
    (row i becomes column vector X_i).

    Blank lines are skipped, and so is a first row in which no cell parses
    as a number (a header).  numpy's text parser reads the cells, so digit
    group underscores and non-ASCII digits do not parse.  Ragged rows and
    non-numeric or non-finite cells are rejected with their location.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        first = next((row for row in csv.reader(fh) if row), None)
        if first is None:
            raise ValueError(f"{path}: empty file")
        header = all(_cell_value(cell) is None for cell in first)
        if not header:
            fh.seek(0)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # header only: no data
                data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError as exc:
            _raise_located(path, header, exc)
    if data.size == 0:
        raise ValueError(f"{path}: empty file (header only)")
    try:
        return Dataset(data.T)
    except ValueError as exc:  # the one error of a non-empty 2-D array: a non-finite cell
        _raise_located(path, header, exc)


def _cell_value(cell: str) -> float | None:
    """A cell's value as numpy's text parser reads it (Python's, less the
    underscores and non-ASCII digits ``float`` takes), or None."""
    text = cell.strip()
    try:
        return float(text) if text.isascii() and "_" not in text else None
    except ValueError:
        return None


def _raise_located(path: Path, header: bool, exc: ValueError):
    """Raise the error of the first ragged row or bad cell of a CSV file
    that numpy rejected, or read with a non-finite value (``exc``, what was
    raised).  Rows are counted without blank lines, header included."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        rows = enumerate((row for row in csv.reader(fh) if row), start=1)
        width = None
        for i, row in islice(rows, int(header), None):
            width = width or len(row)
            if len(row) != width:
                raise ValueError(f"{path}: ragged row {i}: expected {width} cells, got {len(row)}")
            for j, cell in enumerate(row, start=1):
                value = _cell_value(cell)
                if value is None or not math.isfinite(value):
                    problem = "non-numeric cell" if value is None else "non-finite value"
                    raise ValueError(f"{path}: {problem} at row {i}, column {j}: {cell!r}")
    raise ValueError(f"{path}: {exc}") from exc
