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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .linalg import _CHUNK_ROWS, Dataset, _blocks, column_norms, radius
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
        if self.n < 1 or self.d < 1:
            raise ValueError("n and d must be positive")
        if self.bins < 1:
            raise ValueError("bins must be at least 1")
        if self.n < self.bins:
            raise ValueError("cannot populate bins: n < N")


def zipf_bin_counts(n: int, bins: int, skew: float) -> list[int]:
    """Bin sizes proportional to 1/k^skew, largest-remainder rounded to sum
    to n.  Ties in the remainders go to the smaller bin index."""
    weights = [k ** (-skew) for k in range(1, bins + 1)]
    total = sum(weights)
    quotas = [n * w / total for w in weights]
    counts = [int(math.floor(q)) for q in quotas]
    leftover = n - sum(counts)
    by_remainder = sorted(range(bins), key=lambda i: (counts[i] - quotas[i], i))
    for i in by_remainder[:leftover]:
        counts[i] += 1
    return counts


def synth(spec: SynthSpec) -> Dataset:
    """Generate one synthetic dataset; byte-identical for a fixed spec.

    The data is written once, into one n x d buffer whose transpose is the
    dataset: Z is drawn and multiplied by U in blocks of rows, then the
    buffer is centred and scaled in place.  Working memory beyond it is
    O(d * _CHUNK_ROWS) floats plus a few length-n vectors.
    """
    stream = RandomStream(spec.seed).child("synth")
    gen = stream.generator
    u = gen.random((spec.d, spec.d))
    rows = np.empty((spec.n, spec.d))
    for start, stop in _blocks(spec.n, _CHUNK_ROWS):
        np.matmul(gen.standard_normal((stop - start, spec.d)), u, out=rows[start:stop])
    rows -= rows.mean(axis=0)
    norms = column_norms(rows.T)
    if np.any(norms == 0):
        raise ValueError("degenerate column: cannot assign a target norm")

    counts = zipf_bin_counts(spec.n, spec.bins, spec.skew)
    assignment = np.repeat(np.arange(1, spec.bins + 1), counts)
    assignment = assignment[stream.permutation(spec.n)]
    targets = np.ldexp(1.0, assignment - spec.bins)
    rows *= (targets / norms)[:, np.newaxis]
    return Dataset(rows.T, ball_constrained=True)


def rescale_radius(x: Dataset) -> Dataset:
    """Divide all columns by 2^ceil(log2 rad(X)), landing the radius in
    (0.5, 1]; identity when it is already there."""
    r = radius(x)
    if r == 0.0:
        raise ValueError("degenerate dataset: all columns are zero")
    scale = math.ldexp(1.0, math.ceil(math.log2(r)))
    if scale == 1.0:
        return x
    return Dataset(x.columns / scale, ball_constrained=True)


def load_csv(path: str | Path) -> Dataset:
    """Read an n-rows-by-d-columns CSV of finite floats into a Dataset
    (row i becomes column vector X_i).

    A header row is auto-detected: if any cell of the first row fails to
    parse as a number, the row is skipped.  Ragged rows and non-numeric or
    non-finite cells are rejected with their location.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        raw = [row for row in reader if row]
    if not raw:
        raise ValueError(f"{path}: empty file")

    def parse_row(row: list[str], number: int) -> list[float]:
        out = []
        for j, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell at row {number}, column {j + 1}: {cell!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"{path}: non-finite value at row {number}, column {j + 1}: {cell!r}"
                )
            out.append(value)
        return out

    def is_header(row: list[str]) -> bool:
        for cell in row:
            try:
                float(cell)
            except ValueError:
                return True
        return False

    start = 1 if is_header(raw[0]) else 0
    if start == len(raw):
        raise ValueError(f"{path}: empty file (header only)")
    width = len(raw[start])
    rows = []
    for i in range(start, len(raw)):
        if len(raw[i]) != width:
            raise ValueError(
                f"{path}: ragged row {i + 1}: expected {width} cells, got {len(raw[i])}"
            )
        rows.append(parse_row(raw[i], i + 1))
    return Dataset(np.asarray(rows, dtype=float).T)
