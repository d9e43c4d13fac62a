"""Seedable, deterministic random streams for all mechanisms.

Built on numpy's Philox counter-based bit generator, so a stream is fully
determined by a 128-bit key derived from (seed, label path).  Sub-streams are
derived by hashing the parent key with a text label, which makes parallel
repetitions reproducible regardless of scheduling order.

Every sampler honours a ``zero_noise`` flag on the stream: when set, the
noise distributions collapse to their location parameter (0), turning each
mechanism built on top into its exact non-private target.  This is a test
mode, not a privacy mode.

Known limitation: samples are ordinary float64 draws; defenses against
floating-point side channels on DP noise are out of scope.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .linalg import _mirror_upper

__all__ = [
    "RandomStream",
    "gaussian_vector",
    "laplace_scalar",
    "laplace_vector",
    "sgw_matrix",
    "slw_matrix",
]


def _derive_key(parent_key: int, label: str) -> int:
    digest = hashlib.blake2b(
        parent_key.to_bytes(16, "little") + label.encode("utf-8"), digest_size=16
    ).digest()
    return int.from_bytes(digest, "little")


class RandomStream:
    """A single-owner random stream with labelled, independent sub-streams."""

    def __init__(self, seed: int, *, zero_noise: bool = False, _key: int | None = None):
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
        self.zero_noise = zero_noise
        self._key = _key if _key is not None else _derive_key(self.seed, "root")
        self._gen = np.random.Generator(np.random.Philox(key=self._key))

    def child(self, label: str) -> "RandomStream":
        """Derive an independent stream; the same (seed, label path) always
        yields the same stream."""
        return RandomStream(
            self.seed, zero_noise=self.zero_noise, _key=_derive_key(self._key, label)
        )

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    def permutation(self, n: int) -> np.ndarray:
        """A random permutation of range(n); unaffected by zero-noise mode
        (it is not a noise draw)."""
        return self._gen.permutation(n)

    def __repr__(self):  # pragma: no cover
        return f"RandomStream(seed={self.seed}, zero_noise={self.zero_noise})"


def gaussian_vector(stream: RandomStream, d: int) -> np.ndarray:
    """d i.i.d. standard normal draws."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if stream.zero_noise:
        return np.zeros(d)
    return stream.generator.standard_normal(d)


def laplace_scalar(stream: RandomStream, scale: float) -> float:
    """One draw from Lap(scale), density (1/2b) exp(-|x|/b)."""
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError("laplace scale must be positive and finite")
    if stream.zero_noise:
        return 0.0
    return float(stream.generator.laplace(0.0, scale))


def laplace_vector(stream: RandomStream, d: int, scale: float = 1.0) -> np.ndarray:
    """d i.i.d. Lap(scale) draws."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError("laplace scale must be positive and finite")
    if stream.zero_noise:
        return np.zeros(d)
    return stream.generator.laplace(0.0, scale, size=d)


def _symmetric_wigner(draws: np.ndarray, d: int) -> np.ndarray:
    """The draws laid on and above the diagonal row by row (the order of
    ``np.triu_indices(d)``), mirrored below."""
    w = np.empty((d, d))
    start = 0
    for i in range(d):
        w[i, i:] = draws[start : start + d - i]
        start += d - i
    _mirror_upper(w)
    return w


def sgw_matrix(stream: RandomStream, d: int) -> np.ndarray:
    """Symmetric Gaussian Wigner matrix: N(0,1) i.i.d. on and above the
    diagonal, mirrored below."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    m = d * (d + 1) // 2
    if stream.zero_noise:
        return np.zeros((d, d))
    return _symmetric_wigner(stream.generator.standard_normal(m), d)


def slw_matrix(stream: RandomStream, d: int) -> np.ndarray:
    """Symmetric Laplace Wigner matrix: Lap(1) entries (variance 2) on and
    above the diagonal, mirrored below."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    m = d * (d + 1) // 2
    if stream.zero_noise:
        return np.zeros((d, d))
    return _symmetric_wigner(stream.generator.laplace(0.0, 1.0, size=m), d)
