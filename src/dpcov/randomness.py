"""Seedable, deterministic random streams for all mechanisms.

Built on numpy's Philox counter-based bit generator, so a stream is fully
determined by a 128-bit key derived from (seed, label path).  Sub-streams are
derived by hashing the parent key with a text label, which makes parallel
repetitions reproducible regardless of scheduling order.  A stream builds its
generator on its first draw: a stream that only derives children (a root, or
the run-level stream of an adaptive run) never builds one.

Every sampler draws unit noise, N(0, 1) or Lap(1), for its caller to scale.
With the stream's ``zero_noise`` flag set it draws 0 instead, which turns
each mechanism built on top into its exact non-private target: a test mode,
not a privacy mode.

Known limitation: samples are ordinary float64 draws; defenses against
floating-point side channels on DP noise are out of scope.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Callable

import numpy as np

from .linalg import _mirror_upper

__all__ = [
    "RandomStream",
    "gaussian_vector",
    "laplace_sampler",
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


class _PhiloxKey:
    """A 128-bit Philox key in the guise of a seed sequence.  Its state is the
    key's two 64-bit words, low first, which is what ``Philox(key=k)`` stores;
    without it numpy builds a ``SeedSequence`` from OS entropy, only to
    overwrite it with the key."""

    __slots__ = ("words",)

    def __init__(self, key: int):
        self.words = (key & 0xFFFF_FFFF_FFFF_FFFF, key >> 64)

    def generate_state(self, n_words: int, dtype=np.uint64) -> np.ndarray:
        if n_words != 2 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("a Philox key is two uint64 words")
        return np.array(self.words, dtype=np.uint64)


@functools.cache
def _register_philox_key() -> None:
    """Make numpy accept a :class:`_PhiloxKey` as a seed sequence.  Done once,
    when the first generator is built rather than at import, because numpy 2
    loads numpy.random on first use, which adds about 20 ms."""
    np.random.bit_generator.ISeedSequence.register(_PhiloxKey)


# Philox's counter, which starts at zero.  Given as an array it is copied;
# given as the int 0 (the default) it goes through a conversion that took
# 4 of the 7 us of building a Philox.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False


def _philox_generator(key: int) -> np.random.Generator:
    """``Generator(Philox(key=key))``, with no entropy read."""
    _register_philox_key()
    return np.random.Generator(np.random.Philox(_PhiloxKey(key), counter=_ZERO_COUNTER))


class RandomStream:
    """A single-owner random stream with labelled, independent sub-streams."""

    __slots__ = ("seed", "zero_noise", "_key", "_gen")

    def __init__(self, seed: int, *, zero_noise: bool = False):
        if not 0 <= int(seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        self.seed = int(seed)
        self.zero_noise = zero_noise
        self._key = _derive_key(self.seed, "root")
        self._gen: np.random.Generator | None = None

    def child(self, label: str) -> "RandomStream":
        """Derive an independent stream; the same (seed, label path) always
        yields the same stream."""
        # the seed was checked when the root was made, and a derived key is
        # 128 bits by construction, so nothing is validated again
        child = object.__new__(RandomStream)
        child.seed, child.zero_noise, child._gen = self.seed, self.zero_noise, None
        child._key = _derive_key(self._key, label)
        return child

    @property
    def generator(self) -> np.random.Generator:
        """The stream's generator, built on first use."""
        if self._gen is None:
            self._gen = _philox_generator(self._key)
        return self._gen

    def __repr__(self):  # pragma: no cover
        return f"RandomStream(seed={self.seed}, zero_noise={self.zero_noise})"


def gaussian_vector(stream: RandomStream, d: int) -> np.ndarray:
    """d i.i.d. standard normal draws."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if stream.zero_noise:
        return np.zeros(d)
    return stream.generator.standard_normal(d)


def laplace_sampler(stream: RandomStream) -> Callable[[], float]:
    """A function that draws one Lap(1) value per call: the generator's
    sampler is bound once, here, for a caller that draws many."""
    if stream.zero_noise:
        return lambda: 0.0
    # Generator.laplace returns a Python float when given scalars
    return functools.partial(stream.generator.laplace, 0.0, 1.0)


def laplace_scalar(stream: RandomStream) -> float:
    """One draw from Lap(1), density (1/2) exp(-|x|)."""
    return laplace_sampler(stream)()


def laplace_vector(stream: RandomStream, d: int) -> np.ndarray:
    """d i.i.d. Lap(1) draws."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if stream.zero_noise:
        return np.zeros(d)
    return stream.generator.laplace(0.0, 1.0, size=d)


# Wigner matrices up to this size are filled by one gather through a cached
# index (2 MiB at 512); larger ones row by row and mirrored by tiles.  The
# gather reads the lower triangle d floats apart: the two fills cost the same
# between d = 768 and 896, and at 1024 the gather is slower and its index
# takes 8 MiB (README, "Symmetric matrices").
_WIGNER_GATHER_MAX_D = 512


@functools.lru_cache(maxsize=8)
def _wigner_gather(d: int) -> np.ndarray:
    """For each entry of a d x d matrix, row-major, the position of its upper
    triangle entry in ``np.triu_indices(d)`` order."""
    i, j = np.indices((d, d))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    index = (lo * d - lo * (lo - 1) // 2 + hi - lo).ravel()
    index.flags.writeable = False
    return index


def _symmetric_wigner(stream: RandomStream, d: int, draw) -> np.ndarray:
    """``draw(generator, m)``'s m = d(d+1)/2 draws laid on and above the
    diagonal row by row (the order of ``np.triu_indices(d)``), mirrored
    below; the zero matrix in zero-noise mode."""
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if stream.zero_noise:
        return np.zeros((d, d))
    draws = draw(stream.generator, d * (d + 1) // 2)
    if d <= _WIGNER_GATHER_MAX_D:
        return draws.take(_wigner_gather(d)).reshape(d, d)
    w = np.empty((d, d))
    start = 0
    for i in range(d):
        w[i, i:] = draws[start : start + d - i]
        start += d - i
    return _mirror_upper(w)


def sgw_matrix(stream: RandomStream, d: int) -> np.ndarray:
    """Symmetric Gaussian Wigner matrix: N(0,1) i.i.d. on and above the
    diagonal, mirrored below."""
    return _symmetric_wigner(stream, d, lambda gen, m: gen.standard_normal(m))


def slw_matrix(stream: RandomStream, d: int) -> np.ndarray:
    """Symmetric Laplace Wigner matrix: Lap(1) entries (variance 2) on and
    above the diagonal, mirrored below."""
    return _symmetric_wigner(stream, d, lambda gen, m: gen.laplace(0.0, 1.0, size=m))
