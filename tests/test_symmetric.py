"""The tiled passes that read a d x d matrix against its transpose give the
bits of the one-shot numpy expressions they replace, at every tile edge:
the exact-symmetry test is ``np.array_equal(m, m.T)``, ``_mirror_upper`` is
``np.where(triu, m, m.T)``, the Wigner samplers are the ``np.triu_indices``
scatter, and ``eig_sym``'s basis is ``np.asfortranarray(vecs[:, ::-1])``.
Every symmetric matrix is made so by the one mirror: the Grams, the Wigner
matrices and ``reconstruct``'s product."""

import warnings

import numpy as np
import pytest

from oracle_utils import symmetric_wigner_reference

from dpcov.linalg import (
    _TILE,
    Dataset,
    _is_symmetric,
    _mirror_upper,
    covariance,
    eig_sym,
    reconstruct,
)
from dpcov.randomness import _WIGNER_GATHER_MAX_D, RandomStream, sgw_matrix, slw_matrix

# tiny matrices, one under, at and over a multiple of the tile edge, and a
# large matrix
SIZES = sorted(
    {1, 2, 3, 127, 128, 129, 255, 256, 257, 1024, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 1}
)


def bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m).view(np.uint64)


def bit_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(bits(a), bits(b))


def cases(d: int) -> dict[str, np.ndarray]:
    """Matrices that probe each way the transposed read can go wrong."""
    rng = np.random.default_rng(d)
    a = rng.standard_normal((d, d))
    gram = a @ a.T
    last = d - 1  # an entry below the diagonal in the last tile
    out = {"gram": gram, "general": a}
    flipped = gram.copy()
    flipped[last, max(last - 1, 0)] = np.nextafter(flipped[last, max(last - 1, 0)], np.inf)
    out["one asymmetric entry in the last tile"] = flipped
    signed_zeros = gram.copy()
    signed_zeros[0, last], signed_zeros[last, 0] = 0.0, -0.0
    out["+0.0 against -0.0"] = signed_zeros
    nan_pair = gram.copy()
    nan_pair[0, last] = nan_pair[last, 0] = np.nan
    out["mirrored NaN"] = nan_pair
    nan_one = gram.copy()
    nan_one[last, 0] = np.nan
    out["one NaN"] = nan_one
    return out


@pytest.mark.parametrize("d", SIZES)
def test_symmetry_test_is_array_equal(d):
    for name, m in cases(d).items():
        assert _is_symmetric(m) == np.array_equal(m, m.T), name
        assert _is_symmetric(m.T) == np.array_equal(m, m.T), name


@pytest.mark.parametrize("d", SIZES)
def test_mirror_is_the_one_shot_where(d):
    triu = np.triu(np.ones((d, d), dtype=bool))
    for name, m in cases(d).items():
        want = np.where(triu, m, m.T)
        got = m.copy()
        assert _mirror_upper(got) is got, name
        assert bit_equal(got, want), name


def test_mirror_leaves_a_gram_unchanged():
    # numpy computes a @ a.T with syrk and mirrors the triangle, so the
    # mirror writes back the bits it reads
    a = np.random.default_rng(5).standard_normal((300, 40))
    gram = a @ a.T
    assert bit_equal(_mirror_upper(gram.copy()), gram)


def test_covariance_does_not_overflow_a_representable_gram():
    # every entry is 1.44e308; an average (m + m.T) / 2 would overflow to inf
    x = Dataset(np.array([[1.2e154], [1.2e154]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cov = covariance(x)
    assert np.array_equal(cov, np.full((2, 2), 1.2e154 * 1.2e154))
    assert np.all(np.isfinite(cov))


# small sizes one by one, both sides of the gather's limit, and tiled sizes
@pytest.mark.parametrize(
    "d",
    sorted(
        set(SIZES)
        | set(range(1, 301))
        | {_WIGNER_GATHER_MAX_D, _WIGNER_GATHER_MAX_D + 1}
    ),
)
@pytest.mark.parametrize(
    "sampler, draw",
    [
        (sgw_matrix, lambda g, m: g.standard_normal(m)),
        (slw_matrix, lambda g, m: g.laplace(0.0, 1.0, size=m)),
    ],
    ids=["sgw", "slw"],
)
def test_wigner_matches_the_triu_scatter(d, sampler, draw):
    ours, ref = RandomStream(d), RandomStream(d)
    got = sampler(ours, d)
    want = symmetric_wigner_reference(draw(ref.generator, d * (d + 1) // 2), d)
    assert bit_equal(got, want)
    # the sampler draws exactly d(d+1)/2 values, so the stream goes on alike
    assert ours.generator.standard_normal() == ref.generator.standard_normal()


@pytest.mark.parametrize("d", [32, 33, 34, 100, 200, 1024])
def test_eig_sym_basis_bytes_and_layout(d):
    # the sizes where another basis layout moved reconstruct's bits
    a = np.random.default_rng(d).standard_normal((d, d))
    a = (a + a.T) / 2.0
    vals, vecs = np.linalg.eigh(a)
    want = np.asfortranarray(vecs[:, ::-1])
    dec = eig_sym(a)
    assert dec.basis.flags.f_contiguous
    assert dec.basis.tobytes(order="A") == want.tobytes(order="A")
    assert np.array_equal(dec.values, vals[::-1])
    values = np.random.default_rng(d + 1).standard_normal(d)
    assert bit_equal(reconstruct(dec.basis, values), reconstruct(want, values))


@pytest.mark.parametrize("d", [1, 2, 16, 33, 200, 257])
def test_reconstruct_is_the_mirrored_product(d):
    rng = np.random.default_rng(d + 2)
    basis = eig_sym(covariance(Dataset(rng.standard_normal((d, 3 * d))))).basis
    values = rng.standard_normal(d)
    product = (basis * values) @ basis.T
    want = np.where(np.triu(np.ones((d, d), dtype=bool)), product, product.T)
    assert bit_equal(reconstruct(basis, values), want)
