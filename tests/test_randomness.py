import numpy as np
import pytest

from dpcov.bounds import upsilon
from dpcov.randomness import (
    RandomStream,
    gaussian_vector,
    laplace_scalar,
    laplace_vector,
    sgw_matrix,
    slw_matrix,
)


class TestStreamDeterminism:
    def test_same_seed_same_draws(self):
        a = gaussian_vector(RandomStream(123), 16)
        b = gaussian_vector(RandomStream(123), 16)
        assert np.array_equal(a, b)

    def test_same_label_same_child(self):
        a = gaussian_vector(RandomStream(5).child("x"), 8)
        b = gaussian_vector(RandomStream(5).child("x"), 8)
        assert np.array_equal(a, b)

    def test_distinct_labels_differ(self):
        a = gaussian_vector(RandomStream(5).child("x"), 8)
        b = gaussian_vector(RandomStream(5).child("y"), 8)
        assert not np.array_equal(a, b)

    def test_nested_children_are_path_dependent(self):
        a = gaussian_vector(RandomStream(5).child("x").child("y"), 4)
        b = gaussian_vector(RandomStream(5).child("xy"), 4)
        assert not np.array_equal(a, b)

    def test_laplace_deterministic(self):
        a = laplace_scalar(RandomStream(9), 2.0)
        b = laplace_scalar(RandomStream(9), 2.0)
        assert a == b

    def test_slw_deterministic(self):
        assert np.array_equal(slw_matrix(RandomStream(11), 5), slw_matrix(RandomStream(11), 5))

    def test_bad_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(2**64)


class TestGaussian:
    def test_moments(self):
        draws = gaussian_vector(RandomStream(1), 1_000_000)
        assert -0.01 <= draws.mean() <= 0.01
        assert 0.99 <= draws.var() <= 1.01

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            gaussian_vector(RandomStream(0), 0)


class TestLaplace:
    def test_variance_is_two_b_squared(self):
        draws = laplace_vector(RandomStream(2), 1_000_000, 1.0)
        assert 1.96 <= draws.var() <= 2.04

    def test_scale_multiplies_quantiles(self):
        q = np.array([0.1, 0.25, 0.75, 0.9])
        small = np.quantile(laplace_vector(RandomStream(3), 200_000, 1.0), q)
        large = np.quantile(laplace_vector(RandomStream(3), 200_000, 3.0), q)
        assert np.allclose(large, 3.0 * small, rtol=0.05)

    def test_nonpositive_scale_rejected(self):
        with pytest.raises(ValueError):
            laplace_scalar(RandomStream(0), 0.0)
        with pytest.raises(ValueError):
            laplace_vector(RandomStream(0), 3, -1.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="finite"):
            laplace_scalar(RandomStream(0), scale)
        with pytest.raises(ValueError, match="finite"):
            laplace_vector(RandomStream(0), 2, scale)


class TestWignerMatrices:
    def test_sgw_exact_symmetry(self):
        w = sgw_matrix(RandomStream(4), 17)
        assert np.array_equal(w, w.T)

    def test_sgw_entry_variance(self):
        stream = RandomStream(5)
        entries = np.array([sgw_matrix(stream, 2)[0, 1] for _ in range(100_000)])
        assert abs(entries.var() - 1.0) < 0.02

    def test_sgw_operator_norm_coverage(self):
        # Wigner operator norms stay under the closed-form bound at least
        # 1 - beta of the time
        d, beta, trials = 32, 0.05, 10_000
        stream = RandomStream(6)
        stacked = np.empty((trials, d, d))
        for i in range(trials):
            stacked[i] = sgw_matrix(stream, d)
        opnorms = np.abs(np.linalg.eigvalsh(stacked)).max(axis=1)
        assert np.mean(opnorms > upsilon(d, beta)) <= beta

    def test_slw_symmetry_and_variance(self):
        w = slw_matrix(RandomStream(7), 9)
        assert np.array_equal(w, w.T)
        stream = RandomStream(8)
        entries = np.array([slw_matrix(stream, 2)[0, 1] for _ in range(100_000)])
        assert abs(entries.var() - 2.0) < 0.06


class TestSubstreamIndependence:
    def test_sibling_correlation_negligible(self):
        root = RandomStream(31337)
        a = gaussian_vector(root.child("left"), 100_000)
        b = gaussian_vector(root.child("right"), 100_000)
        assert abs(np.corrcoef(a, b)[0, 1]) <= 0.01


class TestZeroNoiseMode:
    def test_all_samplers_return_location(self):
        stream = RandomStream(42, zero_noise=True)
        assert np.array_equal(gaussian_vector(stream, 5), np.zeros(5))
        assert laplace_scalar(stream, 3.0) == 0.0
        assert np.array_equal(laplace_vector(stream, 4, 2.0), np.zeros(4))
        assert np.array_equal(sgw_matrix(stream, 3), np.zeros((3, 3)))
        assert np.array_equal(slw_matrix(stream, 3), np.zeros((3, 3)))

    def test_children_inherit_flag(self):
        child = RandomStream(42, zero_noise=True).child("sub")
        assert np.array_equal(gaussian_vector(child, 2), np.zeros(2))
