import numpy as np
import pytest

from dpcov.bounds import upsilon
from dpcov.randomness import (
    RandomStream,
    _philox_generator,
    _PhiloxKey,
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


KEYS = [0, 1, 2**64 - 1, 2**64, 2**128 - 1]


def philox_generator(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


class TestPhiloxKey:
    @pytest.mark.parametrize("key", KEYS)
    def test_draws_equal_philox_of_the_key(self, key):
        ours, want = _philox_generator(key), philox_generator(key)
        assert np.array_equal(ours.random(64), want.random(64))
        assert ours.permutation(40).tolist() == want.permutation(40).tolist()
        assert np.array_equal(
            ours.bit_generator.state["state"]["key"],
            want.bit_generator.state["state"]["key"],
        )

    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_derived_keys(self, seed):
        root = RandomStream(seed)
        for stream in (root, root.child("a"), root.child("a").child("run/0/gauss/3")):
            want = philox_generator(stream._key)
            assert np.array_equal(gaussian_vector(stream, 9), want.standard_normal(9))
            assert laplace_scalar(stream, 2.0) == want.laplace(0.0, 2.0)

    def test_stream_and_child_build_no_bit_generator(self, monkeypatch):
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(a) or philox(*a, **k))
        child = RandomStream(3).child("x").child("y")
        laplace_scalar(RandomStream(3, zero_noise=True).child("z"), 1.0)
        assert built == []
        gaussian_vector(child, 2)
        gaussian_vector(child, 2)
        assert len(built) == 1

    @pytest.mark.parametrize("n_words, dtype", [(1, np.uint64), (4, np.uint64), (2, np.uint32)])
    def test_key_state_of_another_shape_rejected(self, n_words, dtype):
        with pytest.raises(ValueError, match="two uint64 words"):
            _PhiloxKey(5).generate_state(n_words, dtype)


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

    @pytest.mark.parametrize("scale", [1e-300, 0.04, 1.0, 3.0, 2.0 / 7, 1e300])
    def test_scaled_unit_draws_are_the_scaled_draws(self, scale):
        # numpy draws Lap(b) as 0 -/+ b * log(.), so b times a Lap(1) draw
        # has the same bits: the separate-pure mechanism scales unit draws
        unit = laplace_vector(RandomStream(5).child(str(scale)), 200_000)
        scaled = laplace_vector(RandomStream(5).child(str(scale)), 200_000, scale)
        assert np.array_equal((scale * unit).view(np.uint64), scaled.view(np.uint64))

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
