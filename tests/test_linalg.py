import math

import numpy as np
import pytest

from oracle_utils import clip_vector, jacobi_eig_sym

from dpcov.linalg import (
    _CHUNK_COLUMNS,
    Dataset,
    clip_dataset,
    column_norms,
    covariance,
    eig_sym,
    frobenius_dist,
    radius,
    reconstruct,
    tail_gamma,
    trace_stat,
)

RNG = np.random.default_rng(20240901)


def random_ball_dataset(d, n, rng=RNG, scale=1.0):
    cols = rng.standard_normal((d, n))
    norms = np.linalg.norm(cols, axis=0)
    cols = cols / np.max(norms) * scale
    return Dataset(cols, ball_constrained=scale <= 1.0)


class TestDataset:
    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty dataset"):
            Dataset(np.zeros((3, 0)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(np.array([[1.0, np.nan]]))

    def test_ball_flag_enforced(self):
        with pytest.raises(ValueError, match="norms exceed 1"):
            Dataset(2.0 * np.eye(2), ball_constrained=True)

    def test_non_finite_found_in_a_later_block(self):
        cols = np.ones((2, 3 * _CHUNK_COLUMNS + 5))
        for bad in (np.inf, -np.inf, np.nan):
            cols[1, -2] = bad
            with pytest.raises(ValueError, match="non-finite"):
                Dataset(cols)

    def test_norms_are_memoised_and_read_only(self):
        x = random_ball_dataset(3, 40)
        norms = x.norms()
        assert x.norms() is norms
        assert np.array_equal(norms, np.linalg.norm(x.columns, axis=0))
        with pytest.raises(ValueError):
            norms[0] = 0.0


def within_ulps(got: float, want: float, ulps: int) -> bool:
    return abs(got - want) <= ulps * math.ulp(want)


class TestColumnNorms:
    """The blocked norm scan: numpy's norms bit for bit, except columns whose
    squares underflow or overflow."""

    @pytest.mark.parametrize("n", [1, 7, _CHUNK_COLUMNS, _CHUNK_COLUMNS + 1, 3 * _CHUNK_COLUMNS - 1])
    def test_bit_equal_to_numpy_in_every_layout(self, n):
        rng = np.random.default_rng(n)
        d = 9
        base = rng.standard_normal((n, d)) * np.exp(rng.uniform(-30, 30, size=(n, 1)))
        layouts = {
            "columns contiguous": base.T,
            "rows contiguous": np.ascontiguousarray(base.T),
            "strided columns": np.asfortranarray(rng.standard_normal((d, 2 * n)))[:, ::2],
            "strided rows": rng.standard_normal((2 * d, n))[::2],
        }
        for name, cols in layouts.items():
            assert np.array_equal(column_norms(cols), np.linalg.norm(cols, axis=0)), name

    def test_underflowing_squares(self):
        cols = np.array([[1e-310, 5e-324, 3e-160, 0.0], [2e-309, 0.0, 1e-170, 0.0]])
        norms = column_norms(cols)
        assert np.linalg.norm(cols[:, 0]) == 0.0  # what a plain sum of squares gives
        for j in range(cols.shape[1]):
            assert within_ulps(norms[j], math.hypot(*cols[:, j]), 4), j
        assert norms[3] == 0.0

    def test_overflowing_squares(self):
        cols = np.array([[1e200, -3e160, 1.0], [1e200, 4e160, 0.0]])
        norms = column_norms(cols)
        assert np.all(np.isfinite(norms))
        for j in range(cols.shape[1]):
            assert within_ulps(norms[j], math.hypot(*cols[:, j]), 4), j

    def test_rescaled_columns_leave_the_others_exact(self):
        rng = np.random.default_rng(5)
        cols = rng.standard_normal((4, 2 * _CHUNK_COLUMNS + 3))
        cols[:, 17] *= 1e-200
        cols[:, -1] *= 1e200
        with np.errstate(over="ignore"):
            want = np.linalg.norm(cols, axis=0)
        got = column_norms(cols)
        keep = np.ones(cols.shape[1], dtype=bool)
        keep[[17, -1]] = False
        assert np.array_equal(got[keep], want[keep])
        assert within_ulps(got[17], math.hypot(*cols[:, 17]), 4)
        assert np.isinf(want[-1]) and np.isfinite(got[-1])


class TestCovariance:
    def test_rank_one(self):
        x = Dataset(np.array([[1.0], [0.0]]))
        assert np.array_equal(covariance(x), np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_orthonormal_columns(self):
        x = Dataset(np.eye(2))
        assert np.array_equal(covariance(x), 0.5 * np.eye(2))

    def test_matches_brute_force(self):
        x = random_ball_dataset(6, 20)
        # independent oracle: explicit double loop over rank-one terms
        expected = np.zeros((6, 6))
        for i in range(20):
            col = x.columns[:, i]
            expected += np.outer(col, col)
        expected /= 20
        assert np.max(np.abs(covariance(x) - expected)) < 1e-12

    def test_exactly_symmetric_and_psd(self):
        x = random_ball_dataset(5, 12)
        sigma = covariance(x)
        assert np.array_equal(sigma, sigma.T)
        assert np.min(np.linalg.eigvalsh(sigma)) > -1e-12


class TestEigSym:
    def test_diagonal(self):
        dec = eig_sym(np.diag([2.0, 1.0]))
        assert np.allclose(dec.values, [2.0, 1.0])
        assert np.allclose(dec.basis, np.eye(2))

    def test_exchange_matrix(self):
        dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.values, [1.0, -1.0])
        # no sign convention: each column is its eigenvector up to sign
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(abs(dec.basis[:, 0] @ [r, r]), 1.0)
        assert np.allclose(abs(dec.basis[:, 1] @ [r, -r]), 1.0)

    def test_reconstruction_and_orthonormality(self):
        a = RNG.standard_normal((8, 8))
        a = (a + a.T) / 2
        dec = eig_sym(a)
        assert frobenius_dist(reconstruct(dec.basis, dec.values), a) < 1e-10
        assert np.max(np.abs(dec.basis.T @ dec.basis - np.eye(8))) < 1e-10

    def test_descending_order(self):
        a = RNG.standard_normal((10, 10))
        a = (a + a.T) / 2
        vals = eig_sym(a).values
        assert np.all(np.diff(vals) <= 0)

    def test_deterministic(self):
        a = RNG.standard_normal((6, 6))
        a = (a + a.T) / 2
        dec = eig_sym(a)
        again = eig_sym(a.copy())
        assert np.array_equal(dec.basis, again.basis)
        assert np.array_equal(dec.values, again.values)

    def test_reconstruction_ignores_column_signs(self):
        # reconstruct is exactly sign-invariant, so eig_sym needs no sign
        # convention for the separate mechanisms to be deterministic
        a = RNG.standard_normal((40, 40))
        a = (a + a.T) / 2
        dec = eig_sym(a)
        values = RNG.standard_normal(40)
        signs = np.where(RNG.random(40) < 0.5, -1.0, 1.0)
        flipped = np.asfortranarray(dec.basis * signs)
        assert np.array_equal(reconstruct(flipped, values), reconstruct(dec.basis, values))

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.inf], [np.inf, 1.0]])
        with pytest.raises(ValueError, match="non-finite matrix"):
            eig_sym(bad)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="not symmetric"):
            eig_sym(np.array([[1.0, 2.0], [1.0, 1.0]]))


class TestJacobiCrossCheck:
    def test_agrees_with_lapack(self):
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            a = rng.standard_normal((8, 8))
            a = (a + a.T) / 2
            ours = eig_sym(a)
            ref = jacobi_eig_sym(a)
            assert np.max(np.abs(ours.values - ref.values)) < 1e-9
            assert frobenius_dist(reconstruct(ref.basis, ref.values), a) < 1e-9


class TestReconstruct:
    def test_diagonal_case(self):
        assert np.array_equal(reconstruct(np.eye(2), np.array([3.0, 1.0])), np.diag([3.0, 1.0]))

    def test_round_trip(self):
        a = RNG.standard_normal((7, 7))
        a = (a + a.T) / 2
        dec = eig_sym(a)
        assert frobenius_dist(reconstruct(dec.basis, dec.values), a) <= 1e-8 * np.linalg.norm(a)

    def test_negative_eigenvalues_accepted(self):
        out = reconstruct(np.eye(2), np.array([1.0, -0.5]))
        assert np.array_equal(out, np.diag([1.0, -0.5]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            reconstruct(np.eye(3), np.array([1.0, 2.0]))


class TestFrobeniusDist:
    def test_identical(self):
        a = RNG.standard_normal((4, 4))
        assert frobenius_dist(a, a) == 0.0

    def test_unit_case(self):
        assert frobenius_dist(np.diag([1.0, 0.0]), np.zeros((2, 2))) == 1.0

    def test_matches_entry_loop(self):
        a = RNG.standard_normal((5, 5))
        b = RNG.standard_normal((5, 5))
        total = 0.0
        for i in range(5):
            for j in range(5):
                total += (a[i, j] - b[i, j]) ** 2
        assert abs(frobenius_dist(a, b) - math.sqrt(total)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            frobenius_dist(np.eye(2), np.eye(3))


class TestClip:
    def test_halves_long_vector(self):
        x = np.array([2.0, 0.0])
        assert np.array_equal(clip_vector(x, 1.0), x / 2)

    def test_short_vector_unchanged(self):
        x = np.array([0.3, 0.0])
        assert np.array_equal(clip_vector(x, 1.0), x)

    def test_rank_one_gap_is_norm_difference(self):
        # clipping a unit vector to tau leaves a rank-one gap of 1 - tau^2
        x = RNG.standard_normal(5)
        x /= np.linalg.norm(x)
        xc = clip_vector(x, 0.5)
        gap = np.linalg.norm(np.outer(x, x) - np.outer(xc, xc))
        assert abs(gap - 0.75) < 1e-12

    def test_tau_zero_maps_to_origin(self):
        assert np.array_equal(clip_vector(np.array([1.0, 1.0]), 0.0), np.zeros(2))

    def test_zero_vector_fixed_point(self):
        assert np.array_equal(clip_vector(np.zeros(3), 0.5), np.zeros(3))

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            clip_vector(np.ones(2), -0.1)

    @pytest.mark.parametrize("tau", [-0.1, float("nan")])
    def test_bad_tau_rejected_by_the_dataset_functions(self, tau):
        # a NaN tau compares False with every norm, and would clip nothing
        x = Dataset(np.ones((2, 3)))
        with pytest.raises(ValueError, match="clip threshold"):
            clip_dataset(x, tau)
        with pytest.raises(ValueError, match="tau"):
            tail_gamma(x, tau)

    def test_underflowing_norm_is_clipped(self):
        # the squares of these entries underflow, so a plain sum of squares
        # gives a norm of 0 and would leave the vector unclipped
        x = np.array([1e-310, 2e-309])
        got = clip_vector(x, 1e-309)
        assert abs(math.hypot(*got) - 1e-309) <= 1e-12 * 1e-309
        want = clip_dataset(Dataset(x[:, None]), 1e-309).columns[:, 0]
        assert np.array_equal(got, want)

    def test_dataset_clip_is_columnwise(self):
        x = random_ball_dataset(4, 9, scale=1.0)
        tau = 0.4
        clipped = clip_dataset(x, tau)
        for i in range(9):
            assert np.allclose(clipped.columns[:, i], clip_vector(x.columns[:, i], tau))
        assert radius(clipped) <= tau * (1 + 1e-12)

    def test_clip_bias_bounded_by_tail(self):
        # covariance shift from clipping never exceeds the tau-tail
        for trial in range(20):
            rng = np.random.default_rng(trial)
            x = random_ball_dataset(5, 30, rng=rng)
            tau = rng.uniform(0.05, 1.0)
            gap = frobenius_dist(covariance(x), covariance(clip_dataset(x, tau)))
            assert gap <= tail_gamma(x, tau) + 1e-12


class TestTraceStat:
    def test_zero_columns(self):
        assert trace_stat(Dataset(np.zeros((3, 4)))) == 0.0

    def test_unit_columns(self):
        assert abs(trace_stat(Dataset(np.eye(3), ball_constrained=True)) - 1.0) < 1e-15

    def test_equals_eigenvalue_sum(self):
        x = random_ball_dataset(6, 40)
        lam = eig_sym(covariance(x)).values
        assert abs(trace_stat(x) - np.sum(lam)) < 1e-10


class TestTailGamma:
    def test_at_zero_equals_trace(self):
        x = random_ball_dataset(4, 10)
        assert abs(tail_gamma(x, 0.0) - trace_stat(x)) < 1e-15

    def test_at_one_vanishes_on_ball(self):
        x = random_ball_dataset(4, 10)
        assert tail_gamma(x, 1.0) == 0.0

    def test_two_column_case(self):
        cols = np.zeros((3, 2))
        cols[0, 0] = 1.0
        cols[1, 1] = 0.2
        assert abs(tail_gamma(Dataset(cols), 0.5) - 0.5) < 1e-15

    def test_monotone_in_tau(self):
        x = random_ball_dataset(5, 25)
        grid = np.linspace(0.0, 1.1, 23)
        values = [tail_gamma(x, t) for t in grid]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


class TestRadius:
    def test_all_zero(self):
        assert radius(Dataset(np.zeros((2, 3)))) == 0.0

    def test_matches_loop(self):
        x = random_ball_dataset(4, 11)
        best = max(np.linalg.norm(x.columns[:, i]) for i in range(11))
        assert abs(radius(x) - best) < 1e-15
