import math

import numpy as np
import pytest
from hypothesis import given, settings, target
from hypothesis import strategies as st

from oracle_utils import calibrations, sensitivity_probe

from dpcov import mechanisms
from dpcov.adaptive import adaptive_cov, adaptive_cov_pure
from dpcov.bounds import eta, lap_vec_bound, omega, slw_frob_bound, slw_op_bound, upsilon
from dpcov.linalg import (
    Dataset,
    clip_dataset,
    covariance,
    eig_sym,
    frobenius_dist,
    tail_gamma,
    trace_stat,
)
from dpcov.mechanisms import (
    GAUSSIAN,
    LAPLACE,
    MechanismReport,
    PrivacyBudget,
    clip_mechanism,
    gauss_cov,
    lap_cov,
    pure,
    separate_cov,
    separate_cov_pure,
    zcdp,
    zero_cov,
)
from dpcov.randomness import (
    RandomStream,
    gaussian_vector,
    laplace_vector,
    sgw_matrix,
    slw_matrix,
)


def ball_dataset(d, n, seed, norm_groups=None):
    """Random directions with controlled norms (default: uniform in (0,1])."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, n))
    cols /= np.linalg.norm(cols, axis=0)
    if norm_groups is None:
        norms = rng.uniform(0.05, 1.0, size=n)
    else:
        norms = np.concatenate([np.full(k, v) for k, v in norm_groups])
        assert norms.size == n
    return Dataset(cols * norms)


class TestZeroNoiseExactness:
    def test_gauss_lap_exact(self):
        x = ball_dataset(6, 40, seed=0)
        stream = RandomStream(1, zero_noise=True)
        assert np.array_equal(gauss_cov(x, 0.5, stream).estimate, covariance(x))
        assert np.array_equal(lap_cov(x, 0.5, stream).estimate, covariance(x))

    def test_separate_round_trips(self):
        x = ball_dataset(6, 40, seed=1)
        stream = RandomStream(1, zero_noise=True)
        sigma = covariance(x)
        tol = 1e-8 * np.linalg.norm(sigma)
        assert frobenius_dist(separate_cov(x, 0.5, stream).estimate, sigma) <= tol
        assert frobenius_dist(separate_cov_pure(x, 0.5, stream).estimate, sigma) <= tol

    def test_clipped_zero_noise_is_clipped_covariance(self):
        x = ball_dataset(5, 30, seed=2)
        tau = 0.25
        got = clip_mechanism(x, zcdp(1.0), tau, RandomStream(0, zero_noise=True), "gauss")
        want = covariance(clip_dataset(x, tau))
        assert frobenius_dist(got.estimate, want) < 1e-15


class TestGaussCov:
    def test_requires_ball(self):
        big = Dataset(2.0 * np.eye(3))
        with pytest.raises(ValueError, match="norms exceed 1"):
            gauss_cov(big, 1.0, RandomStream(0))

    def test_entry_noise_scale(self):
        # off-diagonal noise std should be 1/(sqrt(rho) n)
        x = Dataset(np.eye(2))
        n, rho = x.count, 1.0
        stream = RandomStream(3)
        draws = np.array([gauss_cov(x, rho, stream).estimate[0, 1] for _ in range(20_000)])
        assert abs(draws.std() - 1 / (math.sqrt(rho) * n)) / (1 / n) < 0.03

    def test_error_within_frobenius_bound(self):
        d, n, rho, beta = 64, 1000, 0.1, 0.05
        x = ball_dataset(d, n, seed=4, norm_groups=[(n, 1.0)])
        sigma = covariance(x)
        bound = omega(d, beta) / (math.sqrt(rho) * n)
        stream = RandomStream(5)
        hits = sum(
            frobenius_dist(gauss_cov(x, rho, stream).estimate, sigma) <= bound
            for _ in range(200)
        )
        assert hits >= 0.95 * 200

    def test_deterministic_given_seed(self):
        x = ball_dataset(4, 10, seed=6)
        a = gauss_cov(x, 0.3, RandomStream(7)).estimate
        b = gauss_cov(x, 0.3, RandomStream(7)).estimate
        assert np.array_equal(a, b)

    def test_report_fields(self):
        x = ball_dataset(3, 5, seed=8)
        rep = gauss_cov(x, 0.25, RandomStream(0))
        assert rep.variant == "gauss"
        assert rep.budget_spent == zcdp(0.25)
        assert np.array_equal(rep.estimate, rep.estimate.T)


class TestLapCov:
    def test_entry_noise_scale(self):
        # Laplace entries have variance 2 * (sqrt(2) d / (eps n))^2
        x = Dataset(np.eye(2))
        d, n, eps = 2, 2, 1.0
        scale = math.sqrt(2) * d / (eps * n)
        stream = RandomStream(9)
        draws = np.array([lap_cov(x, eps, stream).estimate[0, 1] for _ in range(30_000)])
        assert abs(draws.var() - 2 * scale**2) / (2 * scale**2) < 0.03

    def test_error_within_frobenius_bound(self):
        d, n, eps, beta = 32, 2000, 1.0, 0.05
        x = ball_dataset(d, n, seed=10, norm_groups=[(n, 1.0)])
        sigma = covariance(x)
        bound = (math.sqrt(2) * d / (eps * n)) * slw_frob_bound(d, beta)
        stream = RandomStream(11)
        hits = sum(
            frobenius_dist(lap_cov(x, eps, stream).estimate, sigma) <= bound
            for _ in range(200)
        )
        assert hits >= 0.95 * 200


class TestSeparateCov:
    def test_output_spectrum_is_noisy_eigenvalues(self):
        x = ball_dataset(8, 60, seed=12)
        rho, seed = 0.4, 13
        rep = separate_cov(x, rho, RandomStream(seed))
        # replay the eigenvalue noise draw from an identical stream
        twin = RandomStream(seed)
        lam = eig_sym(covariance(x)).values
        lam_noisy = lam + (math.sqrt(2) / (math.sqrt(rho) * x.count)) * gaussian_vector(
            twin, x.dim
        )
        got = np.sort(eig_sym(rep.estimate).values)
        assert np.max(np.abs(got - np.sort(lam_noisy))) < 1e-8

    def test_theorem_style_error_bound(self):
        d, n, rho, beta = 64, 1000, 0.1, 0.05
        x = ball_dataset(d, n, seed=14, norm_groups=[(n, 1.0)])
        sigma = covariance(x)
        tr = trace_stat(x)
        bound = (2**1.25) * math.sqrt(tr) / (rho**0.25 * math.sqrt(n)) * math.sqrt(
            upsilon(d, beta / 2)
        ) + math.sqrt(2) / (math.sqrt(rho) * n) * eta(d, beta / 2)
        stream = RandomStream(15)
        hits = sum(
            frobenius_dist(separate_cov(x, rho, stream).estimate, sigma) <= bound
            for _ in range(100)
        )
        assert hits >= 95


class TestSeparateCovPure:
    def test_eigenvalue_noise_replay(self):
        # the estimate's spectrum must be exactly lam + Lap(4/(eps n))^d
        from dpcov.randomness import laplace_vector

        x = ball_dataset(6, 40, seed=18)
        eps, seed = 1.0, 19
        rep = separate_cov_pure(x, eps, RandomStream(seed))
        lam = eig_sym(covariance(x)).values
        lam_noisy = lam + 4.0 / (eps * x.count) * laplace_vector(RandomStream(seed), x.dim)
        got = np.sort(eig_sym(rep.estimate).values)
        assert np.max(np.abs(got - np.sort(lam_noisy))) < 1e-8

    def test_eigenvalue_noise_scale(self):
        # top output eigenvalue tracks lam_1 + Lap(4/(eps n)) when the
        # eigengap dwarfs the noise scale (no crossover)
        cols = np.zeros((2, 100))
        cols[0, :50] = 0.9
        cols[1, 50:] = 0.3
        x = Dataset(cols)
        eps = 1.0
        top = eig_sym(covariance(x)).values[0]
        stream = RandomStream(19)
        draws = np.array(
            [
                np.max(eig_sym(separate_cov_pure(x, eps, stream).estimate).values) - top
                for _ in range(30_000)
            ]
        )
        scale = 4.0 / (eps * x.count)
        assert abs(draws.var() - 2 * scale**2) / (2 * scale**2) < 0.1

    def test_error_bound_holds(self):
        d, n, eps, beta = 128, 4000, 1.0, 0.05
        x = ball_dataset(d, n, seed=20, norm_groups=[(n, 1.0)])
        sigma = covariance(x)
        tr = trace_stat(x)
        op_noise = (2 * math.sqrt(2) * d / (eps * n)) * slw_op_bound(d, beta / 2)
        bound = 2 * math.sqrt(tr * op_noise) + (4 / (eps * n)) * lap_vec_bound(d, beta / 2)
        stream = RandomStream(21)
        hits = sum(
            frobenius_dist(separate_cov_pure(x, eps, stream).estimate, sigma) <= bound
            for _ in range(100)
        )
        assert hits >= 95


class TestClipMechanism:
    def test_tau_one_matches_base(self):
        x = ball_dataset(5, 25, seed=22)
        a = clip_mechanism(x, zcdp(0.5), 1.0, RandomStream(23), "gauss").estimate
        b = gauss_cov(x, 0.5, RandomStream(23)).estimate
        assert np.array_equal(a, b)

    def test_threshold_recorded(self):
        x = ball_dataset(4, 8, seed=24)
        rep = clip_mechanism(x, zcdp(0.5), 0.25, RandomStream(0), "separate")
        assert rep.clip_threshold == 0.25
        assert rep.variant == "separate"

    def test_invalid_tau(self):
        # thresholds are powers of two in (0, 1]; the dataset's Grams also
        # take 2^t > 1
        x = ball_dataset(3, 6, seed=25)
        for bad in (0.0, -0.5, 1.5, 0.3, 0.75, math.nan):
            with pytest.raises(ValueError):
                clip_mechanism(x, zcdp(1.0), bad, RandomStream(0), "gauss")
        for read in (x.gram, x.spectrum):
            with pytest.raises(ValueError, match="not a power of two"):
                read(0.3)

    def test_budget_kind_checked(self):
        x = ball_dataset(3, 6, seed=26)
        with pytest.raises(ValueError, match="not a base mechanism of the pure family"):
            clip_mechanism(x, pure(1.0), 0.5, RandomStream(0), "gauss")
        with pytest.raises(ValueError, match="not a base mechanism of the zcdp family"):
            clip_mechanism(x, zcdp(1.0), 0.5, RandomStream(0), "separate-pure")

    @pytest.mark.parametrize("base", ["adaptive", "zero", "nope"])
    def test_unknown_base_rejected(self, base):
        x = ball_dataset(3, 6, seed=26)
        for budget in (zcdp(1.0), pure(1.0)):
            with pytest.raises(ValueError, match=f"{base!r} is not a base mechanism"):
                clip_mechanism(x, budget, 0.5, RandomStream(0), base)

    def test_total_error_bounded_by_noise_plus_tail(self):
        # skewed norms: clipping trades the tail mass for reduced noise
        d, n, rho, beta, tau = 32, 500, 0.1, 0.05, 0.25
        x = ball_dataset(d, n, seed=27, norm_groups=[(5, 1.0), (n - 5, 0.1)])
        sigma = covariance(x)
        tr_clip = trace_stat(clip_dataset(x, tau))
        bounds = GAUSSIAN.noise_bounds(rho, beta, d, n)
        budget_bound = min(bounds(tr_clip, tau)) + tail_gamma(x, tau)
        stream = RandomStream(28)
        hits = sum(
            frobenius_dist(clip_mechanism(x, zcdp(rho), tau, stream, "gauss").estimate, sigma)
            <= budget_bound
            for _ in range(100)
        )
        assert hits >= 95


class TestNoiseBuiltInPlace:
    """The noise is scaled, the Gram added and tau^2 applied in place; the
    bits are those of the out-of-place expressions."""

    @staticmethod
    def bits(a):
        return a.view(np.uint64)

    @pytest.mark.parametrize("d", [16, 1024])
    def test_same_bits_as_out_of_place(self, d):
        n, rho, eps, tau = 64, 0.5, 1.0, 0.25
        x = ball_dataset(d, n, seed=d)

        def stream():
            return RandomStream(31).child("noise")

        gauss = GAUSSIAN.scale(math.sqrt(2.0) / n, rho) * sgw_matrix(stream(), d)
        lap = LAPLACE.scale(math.sqrt(2.0) * d / n, eps) * slw_matrix(stream(), d)
        cases = [
            (gauss_cov(x, rho, stream()), x.gram() + gauss),
            (lap_cov(x, eps, stream()), x.gram() + lap),
            (
                clip_mechanism(x, zcdp(rho), tau, stream(), "gauss"),
                tau * tau * (x.gram(tau) + gauss),
            ),
            (
                clip_mechanism(x, pure(eps), tau, stream(), "lap"),
                tau * tau * (x.gram(tau) + lap),
            ),
        ]
        for report, want in cases:
            assert np.array_equal(self.bits(report.estimate), self.bits(want))


RELEASES = {
    "gauss": gauss_cov,
    "separate": separate_cov,
    "lap": lap_cov,
    "separate-pure": separate_cov_pure,
}


class TestNoiseFamilyScales:
    """``family.noise(d, n, value)`` is the one statement of a family's noise:
    the mechanisms draw its unit samplers at its scales, and
    ``noise_bounds`` multiplies the norm bounds by the same scales."""

    FAMILIES = [(GAUSSIAN, 0.3), (LAPLACE, 0.7)]

    @pytest.mark.parametrize("d", [1, 16, 200])
    def test_scales_are_the_papers_calibrations(self, d):
        n, rho, eps = 37, 0.3, 0.7
        (matrix, m_scale), (vector, v_scale) = GAUSSIAN.noise(d, n, rho)
        assert (matrix, vector) == (sgw_matrix, gaussian_vector)
        # Delta / sqrt(2 rho) for the l2-sensitivity sqrt(2)/n of both
        assert m_scale == v_scale == math.sqrt(2.0) / n / math.sqrt(2.0 * rho)
        assert math.isclose(m_scale, 1.0 / (math.sqrt(rho) * n), rel_tol=1e-15)
        (matrix, m_scale), (vector, v_scale) = LAPLACE.noise(d, n, eps)
        assert (matrix, vector) == (slw_matrix, laplace_vector)
        # Delta / eps for the l1-sensitivities sqrt(2)*d/n and 2/n
        assert m_scale == math.sqrt(2.0) * d / n / eps
        assert v_scale == 2.0 / n / eps
        # at rho = 1/2 and eps = 1 each scale is its sensitivity exactly,
        # which the sensitivity probes read
        assert calibrations(d, n) == {
            "sigma_fro": math.sqrt(2) / n,
            "lambda_fro": math.sqrt(2) / n,
            "sigma_l1": math.sqrt(2) * d / n,
            "lambda_l1": 2.0 / n,
        }

    @pytest.mark.parametrize("d", [1, 16, 200])
    @pytest.mark.parametrize("family, value", FAMILIES)
    def test_plain_noise_is_unit_draw_times_scale(self, family, value, d):
        n = 50
        x = Dataset(np.zeros((d, n)))  # a zero Gram: the estimate is the noise
        (matrix, scale), _ = family.noise(d, n, value)
        got = RELEASES[family.plain](x, value, RandomStream(7)).estimate
        assert np.array_equal(got, scale * matrix(RandomStream(7), d))

    @pytest.mark.parametrize("d", [1, 16, 200])
    @pytest.mark.parametrize("family, value", FAMILIES)
    def test_separate_noise_is_unit_draws_times_scales(self, family, value, d, monkeypatch):
        n = 50
        x = Dataset(np.zeros((d, n)))  # zero Gram and spectrum: only noise
        seen = {}
        real_eig, real_reconstruct = mechanisms.eig_sym, mechanisms.reconstruct

        def eig(a):
            seen["m"] = a.copy()
            return real_eig(a)

        def rec(basis, values):
            seen["v"] = values.copy()
            return real_reconstruct(basis, values)

        monkeypatch.setattr(mechanisms, "eig_sym", eig)
        monkeypatch.setattr(mechanisms, "reconstruct", rec)
        (matrix, m_scale), (vector, v_scale) = family.noise(d, n, value / 2)
        RELEASES[family.separate](x, value, RandomStream(8))
        stream = RandomStream(8)  # the spectrum's noise comes first
        assert np.array_equal(seen["v"], v_scale * vector(stream, d))
        assert np.array_equal(seen["m"], m_scale * matrix(stream, d))
        if family is LAPLACE:  # and the bits of numpy's draws at that scale
            assert np.array_equal(seen["v"], RandomStream(8).generator.laplace(0.0, v_scale, d))

    @pytest.mark.parametrize("d", [1, 16, 200])
    @pytest.mark.parametrize("family, value", FAMILIES)
    def test_noise_bounds_use_the_drawn_scales(self, family, value, d):
        n, beta = 50, 0.05
        bounds = family.noise_bounds(value, beta, d, n)
        frob, op, vec = family.norm_bounds(d, beta)
        (_, plain_scale), _ = family.noise(d, n, value)
        (_, m_scale), (_, v_scale) = family.noise(d, n, value / 2)
        for tr_hat in (0.0, 0.01, 0.6):
            for tau in (2.0**-9, 0.25, 1.0):
                assert bounds(tr_hat, tau) == (
                    tau * tau * plain_scale * frob,
                    2.0 * tau * math.sqrt(tr_hat * m_scale * op) + tau * tau * v_scale * vec,
                )

    def test_norm_bounds_at_beta_and_half_beta(self):
        d, beta = 16, 0.05
        assert GAUSSIAN.norm_bounds(d, beta) == (
            omega(d, beta), upsilon(d, beta / 2), eta(d, beta / 2)
        )
        assert LAPLACE.norm_bounds(d, beta) == (
            slw_frob_bound(d, beta), slw_op_bound(d, beta / 2), lap_vec_bound(d, beta / 2)
        )

    def test_samplers_read_at_call_time(self, monkeypatch):
        # a wrapper set on the module's names (as a tracer sets) is what
        # the mechanisms draw through
        calls = []
        for name in ("sgw_matrix", "gaussian_vector", "slw_matrix", "laplace_vector"):
            real = getattr(mechanisms, name)
            monkeypatch.setattr(
                mechanisms, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)
            )
        x = ball_dataset(4, 20, seed=3)
        for f in (gauss_cov, separate_cov, lap_cov, separate_cov_pure):
            f(x, 0.5, RandomStream(2))
        gauss = ["sgw_matrix", "gaussian_vector", "sgw_matrix"]
        assert calls == gauss + ["slw_matrix", "laplace_vector", "slw_matrix"]


class TestZeroCov:
    def test_error_is_sigma_norm_and_under_trace(self):
        x = ball_dataset(7, 50, seed=29)
        rep = zero_cov(x)
        sigma = covariance(x)
        assert frobenius_dist(rep.estimate, sigma) == np.linalg.norm(sigma)
        assert np.linalg.norm(sigma) <= trace_stat(x) + 1e-12

    def test_no_budget_consumed(self):
        x = ball_dataset(2, 3, seed=30)
        assert zero_cov(x).budget_spent is None


@st.composite
def neighbour_pairs(draw):
    """Two d x n datasets in the unit ball, d in 1..8 and n in 1..6, that
    differ in column 0.  Norms are spread, dyadic, 1 or 0, other columns may
    copy column 0, and its replacement is a fresh column, one orthogonal to
    it, or zero."""
    d, n = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    directions = rng.standard_normal((d, n + 1))
    directions /= np.linalg.norm(directions, axis=0)

    def norm():
        kind = draw(st.sampled_from(["spread", "dyadic", "unit", "zero"]))
        exponent = draw(st.integers(-9, 0))
        if kind == "spread":
            return math.ldexp(draw(st.floats(0.5, 1.0, exclude_max=True)), exponent)
        return {"dyadic": math.ldexp(1.0, exponent), "unit": 1.0, "zero": 0.0}[kind]

    cols = np.column_stack([directions[:, i] * norm() for i in range(n)])
    for i in range(1, n):
        if draw(st.booleans()):
            cols[:, i] = cols[:, 0]
    replacement = draw(st.sampled_from(["fresh", "orthogonal", "zero"]))
    if replacement == "orthogonal" and d > 1:
        # the fresh direction less its component along column 0's
        u, v = directions[:, 0], directions[:, n]
        w = v - (u @ v) * u
        new = w / np.linalg.norm(w) * norm()
    elif replacement == "fresh":
        new = directions[:, n] * norm()
    else:  # zero, or orthogonal at d = 1, where only 0 is
        new = np.zeros(d)
    primed = cols.copy()
    primed[:, 0] = new
    return Dataset(cols), Dataset(primed)


class TestSensitivityProbe:
    @settings(max_examples=300, deadline=None)
    @given(neighbour_pairs())
    def test_search_never_exceeds_calibrations(self, pair):
        x, x_prime = pair
        d, n = x.dim, x.count
        probe = sensitivity_probe(x, x_prime)
        for key, calibration in calibrations(d, n).items():
            target(probe[key] / calibration, label=key)  # steer the search up to the bound
            assert probe[key] <= calibration * (1 + 1e-12), key

    def test_random_neighbor_pairs_respect_bounds(self):
        rng = np.random.default_rng(32)
        slack = 1e-9
        for _ in range(2000):
            d = int(rng.integers(2, 16))
            n = int(rng.integers(2, 32))
            cols = rng.standard_normal((d, n))
            cols /= np.maximum(np.linalg.norm(cols, axis=0), 1.0)
            primed = cols.copy()
            new_col = rng.standard_normal(d)
            new_col /= max(np.linalg.norm(new_col), 1.0)
            primed[:, rng.integers(n)] = new_col
            probe = sensitivity_probe(Dataset(cols), Dataset(primed))
            for key, calibration in calibrations(d, n).items():
                assert probe[key] <= calibration + slack, key

    @pytest.mark.parametrize("d", [2, 5, 16])
    def test_worst_pair_reaches_bounds(self, d):
        # columns [x, x, x] against [y, x, x] for orthonormal x, y: the
        # covariances differ by (y y^T - x x^T) / n and the spectra by
        # (1/3, -1/3, 0, ...), so the three calibrations below are met exactly
        n = 3
        q, _ = np.linalg.qr(np.random.default_rng(50 + d).standard_normal((d, 2)))
        x, y = q[:, 0], q[:, 1]
        probe = sensitivity_probe(
            Dataset(np.column_stack([x, x, x])), Dataset(np.column_stack([y, x, x]))
        )
        for key in ("sigma_fro", "lambda_fro", "lambda_l1"):
            calibration = calibrations(d, n)[key]
            assert abs(probe[key] - calibration) <= 1e-9 * calibration, key
            # positive control: the pair exceeds a calibration 1% too small
            assert probe[key] > calibration / 1.01, key


class TestPureCalibrationMargin:
    """lap_cov adds Laplace noise to the upper triangle of the covariance,
    calibrated to an l1 sensitivity of sqrt(2)*d/n.  For d = 1..4 these are
    the neighbouring columns x, y that maximise the upper-triangle l1 norm
    of x x^T - y y^T, found by Nelder-Mead from random starts in the unit
    ball: sqrt(1), sqrt(5), sqrt(33)/2 and sqrt(13), against calibrations
    of 1.41, 2.83, 4.24 and 5.66."""

    WORST = {
        1: ([1.0], [0.0], 1.0),
        2: ([0.229752921, -0.973248989], [0.973248989, 0.229752921], math.sqrt(5)),
        3: (
            [-0.18000814, -0.18000814, -0.967054362],
            [-0.683810698, -0.683810698, 0.254569946],
            math.sqrt(33) / 2,
        ),
        4: (
            [0.676766262, -0.204908335, 0.676766262, -0.204908335],
            [0.204908335, 0.676766262, 0.204908335, 0.676766262],
            math.sqrt(13),
        ),
    }

    @pytest.mark.parametrize("d", sorted(WORST))
    def test_worst_pair_within_calibration(self, d):
        *pair, found = self.WORST[d]
        x, y = (np.asarray(v) / max(np.linalg.norm(v), 1.0) for v in pair)
        n = 5
        rest = ball_dataset(d, n - 1, seed=40 + d).columns
        ds = [Dataset(np.column_stack([v, rest])) for v in (x, y)]
        diff = covariance(ds[0]) - covariance(ds[1])
        upper_l1 = float(np.sum(np.abs(diff[np.triu_indices(d)])))
        assert abs(upper_l1 * n - found) <= 1e-6
        assert upper_l1 <= math.sqrt(2) * d / n


class TestReportValidation:
    def test_asymmetric_estimate_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            MechanismReport(np.array([[0.0, 1.0], [0.5, 0.0]]), zcdp(1.0), "gauss")

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            MechanismReport(np.zeros((2, 2)), zcdp(1.0), "fancy")

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (2, 2, 2), ()])
    def test_non_square_estimate_rejected(self, shape):
        # a 1-D array is its own transpose, so the symmetry check alone
        # would pass it
        with pytest.raises(ValueError, match="square"):
            MechanismReport(np.zeros(shape), None, "zero")

    def test_asymmetry_in_the_last_tile_rejected(self):
        estimate = np.zeros((130, 130))
        estimate[129, 128] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            MechanismReport(estimate, None, "zero")


class TestOneReportPerCall:
    """Each public mechanism call builds, and so symmetry-checks, exactly one
    report: the bodies return bare estimates."""

    CALLS = {
        "gauss": lambda x, s: gauss_cov(x, 0.5, s),
        "lap": lambda x, s: lap_cov(x, 0.5, s),
        "separate": lambda x, s: separate_cov(x, 0.5, s),
        "separate-pure": lambda x, s: separate_cov_pure(x, 0.5, s),
        "clip-gauss": lambda x, s: clip_mechanism(x, zcdp(0.5), 0.25, s, "gauss"),
        "clip-separate-pure": lambda x, s: clip_mechanism(x, pure(0.5), 0.5, s, "separate-pure"),
        "adaptive": lambda x, s: adaptive_cov(x, 0.5, 0.05, s),
        "adaptive-pure": lambda x, s: adaptive_cov_pure(x, 0.5, 0.05, s),
        "zero": lambda x, s: zero_cov(x),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_post_init_runs_once(self, name, monkeypatch):
        checks = []
        original = MechanismReport.__post_init__

        def counted(report):
            checks.append(report.variant)
            original(report)

        monkeypatch.setattr(MechanismReport, "__post_init__", counted)
        x = ball_dataset(5, 40, seed=31)
        report = self.CALLS[name](x, RandomStream(32))
        assert checks == [report.variant]


def count_budgets(monkeypatch) -> list:
    """A spy on ``PrivacyBudget.__post_init__``: every budget built (or
    rejected) is appended to the returned list."""
    built = []
    original = PrivacyBudget.__post_init__
    monkeypatch.setattr(PrivacyBudget, "__post_init__", lambda b: built.append(b) or original(b))
    return built


class TestOneBudgetPerValue:
    """A family builds and checks its budget of a value once
    (``NoiseFamily.budget``), as it does its ledger: repeated calls at one
    value build no ``PrivacyBudget``, and an invalid value, which is not
    kept, is checked again on every call."""

    CLIP_ZCDP, CLIP_PURE = zcdp(0.5), pure(0.5)
    CALLS = {
        **TestOneReportPerCall.CALLS,
        "clip-gauss": lambda x, s: clip_mechanism(
            x, TestOneBudgetPerValue.CLIP_ZCDP, 0.25, s, "gauss"
        ),
        "clip-separate-pure": lambda x, s: clip_mechanism(
            x, TestOneBudgetPerValue.CLIP_PURE, 0.5, s, "separate-pure"
        ),
    }

    @pytest.mark.parametrize("name", list(CALLS))
    def test_repeated_calls_build_no_budget(self, name, monkeypatch):
        built = count_budgets(monkeypatch)
        x = ball_dataset(5, 40, seed=33)
        self.CALLS[name](x, RandomStream(34))
        first = len(built)
        for i in range(3):
            self.CALLS[name](x, RandomStream(35 + i))
        assert len(built) == first

    def test_kept_per_family_and_value(self):
        assert GAUSSIAN.budget(0.7) is GAUSSIAN.budget(0.7) == zcdp(0.7)
        assert LAPLACE.budget(0.7) is LAPLACE.budget(0.7) == pure(0.7)
        assert type(GAUSSIAN.budget(2).value) is int and type(GAUSSIAN.budget(2.0).value) is float

    def test_invalid_value_raises_every_call(self, monkeypatch):
        built = count_budgets(monkeypatch)
        x = ball_dataset(3, 10, seed=36)
        for family in (GAUSSIAN, LAPLACE):
            for bad in (0.0, -1.0, math.inf, math.nan):
                for _ in range(3):
                    with pytest.raises(ValueError, match="positive and finite"):
                        family.budget(bad)
        assert len(built) == 2 * 4 * 3
        for _ in range(3):
            with pytest.raises(ValueError, match="positive and finite"):
                gauss_cov(x, -0.5, RandomStream(0))
            with pytest.raises(ValueError, match="positive and finite"):
                adaptive_cov_pure(x, 0.0, 0.05, RandomStream(0))
