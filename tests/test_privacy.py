import math

import pytest

from oracle_utils import pure_to_zcdp

import dpcov
from dpcov.mechanisms import GAUSSIAN, LAPLACE, PrivacyBudget, pure, zcdp, zcdp_to_approx


class TestBudget:
    def test_valid_kinds_only(self):
        with pytest.raises(ValueError):
            PrivacyBudget("renyi", 1.0)

    def test_constructors_are_the_family_budgets(self):
        # a budget a user makes is the one a mechanism makes, from the cache
        assert dpcov.zcdp(0.1) is GAUSSIAN.budget(0.1)
        assert dpcov.pure(0.1) is LAPLACE.budget(0.1)

    def test_positive_value_required(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                zcdp(bad)


class TestConversions:
    def test_pure_to_zcdp(self):
        assert pure_to_zcdp(1.0) == 0.5
        assert pure_to_zcdp(2.0) == 2.0
        with pytest.raises(ValueError):
            pure_to_zcdp(0.0)

    def test_zcdp_to_approx_value(self):
        assert abs(zcdp_to_approx(0.1, 1e-10) - 3.134854258770293) < 1e-12

    def test_zcdp_to_approx_limits(self):
        # as delta -> 1 the log term vanishes and eps -> rho
        assert abs(zcdp_to_approx(0.3, 1 - 1e-12) - 0.3) < 1e-5
        assert zcdp_to_approx(0.3, 1e-6) > zcdp_to_approx(0.3, 1e-3)

    @pytest.mark.parametrize("rho", [float("nan"), float("inf"), 0.0])
    def test_zcdp_to_approx_rejects_bad_rho(self, rho):
        with pytest.raises(ValueError, match="rho"):
            zcdp_to_approx(rho, 1e-6)

    def test_round_trip_only_weakens(self):
        # for delta <= 1/e the chained conversion never tightens epsilon
        # (very large delta can: e.g. eps=1, delta=0.9 gives 0.959)
        for eps in (0.01, 0.1, 1.0, 5.0, 20.0):
            for delta in (math.exp(-1), 1e-2, 1e-6, 1e-12):
                assert zcdp_to_approx(pure_to_zcdp(eps), delta) >= eps


class TestNoiseScales:
    """Each noise family calibrates its own noise: ``GAUSSIAN.scale`` is
    Delta / sqrt(2 rho) and ``LAPLACE.scale`` is Delta / eps."""

    def test_gaussian_scale_matches_covariance_calibration(self):
        n = 100
        assert abs(GAUSSIAN.scale(math.sqrt(2) / n, 1.0) - 1 / n) < 1e-15

    def test_gaussian_scale_half_budget(self):
        n = 50
        got = GAUSSIAN.scale(math.sqrt(2) / n, 0.5)
        assert abs(got - math.sqrt(2) / n) < 1e-15

    def test_gaussian_zero_sensitivity(self):
        # a zero scale would release the data unnoised
        for family in (GAUSSIAN, LAPLACE):
            with pytest.raises(ValueError, match="at sensitivity 0.0: noise scale 0.0$"):
                family.scale(0.0, 2.0)

    def test_laplace_scale(self):
        d, n, eps = 8, 100, 0.5
        got = LAPLACE.scale(math.sqrt(2) * d / n, eps)
        assert abs(got - math.sqrt(2) * d / (eps * n)) < 1e-15
        assert LAPLACE.scale(2.0 / n, eps / 2) == 4.0 / (eps * n)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_bad_value_rejected(self, bad):
        for family in (GAUSSIAN, LAPLACE):
            with pytest.raises(ValueError, match="positive and finite"):
                family.scale(1.0, bad)
        with pytest.raises(ValueError):
            pure(bad)

    @pytest.mark.parametrize("eps", [1e-320, 5e-324, 1e-308])
    def test_overflowing_scale_names_family_and_value(self, eps):
        with pytest.raises(ValueError, match=f"^pure budget {eps!r} is too small"):
            LAPLACE.scale(2.0, eps)

    @pytest.mark.parametrize("sensitivity", [1e-320, -1.0, math.nan])
    def test_scale_not_positive_rejected(self, sensitivity):
        # 1e-320 / 1e10 underflows to 0 in both families
        for family in (GAUSSIAN, LAPLACE):
            want = f"^{family.kind} budget {1e10!r} at sensitivity {sensitivity!r}: noise scale"
            with pytest.raises(ValueError, match=want):
                family.scale(sensitivity, 1e10)
