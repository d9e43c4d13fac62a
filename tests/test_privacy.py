import math

import numpy as np
import pytest

from oracle_utils import pure_to_zcdp

from dpcov.privacy import (
    PrivacyBudget,
    compose,
    gaussian_scale,
    laplace_scale,
    pure,
    zcdp,
    zcdp_to_approx,
)


class TestBudget:
    def test_valid_kinds_only(self):
        with pytest.raises(ValueError):
            PrivacyBudget("renyi", 1.0)

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

    def test_round_trip_only_weakens(self):
        # for delta <= 1/e the chained conversion never tightens epsilon
        # (very large delta can: e.g. eps=1, delta=0.9 gives 0.959)
        for eps in (0.01, 0.1, 1.0, 5.0, 20.0):
            for delta in (math.exp(-1), 1e-2, 1e-6, 1e-12):
                assert zcdp_to_approx(pure_to_zcdp(eps), delta) >= eps


class TestCompose:
    def test_sums_same_kind(self):
        total = compose([zcdp(0.5), zcdp(0.5)])
        assert total == zcdp(1.0)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ValueError):
            compose([zcdp(0.5), pure(0.5)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compose([])

    def test_associative_and_order_free(self):
        parts = [zcdp(v) for v in (0.125, 0.25, 0.5, 0.0625)]
        a = compose([compose(parts[:2]), compose(parts[2:])])
        b = compose(parts[::-1])
        assert np.isclose(a.value, b.value) and a.kind == b.kind


class TestNoiseScales:
    def test_gaussian_scale_matches_covariance_calibration(self):
        n = 100
        assert abs(gaussian_scale(math.sqrt(2) / n, zcdp(1.0)) - 1 / n) < 1e-15

    def test_gaussian_scale_half_budget(self):
        n = 50
        got = gaussian_scale(math.sqrt(2) / n, zcdp(0.5))
        assert abs(got - math.sqrt(2) / n) < 1e-15

    def test_gaussian_zero_sensitivity(self):
        assert gaussian_scale(0.0, zcdp(2.0)) == 0.0

    def test_gaussian_requires_zcdp(self):
        with pytest.raises(ValueError):
            gaussian_scale(1.0, pure(1.0))

    def test_laplace_scale(self):
        d, n, eps = 8, 100, 0.5
        got = laplace_scale(math.sqrt(2) * d / n, pure(eps))
        assert abs(got - math.sqrt(2) * d / (eps * n)) < 1e-15
        assert laplace_scale(2.0 / n, pure(eps / 2)) == 4.0 / (eps * n)

    def test_laplace_requires_pure(self):
        with pytest.raises(ValueError):
            laplace_scale(1.0, zcdp(1.0))
        with pytest.raises(ValueError):
            pure(0.0)
