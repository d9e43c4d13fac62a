"""Properties of the adaptive mechanisms that must hold on every input.

Hypothesis draws small datasets whose norms spread over several dyadic
buckets and include zero, exactly dyadic and subnormal norms.  Whatever the
data, budget and stream, the estimate is finite and exactly symmetric, and
the private radius r and threshold tau are powers of two with
2^-1020 <= tau <= r <= 1.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import datasets

from dpcov.adaptive import adaptive_cov, adaptive_cov_pure
from dpcov.randomness import RandomStream


def is_power_of_two(value: float) -> bool:
    return value > 0 and math.frexp(value)[0] == 0.5


def check_report(rep):
    assert np.all(np.isfinite(rep.estimate))
    assert np.array_equal(rep.estimate, rep.estimate.T)
    r, tau = rep.selection.r_tilde, rep.selection.tau
    assert is_power_of_two(r) and is_power_of_two(tau)
    assert 2.0**-1020 <= tau <= r <= 1.0


class TestAdaptiveProperties:
    @settings(max_examples=150, deadline=None)
    @given(datasets(subnormal=True), st.floats(1e-3, 10.0), st.integers(0, 2**32 - 1))
    def test_zcdp(self, x, rho, seed):
        check_report(adaptive_cov(x, rho, 0.05, RandomStream(seed)))

    @settings(max_examples=150, deadline=None)
    @given(datasets(subnormal=True), st.floats(1e-2, 50.0), st.integers(0, 2**32 - 1))
    def test_pure(self, x, eps, seed):
        check_report(adaptive_cov_pure(x, eps, 0.05, RandomStream(seed)))
