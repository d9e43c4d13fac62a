"""Degenerate inputs through every mechanism: a single column, zero
columns, norms down to the smallest subnormal, and all-subnormal entries.

Each run must return a finite, exactly symmetric estimate and report the
whole budget; under zero noise the estimate must also be its target, the
covariance (clipped at the chosen threshold, for the adaptive mechanisms).
"""

import numpy as np
import pytest

from dpcov.adaptive import adaptive_cov, adaptive_cov_pure
from dpcov.linalg import Dataset, clip_dataset, covariance
from dpcov.mechanisms import gauss_cov, lap_cov, separate_cov, separate_cov_pure, zero_cov
from dpcov.privacy import pure, zcdp
from dpcov.randomness import RandomStream

TINY = 2.0**-1074

DATASETS = {
    "d1-n1": [[0.75]],
    "d3-n1": [[0.6], [0.0], [-0.8]],
    "d1-n1-zero": [[0.0]],
    "d1-n5-dyadic": [[1.0, -0.5, 0.25, 0.0, TINY]],
    "all-subnormal": [[1e-310, -2e-312, TINY], [3e-311, 7e-320, -1e-315]],
}

# name -> (run(x, stream), budget reported)
MECHANISMS = {
    "gauss": (lambda x, s: gauss_cov(x, 0.5, s), zcdp(0.5)),
    "lap": (lambda x, s: lap_cov(x, 0.5, s), pure(0.5)),
    "separate": (lambda x, s: separate_cov(x, 0.5, s), zcdp(0.5)),
    "separate-pure": (lambda x, s: separate_cov_pure(x, 0.5, s), pure(0.5)),
    "adaptive": (lambda x, s: adaptive_cov(x, 0.5, 0.05, s), zcdp(0.5)),
    "adaptive-pure": (lambda x, s: adaptive_cov_pure(x, 0.5, 0.05, s), pure(0.5)),
    "zero": (lambda x, s: zero_cov(x), None),
}


@pytest.mark.parametrize("zero_noise", [True, False], ids=["zero-noise", "noisy"])
@pytest.mark.parametrize("data", list(DATASETS))
@pytest.mark.parametrize("mech", list(MECHANISMS))
def test_degenerate_input(mech, data, zero_noise):
    run, budget = MECHANISMS[mech]
    x = Dataset(np.array(DATASETS[data]))
    report = run(x, RandomStream(7, zero_noise=zero_noise))
    estimate = report.estimate
    assert estimate.shape == (x.dim, x.dim)
    assert np.all(np.isfinite(estimate))
    assert np.array_equal(estimate, estimate.T)
    assert report.budget_spent == budget
    if not zero_noise:
        return
    if mech == "zero":
        assert not np.any(estimate)
    elif mech in ("gauss", "lap"):
        assert np.array_equal(estimate, covariance(x))
    else:
        tau = report.clip_threshold
        target = covariance(x if tau is None else clip_dataset(x, tau))
        assert np.linalg.norm(estimate - target) <= 1e-8 * np.linalg.norm(target)
