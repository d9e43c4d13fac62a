"""Degenerate inputs through every mechanism: a single column, zero
columns, norms down to the smallest subnormal, and all-subnormal entries.

Each run must return a finite, exactly symmetric estimate and report the
whole budget; under zero noise the estimate must also be its target, the
covariance (clipped at the chosen threshold, for the adaptive mechanisms).

Budgets down to the smallest subnormal: a pure budget whose noise scale or
SVT threshold overflows is rejected with a ValueError that names the value
that overflowed, before any noise is drawn; no Gaussian scale overflows.
"""

import numpy as np
import pytest

from dpcov import randomness
from dpcov.adaptive import adaptive_cov, adaptive_cov_pure, private_trace_ub
from dpcov.linalg import Dataset, clip_dataset, covariance
from dpcov.mechanisms import (
    gauss_cov,
    lap_cov,
    pure,
    separate_cov,
    separate_cov_pure,
    zcdp,
    zero_cov,
)
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


# name -> (run(x, stream) at eps = 1e-320, the value whose scale overflows)
TOO_SMALL = {
    "lap": (lambda x, s: lap_cov(x, 1e-320, s), 1e-320),
    "separate-pure": (lambda x, s: separate_cov_pure(x, 1e-320, s), 5e-321),
    # the radius stage's eps/4, whose SVT threshold overflows first
    "adaptive-pure": (lambda x, s: adaptive_cov_pure(x, 1e-320, 0.05, s), 2.5e-321),
    "trace": (lambda x, s: private_trace_ub(x, 1.0, pure(1e-320), 0.05, s), 1e-320),
}


@pytest.mark.parametrize("name", list(TOO_SMALL))
def test_pure_budget_too_small_is_rejected_by_name(name):
    run, value = TOO_SMALL[name]
    stream = RandomStream(7)
    with pytest.raises(ValueError, match=f"^pure budget {value!r} is too small"):
        run(Dataset(np.array(DATASETS["d3-n1"])), stream)
    assert stream.generator.random() == RandomStream(7).generator.random()


@pytest.mark.parametrize(
    "run",
    [lambda x, s: gauss_cov(x, 5e-324, s), lambda x, s: adaptive_cov(x, 4e-323, 0.05, s)],
    ids=["gauss", "adaptive"],
)
def test_smallest_gaussian_budgets_run(run):
    # one column: the largest sensitivity, sqrt(2)/n, at the least rho (for
    # the adaptive mechanism, the least whose split has no share rounded to
    # zero, eight times the smallest subnormal); no Gaussian scale overflows
    estimate = run(Dataset(np.array(DATASETS["d3-n1"])), RandomStream(7)).estimate
    assert np.all(np.isfinite(estimate)) and np.array_equal(estimate, estimate.T)


@pytest.fixture
def generators_built(monkeypatch):
    """The keys of the generators the test's streams build: a stream builds
    one on its first draw."""
    built, real = [], randomness._philox_generator
    monkeypatch.setattr(randomness, "_philox_generator", lambda key: built.append(key) or real(key))
    return built


@pytest.mark.parametrize("run", [adaptive_cov, adaptive_cov_pure])
def test_budget_with_a_share_rounded_to_zero_is_rejected(run, generators_built):
    # 5e-324 times each share of the split rounds to zero, a budget the
    # ledger rejects before any draw
    want = r"budget 5e-324 does not split exactly: shares \{'radius': 0.0"
    with pytest.raises(ValueError, match=want):
        run(Dataset(np.array(DATASETS["d3-n1"])), 5e-324, 0.05, RandomStream(7))
    assert generators_built == []


@pytest.mark.parametrize(
    "run, kind, value",
    [
        # the four shares of eps/4 lose bits and add up to 4.999999999999995e-309
        (adaptive_cov_pure, "pure", 5e-309),
        # 3 ulps: the shares round to 0, 0, 1 and 2 ulps, which do add up to rho
        (adaptive_cov, "zcdp", 1.5e-323),
    ],
)
def test_subnormal_budget_that_does_not_split_exactly_is_rejected(
    run, kind, value, generators_built
):
    with pytest.raises(ValueError, match=f"^{kind} budget {value!r} does not split exactly: "):
        run(Dataset(np.array(DATASETS["d3-n1"])), value, 0.05, RandomStream(7))
    assert generators_built == []
