import math

import numpy as np
import pytest

from dpcov.bounds import (
    eta,
    lap_vec_bound,
    omega,
    slw_frob_bound,
    slw_op_bound,
    upsilon,
)
from dpcov.randomness import (
    RandomStream,
    gaussian_vector,
    laplace_vector,
    sgw_matrix,
    slw_matrix,
)


def upsilon_reference(d, beta):
    """Independent transcription of the Wigner operator-norm bound."""
    logd = 1.0 if d <= math.e else math.log(d)
    x = (logd / d) ** (1.0 / 3.0)
    return (
        2 * math.sqrt(d)
        + 2 * d ** (1.0 / 6.0) * logd ** (1.0 / 3.0)
        + 6 * (1 + x) * math.sqrt(logd) / math.sqrt(math.log(1 + x))
        + 2 * math.sqrt(2 * math.log(1 / beta))
    )


class TestEta:
    def test_known_values(self):
        assert abs(eta(1, math.exp(-1)) - math.sqrt(5)) < 1e-12
        assert abs(eta(4, math.exp(-1)) - math.sqrt(10)) < 1e-12

    def test_monotone_in_d_and_confidence(self):
        assert eta(2, 0.1) < eta(3, 0.1) < eta(10, 0.1)
        assert eta(5, 0.2) < eta(5, 0.1) < eta(5, 0.01)

    def test_domain(self):
        with pytest.raises(ValueError):
            eta(4, 0.0)
        with pytest.raises(ValueError):
            eta(4, 1.0)
        with pytest.raises(ValueError):
            eta(0, 0.1)


class TestUpsilon:
    def test_dominates_semicircle_edge(self):
        for d in (1, 2, 3, 10, 100, 1000):
            for beta in (0.01, 0.2, 0.9):
                assert upsilon(d, beta) >= 2 * math.sqrt(d)

    def test_matches_independent_evaluation(self):
        assert abs(upsilon(64, 0.05) - upsilon_reference(64, 0.05)) < 1e-12
        assert abs(upsilon(64, 0.05) - 56.839371072520855) < 1e-12
        assert abs(upsilon(3, 0.2) - upsilon_reference(3, 0.2)) < 1e-12

    def test_tiny_dimension_finite(self):
        # the log-d terms use the log(x)=1 floor below x=e, so d=1,2 stay finite
        assert math.isfinite(upsilon(1, 0.1))
        assert math.isfinite(upsilon(2, 0.1))


class TestOmega:
    def test_known_value(self):
        assert abs(omega(1, 2 * math.exp(-1)) - 3.0) < 1e-12

    def test_at_least_d(self):
        for d in (1, 4, 64, 513):
            for beta in (0.05, 0.5):
                assert omega(d, beta) >= d


class TestGaussianCoverage:
    def test_upsilon_and_omega_cover_sgw(self):
        d, trials = 32, 10_000
        stream = RandomStream(77)
        stacked = np.empty((trials, d, d))
        for i in range(trials):
            stacked[i] = sgw_matrix(stream, d)
        opnorms = np.abs(np.linalg.eigvalsh(stacked)).max(axis=1)
        fronorms = np.linalg.norm(stacked, axis=(1, 2))
        for beta in (0.05, 0.2):
            assert np.mean(opnorms > upsilon(d, beta)) <= beta
            assert np.mean(fronorms > omega(d, beta)) <= beta


class TestLaplaceBounds:
    def test_spot_value(self):
        assert abs(lap_vec_bound(64, 0.05) - 61.8356010990332) < 1e-12

    def test_monotone_in_d(self):
        values = [lap_vec_bound(d, 0.1) for d in (4, 16, 64, 256)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_vector_coverage(self):
        trials = 10_000
        stream = RandomStream(88)
        for d in (16, 64, 256):
            draws = laplace_vector(stream, trials * d).reshape(trials, d)
            norms = np.linalg.norm(draws, axis=1)
            for beta in (0.05, 0.2):
                assert np.mean(norms > lap_vec_bound(d, beta)) <= beta

    def test_slw_coverage(self):
        d, trials = 32, 4000
        stream = RandomStream(99)
        stacked = np.empty((trials, d, d))
        for i in range(trials):
            stacked[i] = slw_matrix(stream, d)
        opnorms = np.abs(np.linalg.eigvalsh(stacked)).max(axis=1)
        fronorms = np.linalg.norm(stacked, axis=(1, 2))
        for beta in (0.05, 0.2):
            assert np.mean(opnorms > slw_op_bound(d, beta)) <= beta
            assert np.mean(fronorms > slw_frob_bound(d, beta)) <= beta


# The adaptive pipeline's shapes (tall-adaptive's d = 200; wide-spectrum's
# d = 1024, which the Wigner samplers fill by mirroring) at the confidences
# noise_bounds is handed for the default beta = 0.05: beta/2 and, for the
# operator and vector bounds, beta/4.  Every draw must lie under its bound.
@pytest.mark.parametrize("d, draws", [(200, 20), (1024, 10)])
def test_every_draw_under_its_bound_at_the_pipeline_shapes(d, draws, capsys):
    bounds = {
        "eta": eta,
        "upsilon": upsilon,
        "omega": omega,
        "lap_vec": lap_vec_bound,
        "slw_op": slw_op_bound,
        "slw_frob": slw_frob_bound,
    }
    norms = {name: [] for name in bounds}
    stream = RandomStream(2400 + d)
    for i in range(draws):
        draw = stream.child(str(i))
        sgw, slw = sgw_matrix(draw, d), slw_matrix(draw, d)
        norms["eta"].append(np.linalg.norm(gaussian_vector(draw, d)))
        norms["lap_vec"].append(np.linalg.norm(laplace_vector(draw, d)))
        norms["upsilon"].append(np.abs(np.linalg.eigvalsh(sgw)).max())
        norms["slw_op"].append(np.abs(np.linalg.eigvalsh(slw)).max())
        norms["omega"].append(np.linalg.norm(sgw))
        norms["slw_frob"].append(np.linalg.norm(slw))
    # (bound, largest draw) per bound and confidence
    pairs = {
        (name, beta): (bound(d, beta), max(norms[name]))
        for name, bound in bounds.items()
        for beta in (0.05 / 2, 0.05 / 4)
    }
    (name, beta), (bound, largest) = min(pairs.items(), key=lambda item: item[1][0] / item[1][1])
    with capsys.disabled():
        print(
            f"\n[bounds d={d}] smallest gap: {name} at beta={beta}, "
            f"bound {bound:.4g} over largest draw {largest:.4g} ({bound / largest:.4f}x)"
        )
    assert all(bound > largest for bound, largest in pairs.values()), pairs
