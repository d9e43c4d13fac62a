import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import bias_direct, datasets, skewed_dataset, zero_noise_tau_oracle

import dpcov
import dpcov.adaptive as adaptive
import dpcov.mechanisms as mechanisms
from dpcov.adaptive import (
    adaptive_cov,
    adaptive_cov_pure,
    build_histogram,
    noise_hat,
    priv_radius,
    private_trace_ub,
    svt,
    threshold_query,
)
from dpcov.bounds import eta
from dpcov.datagen import SynthSpec, synth
from dpcov.linalg import (
    Dataset,
    clip_dataset,
    covariance,
    frobenius_dist,
    radius,
    tail_gamma,
    trace_stat,
)
from dpcov.mechanisms import FAMILIES, GAUSSIAN, LAPLACE, separate_cov_pure
from dpcov.privacy import pure, zcdp
from dpcov.randomness import RandomStream


def dataset_with_norms(norms, d=4, seed=0):
    norms = np.asarray(norms, dtype=float)
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, norms.size))
    cols /= np.linalg.norm(cols, axis=0)
    return Dataset(cols * norms, ball_constrained=bool(np.all(norms <= 1.0)))


class TestSVT:
    def test_zero_noise_first_crossing(self):
        assert svt(iter([-5.0, -3.0, 2.0]), 1.0, 0.0, 1.0, RandomStream(0, zero_noise=True)) == 3

    def test_zero_noise_no_crossing(self):
        assert svt(iter([-5.0, -3.0, -2.0]), 1.0, 0.0, 1.0, RandomStream(0, zero_noise=True)) == 4

    def test_empty_sequence(self):
        assert svt(iter([]), 1.0, 0.0, 1.0, RandomStream(0)) == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_sensitivity_and_epsilon_rejected(self, bad):
        with pytest.raises(ValueError, match="sensitivity"):
            svt(iter([1.0]), bad, 0.0, 1.0, RandomStream(0))
        with pytest.raises(ValueError, match="epsilon"):
            svt(iter([1.0]), 1.0, 0.0, bad, RandomStream(0))

    def test_lazy_consumption(self):
        seen = []

        def queries():
            for v in (-10.0, 50.0, -10.0, -10.0):
                seen.append(v)
                yield v

        k = svt(queries(), 1.0, 0.0, 1.0, RandomStream(1, zero_noise=True))
        assert k == 2
        assert len(seen) == 2

    def test_gap_bounds(self):
        # returned index respects the (6/eps) log(2t/beta) slack
        eps, t, beta, trials = 1.0, 100, 0.1, 200
        slack = (6.0 / eps) * math.log(2 * t / beta)
        rng = np.random.default_rng(2)
        stream = RandomStream(3)
        ok = 0
        for _ in range(trials):
            values = rng.uniform(-60.0, 60.0, size=t)
            k = svt(iter(values), 1.0, 0.0, eps, stream)
            good = all(values[i] <= slack for i in range(k - 1))
            if k <= t:
                good = good and values[k - 1] >= -slack
            ok += good
        assert ok >= (1 - beta) * trials

    def test_validation(self):
        with pytest.raises(ValueError):
            svt(iter([1.0]), 0.0, 0.0, 1.0, RandomStream(0))
        with pytest.raises(ValueError):
            svt(iter([1.0]), 1.0, 0.0, -1.0, RandomStream(0))


class TestPrivRadius:
    def test_zero_noise_unit_norms(self):
        x = dataset_with_norms(np.ones(5000))
        r = priv_radius(x, 1.0, 0.1, 2.0**-20, RandomStream(0, zero_noise=True))
        assert r == 1.0

    def test_all_zero_returns_offset(self):
        x = Dataset(np.zeros((3, 50)))
        b = 2.0**-20
        assert priv_radius(x, 1.0, 0.1, b, RandomStream(0, zero_noise=True)) == b

    def test_offset_domain(self):
        x = dataset_with_norms([0.5])
        for bad in (0.0, 1.0, 2.0):
            with pytest.raises(ValueError):
                priv_radius(x, 1.0, 0.1, bad, RandomStream(0))

    def test_guarantees_hold_with_high_probability(self):
        eps, beta, b, trials = 1.0, 0.1, 2.0**-20, 1000
        levels = math.ceil(math.log2(1.0 / b))
        clip_cap = (12.0 / eps) * math.log(2 * (levels + 1) / beta)
        rng = np.random.default_rng(4)
        stream = RandomStream(5)
        ok_radius = ok_count = 0
        for _ in range(trials):
            n = int(rng.integers(500, 2000))
            scale = 2.0 ** rng.integers(-12, 1)
            norms = rng.uniform(0.0, scale, size=n)
            x = dataset_with_norms(norms, d=3, seed=int(rng.integers(1 << 31)))
            r = priv_radius(x, eps, beta, b, stream)
            ok_radius += r <= 2.0 * radius(x) + b
            ok_count += np.sum(x.norms() > r) <= clip_cap
        assert ok_radius >= (1 - beta) * trials
        assert ok_count >= (1 - beta) * trials


class TestNormHistogram:
    def test_all_zero_data(self):
        assert build_histogram(Dataset(np.zeros((2, 7)))) == {}

    def test_interval_membership(self):
        assert build_histogram(dataset_with_norms([0.3, 0.6])) == {-2: 1, -1: 1}

    def test_boundary_goes_to_lower_bucket(self):
        # 0.5 sits in (1/4, 1/2], i.e. bucket -2
        assert build_histogram(dataset_with_norms([0.5, 1.0])) == {-2: 1, -1: 1}

    def test_neighbor_mass_moves_by_one(self):
        norms = np.linspace(0.05, 1.0, 30)
        x = dataset_with_norms(norms, seed=6)
        primed_cols = x.columns.copy()
        primed_cols[:, 4] *= 0.01
        h = build_histogram(x)
        h2 = build_histogram(Dataset(primed_cols))
        diff = sum(abs(h.get(s, 0) - h2.get(s, 0)) for s in set(h) | set(h2))
        assert diff <= 2  # one column leaves a bucket, at most one enters

    def test_validation(self):
        x = dataset_with_norms([0.5])
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                build_histogram(x, bad)

    def test_clips_unclipped_input(self):
        # build_histogram(x, r) counts min(||x||, r); the Dataset path
        # recomputes clipped norms, which may land an ulp either side of r,
        # so the two agree outside the two buckets around r = 2^t
        x = dataset_with_norms(np.linspace(0.003, 1.0, 300), d=6, seed=30)
        for t in range(0, -10, -1):
            r = math.ldexp(1.0, t)
            got = build_histogram(x, r)
            direct = build_histogram(clip_dataset(x, r))
            boundary = {t - 1, t}
            assert {s: c for s, c in got.items() if s not in boundary} == {
                s: c for s, c in direct.items() if s not in boundary
            }
            assert sum(got.values()) == sum(direct.values())


def zero_noise_bounds(tr_hat, tau):
    return (0.0, 0.0)


def bias_bound(x, tau):
    """The bias term of the threshold query at a dyadic tau <= 1: the query
    at r = 1 with zero noise bounds, over n/4."""
    query = threshold_query(zero_noise_bounds, build_histogram(x), 0.0, 1.0, x.count)
    return query(int(math.log2(tau))) * 4.0 / x.count


class TestBiasHat:
    """The clipping-bias bound inside threshold_query,

        (1/n) * sum_{t <= s < 0} Count_s * (2^(2s+2) - tau^2)  at tau = 2^t,

    read through bias_bound."""

    def test_no_mass_above_threshold(self):
        assert bias_bound(dataset_with_norms([0.1, 0.2]), 0.25) == 0.0

    def test_single_vector_formula(self):
        assert abs(bias_bound(dataset_with_norms([0.6]), 0.5) - 0.75) < 1e-15

    def test_tau_one_always_zero(self):
        assert bias_bound(dataset_with_norms(np.linspace(0.1, 1.0, 9)), 1.0) == 0.0

    def test_matches_per_vector_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            norms = rng.uniform(0.0, 1.0, size=rng.integers(1, 40))
            x = dataset_with_norms(norms, seed=int(rng.integers(1 << 31)))
            t = int(rng.integers(-12, 1))
            tau = math.ldexp(1.0, t)
            assert abs(bias_bound(x, tau) - bias_direct(x.norms(), tau, x.count)) < 1e-12

    @settings(max_examples=100, deadline=None)
    @given(datasets(subnormal=True), st.integers(0, 600))
    def test_matches_oracle_in_units_of_tiny_radius(self, x, k):
        # at r = 2^-k, on norms down to 2^-1074, the zero-noise query is n/4
        # times the bias bound of the r-clipped norms measured in units of r
        r, n = math.ldexp(1.0, -k), x.count
        query = threshold_query(zero_noise_bounds, build_histogram(x, r), 0.0, r, n)
        in_units = np.minimum(x.norms(), r) / r
        for t in range(-k, -k - 40, -1):
            want = n / 4.0 * bias_direct(in_units, math.ldexp(1.0, t + k), n)
            assert abs(query(t) - want) <= 1e-12 * n

    def test_sandwiched_between_true_bias_and_tail(self):
        # the bias bound must dominate the actual covariance shift from
        # clipping and stay within 4x the tau-tail (a vector just above a
        # bucket edge 2^s contributes 2^(2s+2), i.e. up to 4x its squared norm)
        rng = np.random.default_rng(8)
        for _ in range(100):
            norms = rng.uniform(0.0, 1.0, size=30)
            x = dataset_with_norms(norms, seed=int(rng.integers(1 << 31)))
            for t in range(-8, 1):
                tau = math.ldexp(1.0, t)
                actual = frobenius_dist(covariance(x), covariance(clip_dataset(x, tau)))
                assert actual <= bias_bound(x, tau) + 1e-12
                assert bias_bound(x, tau) <= 4.0 * tail_gamma(x, tau) + 1e-12

    def test_nonincreasing_in_tau(self):
        x = dataset_with_norms(np.linspace(0.02, 1.0, 50), seed=9)
        values = [bias_bound(x, math.ldexp(1.0, t)) for t in range(-16, 1)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_non_dyadic_tau_rejected(self):
        # the grid is dyadic in units of r, so r must be a power of two
        counts = build_histogram(dataset_with_norms([0.5]))
        for bad in (0.3, 0.0, -0.5, math.inf):
            with pytest.raises(ValueError):
                threshold_query(zero_noise_bounds, counts, 0.0, bad, 1)


class TestNoiseBounds:
    """The families' clipped-mechanism error bounds: GAUSSIAN.noise_bounds(
    rho, beta, d, n)(tr_hat, tau) is (Gaussian bound, separate bound)."""

    def test_zero_threshold(self):
        bounds = GAUSSIAN.noise_bounds(0.1, 0.05, 16, 100)
        assert bounds(0.5, 0.0) == (0.0, 0.0)
        assert noise_hat(bounds, 0.5, 0.0) == 0.0

    def test_gauss_quadruples_when_tau_doubles(self):
        bounds = GAUSSIAN.noise_bounds(0.1, 0.05, 32, 500)
        small, large = bounds(0.0, 0.25)[0], bounds(0.0, 0.5)[0]
        assert abs(large - 4 * small) < 1e-15

    def test_gauss_spot_value(self):
        got = GAUSSIAN.noise_bounds(0.1, 0.05, 64, 1000)(0.0, 1.0)[0]
        assert abs(got - 0.21198610089264244) < 1e-12

    def test_separate_spot_value(self):
        got = GAUSSIAN.noise_bounds(0.1, 0.05, 64, 1000)(1.0, 1.0)[1]
        assert abs(got - 1.0582935171798382) < 1e-12

    def test_separate_linear_plus_quadratic(self):
        tr_hat, rho, beta, d, n = 0.3, 0.2, 0.1, 32, 400
        bounds = GAUSSIAN.noise_bounds(rho, beta, d, n)
        for tau in (0.125, 0.25, 0.5):
            gap = bounds(tr_hat, 2 * tau)[1] - 2 * bounds(tr_hat, tau)[1]
            want = 2 * tau * tau * math.sqrt(2) / (math.sqrt(rho) * n) * eta(d, beta / 2)
            assert abs(gap - want) < 1e-14

    def test_noise_hat_takes_smaller_branch(self):
        rho, beta, d, n = 0.1, 0.05, 64, 1000
        bounds = GAUSSIAN.noise_bounds(rho, beta, d, n)
        # small trace: the separate branch wins; large trace: gauss wins
        for tr_hat in (1e-6, 1.0):
            for tau in (0.125, 1.0):
                assert noise_hat(bounds, tr_hat, tau) == min(bounds(tr_hat, tau))
        assert noise_hat(bounds, 1e-6, 0.5) == bounds(1e-6, 0.5)[1]
        assert noise_hat(bounds, 1.0, 0.5) == bounds(1.0, 0.5)[0]

    def test_noise_hat_nondecreasing_in_tau(self):
        bounds = GAUSSIAN.noise_bounds(0.1, 0.05, 32, 500)
        values = [noise_hat(bounds, 0.2, math.ldexp(1.0, t)) for t in range(-20, 1)]
        assert all(a <= b + 1e-18 for a, b in zip(values, values[1:]))

    def test_pure_variants(self):
        eps, beta, d, n = 1.0, 0.05, 32, 500
        bounds = LAPLACE.noise_bounds(eps, beta, d, n)
        assert bounds(0.4, 0.0) == (0.0, 0.0)
        assert noise_hat(bounds, 0.4, 0.5) == min(bounds(0.4, 0.5))

    def test_norm_bounds_evaluated_once_per_run(self, monkeypatch):
        calls = []
        for name in ("omega", "upsilon", "eta"):
            real = getattr(mechanisms, name)
            monkeypatch.setattr(
                mechanisms, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)
            )
        queries = []
        real_query = adaptive.threshold_query

        def counting(*args):
            query = real_query(*args)
            return lambda t: queries.append(t) or query(t)

        monkeypatch.setattr(adaptive, "threshold_query", counting)
        x = dataset_with_norms(np.concatenate([np.full(8, 0.9), np.full(400, 0.01)]), d=16)
        adaptive_cov(x, 0.5, 0.05, RandomStream(3))
        assert len(queries) > 1
        assert sorted(calls) == ["eta", "omega", "upsilon"]


class TestPrivateTrace:
    def test_zero_noise_value(self):
        x = dataset_with_norms([0.5, 0.25, 0.1], seed=10)
        r, rho_frag, beta = 1.0, 0.05, 0.05
        tr = float(np.mean(x.norms() ** 2))
        offset = (r * r / x.count) / math.sqrt(2 * rho_frag) * math.sqrt(2 * math.log(8 / beta))
        got = private_trace_ub(x, r, zcdp(rho_frag), beta, RandomStream(0, zero_noise=True))
        assert abs(got - min(tr + offset, r * r)) < 1e-15

    def test_zero_noise_value_pure(self):
        x = dataset_with_norms([0.5, 0.25, 0.1], seed=10)
        r, eps_frag, beta = 1.0, 0.25, 0.05
        tr = float(np.mean(x.norms() ** 2))
        offset = (r * r / x.count) / eps_frag * math.log(8 / beta)
        got = private_trace_ub(x, r, pure(eps_frag), beta, RandomStream(0, zero_noise=True))
        assert abs(got - min(tr + offset, r * r)) < 1e-15

    def test_cap_binds_at_full_norms(self):
        x = dataset_with_norms(np.full(20, 0.5), seed=11)
        got = private_trace_ub(x, 0.5, zcdp(0.1), 0.05, RandomStream(12))
        assert got == 0.25

    def test_upper_bound_coverage(self):
        x = dataset_with_norms(np.linspace(0.01, 0.5, 40), seed=13)
        r, beta = 0.5, 0.05
        tr = float(np.mean(x.norms() ** 2))
        stream = RandomStream(14)
        misses = sum(
            private_trace_ub(x, r, zcdp(0.02), beta, stream) < tr for _ in range(10_000)
        )
        assert misses <= (beta / 8) * 10_000

    def test_clips_unclipped_input(self):
        # the stage clips x to r itself: on unclipped data it gives what it
        # gives on clip_dataset(x, r), below the r^2 cap
        x = dataset_with_norms(np.linspace(0.01, 1.0, 200), seed=15)
        zero = RandomStream(0, zero_noise=True)
        for budget in (zcdp(50.0), pure(50.0)):
            for t in range(0, -6, -1):
                r = math.ldexp(1.0, t)
                got = private_trace_ub(x, r, budget, 0.05, zero)
                want = private_trace_ub(clip_dataset(x, r), r, budget, 0.05, zero)
                assert got < r * r
                assert abs(got - want) <= 1e-12 * want


class TestDiffQuery:
    """The threshold SVT's query, threshold_query(bounds, counts, tr_hat, r, n)(t)
    at tau = 2^t."""

    def test_negative_when_no_bias(self):
        x = dataset_with_norms(np.full(30, 0.4), seed=16)
        h = build_histogram(x)
        for family in FAMILIES.values():
            bounds = family.noise_bounds(0.1, 0.05, x.dim, x.count)
            assert threshold_query(bounds, h, 0.16, 0.5, x.count)(-1) < 0.0

    def test_nondecreasing_down_the_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            norms = rng.uniform(0.0, 1.0, size=60)
            x = dataset_with_norms(norms, seed=int(rng.integers(1 << 31)))
            h = build_histogram(x)
            for family in FAMILIES.values():
                bounds = family.noise_bounds(0.1, 0.05, x.dim, x.count)
                query = threshold_query(bounds, h, 0.7, 1.0, x.count)
                values = [query(t) for t in range(0, -24, -1)]
                assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_sensitivity_at_most_one(self):
        rng = np.random.default_rng(18)
        slack = 1e-9
        for _ in range(10_000):
            n = int(rng.integers(2, 64))
            r = math.ldexp(1.0, int(rng.integers(-6, 1)))
            norms = rng.uniform(0.0, r, size=n)
            primed = norms.copy()
            primed[rng.integers(n)] = rng.uniform(0.0, r)
            # 1-d datasets whose column norms are exactly these values
            ha = build_histogram(Dataset(norms.reshape(1, -1)))
            hb = build_histogram(Dataset(primed.reshape(1, -1)))
            tr_hat = r * r / 2
            bounds = GAUSSIAN.noise_bounds(0.1, 0.05, 4, n)
            qa = threshold_query(bounds, ha, tr_hat, r, n)
            qb = threshold_query(bounds, hb, tr_hat, r, n)
            for t in range(int(math.log2(r)), int(math.log2(r)) - 8, -1):
                assert abs(qa(t) - qb(t)) <= 1.0 + slack

    def test_tiny_radius_is_scale_invariant(self):
        # scaling every norm by 2^-k, r by 2^-k and tr_hat by 4^-k leaves the
        # normalized query unchanged; at r = 2^-531 the factor n/(4 r^2)
        # overflows, and the query must still equal the one at r = 2^-1 bit
        # for bit (tr_hat = 1/8 stays exact at both scales)
        k, n = 530, 50
        norms = np.linspace(0.01, 0.5, n)
        h = build_histogram(Dataset(norms.reshape(1, -1)))
        h_tiny = {s - k: c for s, c in h.items()}
        for family in FAMILIES.values():
            bounds = family.noise_bounds(0.1, 0.05, 4, n)
            query = threshold_query(bounds, h, 0.125, 0.5, n)
            tiny = threshold_query(bounds, h_tiny, math.ldexp(0.125, -2 * k), 2.0 ** (-1 - k), n)
            for t in range(-1, -40, -1):
                assert math.isfinite(tiny(t - k))
                assert tiny(t - k) == query(t)

    @pytest.mark.parametrize(
        "run, budget, label, r_tilde",
        [
            (adaptive_cov, 0.1, "bench/adaptive/11", 2.0**-525),
            (adaptive_cov_pure, 1.0, "bench/adaptive-pure/13", 2.0**-509),
        ],
        ids=["zcdp", "pure"],
    )
    def test_reported_tiny_radius_queries_are_finite(
        self, run, budget, label, r_tilde, monkeypatch
    ):
        # these streams draw a radius at which n/(4 r^2) overflows; every
        # query the threshold search evaluates must stay finite
        seen = []
        real_query = adaptive.threshold_query

        def recording(*args):
            query = real_query(*args)
            values = []
            seen.append(values)
            return lambda t: values.append(query(t)) or values[-1]

        monkeypatch.setattr(adaptive, "threshold_query", recording)
        x = synth(SynthSpec(n=256, d=8, bins=4, seed=5))
        rep = run(x, budget, 0.05, RandomStream(5).child(label))
        assert rep.details["r_tilde"] == r_tilde
        (values,) = seen
        assert values and all(math.isfinite(v) for v in values)
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestAdaptiveCov:
    def test_all_zero_zero_noise_gives_zero_matrix(self):
        x = Dataset(np.zeros((4, 50)))
        rep = adaptive_cov(x, 1.0, 0.05, RandomStream(0, zero_noise=True))
        assert np.array_equal(rep.estimate, np.zeros((4, 4)))

    def test_ledger_sums_exactly(self):
        x = dataset_with_norms(np.linspace(0.1, 1.0, 64), seed=19)
        for rho in (0.1, 0.25, 0.7, 3.0):
            rep = adaptive_cov(x, rho, 0.05, RandomStream(20))
            assert sum(rep.details["ledger"].values()) == rho
            assert rep.budget_spent == zcdp(rho)

    def test_zero_noise_threshold_matches_grid_oracle_interior(self):
        # large d keeps the noise bound above the first bias step, so the
        # crossover sits strictly inside the grid (r=1, tau=1/2 here)
        norms = np.concatenate([np.full(78, 0.6), np.full(1922, 0.01)])
        x = dataset_with_norms(norms, d=400, seed=21)
        rho, beta = 4.0, 0.05
        rep = adaptive_cov(x, rho, beta, RandomStream(0, zero_noise=True))
        r_oracle, tau_oracle = zero_noise_tau_oracle(x, rho, beta)
        assert rep.details["r_tilde"] == r_oracle
        assert rep.details["tau"] == tau_oracle
        assert rep.details["tau"] < r_oracle  # interior selection, not degenerate

    def test_zero_noise_threshold_matches_grid_oracle_radius_capped(self):
        # few heavy outliers: the radius stage clips them and the threshold
        # search stays at the radius
        norms = np.concatenate([np.full(20, 1.0), np.full(1980, 0.05)])
        x = dataset_with_norms(norms, d=16, seed=31)
        rho, beta = 4.0, 0.05
        rep = adaptive_cov(x, rho, beta, RandomStream(0, zero_noise=True))
        r_oracle, tau_oracle = zero_noise_tau_oracle(x, rho, beta)
        assert rep.details["r_tilde"] == r_oracle
        assert rep.details["tau"] == tau_oracle

    def test_deterministic_given_seed(self):
        x = dataset_with_norms(np.linspace(0.05, 1.0, 128), seed=22)
        a = adaptive_cov(x, 0.5, 0.05, RandomStream(23))
        b = adaptive_cov(x, 0.5, 0.05, RandomStream(23))
        assert np.array_equal(a.estimate, b.estimate)
        assert a.details == b.details

    def test_variant_names_dispatched_branch(self):
        x = dataset_with_norms(np.ones(4000), d=8, seed=24)
        rep = adaptive_cov(x, 0.5, 0.05, RandomStream(25))
        assert rep.variant in ("gauss", "separate")
        assert rep.clip_threshold == rep.details["tau"]

    def test_unit_norm_data_keeps_full_radius(self):
        # dense unit-norm data: the radius search tops out at 1 and the
        # threshold search keeps tau at the radius
        x = dataset_with_norms(np.ones(4000), d=8, seed=26)
        rep = adaptive_cov(x, 1.0, 0.05, RandomStream(0, zero_noise=True))
        assert rep.details["r_tilde"] == 1.0
        assert rep.details["tau"] == 1.0


    def test_threshold_grid_stops_at_float_floor(self, monkeypatch):
        # d*n = 1200 puts the nominal grid end at 2^-1200; with no query
        # triggering, the search walks the whole grid, which must stop at
        # 2^-1020, the smallest threshold it may return
        evaluated = []
        real_query = adaptive.threshold_query

        def never_triggers(*args):
            query = real_query(*args)

            def recorded(t):
                evaluated.append(t)
                query(t)  # evaluated as in a real run, then hidden from the SVT
                return -math.inf

            return recorded

        monkeypatch.setattr(adaptive, "threshold_query", never_triggers)
        x = dataset_with_norms(np.full(600, 0.5), d=2, seed=27)
        for run, budget in ((adaptive_cov, 0.5), (adaptive_cov_pure, 1.0)):
            evaluated.clear()
            rep = run(x, budget, 0.05, RandomStream(0, zero_noise=True))
            assert min(evaluated) == -1020
            assert rep.details["tau"] == 2.0**-1020


class TestAdaptiveCovPure:
    def test_all_zero_zero_noise_gives_zero_matrix(self):
        x = Dataset(np.zeros((3, 40)))
        rep = adaptive_cov_pure(x, 1.0, 0.05, RandomStream(0, zero_noise=True))
        assert np.array_equal(rep.estimate, np.zeros((3, 3)))

    def test_ledger_sums_exactly(self):
        x = dataset_with_norms(np.linspace(0.1, 1.0, 64), seed=27)
        for eps in (0.5, 1.0, 3.0):
            rep = adaptive_cov_pure(x, eps, 0.05, RandomStream(28))
            assert sum(rep.details["ledger"].values()) == eps
            assert rep.budget_spent == pure(eps)
            assert rep.variant in ("lap", "separate-pure")

    def test_beats_unclipped_separate_on_skewed_data(self):
        # paired runs on the heavy-tail construction
        n, eps, beta, runs = 1024, 1.0, 0.05, 50
        x = skewed_dataset(n, seed=29, heavy=3)
        sigma = covariance(x)
        adaptive_errors, plain_errors = [], []
        for rep in range(runs):
            stream = RandomStream(30).child(f"rep{rep}")
            adaptive_errors.append(
                frobenius_dist(adaptive_cov_pure(x, eps, beta, stream).estimate, sigma)
            )
            plain_errors.append(
                frobenius_dist(separate_cov_pure(x, eps, stream.child("plain")).estimate, sigma)
            )
        assert np.mean(adaptive_errors) <= np.mean(plain_errors)


class TestEndToEndRegression:
    def test_error_within_constant_of_grid_objective(self):
        # tracked as a regression: mean adaptive error stays within an
        # empirical constant (<= 25, the log factors at this scale) of the
        # best noise-plus-tail objective on the dyadic grid
        rho, beta, runs = 0.5, 0.05, 200
        datasets = [
            skewed_dataset(1024, seed=40, heavy=3),
            dataset_with_norms(
                np.concatenate([np.full(96, 0.9), np.full(1440, 0.08)]), d=48, seed=41
            ),
        ]
        for x in datasets:
            sigma = covariance(x)
            errors = [
                frobenius_dist(
                    adaptive_cov(x, rho, beta, RandomStream(42).child(f"r{i}")).estimate,
                    sigma,
                )
                for i in range(runs)
            ]
            bounds = GAUSSIAN.noise_bounds(rho / 2, beta / 2, x.dim, x.count)
            objective = min(
                noise_hat(
                    bounds, trace_stat(clip_dataset(x, math.ldexp(1.0, t))), math.ldexp(1.0, t)
                )
                + tail_gamma(x, math.ldexp(1.0, t))
                for t in range(0, -16, -1)
            )
            assert np.mean(errors) <= 25.0 * objective + 2.0**-4096


class TestBudgetLedger:
    def test_ledger_is_the_family_split(self):
        x = dataset_with_norms(np.linspace(0.1, 1.0, 64), seed=19)
        rep = adaptive_cov(x, 0.8, 0.05, RandomStream(20))
        assert rep.details["ledger"] == {"radius": 0.1, "trace": 0.1, "svt": 0.2, "mechanism": 0.4}
        rep = adaptive_cov_pure(x, 2.0, 0.05, RandomStream(20))
        assert rep.details["ledger"] == {"radius": 0.5, "trace": 0.5, "svt": 0.5, "mechanism": 0.5}

    def test_wrong_split_rejected(self, monkeypatch):
        short = (("radius", 1 / 8), ("trace", 1 / 8), ("svt", 1 / 4), ("mechanism", 1 / 4))
        monkeypatch.setattr(adaptive, "GAUSSIAN", dataclasses.replace(GAUSSIAN, split=short))
        x = dataset_with_norms(np.linspace(0.1, 1.0, 16), seed=19)
        with pytest.raises(ValueError, match="composes to"):
            adaptive_cov(x, 0.5, 0.05, RandomStream(0))

    def test_wrong_split_rejected_under_python_O(self):
        code = "\n".join(
            [
                "import dataclasses, sys",
                "import numpy as np",
                "import dpcov.adaptive as adaptive",
                "from dpcov.linalg import Dataset",
                "from dpcov.randomness import RandomStream",
                "assert sys.flags.optimize, 'asserts are on'",
                "split = (('radius', 0.25), ('trace', 0.25), ('svt', 0.25), ('mechanism', 0.5))",
                "adaptive.GAUSSIAN = dataclasses.replace(adaptive.GAUSSIAN, split=split)",
                "try:",
                "    adaptive.adaptive_cov(Dataset(np.eye(3) / 2), 0.5, 0.05, RandomStream(0))",
                "except ValueError as exc:",
                "    print('ValueError:', exc)",
            ]
        )
        src = str(Path(dpcov.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert "ValueError: adaptive budget split composes to" in out.stdout
