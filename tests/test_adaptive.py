import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (
    bias_direct,
    dataset_from_norms,
    datasets,
    skewed_dataset,
    svt_index_distribution,
    svt_privacy_loss,
    svt_scalar_draws,
    zero_noise_tau_oracle,
)

import dpcov
import dpcov.adaptive as adaptive
import dpcov.mechanisms as mechanisms
from dpcov.adaptive import (
    adaptive_cov,
    adaptive_cov_pure,
    build_histogram,
    priv_radius,
    private_trace_ub,
    svt,
    threshold_queries,
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
from dpcov.mechanisms import (
    FAMILIES,
    GAUSSIAN,
    LAPLACE,
    MechanismReport,
    Selection,
    clip_mechanism,
    gauss_cov,
    lap_cov,
    separate_cov,
    separate_cov_pure,
    zero_cov,
)
from dpcov.privacy import pure, zcdp
from dpcov.randomness import RandomStream


def dataset_with_norms(norms, d=4, seed=0):
    norms = np.asarray(norms, dtype=float)
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((d, norms.size))
    cols /= np.linalg.norm(cols, axis=0)
    return Dataset(cols * norms)


class TestSVT:
    def test_zero_noise_first_crossing(self):
        assert svt(iter([-5.0, -3.0, 2.0]), 1.0, 0.0, 1.0, RandomStream(0, zero_noise=True)) == 3

    def test_zero_noise_tie_triggers(self):
        assert svt(iter([-1.0, 0.5, 7.0]), 1.0, 0.5, 1.0, RandomStream(0, zero_noise=True)) == 2

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

    @pytest.mark.parametrize("shape", ["first", "middle", "never", "empty", "uniform"])
    def test_matches_the_scalar_draw_oracle(self, shape):
        t, eps = 70, 1.0
        rng = np.random.default_rng(len(shape))
        values = {
            "first": lambda: np.concatenate([[1e9], rng.uniform(-60.0, 60.0, t - 1)]),
            "middle": lambda: np.linspace(-80.0, 80.0, t) + rng.uniform(-5.0, 5.0, t),
            "never": lambda: np.full(t, -1e9),
            "empty": lambda: np.empty(0),
            "uniform": lambda: rng.uniform(-60.0, 60.0, t),
        }[shape]
        indices = set()
        for seed in range(1000):
            queries = values()
            for zero_noise in (False, True) if seed < 100 else (False,):
                pulled = []

                def pull():
                    for q in queries:
                        pulled.append(q)
                        yield q

                stream = RandomStream(seed, zero_noise=zero_noise)
                k = svt(pull(), 1.0, 0.0, eps, stream)
                oracle_stream = RandomStream(seed, zero_noise=zero_noise)
                want, want_pulled = svt_scalar_draws(queries, 1.0, 0.0, eps, oracle_stream)
                assert (k, len(pulled)) == (want, want_pulled), (seed, zero_noise)
                # one draw per pulled query, so the stream goes on alike
                assert stream.generator.random() == oracle_stream.generator.random()
                indices.add(k)
        if shape in ("first", "never", "empty"):
            assert indices == {"first": {1}, "never": {t + 1}, "empty": {1}}[shape]
        else:
            assert len(indices) > 5 and max(indices) <= t
        if shape == "middle":
            assert min(indices) > 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_rejected(self, bad):
        with pytest.raises(ValueError, match="threshold"):
            svt(iter([1e9, 1e9]), 1.0, bad, 1.0, RandomStream(0))

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


def radius_svt_call(x, eps, beta, b):
    """(queries, sensitivity, threshold, eps) as priv_radius hands them to
    the SVT, the queries listed."""
    seen = []

    def recording_svt(queries, sensitivity, threshold, eps, stream):
        seen.append((list(queries), sensitivity, threshold, eps))
        return 1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adaptive, "svt", recording_svt)
        priv_radius(x, eps, beta, b, RandomStream(0))
    return seen[0]


class TestRadiusCounts:
    """priv_radius reads each level's count off the dataset's dyadic
    histogram, and hands the SVT exactly the counts |{i : ||X_i|| > 2^-j}|."""

    @settings(max_examples=60, deadline=None)
    @given(datasets(subnormal=True), st.integers(1, 1074))
    def test_counts_at_every_level(self, x, offset_exponent):
        b = math.ldexp(1.0, -offset_exponent)
        levels = [math.ldexp(1.0, -j) for j in range(offset_exponent + 1)]
        want = [int(np.sum(x.norms() > level)) for level in levels]
        assert radius_svt_call(x, 1.0, 0.1, b)[0] == want

    def test_norms_on_the_levels(self):
        # a norm of exactly 2^-j is not above 2^-j; norms above 1 count at
        # every level
        norms = [4.0, 2.0, 1.0, 0.5, 0.5, 0.25, 2.0**-30, 2.0**-40, 2.0**-1074, 0.0]
        x = Dataset(np.array([norms, np.zeros(len(norms))]))
        assert x.norms().tolist() == norms
        want = [sum(v > math.ldexp(1.0, -j) for v in norms) for j in range(41)]
        assert want[:3] == [2, 3, 5] and want[40] == 7
        assert radius_svt_call(x, 1.0, 0.1, 2.0**-40)[0] == want


class TestRadiusSvtPrivacyLoss:
    """The exact privacy loss of priv_radius's SVT (AboveThreshold, Dwork and
    Roth 2014, section 3.6) on the count vectors of neighbouring datasets,
    which differ in one column: the index distributions are integrated, not
    sampled.

    Replacing one column moves the counts of a run of levels by one, all the
    same way.  Shifting the threshold noise by one then maps the outcomes of
    one neighbour onto the other's, plus a shift of the firing query's noise
    when that query is not in the run: a loss of at most 1/2 + 1/4 of eps.
    Counts shifted at every level, near the threshold, read eps/2.
    Quartering the threshold noise must show up as about 2 eps."""

    BETA, B = 0.05, 2.0**-40

    def loss(self, norms, neighbour, eps, d=3, threshold_shrink=1.0):
        # one seed: every column but the replaced one is the same vector
        queries, sensitivity, threshold, eps = radius_svt_call(
            dataset_from_norms(norms, d, seed=0), eps, self.BETA, self.B
        )
        other = radius_svt_call(dataset_from_norms(neighbour, d, seed=0), eps, self.BETA, self.B)
        assert other[1:] == (sensitivity, threshold, eps)
        return svt_privacy_loss(queries, other[0], sensitivity, threshold, eps, threshold_shrink)

    def flat_pair(self, eps, offset):
        """m unit columns and zero columns, m = T + offset, against one more
        unit column: the count at every level below 1 rises by one."""
        threshold = radius_svt_call(dataset_from_norms([1.0], 3, 0), eps, self.BETA, self.B)[2]
        m = max(0, round(threshold) + offset)
        norms = [1.0] * m + [0.0] * 60
        return norms, norms[:m] + [1.0] + norms[m + 1 :]

    @pytest.mark.parametrize("eps", [1.0, 0.25, GAUSSIAN.svt_eps(0.1 / 8)])
    @pytest.mark.parametrize("offset", [-30, -5, 0, 5, 30])
    def test_flat_counts_within_eps(self, eps, offset):
        loss = self.loss(*self.flat_pair(eps, offset), eps)
        assert loss <= 0.75 * eps * (1 + 1e-4)  # so within eps, with room
        if abs(offset) <= 5:
            assert loss == pytest.approx(eps / 2, rel=0.05)

    def test_random_neighbours_within_eps(self):
        rng = np.random.default_rng(12)
        for eps in (1.0, 0.3):
            for _ in range(6):
                n = int(rng.integers(20, 400))
                norms = list(np.ldexp(rng.uniform(0.5, 1.0, n), -rng.integers(0, 45, n)))
                norms[: n // 10] = [0.0] * (n // 10)
                i = int(rng.integers(n))
                dyadic = 2.0 ** -int(rng.integers(0, 45))
                replacement = rng.choice([0.0, 1.0, dyadic, rng.uniform()])
                neighbour = norms[:i] + [float(replacement)] + norms[i + 1 :]
                assert self.loss(norms, neighbour, eps) <= 0.75 * eps * (1 + 1e-4)

    def test_dyadic_boundary_neighbours_within_eps(self):
        # a norm exactly on a level is not above it; one ulp more is
        base = [math.ldexp(1.0, -j) for j in range(0, 40, 3)] * 4
        for j in (0, 3, 39):
            level = math.ldexp(1.0, -j)
            for a, b in ((level, math.nextafter(level, 2.0)), (level, 0.0)):
                assert self.loss(base + [a], base + [b], 1.0) <= 0.75 * (1 + 1e-4)

    def test_quartered_threshold_noise_exceeds_eps(self):
        eps = 1.0
        loss = self.loss(*self.flat_pair(eps, 0), eps, threshold_shrink=4.0)
        assert loss > eps
        assert loss == pytest.approx(2 * eps, rel=0.05)

    def test_integrator_matches_closed_form(self):
        # one query fires when Lap(4) - Lap(2) >= T - q; that difference has
        # density (a^2 f_a - b^2 f_b) / (a^2 - b^2), f_s the Lap(s) density
        a, b = 4.0, 2.0
        for threshold, q in ((5.0, 0.0), (30.0, 0.0), (10.0, 10.0)):
            c = threshold - q
            fires = (a * a * math.exp(-c / a) - b * b * math.exp(-c / b)) / (2 * (a * a - b * b))
            p = svt_index_distribution([q], threshold, b, a)
            assert p.sum() == pytest.approx(1.0, abs=1e-5)
            assert p[0] == pytest.approx(fires, rel=1e-5)


def threshold_svt_queries(family, x, value, beta, r_tilde, tr_hat):
    """The queries ``_adaptive`` hands the threshold SVT, listed, given the
    radius and trace bound the earlier stages released."""
    d, n = x.dim, x.count
    bounds = family.noise_bounds(family.ledger(value)["mechanism"], beta / 2, d, n)
    return list(threshold_queries(bounds, x, tr_hat, r_tilde, max(-d * n, -1020)))


class TestThresholdSvtPrivacyLoss:
    """The exact privacy loss of the threshold SVT on neighbouring datasets,
    with the released r and tr_hat held fixed across each pair.

    One column adds at most r^2 - tau^2 to n * bias (its clipped norm lies in
    a bucket s < log2 r), so after the n/(4 r^2) normalization a query moves
    by at most 1/4, not the 1 the SVT is calibrated for, and every query
    moves the same way.  Shifting the threshold noise by 1/4 then costs
    eps/8, and the firing query's noise eps/16 more: the loss is at most
    3 eps/16, and a pair whose queries all shift by about 1/4 near the
    threshold reads eps/8."""

    BETA = 0.05
    BASE = [0.9, 0.6, 0.3, 0.3, 0.2, 0.1, 0.05, 0.5, 0.125, 0.125, 2**-6, 0.0, 0.0, 0.01]
    BASE += [0.002, 0.25, 0.7, 0.4, 0.04, 0.003]
    # (column, new norm): within a bucket, across buckets, to and from 0,
    # across r in both directions, off and onto 2^k, and onto r = 2^-2 itself
    MOVES = [
        (2, 0.27),
        (2, 0.05),
        (2, 0.0),
        (11, 0.2),
        (5, 0.9),
        (0, 0.01),
        (8, math.nextafter(0.125, 1.0)),
        (8, 2**-4),
        (15, 0.26),
        (6, 0.25),
        (12, 1.0),
    ]

    def queries(self, family, value, norms, r_tilde, tr_hat):
        # d * n = 40: each vector has at most 41 queries
        x = dataset_from_norms(norms, 2, seed=0)
        return threshold_svt_queries(family, x, value, self.BETA, r_tilde, tr_hat)

    def test_helper_lists_what_adaptive_queries(self):
        x = dataset_from_norms(self.BASE, 2, seed=0)
        for family, value in ((GAUSSIAN, 1.0), (LAPLACE, 1.0)):
            seen = []

            def recording_svt(queries, sensitivity, threshold, eps, stream):
                seen.append(list(queries))
                return 1

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(adaptive, "svt", recording_svt)
                rep = adaptive._adaptive(family, x, value, self.BETA, RandomStream(3))
            r_tilde, tr_hat = rep.selection.r_tilde, rep.selection.tr_hat
            assert seen[1] == threshold_svt_queries(family, x, value, self.BETA, r_tilde, tr_hat)

    @pytest.mark.parametrize("family", [GAUSSIAN, LAPLACE], ids=lambda f: f.kind)
    @pytest.mark.parametrize("r_tilde", [1.0, 0.25])
    def test_neighbours_within_eps(self, family, r_tilde):
        value = 1.0
        eps = family.svt_eps(family.ledger(value)["svt"])
        tr_hat = dataset_from_norms(self.BASE, 2, seed=0).trace(r_tilde)
        q = np.array(self.queries(family, value, self.BASE, r_tilde, tr_hat))
        assert len(q) <= 41 and q.min() < 0.0 < q.max()  # the SVT can fire inside the grid
        for i, norm in self.MOVES:
            neighbour = self.BASE[:i] + [norm] + self.BASE[i + 1 :]
            q_prime = np.array(self.queries(family, value, neighbour, r_tilde, tr_hat))
            moved = q_prime - q
            assert np.all(moved >= 0.0) or np.all(moved <= 0.0), (i, norm)
            assert np.max(np.abs(moved)) <= 1.0
            loss = svt_privacy_loss(q, q_prime, 1.0, 0.0, eps)
            assert loss <= eps
            assert loss <= 3.0 / 16.0 * eps * (1 + 1e-4), (i, norm)

    @pytest.mark.parametrize("family", [GAUSSIAN, LAPLACE], ids=lambda f: f.kind)
    def test_shrunk_threshold_noise_shows(self, family):
        # a zero column becomes a unit one at r = 1: near the threshold every
        # query moves by (1 - tau^2)/4, about 1/4, so dividing the threshold
        # noise Lap(2/eps) by k reads about k * (1/4) * eps/2 = k eps/8:
        # eps/2 at k = 4, which is still within eps because of the 4x slack
        # above, and 2 eps at k = 16
        value = 1.0
        eps = family.svt_eps(family.ledger(value)["svt"])
        tr_hat = dataset_from_norms(self.BASE, 2, seed=0).trace(1.0)
        q = self.queries(family, value, self.BASE, 1.0, tr_hat)
        neighbour = self.BASE[:12] + [1.0] + self.BASE[13:]
        q_prime = self.queries(family, value, neighbour, 1.0, tr_hat)
        assert svt_privacy_loss(q, q_prime, 1.0, 0.0, eps, threshold_shrink=4.0) == pytest.approx(
            eps / 2, rel=0.05
        )
        loss = svt_privacy_loss(q, q_prime, 1.0, 0.0, eps, threshold_shrink=16.0)
        assert loss > eps
        assert loss == pytest.approx(2 * eps, rel=0.05)


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


def query_at(bounds, x, tr_hat, r, t):
    """The threshold SVT's query at tau = 2^t: the last of the queries down
    to t."""
    return list(threshold_queries(bounds, x, tr_hat, r, t))[-1]


def bias_bound(x, tau):
    """The bias term of the threshold query at a dyadic tau <= 1: the query
    at r = 1 with zero noise bounds, over n/4."""
    return query_at(zero_noise_bounds, x, 0.0, 1.0, int(math.log2(tau))) * 4.0 / x.count


class TestBiasHat:
    """The clipping-bias bound inside threshold_queries,

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
        queries = threshold_queries(zero_noise_bounds, x, 0.0, r, -k - 39)
        in_units = np.minimum(x.norms(), r) / r
        for t, query in zip(range(-k, -k - 40, -1), queries, strict=True):
            want = n / 4.0 * bias_direct(in_units, math.ldexp(1.0, t + k), n)
            assert abs(query - want) <= 1e-12 * n

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
        x = dataset_with_norms([0.5])
        for bad in (0.3, 0.0, -0.5, math.inf):
            with pytest.raises(ValueError):
                next(threshold_queries(zero_noise_bounds, x, 0.0, bad, -3))


class TestNoiseBounds:
    """The families' clipped-mechanism error bounds: GAUSSIAN.noise_bounds(
    rho, beta, d, n)(tr_hat, tau) is (Gaussian bound, separate bound)."""

    def test_zero_threshold(self):
        bounds = GAUSSIAN.noise_bounds(0.1, 0.05, 16, 100)
        assert bounds(0.5, 0.0) == (0.0, 0.0)
        assert min(bounds(0.5, 0.0)) == 0.0

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
        # the threshold search's noise term is min(bounds(...)), and the
        # final dispatch runs the branch of that smaller bound
        rho, beta, d, n = 0.1, 0.05, 64, 1000
        bounds = GAUSSIAN.noise_bounds(rho, beta, d, n)
        # small trace: the separate branch wins; large trace: gauss wins
        for tr_hat in (1e-6, 1.0):
            for tau in (0.125, 1.0):
                plain, separate = bounds(tr_hat, tau)
                assert min(bounds(tr_hat, tau)) == (plain if separate >= plain else separate)
        assert min(bounds(1e-6, 0.5)) == bounds(1e-6, 0.5)[1]
        assert min(bounds(1.0, 0.5)) == bounds(1.0, 0.5)[0]

    def test_noise_hat_nondecreasing_in_tau(self):
        bounds = GAUSSIAN.noise_bounds(0.1, 0.05, 32, 500)
        values = [min(bounds(0.2, math.ldexp(1.0, t))) for t in range(-20, 1)]
        assert all(a <= b + 1e-18 for a, b in zip(values, values[1:]))

    def test_pure_variants(self):
        eps, beta, d, n = 1.0, 0.05, 32, 500
        bounds = LAPLACE.noise_bounds(eps, beta, d, n)
        assert bounds(0.4, 0.0) == (0.0, 0.0)
        plain, separate = bounds(0.4, 0.5)
        assert min(bounds(0.4, 0.5)) == (plain if separate >= plain else separate) > 0.0

    def test_norm_bounds_evaluated_once_per_run(self, monkeypatch):
        # the bounds are kept per key, so an earlier test with this run's
        # key must not have left them behind
        GAUSSIAN.noise_bounds.cache_clear()
        calls = []
        for name in ("omega", "upsilon", "eta"):
            real = getattr(mechanisms, name)
            monkeypatch.setattr(
                mechanisms, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)
            )
        queries = []
        real_queries = adaptive.threshold_queries

        def counting(*args):
            for query in real_queries(*args):
                queries.append(query)
                yield query

        monkeypatch.setattr(adaptive, "threshold_queries", counting)
        x = dataset_with_norms(np.concatenate([np.full(8, 0.9), np.full(400, 0.01)]), d=16)
        adaptive_cov(x, 0.5, 0.05, RandomStream(3))
        assert len(queries) > 1
        assert sorted(calls) == ["eta", "omega", "upsilon"]

    def test_norm_bounds_kept_per_key(self, monkeypatch):
        # a second run with the same (budget, beta, d, n) evaluates none
        calls = []
        for name in ("omega", "upsilon", "eta"):
            real = getattr(mechanisms, name)
            monkeypatch.setattr(
                mechanisms, name, lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)
            )
        norms = np.concatenate([np.full(8, 0.9), np.full(404, 0.01)])
        x = dataset_with_norms(norms, d=16)
        first = adaptive_cov(x, 0.5, 0.05, RandomStream(3))
        again = adaptive_cov(x, 0.5, 0.05, RandomStream(3))
        assert sorted(calls) == ["eta", "omega", "upsilon"]
        assert np.array_equal(again.estimate, first.estimate)
        key = (0.25, 0.025, 16, 412)
        assert GAUSSIAN.noise_bounds(*key) is GAUSSIAN.noise_bounds(*key)


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

    def test_direct_form_bits_in_normal_range(self):
        # min(tr + noise(r^2/n) + offset, r^2), the paper's form, computed
        # directly; the scaled computation must give its bits
        rng = np.random.default_rng(19)
        for i in range(300):
            n = int(rng.integers(1, 200))
            r = math.ldexp(1.0, int(rng.integers(-40, 1)))
            x = Dataset(rng.uniform(0.0, 2 * r, size=(1, n)))
            budget = (zcdp, pure)[i % 2](float(rng.uniform(0.01, 2.0)))
            draw, offset = FAMILIES[budget.kind].scalar_noise(
                RandomStream(i), r * r / n, budget.value, 0.05 / 8
            )
            want = min(x.trace(r) + draw + offset, r * r)
            assert private_trace_ub(x, r, budget, 0.05, RandomStream(i)) == want

    @pytest.mark.parametrize("budget", [zcdp(1.0), pure(1.0)], ids=["zcdp", "pure"])
    @pytest.mark.parametrize("beta", [16.0, 1.0, 0.0, -0.5, math.nan])
    def test_beta_outside_unit_interval_rejected(self, budget, beta):
        # at beta = 16 the offset log(8/beta) is negative, so the zero-noise
        # "upper bound" read 0.986 on data of clipped trace 1.0; at beta <= 0
        # the offset's logarithm raised a bare math domain error
        x = dataset_with_norms(np.ones(8), seed=12)
        assert x.trace(1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="beta"):
            private_trace_ub(x, 1.0, budget, beta, RandomStream(0, zero_noise=True))

    def test_noised_where_r_squared_over_n_underflows(self):
        # r^2/n = 2^-1076 is 0 in float64 while the clipped trace, about
        # 4.3e-320, is not: the release must still be noised
        n, r = 2**16, 2.0**-530
        norms = np.repeat([2.0**-530, 2.0**-532], n // 2)
        x = Dataset(norms.reshape(1, -1))
        tr = x.trace(r)
        assert r * r / n == 0.0 and tr > 0.0
        stream = RandomStream(20)
        released = [private_trace_ub(x, r, zcdp(1e-6), 0.05, stream) for _ in range(20)]
        assert len(set(released)) == 20 and tr not in released
        assert all(v <= r * r for v in released)


class TestDiffQuery:
    """The threshold SVT's queries, threshold_queries(bounds, x, tr_hat, r,
    end) at tau = r, r/2, ..., 2^end."""

    def test_negative_when_no_bias(self):
        x = dataset_with_norms(np.full(30, 0.4), seed=16)
        for family in FAMILIES.values():
            bounds = family.noise_bounds(0.1, 0.05, x.dim, x.count)
            assert query_at(bounds, x, 0.16, 0.5, -1) < 0.0

    def test_nondecreasing_down_the_grid(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            norms = rng.uniform(0.0, 1.0, size=60)
            x = dataset_with_norms(norms, seed=int(rng.integers(1 << 31)))
            for family in FAMILIES.values():
                bounds = family.noise_bounds(0.1, 0.05, x.dim, x.count)
                values = list(threshold_queries(bounds, x, 0.7, 1.0, -23))
                assert len(values) == 24
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
            xa = Dataset(norms.reshape(1, -1))
            xb = Dataset(primed.reshape(1, -1))
            tr_hat = r * r / 2
            bounds = GAUSSIAN.noise_bounds(0.1, 0.05, 4, n)
            end = int(math.log2(r)) - 7
            qa = threshold_queries(bounds, xa, tr_hat, r, end)
            qb = threshold_queries(bounds, xb, tr_hat, r, end)
            for a, b in zip(qa, qb, strict=True):
                assert abs(a - b) <= 1.0 + slack

    def test_tiny_radius_is_scale_invariant(self):
        # scaling every norm by 2^-k, r by 2^-k and tr_hat by 4^-k leaves the
        # normalized query unchanged; at r = 2^-531 the factor n/(4 r^2)
        # overflows, and the query must still equal the one at r = 2^-1 bit
        # for bit (tr_hat = 1/8 stays exact at both scales)
        k, n = 530, 50
        norms = np.linspace(0.01, 0.5, n)
        x = Dataset(norms.reshape(1, -1))
        x_tiny = Dataset(np.ldexp(norms, -k).reshape(1, -1))
        assert build_histogram(x_tiny) == {s - k: c for s, c in build_histogram(x).items()}
        for family in FAMILIES.values():
            bounds = family.noise_bounds(0.1, 0.05, 4, n)
            queries = list(threshold_queries(bounds, x, 0.125, 0.5, -39))
            tr_tiny, r_tiny = math.ldexp(0.125, -2 * k), 2.0 ** (-1 - k)
            tiny = list(threshold_queries(bounds, x_tiny, tr_tiny, r_tiny, -39 - k))
            assert len(queries) == 39 and all(math.isfinite(q) for q in tiny)
            assert tiny == queries

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
        real_queries = adaptive.threshold_queries

        def recording(*args):
            values = []
            seen.append(values)
            for query in real_queries(*args):
                values.append(query)
                yield query

        monkeypatch.setattr(adaptive, "threshold_queries", recording)
        x = synth(SynthSpec(n=256, d=8, bins=4, seed=5))
        rep = run(x, budget, 0.05, RandomStream(5).child(label))
        assert rep.selection.r_tilde == r_tilde
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
            assert sum(GAUSSIAN.ledger(rho).values()) == rho
            assert rep.budget_spent == zcdp(rho)

    def test_zero_noise_threshold_matches_grid_oracle_interior(self):
        # large d keeps the noise bound above the first bias step, so the
        # crossover sits strictly inside the grid (r=1, tau=1/2 here)
        norms = np.concatenate([np.full(78, 0.6), np.full(1922, 0.01)])
        x = dataset_with_norms(norms, d=400, seed=21)
        rho, beta = 4.0, 0.05
        rep = adaptive_cov(x, rho, beta, RandomStream(0, zero_noise=True))
        r_oracle, tau_oracle = zero_noise_tau_oracle(x, rho, beta)
        assert rep.selection.r_tilde == r_oracle
        assert rep.selection.tau == tau_oracle
        assert rep.selection.tau < r_oracle  # interior selection, not degenerate

    def test_zero_noise_threshold_matches_grid_oracle_radius_capped(self):
        # few heavy outliers: the radius stage clips them and the threshold
        # search stays at the radius
        norms = np.concatenate([np.full(20, 1.0), np.full(1980, 0.05)])
        x = dataset_with_norms(norms, d=16, seed=31)
        rho, beta = 4.0, 0.05
        rep = adaptive_cov(x, rho, beta, RandomStream(0, zero_noise=True))
        r_oracle, tau_oracle = zero_noise_tau_oracle(x, rho, beta)
        assert rep.selection.r_tilde == r_oracle
        assert rep.selection.tau == tau_oracle

    def test_deterministic_given_seed(self):
        x = dataset_with_norms(np.linspace(0.05, 1.0, 128), seed=22)
        a = adaptive_cov(x, 0.5, 0.05, RandomStream(23))
        b = adaptive_cov(x, 0.5, 0.05, RandomStream(23))
        assert np.array_equal(a.estimate, b.estimate)
        assert a.selection == b.selection

    def test_variant_names_dispatched_branch(self):
        x = dataset_with_norms(np.ones(4000), d=8, seed=24)
        rep = adaptive_cov(x, 0.5, 0.05, RandomStream(25))
        assert rep.variant in ("gauss", "separate")
        assert rep.clip_threshold == rep.selection.tau

    def test_unit_norm_data_keeps_full_radius(self):
        # dense unit-norm data: the radius search tops out at 1 and the
        # threshold search keeps tau at the radius
        x = dataset_with_norms(np.ones(4000), d=8, seed=26)
        rep = adaptive_cov(x, 1.0, 0.05, RandomStream(0, zero_noise=True))
        assert rep.selection.r_tilde == 1.0
        assert rep.selection.tau == 1.0


    def test_threshold_grid_stops_at_float_floor(self, monkeypatch):
        # d*n = 1200 puts the nominal grid end at 2^-1200; with no query
        # triggering, the search walks the whole grid, which must stop at
        # 2^-1020, the smallest threshold it may return
        evaluated = []
        real_queries = adaptive.threshold_queries

        def never_triggers(bounds, x, tr_hat, r_tilde, end):
            grid = itertools.count(int(math.log2(r_tilde)), -1)
            # each query evaluated as in a real run, then hidden from the SVT
            for t, _ in zip(grid, real_queries(bounds, x, tr_hat, r_tilde, end)):
                evaluated.append(t)
                yield -math.inf

        monkeypatch.setattr(adaptive, "threshold_queries", never_triggers)
        x = dataset_with_norms(np.full(600, 0.5), d=2, seed=27)
        for run, budget in ((adaptive_cov, 0.5), (adaptive_cov_pure, 1.0)):
            evaluated.clear()
            rep = run(x, budget, 0.05, RandomStream(0, zero_noise=True))
            assert min(evaluated) == -1020
            assert rep.selection.tau == 2.0**-1020

    def test_radius_whose_square_underflows(self):
        # every norm is 2^-600, so r~^2 underflows to 0; the threshold search
        # runs in units of r~ all the same, and the estimate, scaled by
        # tau^2 <= r~^2, is the zero matrix
        x = Dataset(np.vstack([np.full(1000, 2.0**-600), np.zeros(1000)]))
        cases = ((adaptive_cov, GAUSSIAN, 0.5), (adaptive_cov_pure, LAPLACE, 1.0))
        for run, family, value in cases:
            for seed in range(20):
                rep = run(x, value, 0.05, RandomStream(seed))
                r_tilde, tau = rep.selection.r_tilde, rep.selection.tau
                assert r_tilde * r_tilde == 0.0
                assert 2.0**-1020 <= tau <= r_tilde
                assert np.all(np.isfinite(rep.estimate))
                assert np.array_equal(rep.estimate, rep.estimate.T)
                assert not rep.estimate.any()
                assert sum(family.ledger(value).values()) == value
                assert rep.budget_spent == family.budget(value)


class TestSelection:
    """What the adaptive mechanisms selected, as a typed record on the report."""

    def test_report_fields(self):
        names = [f.name for f in dataclasses.fields(MechanismReport)]
        assert names == ["estimate", "budget_spent", "variant", "clip_threshold", "selection"]
        assert Selection._fields == ("r_tilde", "tr_hat", "tau", "branch")

    def test_adaptive_reports_its_selection(self):
        x = synth(SynthSpec(n=500, d=6, bins=4, seed=2))
        for run, value in ((adaptive_cov, 0.5), (adaptive_cov_pure, 1.0)):
            for seed in range(5):
                rep = run(x, value, 0.05, RandomStream(seed))
                assert type(rep.selection) is Selection
                assert rep.selection.tau == rep.clip_threshold
                assert rep.selection.branch == rep.variant
                assert 0.0 < rep.selection.tau <= rep.selection.r_tilde <= 1.0
                assert 0.0 <= rep.selection.tr_hat <= rep.selection.r_tilde**2

    def test_other_mechanisms_select_nothing(self):
        x = synth(SynthSpec(n=200, d=4, bins=2, seed=3))
        stream = RandomStream(4)
        reports = [
            gauss_cov(x, 0.5, stream),
            lap_cov(x, 1.0, stream),
            separate_cov(x, 0.5, stream),
            separate_cov_pure(x, 1.0, stream),
            clip_mechanism(x, zcdp(0.5), 0.5, stream, "separate"),
            clip_mechanism(x, pure(1.0), 0.25, stream, "lap"),
            zero_cov(x),
        ]
        assert all(rep.selection is None for rep in reports)

    @pytest.mark.parametrize("run, family, value", [
        (adaptive_cov, GAUSSIAN, 0.5), (adaptive_cov_pure, LAPLACE, 1.0),
    ], ids=["zcdp", "pure"])  # fmt: skip
    def test_select_does_no_matrix_work(self, run, family, value, monkeypatch):
        # _select reads the norm tables only: no Gram, no spectrum and no
        # final stage, and it selects what the full run reports
        norms = np.concatenate([np.full(40, 0.9), np.linspace(0.01, 0.3, 2000)])
        x = dataset_with_norms(norms, d=8)
        calls = []
        for owner, name in ((Dataset, "gram"), (Dataset, "spectrum"), (adaptive, "_body")):
            real = getattr(owner, name)
            spy = lambda *a, _f=real, _n=name: calls.append(_n) or _f(*a)  # noqa: E731
            monkeypatch.setattr(owner, name, spy)
        streams = [RandomStream(7).child(str(i)) for i in range(20)]
        selections = [adaptive._select(family, x, value, 0.05, s) for s in streams]
        assert calls == []
        monkeypatch.undo()
        for i, selected in enumerate(selections):
            # a fresh stream: _select drew from the children of the one above
            assert run(x, value, 0.05, RandomStream(7).child(str(i))).selection == selected
        assert len(set(selections)) == len(selections)  # each stream draws its own


class TestFinalStage:
    """The adaptive estimate is the clipped mechanism at the chosen threshold
    and branch, on the run's "mech" stream, bit for bit."""

    CASES = [
        (adaptive_cov, GAUSSIAN, lambda: synth(SynthSpec(n=2000, d=4, bins=4, seed=3)), 1.0),
        (adaptive_cov_pure, LAPLACE, lambda: synth(SynthSpec(n=500, d=8, seed=3)), 1.0),
        (adaptive_cov, GAUSSIAN, lambda: skewed_dataset(2000, 1), 0.01),
        (adaptive_cov_pure, LAPLACE, lambda: skewed_dataset(2000, 1), 5.0),
    ]

    def test_matches_clip_mechanism(self):
        branches = set()
        for run, family, data, value in self.CASES:
            x = data()
            rep = run(x, value, 0.05, RandomStream(0))
            budget = family.budget(family.ledger(value)["mechanism"])
            mech = RandomStream(0).child("mech")
            want = clip_mechanism(x, budget, rep.selection.tau, mech, rep.selection.branch)
            assert np.array_equal(rep.estimate, want.estimate)
            assert rep.clip_threshold == want.clip_threshold and rep.variant == want.variant
            branches.add(rep.variant)
        assert branches == {"gauss", "lap", "separate", "separate-pure"}


class TestAdaptiveCovPure:
    def test_all_zero_zero_noise_gives_zero_matrix(self):
        x = Dataset(np.zeros((3, 40)))
        rep = adaptive_cov_pure(x, 1.0, 0.05, RandomStream(0, zero_noise=True))
        assert np.array_equal(rep.estimate, np.zeros((3, 3)))

    def test_ledger_sums_exactly(self):
        x = dataset_with_norms(np.linspace(0.1, 1.0, 64), seed=27)
        for eps in (0.5, 1.0, 3.0):
            rep = adaptive_cov_pure(x, eps, 0.05, RandomStream(28))
            assert sum(LAPLACE.ledger(eps).values()) == eps
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
                min(bounds(trace_stat(clip_dataset(x, tau)), tau)) + tail_gamma(x, tau)
                for tau in (math.ldexp(1.0, t) for t in range(0, -16, -1))
            )
            assert np.mean(errors) <= 25.0 * objective + 2.0**-4096


class TestBudgetLedger:
    def test_ledger_is_the_family_split(self):
        x = dataset_with_norms(np.linspace(0.1, 1.0, 64), seed=19)
        # the run spends the family's ledger; the report keeps no copy
        zcdp_split = {"radius": 0.1, "trace": 0.1, "svt": 0.2, "mechanism": 0.4}
        pure_split = {"radius": 0.5, "trace": 0.5, "svt": 0.5, "mechanism": 0.5}
        for run, family, value, want in (
            (adaptive_cov, GAUSSIAN, 0.8, zcdp_split),
            (adaptive_cov_pure, LAPLACE, 2.0, pure_split),
        ):
            rep = run(x, value, 0.05, RandomStream(20))
            assert family.ledger(value) == want
            assert rep.budget_spent == family.budget(value)

    def test_composed_once_per_value(self, monkeypatch):
        composed = []
        real = mechanisms.compose
        monkeypatch.setattr(mechanisms, "compose", lambda b: composed.append(1) or real(b))
        for family in (GAUSSIAN, LAPLACE):
            composed.clear()
            assert family.ledger(0.3125) is family.ledger(0.3125)
            assert composed == [1]

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
