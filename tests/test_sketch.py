"""CovSketch against the Dataset path it replaces.

Every statistic the mechanisms read from a sketch is recomputed here from the
columns (``covariance(clip_dataset(...))``, per-vector norm loops), on
generated datasets whose norms span several dyadic buckets and on the
degenerate shapes: zero columns, n=1, d=1, norms exactly 2^k, and columns
whose norms underflow.
"""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings

from oracle_utils import bucket_exponent, dataset_from_norms, datasets

import dpcov.adaptive as adaptive
from dpcov.adaptive import adaptive_cov, adaptive_cov_pure, build_histogram, threshold_query
from dpcov.datagen import SynthSpec, synth
from dpcov.linalg import CovSketch, Dataset, clip_dataset, covariance, eig_sym, trace_stat
from dpcov.mechanisms import (
    GAUSSIAN,
    LAPLACE,
    clip_mechanism,
    gauss_cov,
    lap_cov,
    separate_cov,
    separate_cov_pure,
)
from dpcov.privacy import pure, zcdp
from dpcov.randomness import RandomStream


def occupied_buckets(x):
    return sorted({bucket_exponent(v) for v in x.norms() if v > 0})


def rel_fro(a, b):
    scale = np.linalg.norm(b)
    return np.linalg.norm(a - b) / scale if scale > 0 else np.linalg.norm(a - b)


def bucket_counts(norms):
    """Per-vector dyadic histogram, the oracle for ``build_histogram``."""
    counts: dict[int, int] = {}
    for v in norms:
        if v > 0:
            counts[bucket_exponent(v)] = counts.get(bucket_exponent(v), 0) + 1
    return counts


def clip_exponents(x):
    """Every t from one above the top occupied bucket to 4 below the lowest,
    stopping at 2^-1074, the smallest positive double."""
    buckets = occupied_buckets(x)
    if not buckets:
        return range(0, -5, -1)
    return range(min(buckets[-1] + 1, 0), max(buckets[0] - 5, -1075), -1)


def check_against_dataset_path(x):
    sketch = CovSketch(x)
    assert np.array_equal(sketch.gram(), covariance(x))
    assert sketch.max_norm == float(np.max(x.norms()))
    norms = x.norms()
    for j in range(0, 14):
        level = math.ldexp(1.0, -j)
        assert sketch.count_above(level) == int(np.sum(norms > level))
    assert build_histogram(sketch) == bucket_counts(norms)
    for t in clip_exponents(x):
        tau = math.ldexp(1.0, t)
        clipped = clip_dataset(x, tau)
        want = covariance(clipped)
        gram = sketch.gram(tau)
        assert rel_fro(gram * tau * tau, want) <= 1e-12
        assert np.array_equal(gram, gram.T) and not gram.flags.writeable
        check_spectrum(sketch, tau, gram)
        tr = trace_stat(clipped)
        assert abs(sketch.trace(tau) - tr) <= 1e-12 * max(tr, 1e-300)
        # clipped norms are min(||x||, tau) exactly
        exact = np.minimum(norms, tau)
        assert min(sketch.max_norm, tau) == float(np.max(exact))
        for j in range(0, 14):
            level = math.ldexp(1.0, -j)
            above = sketch.count_above(level) if level < tau else 0
            assert above == int(np.sum(exact > level))
        hist = build_histogram(sketch, tau)
        assert hist == bucket_counts(exact)
        # the Dataset path recomputes clipped norms, which may land an ulp on
        # either side of tau; away from that boundary the counts agree
        direct = build_histogram(clipped)
        boundary = {t - 1, t}
        assert {s: c for s, c in hist.items() if s not in boundary} == {
            s: c for s, c in direct.items() if s not in boundary
        }
        assert sum(hist.values()) == sum(direct.values())
    # thresholds at or above every norm (at it when the largest norm is 2^k),
    # and far below every norm: compared in unit-ball form, where tau^2 would
    # underflow
    top = bucket_exponent(sketch.max_norm) + 1 if sketch.max_norm > 0 else 0
    for t in (top, top + 3, -1000):
        tau = math.ldexp(1.0, t)
        want = covariance(Dataset(clip_dataset(x, tau).columns / tau))
        assert rel_fro(sketch.gram(tau), want) <= 1e-12
        check_spectrum(sketch, tau, want)


def check_spectrum(sketch, tau, want):
    """``spectrum(tau)`` is read-only, descending, and within 1e-12 (relative
    to ``want``'s Frobenius norm) of the eigenvalues of ``want``."""
    spectrum = sketch.spectrum(tau)
    assert not spectrum.flags.writeable and np.all(np.diff(spectrum) <= 0)
    gap = np.max(np.abs(spectrum - np.linalg.eigvalsh(want)[::-1]))
    assert gap <= 1e-12 * max(np.linalg.norm(want), 1e-300)


class TestEquivalence:
    @settings(max_examples=80, deadline=None)
    @given(datasets())
    def test_matches_dataset_path(self, x):
        check_against_dataset_path(x)

    def test_synthetic_workload_shape(self):
        x = synth(SynthSpec(n=3000, d=12, bins=4, seed=3))
        check_against_dataset_path(x)


class TestDegenerate:
    def test_all_zero_columns(self):
        x = Dataset(np.zeros((3, 5)))
        check_against_dataset_path(x)
        sketch = CovSketch(x)
        assert sketch.max_norm == 0.0 and sketch.trace() == 0.0
        assert build_histogram(sketch) == {}

    def test_some_zero_columns(self):
        check_against_dataset_path(dataset_from_norms([0.0, 0.3, 0.0, 0.9, 0.05], d=3, seed=1))

    def test_single_column(self):
        check_against_dataset_path(dataset_from_norms([0.37], d=4, seed=2))

    def test_one_dimension(self):
        x = Dataset(np.array([[0.5, -0.25, 0.7, 0.0, -1.0, 0.01]]))
        check_against_dataset_path(x)

    def test_norms_exactly_powers_of_two(self):
        cols = np.zeros((3, 6))
        for i, k in enumerate((0, -1, -1, -3, -6, -6)):
            cols[i % 3, i] = math.ldexp(1.0, k)
        x = Dataset(cols)
        assert set(x.norms()) == {1.0, 0.5, 0.125, 2.0**-6}
        check_against_dataset_path(x)
        # a norm equal to the threshold is not clipped and sits in the bucket below it
        assert CovSketch(x).count_above(0.25) == 3
        assert build_histogram(x, 0.5) == {-2: 3, -4: 1, -7: 2}

    def test_underflowing_norms(self):
        # squares of these entries underflow, so a plain sum of squares gives
        # norms of 0 (subnormal entries) or coarse ones; the norm scan
        # rescales such columns, and the sketch must agree with the Dataset
        # path
        cols = np.array([[5e-324, 1e-310, 3e-160, 0.5], [0.0, 2e-309, 0.0, 0.25]])
        x = Dataset(cols)
        check_against_dataset_path(x)
        stream = RandomStream(3, zero_noise=True)
        assert np.array_equal(gauss_cov(x, 1.0, stream).estimate, covariance(x))
        assert np.all(np.isfinite(adaptive_cov(x, 1.0, 0.05, RandomStream(4)).estimate))


class TestMechanismsOnSketch:
    """A dataset becomes a sketch on entry: passing either gives the same bytes."""

    def test_same_bytes_as_dataset(self):
        x = synth(SynthSpec(n=500, d=10, bins=3, seed=7))
        sketch = CovSketch(x)
        calls = (
            lambda v, s: gauss_cov(v, 0.3, s),
            lambda v, s: lap_cov(v, 1.0, s),
            lambda v, s: separate_cov(v, 0.3, s),
            lambda v, s: separate_cov_pure(v, 1.0, s),
            lambda v, s: adaptive_cov(v, 0.3, 0.05, s),
            lambda v, s: adaptive_cov_pure(v, 1.0, 0.05, s),
            lambda v, s: clip_mechanism(v, zcdp(0.3), 0.125, s, "separate"),
            lambda v, s: clip_mechanism(v, pure(1.0), 0.25, s, "lap"),
        )
        for i, call in enumerate(calls):
            a = call(x, RandomStream(8).child(str(i)))
            b = call(sketch, RandomStream(8).child(str(i)))
            assert np.array_equal(a.estimate, b.estimate)
            assert a.details == b.details

    def test_spectrum_is_memoised_and_exact(self):
        x = synth(SynthSpec(n=400, d=9, bins=2, seed=9))
        sketch = CovSketch(x)
        separate_cov(sketch, 0.5, RandomStream(1))
        first = sketch.spectrum()
        separate_cov_pure(sketch, 1.0, RandomStream(2))
        assert sketch.spectrum() is first
        assert np.max(np.abs(first - eig_sym(covariance(x)).values)) <= 1e-14
        clipped = sketch.gram(0.25)
        assert sketch.gram(0.25) is clipped
        assert sketch.spectrum(0.25) is sketch.spectrum(0.25)

    def test_ball_check_reads_clipped_norms(self):
        x = Dataset(2.0 * np.eye(3))
        with pytest.raises(ValueError, match="norms exceed 1"):
            gauss_cov(CovSketch(x), 1.0, RandomStream(0))

    def test_bucket_grams_never_copy_the_data(self):
        d, n = 32, 40_000
        x = synth(SynthSpec(n=n, d=d, bins=4, seed=11))
        sketch = CovSketch(x)
        tracemalloc.start()
        try:
            sketch.gram(2.0**-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * n / 4

    def test_retains_one_gram_per_exponent(self):
        # a clipped Gram is built straight from the columns: nothing per
        # bucket outlives it, so the sketch keeps one d x d Gram per exponent
        # asked for, the unclipped Gram (which a threshold at or above every
        # norm reads) and O(n) for the sorted norms
        d, n = 64, 4000
        x = synth(SynthSpec(n=n, d=d, bins=8, seed=1))
        buckets = occupied_buckets(x)
        assert len(buckets) == 8
        sketch = CovSketch(x)
        exponents = range(buckets[-1] + 1, buckets[0] - 1, -1)
        tracemalloc.start()
        try:
            for t in exponents:
                sketch.gram(math.ldexp(1.0, t))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 8 * (d * d * (1 + len(exponents)) + 4 * n)


class TestSharedAcrossThreads:
    def test_lazy_parts_are_built_once(self, monkeypatch):
        # more threads than cores, switching often: every thread must get the
        # one cached Gram and spectrum per key, never a second build
        sketch = CovSketch(synth(SynthSpec(n=3000, d=12, bins=4, seed=13)))
        taus = [None] + [math.ldexp(1.0, t) for t in range(0, -6, -1)]
        seen = [None] * 8
        errors = []
        eigvalsh, solves = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(1) or eigvalsh(a))

        def work(i):
            try:
                seen[i] = [(sketch.gram(tau), sketch.spectrum(tau)) for tau in taus]
            except Exception as exc:  # reported below; a thread must not die silently
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seen))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        for got in seen[1:]:
            assert all(g is h and a is b for (g, a), (h, b) in zip(got, seen[0]))
        assert len(solves) == len(taus)

    def test_adaptive_tables_are_built_once(self, monkeypatch):
        # the radius counts, clipped traces and histograms, and threshold
        # bias tables: one build per key across eight threads, and every
        # thread gets the same object
        sketch = CovSketch(synth(SynthSpec(n=3000, d=12, bins=4, seed=14)))
        radii = [math.ldexp(1.0, t) for t in range(0, -6, -1)]
        bounds = GAUSSIAN.noise_bounds(0.05, 0.025, sketch.dim, sketch.count)
        builds = []
        for owner, name in (
            (CovSketch, "_clipped_trace"),
            (CovSketch, "_clipped_histogram"),
            (adaptive, "_level_counts"),
            (adaptive, "_bias_suffixes"),
        ):
            real = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, _f=real, _n=name: builds.append((_n, a[-1])) or _f(*a)
            )
        seen = [None] * 8
        errors = []

        def work(i):
            try:
                stream = RandomStream(i)
                adaptive.priv_radius(sketch, 1.0, 0.1, 2.0**-30, stream)
                tables = [sketch._cache[("level counts", 30)]]
                for r in radii:
                    tables += [sketch.trace(r), sketch.histogram(r)]
                    threshold_query(bounds, sketch, 0.5 * r * r, r)(-7)
                    tables.append(sketch._cache[("bias suffixes", int(math.log2(r)))])
                seen[i] = tables
            except Exception as exc:  # reported below; a thread must not die silently
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seen))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        for got in seen[1:]:
            assert all(a is b for a, b in zip(got, seen[0]))
        assert len(builds) == len(set(builds))
        # the histogram at r = inf feeds the radius counts
        assert sorted(n for n, _ in builds) == sorted(
            ["_level_counts", "_clipped_histogram"]
            + ["_clipped_trace", "_clipped_histogram", "_bias_suffixes"] * len(radii)
        )


class TestReadOnlyTables:
    """What the sketch and the noise families keep is handed out read-only,
    so a caller that writes to it raises and the next call is unchanged."""

    def test_histogram(self):
        x = dataset_from_norms([0.9, 0.6, 0.3, 0.1, 0.0], 3, seed=1)
        sketch = CovSketch(x)
        want = bucket_counts(np.minimum(x.norms(), 0.5))
        hist = build_histogram(sketch, 0.5)
        assert hist == want
        with pytest.raises(TypeError):
            hist[-1] = 99
        with pytest.raises(AttributeError):
            hist.clear()
        assert build_histogram(sketch, 0.5) == want == build_histogram(CovSketch(x), 0.5)

    def test_ledger(self):
        for family, value, want in (
            (GAUSSIAN, 0.8, {"radius": 0.1, "trace": 0.1, "svt": 0.2, "mechanism": 0.4}),
            (LAPLACE, 2.0, {"radius": 0.5, "trace": 0.5, "svt": 0.5, "mechanism": 0.5}),
        ):
            ledger = family.ledger(value)
            with pytest.raises(TypeError):
                ledger["svt"] = value
            assert family.ledger(value) == want

    def test_ledger_in_a_report(self):
        x = dataset_from_norms(np.linspace(0.1, 1.0, 64), 4, seed=2)
        sketch = CovSketch(x)
        first = adaptive_cov(sketch, 0.8, 0.05, RandomStream(20))
        with pytest.raises(TypeError):
            first.details["ledger"]["mechanism"] = 0.8
        again = adaptive_cov(sketch, 0.8, 0.05, RandomStream(20))
        assert np.array_equal(again.estimate, first.estimate)
        want = {"radius": 0.1, "trace": 0.1, "svt": 0.2, "mechanism": 0.4}
        assert again.details["ledger"] == want


class TestTinyRadiusRegression:
    """The private radius can land far below every norm (2^-525 here); the
    stages clip to it themselves, so the clipped norms are min(||x||, r) = r
    exactly, not recomputed norms that overshoot r."""

    def test_reported_stream(self):
        x = synth(SynthSpec(n=256, d=8, bins=4, seed=5))
        rep = adaptive_cov(x, 0.1, 0.05, RandomStream(5).child("bench/adaptive/11"))
        assert rep.details["r_tilde"] == 2.0**-525
        assert np.all(np.isfinite(rep.estimate))
        assert np.array_equal(rep.estimate, rep.estimate.T)

    def test_every_stream_succeeds(self):
        sketch = CovSketch(synth(SynthSpec(n=256, d=8, bins=4, seed=5)))
        for i in range(400):
            rep = adaptive_cov(sketch, 0.1, 0.05, RandomStream(5).child(f"bench/adaptive/{i}"))
            assert np.all(np.isfinite(rep.estimate))
            assert np.array_equal(rep.estimate, rep.estimate.T)
