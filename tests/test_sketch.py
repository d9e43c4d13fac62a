"""The summaries a Dataset keeps against the columns they summarise.

Every statistic the mechanisms read from a dataset's kept summaries (its
Grams, spectra and dyadic buckets) is recomputed here from the columns
(``covariance(clip_dataset(...))``, per-vector norm loops), on
generated datasets whose norms span several dyadic buckets and on the
degenerate shapes: zero columns, n=1, d=1, norms exactly 2^k, and columns
whose norms underflow.  Then what is kept, and for how long: the bucket table
once, at construction, each Gram and spectrum once, a clipped one only for the
last exponent asked for, nothing per radius, and nothing that refers back to
the dataset.
"""

import gc
import math
import sys
import threading
import tracemalloc
import weakref
from collections.abc import Mapping

import numpy as np
import pytest
from hypothesis import given, settings

from oracle_utils import bucket_exponent, dataset_from_norms, datasets

import dpcov.adaptive as adaptive
import dpcov.linalg as linalg
from dpcov.adaptive import adaptive_cov, adaptive_cov_pure, build_histogram, threshold_queries
from dpcov.datagen import SynthSpec, synth
from dpcov.linalg import Dataset, clip_dataset, covariance, eig_sym, trace_stat
from dpcov.mechanisms import (
    GAUSSIAN,
    LAPLACE,
    clip_mechanism,
    gauss_cov,
    lap_cov,
    pure,
    separate_cov,
    separate_cov_pure,
    zcdp,
)
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
    assert np.array_equal(x.gram(), covariance(x))
    assert x.max_norm == float(np.max(x.norms()))
    norms = x.norms()
    for j in range(0, 14):
        level = math.ldexp(1.0, -j)
        assert x.count_above(level) == int(np.sum(norms > level))
    assert build_histogram(x) == bucket_counts(norms)
    for t in clip_exponents(x):
        tau = math.ldexp(1.0, t)
        clipped = clip_dataset(x, tau)
        want = covariance(clipped)
        gram = x.gram(tau)
        assert rel_fro(gram * tau * tau, want) <= 1e-12
        assert np.array_equal(gram, gram.T) and not gram.flags.writeable
        check_spectrum(x, tau, gram)
        tr = trace_stat(clipped)
        assert abs(x.trace(tau) - tr) <= 1e-12 * max(tr, 1e-300)
        # clipped norms are min(||x||, tau) exactly
        exact = np.minimum(norms, tau)
        assert min(x.max_norm, tau) == float(np.max(exact))
        for j in range(0, 14):
            level = math.ldexp(1.0, -j)
            above = x.count_above(level) if level < tau else 0
            assert above == int(np.sum(exact > level))
        hist = build_histogram(x, tau)
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
    top = bucket_exponent(x.max_norm) + 1 if x.max_norm > 0 else 0
    for t in (top, top + 3, -1000):
        tau = math.ldexp(1.0, t)
        want = covariance(Dataset(clip_dataset(x, tau).columns / tau))
        assert rel_fro(x.gram(tau), want) <= 1e-12
        check_spectrum(x, tau, want)


def check_spectrum(x, tau, want):
    """``spectrum(tau)`` is read-only, descending, and within 1e-12 (relative
    to ``want``'s Frobenius norm) of the eigenvalues of ``want``."""
    spectrum = x.spectrum(tau)
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
        assert x.max_norm == 0.0 and x.trace() == 0.0
        assert build_histogram(x) == {}

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
        assert x.count_above(0.25) == 3
        assert build_histogram(x, 0.5) == {-2: 3, -4: 1, -7: 2}

    def test_underflowing_norms(self):
        # squares of these entries underflow, so a plain sum of squares gives
        # norms of 0 (subnormal entries) or coarse ones; the norm scan
        # rescales such columns, and the kept summaries must agree with the
        # Dataset path
        cols = np.array([[5e-324, 1e-310, 3e-160, 0.5], [0.0, 2e-309, 0.0, 0.25]])
        x = Dataset(cols)
        check_against_dataset_path(x)
        stream = RandomStream(3, zero_noise=True)
        assert np.array_equal(gauss_cov(x, 1.0, stream).estimate, covariance(x))
        assert np.all(np.isfinite(adaptive_cov(x, 1.0, 0.05, RandomStream(4)).estimate))

    def test_norms_whose_squares_overflow(self):
        # 1e200^2 is past the float range: the unclipped trace is inf, as a
        # float sum of the squares is, and no overflow warning escapes
        x = Dataset(np.array([[1e200, 0.5, 0.0], [0.0, 0.0, 0.25]]))
        assert x.count_above(1.0) == 1 and x.trace() == math.inf
        assert x.trace(1.0) == (1.0 + 0.25 + 0.0625) / 3
        assert x.histogram() == {664: 1, -2: 1, -3: 1}
        assert x.histogram(1.0) == {-1: 1, -2: 1, -3: 1}

    def test_norm_past_the_float_range(self):
        # the first norm is inf: it lies above every finite radius, so it is
        # counted and clipped at each, and the clipped trace stays finite
        x = Dataset(np.array([[1.5e308, 1e200, 0.5, 0.0], [1.5e308, 0.0, 0.0, 0.25]]))
        assert x.norms()[0] == math.inf and x.count_above(math.inf) == 0
        for t in (0, 700, 1023):
            r = math.ldexp(1.0, t)
            assert x.count_above(r) == int(np.sum(x.norms() > r)) == (1 if t > 664 else 2)
        assert x.count_above(1.0) == 2 and x.trace() == math.inf
        assert x.trace(1.0) == (1.0 + 1.0 + 0.25 + 0.0625) / 4
        assert x.histogram(1.0) == {-1: 2, -2: 1, -3: 1}
        assert x.histogram() == {1024: 1, 664: 1, -2: 1, -3: 1}
        # the trace stage's noise is calibrated to r^2/n: one inf column
        # moves the clipped trace by at most that
        y = Dataset(x.columns[:, 1:])
        assert abs(x.trace(1.0) * 4 - y.trace(1.0) * 3) <= 1.0

    def test_radius_not_a_power_of_two_raises(self):
        # the bucket table answers only at bucket edges, r = 2^t
        x = dataset_from_norms([0.9, 0.3, 0.1, 0.0], d=3, seed=4)
        for ask in (x.count_above, x.trace, x.histogram):
            for r in (0.3, 0.0, -0.5):
                with pytest.raises(ValueError, match="power of two"):
                    ask(r)
        assert x.count_above(math.inf) == 0
        assert x.trace(math.inf) == x.trace() and x.histogram(math.inf) == x.histogram()


class TestMechanismsOnSketch:
    """A dataset builds its summaries on first need: a dataset that has built
    them gives the bytes of a fresh one."""

    def test_same_bytes_as_dataset(self):
        spec = SynthSpec(n=500, d=10, bins=3, seed=7)
        warm = synth(spec)
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
            call(warm, RandomStream(9).child(str(i)))
        for i, call in enumerate(calls):
            a = call(synth(spec), RandomStream(8).child(str(i)))
            b = call(warm, RandomStream(8).child(str(i)))
            assert np.array_equal(a.estimate, b.estimate)
            assert a.selection == b.selection

    def test_spectrum_is_memoised_and_exact(self):
        x = synth(SynthSpec(n=400, d=9, bins=2, seed=9))
        separate_cov(x, 0.5, RandomStream(1))
        first = x.spectrum()
        separate_cov_pure(x, 1.0, RandomStream(2))
        assert x.spectrum() is first
        assert np.max(np.abs(first - eig_sym(covariance(x)).values)) <= 1e-14
        clipped = x.gram(0.25)
        assert x.gram(0.25) is clipped
        assert x.spectrum(0.25) is x.spectrum(0.25)

    def test_ball_check_reads_clipped_norms(self):
        x = Dataset(2.0 * np.eye(3))
        with pytest.raises(ValueError, match="norms exceed 1"):
            gauss_cov(x, 1.0, RandomStream(0))

    def test_bucket_grams_never_copy_the_data(self):
        d, n = 32, 40_000
        x = synth(SynthSpec(n=n, d=d, bins=4, seed=11))
        tracemalloc.start()
        try:
            x.gram(2.0**-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * n / 4


def count_gram_builds(monkeypatch) -> tuple[list, list, list]:
    """Spies on the builds of the unclipped Gram (``covariance``, which
    ``Dataset.gram`` calls), of clipped Grams (their exponents) and of
    spectra."""
    grams, clipped, spectra = [], [], []
    covariance_, unit_cov, eigvalsh = linalg.covariance, Dataset._unit_cov, np.linalg.eigvalsh
    monkeypatch.setattr(linalg, "covariance", lambda x: grams.append(1) or covariance_(x))
    monkeypatch.setattr(Dataset, "_unit_cov", lambda x, t: clipped.append(t) or unit_cov(x, t))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spectra.append(1) or eigvalsh(a))
    return grams, clipped, spectra


PUBLIC_CALLS = {
    "gauss": lambda x, s: gauss_cov(x, 0.3, s),
    "lap": lambda x, s: lap_cov(x, 1.0, s),
    "separate": lambda x, s: separate_cov(x, 0.3, s),
    "separate-pure": lambda x, s: separate_cov_pure(x, 1.0, s),
    "clip-gauss": lambda x, s: clip_mechanism(x, zcdp(0.3), 0.25, s, "gauss"),
    "clip-separate-pure": lambda x, s: clip_mechanism(x, pure(1.0), 0.25, s, "separate-pure"),
    "adaptive": lambda x, s: adaptive_cov(x, 0.3, 0.05, s),
    "adaptive-pure": lambda x, s: adaptive_cov_pure(x, 1.0, 0.05, s),
}


# What a Dataset keeps: its fields, set at construction, and nothing else.
KEPT = {"columns", "_norms", "max_norm", "_counts", "_squares", "_slots", "_lock"}


class TestLifetime:
    """What a dataset keeps, and for how long: the norms and bucket table
    from construction; each Gram and spectrum from first need, of the
    clipped ones only the last exponent's; nothing per radius; and nothing
    that refers back to the dataset, so it is freed with its last
    reference."""

    def test_bucket_table_built_once_at_construction(self, monkeypatch):
        calls = []
        norm_bucket = linalg._norm_bucket
        monkeypatch.setattr(linalg, "_norm_bucket", lambda a: calls.append(1) or norm_bucket(a))
        x = synth(SynthSpec(n=500, d=5, bins=4, seed=41))
        assert len(calls) == 1
        for r in (math.inf, 1.0, 0.25, 2.0**-6):
            x.count_above(r), x.trace(r), x.histogram(r)
        adaptive_cov(x, 0.5, 0.05, RandomStream(42))
        adaptive_cov_pure(x, 1.0, 0.05, RandomStream(43))
        assert len(calls) == 1
        clip_dataset(x, 0.25)  # a new dataset builds its own table
        assert len(calls) == 2

    def test_unclipped_histogram_is_the_kept_counts(self):
        x = synth(SynthSpec(n=500, d=5, bins=4, seed=44))
        hist = x.histogram()
        assert x.histogram() is hist and x.histogram(math.inf) is hist
        assert build_histogram(x) is hist and hist == bucket_counts(x.norms())
        with pytest.raises(TypeError):
            hist[0] = 1

    def test_keeps_nothing_per_radius(self):
        # runs at several radii and two clip thresholds leave the fields
        # set at construction and at most two Gram slots: the unclipped one
        # and the last exponent's
        x = synth(SynthSpec(n=600, d=6, bins=4, seed=45))
        counts, squares = x.histogram(), dict(x._squares)
        for i in range(4):
            adaptive_cov(x, 0.5, 0.05, RandomStream(46).child(str(i)))
            adaptive_cov_pure(x, 1.0, 0.05, RandomStream(47).child(str(i)))
        for r in (1.0, 0.5, 0.125, 2.0**-9):
            x.trace(r), x.histogram(r), x.count_above(r)
        x.spectrum()
        x.spectrum(0.25), x.spectrum(0.125)
        assert set(vars(x)) == KEPT
        assert set(x._slots) == {None, -3}
        assert x.histogram() is counts and x._squares == squares

    @pytest.mark.parametrize("name", sorted(PUBLIC_CALLS))
    def test_repeated_calls_build_each_gram_once(self, name, monkeypatch):
        x = synth(SynthSpec(n=600, d=7, bins=3, seed=21))
        grams, clipped, spectra = count_gram_builds(monkeypatch)
        call = PUBLIC_CALLS[name]
        taus = [call(x, RandomStream(22).child(str(i))).clip_threshold for i in range(6)]
        reads_spectrum = "separate" in name
        if taus[0] is None:  # plain or separate: the unclipped Gram
            assert (len(grams), clipped, len(spectra)) == (1, [], int(reads_spectrum))
            return
        # clipped: one build per run of calls at one exponent, and the
        # unclipped Gram never
        runs = [t for i, t in enumerate(taus) if i == 0 or taus[i - 1] != t]
        assert grams == [] and clipped == [int(math.log2(t)) for t in runs]
        if name.startswith("clip"):
            assert len(runs) == 1 and len(spectra) == int(reads_spectrum)

    def test_keeps_the_last_exponents_gram(self):
        # asking for t1 and then t2 drops t1's Gram and spectrum, with no
        # gc.collect(); the unclipped Gram and t2's stay
        d, n = 64, 4000
        x = synth(SynthSpec(n=n, d=d, bins=8, seed=1))
        buckets = occupied_buckets(x)
        assert len(buckets) == 8
        gram = x.gram()
        first = [weakref.ref(x.gram(0.5)), weakref.ref(x.spectrum(0.5))]
        second = x.gram(0.25), x.spectrum(0.25)
        assert [ref() for ref in first] == [None, None]
        assert x.gram() is gram
        assert x.gram(0.25) is second[0] and x.spectrum(0.25) is second[1]
        # the same, by bytes held: every exponent asked for in turn leaves
        # two d x d Grams and two spectra
        exponents = range(buckets[-1] + 1, buckets[0] - 1, -1)
        del gram, second
        x = synth(SynthSpec(n=n, d=d, bins=8, seed=1))
        tracemalloc.start()
        try:
            x.spectrum()
            for t in exponents:
                x.spectrum(math.ldexp(1.0, t))
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained <= 8 * (2 * d * d + 2 * d) + 4096

    def test_keeps_no_array_of_length_n(self):
        # the norms are the one array of n entries: the radius, trace and
        # histogram tables are per dyadic bucket, not per column
        x = synth(SynthSpec(n=700, d=6, bins=4, seed=29))
        adaptive_cov(x, 0.5, 0.05, RandomStream(30))
        adaptive_cov_pure(x, 1.0, 0.05, RandomStream(31))

        def arrays(value):
            if isinstance(value, np.ndarray):
                yield value
            elif isinstance(value, Mapping):
                for v in value.values():
                    yield from arrays(v)
            elif isinstance(value, (tuple, list)):
                for v in value:
                    yield from arrays(v)

        kept = list(arrays([x._counts, x._squares, x._slots]))
        assert kept and all(x.count not in a.shape for a in kept)

    def test_freed_with_its_last_reference(self):
        x = synth(SynthSpec(n=800, d=6, bins=4, seed=23))
        for i, call in enumerate(PUBLIC_CALLS.values()):
            call(x, RandomStream(24).child(str(i)))
        x.spectrum()
        bounds = GAUSSIAN.noise_bounds(0.05, 0.025, x.dim, x.count)
        list(threshold_queries(bounds, x, 0.1, 0.5, -3))
        assert len(x._slots) == 2 and x._slots[None][1] is not None
        ref = weakref.ref(x)
        enabled = gc.isenabled()
        gc.disable()  # so no automatic collection can free a cycle
        try:
            del x
            assert ref() is None
        finally:
            if enabled:
                gc.enable()


class TestSharedAcrossThreads:
    def test_lazy_parts_are_built_once(self, monkeypatch):
        # more threads than cores, switching often, all asking for one
        # threshold at a time: every thread must get the one cached Gram and
        # spectrum per key, never a second build
        x = synth(SynthSpec(n=3000, d=12, bins=4, seed=13))
        taus = [None] + [math.ldexp(1.0, t) for t in range(0, -6, -1)]
        seen = [None] * 8
        errors = []
        eigvalsh, solves = np.linalg.eigvalsh, []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solves.append(1) or eigvalsh(a))
        step = threading.Barrier(len(seen))

        def work(i):
            try:
                got = []
                for tau in taus:
                    step.wait(timeout=60)
                    got.append((x.gram(tau), x.spectrum(tau)))
                seen[i] = got
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

    def test_mixed_exponents_each_get_their_own_gram(self):
        # threads asking for different thresholds at once evict each other's
        # clipped Gram: each must still get its own threshold's bytes
        x = synth(SynthSpec(n=3000, d=12, bins=4, seed=15))
        taus = [None] + [math.ldexp(1.0, t) for t in range(0, -6, -1)]
        fresh = synth(SynthSpec(n=3000, d=12, bins=4, seed=15))
        want = {tau: (fresh.gram(tau).copy(), fresh.spectrum(tau).copy()) for tau in taus}
        errors, wrong = [], []

        def work(i):
            try:
                for k in range(20):
                    tau = taus[(i + k) % len(taus)]
                    got = x.gram(tau), x.spectrum(tau)
                    if not all(map(np.array_equal, got, want[tau])):
                        wrong.append((i, k, tau))
            except Exception as exc:  # reported below; a thread must not die silently
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_adaptive_tables_are_equal_across_threads(self):
        # the counts, clipped traces and histograms that both SVT stages
        # walk, computed afresh on every call: eight threads at once read
        # the values of a dataset that no other thread touched
        x = synth(SynthSpec(n=3000, d=12, bins=4, seed=14))
        radii = [math.ldexp(1.0, t) for t in range(0, -6, -1)]
        bounds = GAUSSIAN.noise_bounds(0.05, 0.025, x.dim, x.count)

        def tables(v):
            got = [dict(v.histogram()), v.count_above(1.0)]
            for r in radii:
                got += [list(threshold_queries(bounds, v, 0.5 * r * r, r, -7))]
                got += [v.trace(r), dict(v.histogram(r)), v.count_above(r)]
            return got

        want = tables(synth(SynthSpec(n=3000, d=12, bins=4, seed=14)))
        seen = [None] * 8
        errors = []

        def work(i):
            try:
                adaptive.priv_radius(x, 1.0, 0.1, 2.0**-30, RandomStream(i))
                seen[i] = [tables(x) for _ in range(5)]
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
        assert all(got == want for runs in seen for got in runs)
        assert set(vars(x)) == KEPT and x._slots == {}


class TestReadOnlyTables:
    """What a dataset and the noise families keep is handed out read-only,
    so a caller that writes to it raises and the next call is unchanged."""

    def test_histogram(self):
        x = dataset_from_norms([0.9, 0.6, 0.3, 0.1, 0.0], 3, seed=1)
        want = bucket_counts(np.minimum(x.norms(), 0.5))
        hist = build_histogram(x, 0.5)
        assert hist == want
        with pytest.raises(TypeError):
            hist[-1] = 99
        with pytest.raises(AttributeError):
            hist.clear()
        fresh = dataset_from_norms([0.9, 0.6, 0.3, 0.1, 0.0], 3, seed=1)
        assert build_histogram(x, 0.5) == want == build_histogram(fresh, 0.5)

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
        # a report keeps no copy of the ledger: the run spent the family's
        # kept one, which a caller cannot change between runs
        x = dataset_from_norms(np.linspace(0.1, 1.0, 64), 4, seed=2)
        first = adaptive_cov(x, 0.8, 0.05, RandomStream(20))
        assert not hasattr(first, "details")
        with pytest.raises(TypeError):
            GAUSSIAN.ledger(0.8)["mechanism"] = 0.8
        again = adaptive_cov(x, 0.8, 0.05, RandomStream(20))
        assert np.array_equal(again.estimate, first.estimate)
        assert again.selection == first.selection
        want = {"radius": 0.1, "trace": 0.1, "svt": 0.2, "mechanism": 0.4}
        assert GAUSSIAN.ledger(0.8) == want


class TestTinyRadiusRegression:
    """The private radius can land far below every norm (2^-525 here); the
    stages clip to it themselves, so the clipped norms are min(||x||, r) = r
    exactly, not recomputed norms that overshoot r."""

    def test_reported_stream(self):
        x = synth(SynthSpec(n=256, d=8, bins=4, seed=5))
        rep = adaptive_cov(x, 0.1, 0.05, RandomStream(5).child("bench/adaptive/11"))
        assert rep.selection.r_tilde == 2.0**-525
        assert np.all(np.isfinite(rep.estimate))
        assert np.array_equal(rep.estimate, rep.estimate.T)

    def test_every_stream_succeeds(self):
        x = synth(SynthSpec(n=256, d=8, bins=4, seed=5))
        for i in range(400):
            rep = adaptive_cov(x, 0.1, 0.05, RandomStream(5).child(f"bench/adaptive/{i}"))
            assert np.all(np.isfinite(rep.estimate))
            assert np.array_equal(rep.estimate, rep.estimate.T)
