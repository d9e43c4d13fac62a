import math
import tracemalloc

import numpy as np
import pytest

from oracle_utils import save_csv, synth_oneshot

import dpcov.datagen
import dpcov.linalg
from dpcov.datagen import SynthSpec, load_csv, rescale_radius, synth, zipf_bin_counts
from dpcov.linalg import _CHUNK_FLOATS, Dataset, clip_dataset, radius, trace_stat


def largest_remainder_oracle(n, bins, skew):
    """Independent largest-remainder rounding of the Zipf quotas."""
    weights = [1.0 / k**skew for k in range(1, bins + 1)]
    total = sum(weights)
    quotas = [n * w / total for w in weights]
    counts = [math.floor(q) for q in quotas]
    remainders = sorted(
        range(bins), key=lambda i: (-(quotas[i] - counts[i]), i)
    )
    for i in remainders[: n - sum(counts)]:
        counts[i] += 1
    return counts


class TestZipfCounts:
    def test_matches_oracle_and_frozen_values(self):
        got = zipf_bin_counts(1000, 4, 3.0)
        assert got == largest_remainder_oracle(1000, 4, 3.0)
        # quotas are (849.14, 106.14, 31.45, 13.27); the one leftover seat
        # goes to the largest remainder (bin 3)
        assert got == [849, 106, 32, 13]
        assert sum(got) == 1000

    def test_random_parameters_sum_to_n(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(10, 5000))
            bins = int(rng.integers(1, 9))
            skew = float(rng.uniform(0.5, 4.0))
            counts = zipf_bin_counts(n, bins, skew)
            assert sum(counts) == n
            assert counts == largest_remainder_oracle(n, bins, skew)

    def test_single_bin_takes_everything(self):
        assert zipf_bin_counts(123, 1, 3.0) == [123]

    def test_extreme_finite_weights_keep_their_counts(self):
        # every weight and share is finite: the counts are the formula's
        assert zipf_bin_counts(100, 3, math.inf) == [100, 0, 0]
        assert zipf_bin_counts(100, 1, math.nan) == [100]
        assert zipf_bin_counts(100, 3, 1000.0) == [100, 0, 0]
        assert zipf_bin_counts(100, 3, -600.0) == [0, 0, 100]

    @pytest.mark.parametrize(
        "bins, skew",
        [
            (3, -1000.0),  # 3^1000 overflows
            (3, math.nan),
            (3, -math.inf),
            (100, -154.1),  # each weight is finite, their sum is not
            (2, -1023.5),  # 2^1023.5 is finite, 100 times it is not
        ],
    )
    def test_non_finite_weights_rejected(self, bins, skew):
        with pytest.raises(ValueError, match="skew"):
            zipf_bin_counts(100, bins, skew)
        with pytest.raises(ValueError, match="skew"):
            SynthSpec(n=100, d=4, bins=bins, skew=skew)


class TestSynth:
    def test_unit_norm_case(self):
        x = synth(SynthSpec(n=300, d=10, bins=1, seed=1))
        assert np.max(np.abs(x.norms() - 1.0)) < 1e-12
        assert abs(trace_stat(x) - 1.0) < 1e-12

    def test_norms_take_dyadic_values(self):
        spec = SynthSpec(n=500, d=8, bins=4, seed=2)
        x = synth(spec)
        counts = zipf_bin_counts(500, 4, 3.0)
        values, tallies = np.unique(np.round(x.norms(), 12), return_counts=True)
        assert list(values) == [2.0 ** (k - 4) for k in (1, 2, 3, 4)]
        assert sorted(tallies.tolist(), reverse=True) == sorted(counts, reverse=True)
        assert x.norms().max() <= 1

    def test_trace_matches_bin_mass(self):
        spec = SynthSpec(n=1000, d=6, bins=4, seed=3)
        x = synth(spec)
        counts = zipf_bin_counts(1000, 4, 3.0)
        want = sum(c / 1000 * 4.0 ** (k - 4) for k, c in zip((1, 2, 3, 4), counts))
        assert abs(trace_stat(x) - want) < 1e-10

    def test_reproducible(self):
        spec = SynthSpec(n=100, d=5, bins=2, seed=4)
        assert np.array_equal(synth(spec).columns, synth(spec).columns)

    def test_distinct_seeds_differ(self):
        a = synth(SynthSpec(n=50, d=4, bins=1, seed=5))
        b = synth(SynthSpec(n=50, d=4, bins=1, seed=6))
        assert not np.array_equal(a.columns, b.columns)

    def test_underpopulated_bins_rejected(self):
        with pytest.raises(ValueError, match="cannot populate bins"):
            SynthSpec(n=3, d=4, bins=5)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("n", dict(n=10.5, d=2)),
            ("n", dict(n=10.0, d=2)),
            ("d", dict(n=10, d=2.0)),
            ("bins", dict(n=10, d=2, bins=1.5)),
            ("bins", dict(n=10, d=2, bins="2")),
        ],
    )
    def test_non_integer_sizes_rejected(self, field, kwargs):
        # a whole float too: synth indexes and allocates with them
        with pytest.raises(ValueError, match=f"take whole numbers, not {field}="):
            SynthSpec(**kwargs)

    def test_numpy_integer_sizes_accepted(self):
        spec = SynthSpec(n=np.int64(10), d=np.int32(2), bins=np.uint8(2))
        assert synth(spec).columns.shape == (2, 10)


def block_rows(d):
    """Rows of Z per block of ``synth`` at dimension d."""
    return max(1, _CHUNK_FLOATS // d)


def block_edges(d):
    """(n, d) one row short of a block, exactly one, one over, the largest
    single block (the remainder rides on it), two blocks, and several blocks
    plus a remainder."""
    rows = block_rows(d)
    return [(n, d) for n in (rows - 1, rows, rows + 1, 2 * rows - 1, 2 * rows, 3 * rows + 7)]


class TestStreamedBuild:
    """``synth`` draws Z into one 1 MiB block buffer, writes one data buffer
    and scans its norms twice."""

    @pytest.mark.parametrize("d, rows", [(1, 2**17), (5, 26214), (32, 4096), (200, 655), (1024, 128)])
    def test_block_rows(self, monkeypatch, d, rows):
        sizes = []
        real = dpcov.datagen._blocks
        monkeypatch.setattr(dpcov.datagen, "_blocks", lambda n, size: sizes.append(size) or real(n, size))
        synth(SynthSpec(n=3, d=d, seed=1))
        assert sizes == [rows] == [block_rows(d)]

    @pytest.mark.parametrize(
        "n, d",
        [
            (2, 1),
            (100, 1),
            (4095, 3),
            (4096, 8),
            (4097, 16),
            (4098, 1),
            (12295, 5),
            (8193, 40),
            *block_edges(5),
            *block_edges(32),
            *block_edges(200),
        ],
    )
    def test_bit_equal_to_oneshot_formula(self, n, d):
        for bins in range(1, min(n, 8) + 1):
            spec = SynthSpec(n=n, d=d, bins=bins, seed=100 * bins + d)
            assert np.array_equal(synth(spec).columns, synth_oneshot(spec)), bins

    @pytest.mark.parametrize("n, d, bins", [(50_000, 200, 4), (4096, 1024, 1), (2000, 16, 8)])
    def test_benchmark_shapes_bit_equal(self, n, d, bins):
        spec = SynthSpec(n=n, d=d, bins=bins, seed=101)
        assert np.array_equal(synth(spec).columns, synth_oneshot(spec))

    def test_other_shapes_agree_to_rounding(self):
        # the BLAS product of a row block need not round like the same rows
        # of the one-shot product; the difference is a last-bit one
        spec = SynthSpec(n=3 * block_rows(226) + 1, d=226, bins=3, seed=2)
        got, want = synth(spec).columns, synth_oneshot(spec)
        assert np.max(np.abs(got - want) / np.linalg.norm(want, axis=0)) <= 8 * np.finfo(float).eps

    def test_peak_memory_is_one_buffer(self):
        d, n = 32, 100_000
        tracemalloc.start()
        try:
            x = synth(SynthSpec(n=n, d=d, bins=4, seed=1))
            x.gram()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * (8 * d * n)

    def test_wide_build_holds_one_block(self):
        # the block buffer is 1 MiB; the full-size Z of a one-block draw
        # would be another 32 MiB
        d, n = 1024, 4096
        tracemalloc.start()
        try:
            synth(SynthSpec(n=n, d=d, seed=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (d * n + d * d) + 16 * 2**20

    def test_norm_scans_per_build(self, monkeypatch):
        scanned = []
        real = dpcov.linalg.column_norms

        def counting(cols):
            scanned.append(cols.shape)
            return real(cols)

        monkeypatch.setattr(dpcov.linalg, "column_norms", counting)
        monkeypatch.setattr(dpcov.datagen, "column_norms", counting)
        x = synth(SynthSpec(n=3000, d=6, bins=4, seed=9))
        x.gram()
        radius(x)
        # once before scaling, once on the final data
        assert scanned == [(6, 3000), (6, 3000)]
        scanned.clear()
        clip_dataset(x, 0.25)
        assert scanned == [(6, 3000)]


class TestRescaleRadius:
    def test_small_radius_doubles_up(self):
        cols = np.zeros((2, 3))
        cols[0] = [0.3, 0.1, 0.05]
        x = rescale_radius(Dataset(cols))
        assert abs(radius(x) - 0.6) < 1e-15

    def test_radius_one_unchanged(self):
        x = Dataset(np.eye(3))
        assert rescale_radius(x) is x

    def test_lands_in_half_open_interval(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            cols = rng.standard_normal((3, 10)) * rng.uniform(1e-6, 1e3)
            r = radius(rescale_radius(Dataset(cols)))
            assert 0.5 < r <= 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate dataset"):
            rescale_radius(Dataset(np.zeros((2, 2))))

    def test_huge_entries(self):
        # squares of these entries overflow; the norm and the rescale do not,
        # nor does the scale 2^1024 of a radius above 2^1023
        for cols in ([[1e200, 1.0], [1e200, 0.0]], [[1e308, 1.0], [1e308, 2.0]]):
            x = Dataset(np.array(cols))
            assert math.isfinite(radius(x))
            r = radius(rescale_radius(x))
            assert 0.5 < r <= 1.0

    def test_norm_past_the_float_range(self):
        # the norm is inf, so the scale is read in units of the largest entry
        for cols, exponent in (
            ([[1.5e308, 0.1], [1.5e308, 0.2]], 1025),
            ([[1.7e308] * 3] * 16, 1026),
            ([[-1e308, 5e-324], [1.7e308, 0.0]], 1025),
            ([[2.0**1023]] * 4, 1024),  # rescaled norm exactly 1
        ):
            x = Dataset(np.array(cols))
            assert x.max_norm == math.inf
            rescaled = rescale_radius(x)
            assert 0.5 < rescaled.max_norm <= 1.0
            assert np.array_equal(rescaled.columns, np.ldexp(x.columns, -exponent))

    def test_scaling_is_the_division_by_a_power_of_two(self):
        rng = np.random.default_rng(8)
        for exponent in (-1070, -600, -3, 5, 700, 1022):
            cols = rng.uniform(-1.0, 1.0, (3, 10)) * math.ldexp(1.0, exponent)
            x = Dataset(cols)
            scale = math.ldexp(1.0, math.ceil(math.log2(radius(x))))
            assert np.array_equal(rescale_radius(x).columns, cols / scale)


class TestCsvRoundTrip:
    def test_basis_rows(self, tmp_path):
        path = tmp_path / "basis.csv"
        path.write_text("1,0\n0,1\n")
        x = load_csv(path)
        assert np.array_equal(x.columns, np.eye(2))

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("alpha,beta\n1,2\n3,4\n")
        x = load_csv(path)
        assert x.dim == 2 and x.count == 2
        assert np.array_equal(x.columns[:, 0], [1.0, 2.0])

    @pytest.mark.parametrize("text", ["0.1,2\n3,4\n", "a,b\n0.1,2\n3,4\n"])
    def test_utf8_byte_order_mark_skipped(self, tmp_path, text):
        # Excel's "CSV UTF-8" starts the file with one
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert np.array_equal(load_csv(path).columns, [[0.1, 3.0], [2.0, 4.0]])

    def test_byte_order_mark_not_in_located_cell(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfx,1\n2,3\n")
        with pytest.raises(ValueError, match="non-numeric cell at row 1, column 1: 'x'$"):
            load_csv(path)

    def test_write_then_load_is_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        x = Dataset(rng.standard_normal((5, 20)) * 1e-3)
        path = tmp_path / "round.csv"
        save_csv(x, path)
        assert np.array_equal(load_csv(path).columns, x.columns)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2\n3\n")
        with pytest.raises(ValueError, match="ragged row 2"):
            load_csv(path)

    def test_non_numeric_cell_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,x\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_csv(path)

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("1,2\n3,inf\n")
        with pytest.raises(ValueError, match="non-finite value at row 2, column 2"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "only_head.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="empty file"):
            load_csv(path)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_bits_round_trip(self, tmp_path, seed):
        # every finite float64 bit pattern is as likely as any other: all
        # exponents, subnormals and both zeros
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**64, size=3000, dtype=np.uint64).view(np.float64)
        extremes = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        values = np.concatenate([values[np.isfinite(values)], extremes])
        rows = values[: values.size // 6 * 6].reshape(-1, 6)
        path = tmp_path / "bits.csv"
        np.savetxt(path, rows, fmt="%.17g", delimiter=",")
        got = load_csv(path).columns.T
        assert np.array_equal(got.view(np.uint64), rows.view(np.uint64))

    def test_blank_lines_crlf_and_quotes(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_bytes(b'\r\nx,y\r\n\r\n"1.5", 2\r\n\r\n3,4e-1\r\n')
        assert np.array_equal(load_csv(path).columns, [[1.5, 3.0], [2.0, 0.4]])

    @pytest.mark.parametrize(
        "text, message",
        [
            # a first row that is part numeric is data, not a header
            ("1,\n2,3\n", "non-numeric cell at row 1, column 2: ''"),
            ("a,1\n2,3\n", "non-numeric cell at row 1, column 1: 'a'"),
            # float() reads these; numpy's parser does not
            ("x,y\n1,2\n1_000,3\n", "non-numeric cell at row 3, column 1: '1_000'"),
            ("1,٣\n", "non-numeric cell at row 1, column 2: '٣'"),
            # rows are counted without blank lines
            ("1,2\n\n\n3,x\n", "non-numeric cell at row 2, column 2: 'x'"),
            ("h\n\n1\n2,3\n", "ragged row 3: expected 1 cells, got 2"),
            ("1,2\n-inf,3\n", "non-finite value at row 2, column 1: '-inf'"),
            ("1,2\n3,1e999\n", "non-finite value at row 2, column 2: '1e999'"),
            ("\n\n", "empty file"),
            ("a,b\n\n", r"empty file \(header only\)"),
        ],
    )
    def test_located_errors(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_csv(path)

    def test_error_comes_from_the_first_bad_row(self, tmp_path):
        # numpy stops at the ragged row; the scan names the earlier bad cell
        path = tmp_path / "two.csv"
        path.write_text("1,2\n3,inf\n4\n")
        with pytest.raises(ValueError, match="non-finite value at row 2, column 2"):
            load_csv(path)
