import dataclasses
import json
import math
import os
import platform
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from oracle_utils import save_csv

import dpcov
from dpcov import cli, harness
from dpcov.cli import main
from dpcov.datagen import SynthSpec, load_csv, rescale_radius, synth
from dpcov.harness import (
    MECHANISMS,
    ExperimentPlan,
    ResultRow,
    run_plan,
    summarize,
    write_results,
)
from dpcov.linalg import frobenius_dist
from dpcov.privacy import pure, zcdp
from dpcov.randomness import RandomStream

BUDGETS = {"zcdp": zcdp(0.5), "pure": pure(1.0)}


def small_plan(**overrides):
    base = dict(
        mechanisms=("gauss", "zero"),
        budget=zcdp(0.5),
        synth_spec=SynthSpec(n=60, d=6, bins=2),
        repetitions=4,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_unknown_mechanism(self):
        with pytest.raises(ValueError, match="unknown mechanism"):
            small_plan(mechanisms=("frobnicate",))

    def test_budget_kind_mismatch(self):
        with pytest.raises(ValueError, match="--eps"):
            small_plan(mechanisms=("lap",))
        with pytest.raises(ValueError, match="--rho"):
            small_plan(mechanisms=("separate",), budget=pure(1.0))

    def test_one_data_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            small_plan(csv_path="also.csv")

    def test_sweep_axis_checked(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            small_plan(sweep_axis="q", sweep_values=(1, 2))
        with pytest.raises(ValueError, match="requires a pure-DP"):
            small_plan(sweep_axis="eps", sweep_values=(0.5, 1.0))

    def test_repeated_mechanism(self):
        # a repeat would run twice on the same streams and enter one summary
        # row twice
        with pytest.raises(ValueError, match="'gauss' is named twice"):
            small_plan(mechanisms=("gauss", "zero", "gauss"))

    @pytest.mark.parametrize("axis", ["d", "n", "N"])
    def test_integer_axis_takes_whole_numbers(self, axis):
        # int() would run 4.2 and 4.7 both at 4 and merge their rows into
        # one summary row of twice the runs
        for values in ((4.2, 4.7), (4, 8.5), (4, math.inf), (4, math.nan)):
            with pytest.raises(ValueError, match="whole numbers"):
                small_plan(sweep_axis=axis, sweep_values=values)
        assert small_plan(sweep_axis=axis, sweep_values=(4.0, 8)).sweep_values == (4.0, 8)
        assert small_plan(sweep_axis="rho", sweep_values=(0.15, 0.25)).sweep_values

    def test_repeated_sweep_value(self):
        # a repeat would merge two different datasets into one summary row
        with pytest.raises(ValueError, match="repeated value"):
            small_plan(sweep_axis="d", sweep_values=(4, 8, 4))
        with pytest.raises(ValueError, match="repeated value"):
            small_plan(sweep_axis="rho", sweep_values=(0.1, 0.1))


class TestRegistry:
    @pytest.mark.parametrize("name", sorted(MECHANISMS))
    def test_runs_under_its_budget_kind(self, name):
        kind = MECHANISMS[name][0]
        for budget in [BUDGETS[kind]] if kind else BUDGETS.values():
            rows, _ = run_plan(small_plan(mechanisms=(name,), budget=budget, repetitions=2))
            assert [(r.mechanism, r.budget_kind) for r in rows] == [(name, budget.kind)] * 2
            assert all(np.isfinite(r.frobenius_error) for r in rows)

    @pytest.mark.parametrize("name", sorted(n for n, (k, _) in MECHANISMS.items() if k))
    def test_rejected_under_the_other_kind(self, name):
        kind = MECHANISMS[name][0]
        other = "pure" if kind == "zcdp" else "zcdp"
        flag = "--rho" if kind == "zcdp" else "--eps"
        with pytest.raises(ValueError, match=f"mechanism '{name}' needs {flag}"):
            small_plan(mechanisms=(name,), budget=BUDGETS[other])

    def test_help_lists_the_registry(self, capsys, monkeypatch):
        # argparse wraps the help to the terminal width; no name may be split
        for columns in (60, 72, 80, 86, 110):
            monkeypatch.setenv("COLUMNS", str(columns))
            with pytest.raises(SystemExit):
                main(["run", "--help"])
            listed = re.search(r"list from\s*\{([^}]*)\}", capsys.readouterr().out).group(1)
            assert re.split(r",\s+", listed) == list(MECHANISMS), columns

    def test_adaptive_pure_branch_spelling(self):
        rows, _ = run_plan(
            small_plan(mechanisms=("adaptive-pure",), budget=pure(1.0), repetitions=3)
        )
        assert all(r.chosen_branch in ("lap", "separate-pure") for r in rows)


class TestRunPlan:
    def test_zero_mechanism_constant_error(self):
        rows, _ = run_plan(small_plan(mechanisms=("zero",)))
        errors = {r.frobenius_error for r in rows}
        assert len(errors) == 1
        spec = SynthSpec(n=60, d=6, bins=2)
        # the error is ||Sigma||_F of the materialized dataset
        assert all(r.frobenius_error > 0 for r in rows)

    def test_deterministic_rows(self):
        plan = small_plan()
        rows_a, _ = run_plan(plan)
        rows_b, _ = run_plan(plan)
        assert rows_a == rows_b or all(
            a.frobenius_error == b.frobenius_error for a, b in zip(rows_a, rows_b)
        )

    def test_worker_count_invariance(self):
        base = small_plan(mechanisms=("gauss", "separate", "adaptive"), repetitions=3)
        threaded = small_plan(
            mechanisms=("gauss", "separate", "adaptive"), repetitions=3, workers=3
        )
        rows_a, _ = run_plan(base)
        rows_b, _ = run_plan(threaded)
        assert [r.frobenius_error for r in rows_a] == [r.frobenius_error for r in rows_b]

    def test_sweep_expands_configs(self):
        plan = small_plan(sweep_axis="d", sweep_values=(4, 8))
        rows, summaries = run_plan(plan)
        assert {r.d for r in rows} == {4, 8}
        assert len(summaries) == 4  # 2 mechanisms x 2 configs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_holds_one_dataset_at_a_time(self, workers):
        def traced_peak(**overrides):
            plan = small_plan(mechanisms=("gauss",), repetitions=2, workers=workers, **overrides)
            tracemalloc.start()
            try:
                run_plan(plan)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        spec = SynthSpec(n=40_000, d=32, bins=2)
        alone = traced_peak(synth_spec=spec)
        swept = traced_peak(synth_spec=spec, sweep_axis="n", sweep_values=(10_000, 20_000, 40_000))
        assert swept < 1.1 * alone

    def test_adaptive_rows_carry_choice(self):
        plan = small_plan(mechanisms=("adaptive",), repetitions=2)
        rows, _ = run_plan(plan)
        assert all(r.chosen_tau is not None and r.chosen_branch in ("gauss", "separate") for r in rows)

    def test_zero_noise_plan_is_exact_for_gauss(self):
        plan = small_plan(mechanisms=("gauss",), zero_noise=True)
        rows, _ = run_plan(plan)
        assert all(r.frobenius_error == 0.0 for r in rows)

    def test_sweep_checks_every_config_before_drawing_data(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(harness, "synth", lambda spec: drawn.append(spec))
        plan = small_plan(synth_spec=SynthSpec(n=40, d=3, bins=4), sweep_axis="n", sweep_values=(40, 2))
        with pytest.raises(ValueError, match="cannot populate bins"):
            run_plan(plan)
        assert drawn == []

    def test_csv_budget_sweep_loads_once(self, tmp_path, monkeypatch):
        path = tmp_path / "in.csv"
        save_csv(synth(SynthSpec(n=40, d=3, bins=2, seed=5)), path)
        real_load = harness.load_csv
        loads = []
        monkeypatch.setattr(harness, "load_csv", lambda p: loads.append(p) or real_load(p))
        plan = small_plan(
            mechanisms=("gauss", "separate", "adaptive"),
            synth_spec=None,
            csv_path=str(path),
            repetitions=2,
            sweep_axis="rho",
            sweep_values=(0.1, 0.2, 0.4, 0.8),
        )
        rows, _ = run_plan(plan)
        assert loads == [str(path)]
        # every config reads the one dataset; each row is what a fresh
        # dataset of its own would give
        root = RandomStream(plan.master_seed)
        fresh = rescale_radius(real_load(path))
        for row in rows:
            i = plan.sweep_values.index(row.budget_value)
            stream = root.child(f"run/{i}/{row.mechanism}/{row.rep}")
            report = MECHANISMS[row.mechanism][1](fresh, row.budget_value, plan, stream)
            assert row.frobenius_error == frobenius_dist(report.estimate, fresh.gram())


# Philox bit generators a run builds: one per stream that draws, and an
# adaptive run draws in four stages (radius, trace, threshold SVT, mechanism)
GENERATORS_PER_RUN = {
    "gauss": 1,
    "lap": 1,
    "separate": 1,
    "separate-pure": 1,
    "adaptive": 4,
    "adaptive-pure": 4,
    "zero": 0,
}


def count_generators(monkeypatch) -> list:
    built = []
    philox = np.random.Philox
    monkeypatch.setattr(np.random, "Philox", lambda *a, **k: built.append(a) or philox(*a, **k))
    return built


class TestPerRunCost:
    @pytest.mark.parametrize("name", sorted(GENERATORS_PER_RUN))
    def test_generators_built_per_run(self, name, monkeypatch):
        assert set(GENERATORS_PER_RUN) == set(MECHANISMS)
        plan = small_plan(mechanisms=(name,), budget=BUDGETS[MECHANISMS[name][0] or "zcdp"])
        x = synth(SynthSpec(n=200, d=6, bins=2, seed=3))
        built = count_generators(monkeypatch)
        root = RandomStream(plan.master_seed)
        for rep in range(3):
            stream = root.child(f"run/0/{name}/{rep}")
            MECHANISMS[name][1](x, plan.budget.value, plan, stream)
            assert len(built) == (rep + 1) * GENERATORS_PER_RUN[name]
            if name.startswith("adaptive"):
                assert stream._gen is None  # its stages draw from children
        assert root._gen is None

    def test_run_plan_builds_no_root_or_run_level_generator(self, monkeypatch):
        # a plan of zero runs builds only what drawing its dataset builds
        spec = SynthSpec(n=60, d=6, bins=2)
        built = count_generators(monkeypatch)
        synth(dataclasses.replace(spec, seed=harness._sub_seed(11, "data/0")))
        drawing = len(built)
        built.clear()
        run_plan(small_plan(mechanisms=("zero",), synth_spec=spec))
        assert len(built) == drawing

    def test_cells_are_written_as_format_17g(self, tmp_path):
        floats = [0.1, -0.0, 5e-324, 1e22, 2.0**-1074 * 3, 1 / 3, math.inf, 1e300 * 10.0]
        rows = [
            ResultRow("gauss", 2, 3, None, "zcdp", 0.5, 0.05, 7, i, v, 1.0, v, "gauss")
            for i, v in enumerate(floats)
        ] + [ResultRow("adaptive", 2, 3, 4, "zcdp", 1, 0.05, 7, 9, 0.25, 1.0, None, None)]
        plan = small_plan(repetitions=1)
        write_results(rows, summarize(rows[-1:]), plan, tmp_path / "out.csv")
        lines = (tmp_path / "out.csv").read_text().splitlines()
        assert lines[0] == (
            "mechanism,d,n,N,budget_kind,budget_value,beta,seed,rep,"
            "frobenius_error,chosen_tau,chosen_branch"
        )
        for rep, (line, v) in enumerate(zip(lines[1:], floats)):
            cell = format(v, ".17g")
            assert line == f"gauss,2,3,,zcdp,0.5,0.050000000000000003,7,{rep},{cell},{cell},gauss"
        assert lines[-1] == "adaptive,2,3,4,zcdp,1,0.050000000000000003,7,9,0.25,,"


class TestScalingThroughHarness:
    def test_gauss_error_grows_linearly_in_d(self):
        # the harness-level version of the dimension sweep: log-log slope
        # of the mean Gaussian-mechanism error against d is about 1
        plan = ExperimentPlan(
            mechanisms=("gauss",),
            budget=zcdp(0.1),
            synth_spec=SynthSpec(n=1000, d=16, bins=1),
            repetitions=15,
            sweep_axis="d",
            sweep_values=(16, 64, 256),
            master_seed=77,
        )
        _, summaries = run_plan(plan)
        dims = np.array([s.d for s in summaries], dtype=float)
        means = np.array([s.mean_error for s in summaries])
        slope = np.polyfit(np.log(dims), np.log(means), 1)[0]
        assert 0.85 <= slope <= 1.15


class TestNumericalFailure:
    def test_non_finite_estimate_exits_3(self, monkeypatch):
        from dpcov.mechanisms import MechanismReport

        def poisoned(x, value, plan, stream):
            rep = object.__new__(MechanismReport)
            object.__setattr__(rep, "estimate", np.full((x.dim, x.dim), np.nan))
            object.__setattr__(rep, "budget_spent", plan.budget)
            object.__setattr__(rep, "variant", "gauss")
            object.__setattr__(rep, "clip_threshold", None)
            object.__setattr__(rep, "selection", None)
            return rep

        monkeypatch.setitem(harness.MECHANISMS, "gauss", ("zcdp", poisoned))
        code = main(["run", "--mechanism", "gauss", "--synthetic", "n=10,d=2", "--rho", "1"])
        assert code == 3


class TestSummarize:
    def test_single_row(self):
        row = ResultRow("gauss", 2, 3, 1, "zcdp", 0.1, 0.05, 0, 0, 0.5, 1.0, None, None)
        (summary,) = summarize([row])
        assert summary.mean_error == 0.5
        assert summary.std_error == 0.0
        assert summary.runs == 1

    def test_mean_matches_arithmetic(self):
        rows = [
            ResultRow("gauss", 2, 3, 1, "zcdp", 0.1, 0.05, 0, i, float(i), 1.0, None, None)
            for i in range(5)
        ]
        (summary,) = summarize(rows)
        assert summary.mean_error == sum(range(5)) / 5

    def test_large_errors_do_not_overflow(self):
        rows = [
            ResultRow("lap", 2, 3, 1, "pure", 1e-300, 0.05, 0, i, v, 1.0, None, None)
            for i, v in enumerate([1e200, 3e200])
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (summary,) = summarize(rows)
        assert summary.mean_error == 2e200
        assert summary.std_error == math.sqrt(2) * 1e200

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="nothing to summarize"):
            summarize([])


class TestOutputFiles:
    def test_byte_identical_reruns(self, tmp_path):
        plan = small_plan(mechanisms=("gauss", "adaptive"), repetitions=3)
        for name in ("a", "b"):
            rows, summaries = run_plan(plan)
            write_results(rows, summaries, plan, tmp_path / f"{name}.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.summary.csv").read_bytes() == (tmp_path / "b.summary.csv").read_bytes()
        assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()

    def test_metadata_reports_approx_dp(self, tmp_path):
        plan = small_plan()
        rows, summaries = run_plan(plan)
        meta = write_results(rows, summaries, plan, tmp_path / "out.csv")
        assert meta["approx_dp_equivalent"]["delta"] == plan.delta
        assert meta["approx_dp_equivalent"]["eps"] > plan.budget.value

    def test_metadata_records_versions(self, tmp_path):
        plan = small_plan(repetitions=1)
        rows, summaries = run_plan(plan)
        write_results(rows, summaries, plan, tmp_path / "out.csv")
        meta_path = tmp_path / "out.meta.json"
        meta = json.loads(meta_path.read_text())
        assert meta["numpy"] == np.__version__
        assert meta["python"] == platform.python_version()
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        threads = meta["blas"].pop("threads")
        assert meta["blas"] == {"name": blas["name"], "version": blas["version"]}
        assert threads == "unknown" or (isinstance(threads, int) and threads >= 1)
        first = meta_path.read_bytes()
        write_results(*run_plan(plan), plan, tmp_path / "out.csv")
        assert meta_path.read_bytes() == first

    def test_metadata_records_blas_threads(self, tmp_path):
        # result bytes depend on the BLAS thread count, so the sidecar
        # records the count the run had (1 here: any host has one core)
        code = (
            "import sys; from dpcov.harness import run_plan, write_results, ExperimentPlan;"
            "from dpcov.datagen import SynthSpec; from dpcov.privacy import zcdp;"
            "plan = ExperimentPlan(mechanisms=('zero',), budget=zcdp(0.5),"
            " synth_spec=SynthSpec(n=8, d=2), repetitions=1, master_seed=1);"
            "write_results(*run_plan(plan), plan, sys.argv[1])"
        )
        src = str(Path(dpcov.__file__).resolve().parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code, str(tmp_path / "out.csv")], env=env, check=True)
        meta = json.loads((tmp_path / "out.meta.json").read_text())
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" in str(blas["name"]).lower():
            assert meta["blas"]["threads"] == 1

    def test_csv_results_are_labelled_non_private(self, tmp_path):
        # a CSV is rescaled by a power of two read off its largest norm
        path = tmp_path / "in.csv"
        save_csv(synth(SynthSpec(n=40, d=3, bins=2, seed=5)), path)
        plan = small_plan(synth_spec=None, csv_path=str(path), repetitions=1)
        meta = write_results(*run_plan(plan), plan, tmp_path / "csv.csv")
        assert meta["non_private"] is True
        assert json.loads((tmp_path / "csv.meta.json").read_text())["non_private"] is True

    def test_synthetic_results_carry_no_non_private_label(self, tmp_path):
        plan = small_plan(repetitions=1)
        meta = write_results(*run_plan(plan), plan, tmp_path / "synth.csv")
        assert "non_private" not in meta
        assert "non_private" not in json.loads((tmp_path / "synth.meta.json").read_text())

    def test_float_cells_round_trip(self, tmp_path):
        plan = small_plan(repetitions=2)
        rows, summaries = run_plan(plan)
        write_results(rows, summaries, plan, tmp_path / "out.csv")
        lines = (tmp_path / "out.csv").read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("frobenius_error")
        parsed = [float(line.split(",")[idx]) for line in lines[1:]]
        assert parsed == [r.frobenius_error for r in rows]


class TestCli:
    def test_run_round_trip(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = main(
            [
                "run",
                "--mechanism", "gauss,zero",
                "--synthetic", "n=50,d=4,N=2",
                "--rho", "0.5",
                "--reps", "2",
                "--seed", "3",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "gauss" in capsys.readouterr().out

    def test_csv_input(self, tmp_path):
        data = synth(SynthSpec(n=30, d=3, bins=1, seed=9))
        path = tmp_path / "in.csv"
        save_csv(data, path)
        code = main(
            ["run", "--mechanism", "separate", "--input", str(path), "--rho", "1.0", "--reps", "2"]
        )
        assert code == 0

    def test_bad_mechanism_is_input_error(self):
        assert main(["run", "--mechanism", "nope", "--synthetic", "n=10,d=2", "--rho", "1"]) == 2

    def test_repeated_names_are_input_errors(self, capsys):
        argv = ["run", "--synthetic", "n=50,d=4", "--rho", "1", "--reps", "3", "--seed", "1"]
        assert main(argv + ["--mechanism", "gauss,gauss"]) == 2
        assert main(argv + ["--mechanism", "gauss", "--sweep", "d=4,4"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "named twice" in captured.err and "repeated value" in captured.err

    def test_missing_out_directory_is_input_error_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        ran, real = [], cli.run_plan
        monkeypatch.setattr(cli, "run_plan", lambda plan: ran.append(plan) or real(plan))
        out = tmp_path / "missing" / "res.csv"
        argv = ["run", "--mechanism", "gauss", "--synthetic", "n=10,d=4", "--rho", "1"]
        assert main(argv + ["--reps", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert ran == [] and captured.out == ""
        assert "does not exist" in captured.err
        assert not out.parent.exists()

    def test_unwritable_out_is_input_error_after_the_runs(self, tmp_path, capsys, monkeypatch):
        # --out names a directory: its parent exists, so the runs go ahead,
        # and writing the results there fails
        ran, real = [], cli.run_plan
        monkeypatch.setattr(cli, "run_plan", lambda plan: ran.append(plan) or real(plan))
        out = tmp_path / "res.csv"
        out.mkdir()
        argv = ["run", "--mechanism", "gauss", "--synthetic", "n=10,d=4", "--rho", "1"]
        assert main(argv + ["--reps", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert len(ran) == 1 and "gauss" in captured.out
        assert "dpcov: input error" in captured.err
        assert list(out.iterdir()) == []

    def test_missing_file_is_input_error(self):
        assert main(["run", "--mechanism", "gauss", "--input", "no_such.csv", "--rho", "1"]) == 2

    def test_bad_budget_is_input_error(self):
        assert main(["run", "--mechanism", "gauss", "--synthetic", "n=10,d=2", "--rho", "-1"]) == 2

    def test_bad_synthetic_spec_is_input_error(self):
        assert main(["run", "--mechanism", "gauss", "--synthetic", "n=10", "--rho", "1"]) == 2

    @pytest.mark.parametrize("skew", ["-1000", "nan"])
    def test_non_finite_zipf_weights_are_input_error(self, skew, capsys):
        spec = f"n=100,d=4,N=3,s={skew}"
        assert main(["run", "--mechanism", "gauss", "--synthetic", spec, "--rho", "0.1"]) == 2
        assert f"input error: skew {float(skew)!r}" in capsys.readouterr().err

    def test_csv_radius_above_2_to_the_1023(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("1e308,1e308\n1,2\n")
        argv = ["run", "--mechanism", "gauss", "--input", str(path), "--rho", "0.1", "--reps", "1"]
        assert main(argv) == 0

    def test_csv_norm_past_the_float_range(self, tmp_path):
        # the largest norm, about 2.1e308, is inf in floats: the rescaling
        # reads it in units of the largest entry
        path = tmp_path / "big.csv"
        path.write_text("1.5e308,1.5e308\n0.1,0.2\n")
        out = tmp_path / "out.csv"
        argv = ["run", "--mechanism", "gauss", "--input", str(path), "--rho", "1", "--reps", "1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert 0.5 < rescale_radius(load_csv(path)).max_norm <= 1.0
        assert json.loads((tmp_path / "out.meta.json").read_text())["non_private"] is True

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_uint64_is_input_error(self, seed, capsys):
        argv = ["run", "--mechanism", "gauss", "--synthetic", "n=10,d=2", "--rho", "0.1"]
        assert main(argv + ["--seed", seed]) == 2
        assert "input error: master seed" in capsys.readouterr().err

    def test_zero_noise_flag(self, capsys):
        code = main(
            [
                "run",
                "--mechanism", "separate",
                "--synthetic", "n=40,d=4",
                "--rho", "0.5",
                "--reps", "1",
                "--zero-noise",
            ]
        )
        assert code == 0
        assert "mean=" in capsys.readouterr().out

    def test_sweep_parsing(self, capsys):
        code = main(
            [
                "run",
                "--mechanism", "zero",
                "--synthetic", "n=30,d=4",
                "--rho", "0.5",
                "--reps", "1",
                "--sweep", "d=4,8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "d=4" in out and "d=8" in out

    @pytest.mark.parametrize("axis", ["d", "n", "N"])
    def test_non_integer_sweep_values_get_the_plan_message(self, axis, capsys):
        argv = ["run", "--mechanism", "zero", "--synthetic", "n=30,d=4", "--rho", "0.5"]
        assert main(argv + ["--sweep", f"{axis}=4,2.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{axis} takes whole numbers" in captured.err

    @pytest.mark.parametrize(
        "spec, key", [("n=50.5,d=3", "n"), ("n=50,d=2.5", "d"), ("n=50,d=3,N=1.5", "bins")]
    )
    def test_non_integer_synthetic_sizes_name_the_field(self, spec, key, capsys):
        argv = ["run", "--mechanism", "zero", "--synthetic", spec, "--rho", "0.5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"take whole numbers, not {key}=" in captured.err

    def test_synthetic_sizes_read_like_sweep_values(self, capsys):
        argv = ["run", "--mechanism", "zero", "--synthetic", "n=5e1,d=4.0,N=2e0", "--rho", "0.5"]
        assert main(argv + ["--reps", "1"]) == 0
        assert capsys.readouterr().out.startswith("zero d=4 n=50 N=2 ")

    @pytest.mark.parametrize(
        "spec, key", [("n=50,d=3,d=4", "d"), ("n=50,n=50,d=3", "n"), ("n=50,d=3,s=2,s=3", "s")]
    )
    def test_repeated_synthetic_key_is_input_error(self, spec, key, capsys):
        argv = ["run", "--mechanism", "zero", "--synthetic", spec, "--rho", "0.5"]
        assert main(argv) == 2
        assert f"--synthetic key {key!r} is named twice" in capsys.readouterr().err

    def test_integer_sweep_values_stay_integers(self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["run", "--mechanism", "zero", "--synthetic", "n=30,d=4", "--rho", "0.5"]
        assert main(argv + ["--reps", "1", "--sweep", "d=4,8", "--out", str(out)]) == 0
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["sweep_values"] == [4, 8]
        assert all(type(v) is int for v in meta["sweep_values"])


def test_import_loads_neither_numpy_random_nor_concurrent_futures():
    # both cost import time that every CLI run and benchmark setup pays;
    # numpy 1.x imports numpy.random itself, so only what dpcov adds counts
    code = (
        "import sys, numpy; before = set(sys.modules); import dpcov; "
        "print([m for m in ('numpy.random', 'concurrent.futures') "
        "if m in sys.modules and m not in before])"
    )
    src = str(Path(dpcov.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
