"""Smoke runs of every workload at toy size, and the correctness gate."""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_toy_run_reports_every_metric_with_its_unit(workload, trace):
    # Toy sizes (n=256) are below the adaptive mechanisms' working range: the
    # private radius search can stop at a radius whose square underflows, and
    # adaptive_cov then raises in private_trace_ub (about 1 call in 200).  The
    # gate counts such calls as failed, so this test checks the report's form
    # and that `correct` and the exit code agree with `failed`, not that
    # the toy run is failure-free.
    proc = run("--workload", workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace), "--toy")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["correct"] is (result["failed"] == 0)
    assert proc.returncode == (0 if result["correct"] else 1), proc.stderr
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    info = json.loads(proc.stdout.strip().splitlines()[-2])["info"]
    assert set(info["results_sha256"]) == {"zcdp", "pure"}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "many-small", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_gate_flags_a_mechanism_that_misses_its_zero_noise_target():
    import dpcov

    def biased_gauss(x, rho, stream):
        report = dpcov.gauss_cov(x, rho, stream)
        return dpcov.MechanismReport(report.estimate + 1e-3, report.budget_spent, "gauss")

    fake = types.SimpleNamespace(**{k: getattr(dpcov, k) for k in dir(dpcov) if not k.startswith("_")})
    fake.gauss_cov = biased_gauss
    x = dpcov.synth(dpcov.SynthSpec(n=64, d=4, bins=2, seed=3))
    sigma = dpcov.covariance(x)
    assert gate.zero_noise_problems(dpcov, "gauss", "zcdp", x, sigma, 0.5, 0.05, 1) == []
    assert gate.zero_noise_problems(fake, "gauss", "zcdp", x, sigma, 0.5, 0.05, 1)
    for name, kind in (("separate-pure", "pure"), ("adaptive", "zcdp"), ("adaptive-pure", "pure"), ("zero", "zcdp")):
        assert gate.zero_noise_problems(dpcov, name, kind, x, sigma, 0.5, 0.05, 1) == [], name


def test_gate_flags_a_wrong_budget_and_an_asymmetric_estimate():
    import dpcov

    est = np.array([[1.0, 2.0], [2.0 + 1e-12, 1.0]])
    report = types.SimpleNamespace(estimate=est, budget_spent=dpcov.zcdp(0.25))
    problems = gate.report_problems(report, "gauss", "zcdp", 0.5)
    assert len(problems) == 2
