"""The benchmark still runs on this source tree.

``perfbench/tests`` is outside the default test paths, so this runs the
benchmark's own entry point at toy size (a few seconds) and checks that every
workload reports correct, failure-free results with a finite value for every
metric, once without tracing and once with the per-layer tracer.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "workload, trace", [("all", "0"), ("many-small", "1")], ids=["all-untraced", "many-small-traced"]
)
def test_toy_benchmark_runs_clean(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", "1"]
        + ["--seconds", "0.3", "--toy", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1 and result["metrics"]
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and math.isfinite(metric["value"]), name
