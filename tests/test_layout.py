"""The package's layout, as the benchmark and the README rely on it.

The benchmark's tracer names dpcov functions by module and attribute
(``perfbench/tracing.py``, ``TARGETS``) and fails at install time if one is
missing, and ``perfbench/`` calls the rest of dpcov through its top level.
Every name it wraps or reads must resolve, so that moving or deleting a
function cannot silently break ``perfbench/run.py``.  The top level itself
holds what the README shows a user calling, and nothing else."""

import ast
import importlib
import importlib.util
import re
import types
from pathlib import Path

import pytest

import dpcov

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SOURCES = sorted((ROOT / "src" / "dpcov").glob("*.py"))

PUBLIC = {
    # the mechanisms
    "gauss_cov", "lap_cov", "separate_cov", "separate_cov_pure", "adaptive_cov",
    "adaptive_cov_pure", "zero_cov", "clip_mechanism", "MechanismReport", "GAUSSIAN", "LAPLACE",
    # data and linear algebra
    "Dataset", "covariance", "clip_dataset", "frobenius_dist", "RandomStream", "svt",
    # plans
    "SynthSpec", "synth", "load_csv", "ExperimentPlan", "ResultRow", "SummaryRow", "run_plan",
    "write_results",
    # budgets
    "PrivacyBudget", "zcdp", "pure",
}  # fmt: skip


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_targets():
    return load_perfbench("tracing").TARGETS


def perfbench_top_level_names():
    """Every ``dpcov.<name>`` and ``dp.<name>`` in perfbench's sources and
    tests, and every function its gate looks up on the package."""
    names = set(load_perfbench("gate").MECHANISMS.values())
    for path in [*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")]:
        names.update(re.findall(r"\b(?:dpcov|dp)\.([A-Za-z_]\w*)", path.read_text()))
    return sorted(names)


TARGETS = load_targets()


@pytest.mark.parametrize("name, module_name, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(name, module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(owner, cls_name)), name
    else:
        assert callable(getattr(owner, attr)), name


@pytest.mark.parametrize("name", perfbench_top_level_names())
def test_perfbench_name_resolves_at_top_level(name):
    assert hasattr(dpcov, name), name


def test_top_level_is_the_public_api():
    public = {
        name
        for name, value in vars(dpcov).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == PUBLIC


def test_dataset_oracles_are_neither_exported_nor_called():
    # radius, trace_stat and tail_gamma stay in dpcov.linalg as test oracles
    oracles = {"radius", "trace_stat", "tail_gamma"}
    for path in SOURCES:
        module = importlib.import_module("dpcov" if path.stem == "__init__" else f"dpcov.{path.stem}")
        assert not oracles & set(getattr(module, "__all__", ())), path.name
        calls = [
            node.lineno
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in oracles
        ]
        assert not calls, f"{path.name}: oracle called at lines {calls}"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_assert_statements(path):
    # checks in the library must still run under python -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"
