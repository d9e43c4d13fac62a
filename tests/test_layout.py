"""The benchmark's tracer names dpcov functions by module and attribute
(``perfbench/tracing.py``, ``TARGETS``) and fails at install time if one is
missing.  Every name it wraps must resolve in the package, so that moving or
deleting a function cannot silently break ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("name, module_name, attr", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(name, module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(owner, cls_name)), name
    else:
        assert callable(getattr(owner, attr)), name
