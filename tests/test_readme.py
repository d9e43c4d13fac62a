"""The README's Python examples run as written.

Its ``python`` blocks are executed in order, in one namespace: later blocks
use the dataset ``x`` that the first one builds.  So an example, or a claim
it asserts about what a dataset keeps, cannot go stale unnoticed.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def test_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 3  # the library example, noise bounds, what a dataset keeps
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks, start=1):
        exec(compile(block, f"README.md, python block {i}", "exec"), namespace)
