"""The benchmark's workloads.  Each is shaped so that one layer of dpcov does
most of the work; BENCHMARK.json records why each was chosen and README.md
which per-layer metric each is expected to move."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

ZCDP_SIX = ("gauss", "separate", "adaptive")
PURE_SIX = ("lap", "separate-pure", "adaptive-pure")


@dataclass(frozen=True)
class Workload:
    name: str
    d: int
    n: int
    bins: int
    rho: float
    eps: float
    zcdp_mechanisms: tuple[str, ...]
    pure_mechanisms: tuple[str, ...]
    repetitions: int
    beta: float = 0.05

    def toy(self) -> "Workload":
        """A few-millisecond version of the same workload, for smoke tests."""
        return dataclasses.replace(
            self, d=min(self.d, 8), n=min(self.n, 256), repetitions=min(self.repetitions, 2)
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tall-adaptive", 200, 50_000, 4, 0.1, 1.0, ZCDP_SIX, PURE_SIX, 2),
        Workload("wide-spectrum", 1024, 4096, 1, 0.1, 1.0, ZCDP_SIX, PURE_SIX, 1),
        Workload(
            "many-small", 16, 2000, 8, 0.1, 1.0, ZCDP_SIX + ("zero",), PURE_SIX + ("zero",), 100
        ),
    )
}
