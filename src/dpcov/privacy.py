"""Privacy budgets and the zCDP-to-(eps, delta) conversion.  Each noise
family calibrates its noise and splits its budget (``NoiseFamily.scale``
and ``NoiseFamily.ledger``).

Budgets are immutable values; mechanisms receive explicit sub-budgets rather
than drawing from a mutable ledger, so budget accounting is a checkable
arithmetic identity rather than hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PrivacyBudget",
    "zcdp",
    "pure",
    "zcdp_to_approx",
]


@dataclass(frozen=True)
class PrivacyBudget:
    """Either a zCDP budget (kind='zcdp', value=rho) or a pure-DP budget
    (kind='pure', value=epsilon)."""

    kind: str
    value: float

    def __post_init__(self):
        if self.kind not in ("zcdp", "pure"):
            raise ValueError(f"unknown budget kind {self.kind!r}")
        if not (self.value > 0 and math.isfinite(self.value)):
            raise ValueError("budget value must be positive and finite")


def zcdp(rho: float) -> PrivacyBudget:
    return PrivacyBudget("zcdp", rho)


def pure(eps: float) -> PrivacyBudget:
    return PrivacyBudget("pure", eps)


def zcdp_to_approx(rho: float, delta: float) -> float:
    """The epsilon for which rho-zCDP implies (epsilon, delta)-DP:
    rho + 2*sqrt(rho * log(1/delta))."""
    if not (rho > 0 and math.isfinite(rho)):
        raise ValueError("rho must be positive and finite")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))

