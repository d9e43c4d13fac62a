"""Privacy budgets, conversions between DP notions, and noise calibration.

Budgets are immutable values; mechanisms receive explicit sub-budgets rather
than drawing from a mutable ledger, so budget accounting is a checkable
arithmetic identity rather than hidden state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "PrivacyBudget",
    "zcdp",
    "pure",
    "zcdp_to_approx",
    "compose",
    "gaussian_scale",
    "laplace_scale",
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
    if rho <= 0:
        raise ValueError("rho must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def compose(budgets: Iterable[PrivacyBudget]) -> PrivacyBudget:
    """Sequential composition: budgets of one kind add up."""
    budgets = list(budgets)
    if not budgets:
        raise ValueError("nothing to compose")
    kinds = {b.kind for b in budgets}
    if len(kinds) > 1:
        raise ValueError("cannot compose budgets of different kinds")
    return PrivacyBudget(budgets[0].kind, sum(b.value for b in budgets))


def gaussian_scale(sensitivity: float, budget: PrivacyBudget) -> float:
    """Gaussian-mechanism noise scale Delta / sqrt(2*rho) for an
    l2-sensitivity Delta."""
    if budget.kind != "zcdp":
        raise ValueError("gaussian mechanism is calibrated against a zCDP budget")
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    return sensitivity / math.sqrt(2.0 * budget.value)


def laplace_scale(sensitivity: float, budget: PrivacyBudget) -> float:
    """Laplace-mechanism noise scale Delta / epsilon for an l1-sensitivity
    Delta."""
    if budget.kind != "pure":
        raise ValueError("laplace mechanism is calibrated against a pure-DP budget")
    if sensitivity < 0:
        raise ValueError("sensitivity must be nonnegative")
    return sensitivity / budget.value
