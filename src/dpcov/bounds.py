"""Closed-form high-probability norm bounds for the noise distributions.

Each function returns a value that the corresponding sampled norm exceeds
with probability at most beta.  Logs are natural, with one convention: any
log of the dimension d is floored at 1 when d <= e, which keeps the
d-dependent terms positive (and finite) at tiny d.  Logs of 1/beta are left
untouched since beta < 1.

The Laplace-side bounds carry an unspecified leading constant, ``LAP_C``;
4.0 was calibrated by Monte Carlo so that the empirical coverage holds at d
in {16, 64, 256} and beta in {0.05, 0.2} with room to spare.
"""

from __future__ import annotations

import math

__all__ = [
    "LAP_C",
    "eta",
    "upsilon",
    "omega",
    "lap_vec_bound",
    "slw_op_bound",
    "slw_frob_bound",
]

LAP_C = 4.0


def _check_args(d: int, beta: float):
    if d < 1:
        raise ValueError("dimension must be at least 1")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")


def _log_dim(d: float) -> float:
    """Natural log of a dimension-like quantity, floored at 1 for d <= e."""
    return 1.0 if d <= math.e else math.log(d)


def eta(d: int, beta: float) -> float:
    """l2-norm bound for a standard Gaussian vector in R^d."""
    _check_args(d, beta)
    lb = math.log(1.0 / beta)
    return math.sqrt(d + 2.0 * math.sqrt(d * lb) + 2.0 * lb)


def upsilon(d: int, beta: float) -> float:
    """Operator-norm bound for a symmetric Gaussian Wigner matrix."""
    _check_args(d, beta)
    logd = _log_dim(d)
    x = (logd / d) ** (1.0 / 3.0)
    return (
        2.0 * math.sqrt(d)
        + 2.0 * d ** (1.0 / 6.0) * logd ** (1.0 / 3.0)
        + 6.0 * (1.0 + x) * math.sqrt(logd) / math.sqrt(math.log1p(x))
        + 2.0 * math.sqrt(2.0 * math.log(1.0 / beta))
    )


def omega(d: int, beta: float) -> float:
    """Frobenius-norm bound for a symmetric Gaussian Wigner matrix."""
    _check_args(d, beta)
    lb = math.log(2.0 / beta)
    return math.sqrt(
        d * d + 2.0 * math.sqrt(d * lb) * (1.0 + math.sqrt(2.0 * (d - 1))) + 6.0 * lb
    )


def lap_vec_bound(d: int, beta: float) -> float:
    """l2-norm bound for a vector of d i.i.d. Lap(1) draws."""
    _check_args(d, beta)
    return 1.5 * math.sqrt(d) + LAP_C * math.log(1.0 / beta) * _log_dim(d)


def slw_op_bound(d: int, beta: float) -> float:
    """Operator-norm bound for a symmetric Laplace Wigner matrix."""
    _check_args(d, beta)
    return 3.0 * math.sqrt(d) + LAP_C * math.log(1.0 / beta) * _log_dim(d)


def slw_frob_bound(d: int, beta: float) -> float:
    """Frobenius-norm bound for a symmetric Laplace Wigner matrix."""
    _check_args(d, beta)
    return 1.5 * d + LAP_C * math.log(1.0 / beta) * _log_dim(d)
