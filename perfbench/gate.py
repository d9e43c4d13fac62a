"""Correctness checks on mechanism outputs, using only public report fields
(``estimate``, ``budget_spent``, ``clip_threshold``)."""

from __future__ import annotations

import math

import numpy as np

# harness mechanism name -> public dpcov function
MECHANISMS = {
    "gauss": "gauss_cov",
    "lap": "lap_cov",
    "separate": "separate_cov",
    "separate-pure": "separate_cov_pure",
    "adaptive": "adaptive_cov",
    "adaptive-pure": "adaptive_cov_pure",
    "zero": "zero_cov",
}

# zero-noise results must match their exact target within this share of ||Sigma||_F
REL_TOL = 1e-8


def call(dpcov, name: str, x, budget: float, beta: float, stream):
    """Call a mechanism the way ``dpcov run`` does.  The function is looked
    up at call time so that a tracer's wrappers are seen."""
    fn = getattr(dpcov, MECHANISMS[name])
    if name == "zero":
        return fn(x)
    if name.startswith("adaptive"):
        return fn(x, budget, beta, stream)
    return fn(x, budget, stream)


def report_problems(report, name: str, kind: str, budget: float) -> list[str]:
    """Finite, exactly symmetric, and the whole requested budget spent."""
    problems = []
    est = report.estimate
    if not np.all(np.isfinite(est)):
        problems.append(f"{name}: non-finite estimate")
    if not np.array_equal(est, est.T):
        problems.append(f"{name}: estimate is not exactly symmetric")
    spent = report.budget_spent
    if name == "zero":
        if spent is not None:
            problems.append("zero: spent a budget")
    elif spent is None or spent.kind != kind or spent.value != budget:
        problems.append(f"{name}: spent {spent}, requested {kind} {budget}")
    return problems


def zero_noise_problems(dpcov, name: str, kind: str, x, sigma, budget: float, beta: float, seed: int) -> list[str]:
    """Run one mechanism with a zero-noise stream and compare it with its
    exact non-private target."""
    stream = dpcov.RandomStream(seed, zero_noise=True).child(f"gate/{name}")
    report = call(dpcov, name, x, budget, beta, stream)
    problems = report_problems(report, name, kind, budget)
    est = report.estimate
    tol = REL_TOL * float(np.linalg.norm(sigma))
    if name in ("gauss", "lap"):
        if not np.array_equal(est, sigma):
            problems.append(f"{name}: zero-noise estimate differs from covariance(x)")
    elif name.startswith("separate"):
        err = dpcov.frobenius_dist(est, sigma)
        if not err <= tol:
            problems.append(f"{name}: zero-noise error {err} exceeds {tol}")
    elif name.startswith("adaptive"):
        target = dpcov.covariance(dpcov.clip_dataset(x, report.clip_threshold))
        err = dpcov.frobenius_dist(est, target)
        if not err <= tol:
            problems.append(f"{name}: zero-noise error {err} against the clipped covariance exceeds {tol}")
    elif np.any(est != 0.0):
        problems.append("zero: estimate is not the zero matrix")
    return problems


def row_problems(rows, plan) -> list[str]:
    """One finite-error row per (mechanism, repetition), at the plan's budget."""
    expected = len(plan.mechanisms) * plan.repetitions
    problems = []
    if len(rows) != expected:
        problems.append(f"run_plan returned {len(rows)} rows, expected {expected}")
    for r in rows:
        if not math.isfinite(r.frobenius_error):
            problems.append(f"{r.mechanism} rep {r.rep}: non-finite error")
        if r.budget_kind != plan.budget.kind or r.budget_value != plan.budget.value:
            problems.append(f"{r.mechanism} rep {r.rep}: budget {r.budget_kind} {r.budget_value}")
    return problems
