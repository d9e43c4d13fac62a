"""Experiment runner: mechanism x dataset sweeps with deterministic seeding.

Every (configuration, repetition) pair gets its own random stream derived
from the master seed by label, so results are identical regardless of worker
count or scheduling order.  A configuration's dataset is built once, and
every run on it reads the summaries it keeps (its Grams and norm tables; see
:class:`~dpcov.linalg.Dataset`).  The results file holds one row per
repetition; the summary file one row per (mechanism, configuration) with
mean and standard deviation of the Frobenius error.  Floats are printed with 17
significant digits so files round-trip exactly and diffs are stable.

Wall-clock timings are kept in memory (``ResultRow.elapsed_ms``) but not
written to the results file, which must be byte-identical across reruns.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import json
import math
import operator
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

import numpy as np

from .adaptive import adaptive_cov, adaptive_cov_pure
from .datagen import SynthSpec, load_csv, rescale_radius, synth
from .linalg import Dataset, frobenius_dist
from .mechanisms import (
    FAMILIES,
    GAUSSIAN,
    LAPLACE,
    ZERO,
    NumericalFailure,
    PrivacyBudget,
    gauss_cov,
    lap_cov,
    separate_cov,
    separate_cov_pure,
    zcdp_to_approx,
    zero_cov,
)
from .randomness import RandomStream

__all__ = [
    "MECHANISMS",
    "ExperimentPlan",
    "ResultRow",
    "SummaryRow",
    "output_paths",
    "run_plan",
    "summarize",
    "write_results",
]

# name -> (budget kind, run(x, budget value, plan, stream)); a kind of None
# runs under either.  Each run calls a public mechanism through this module's
# name for it, so rebinding that name (to a tracing wrapper, say) is seen.
MECHANISMS = {
    GAUSSIAN.plain: (GAUSSIAN.kind, lambda x, v, p, s: gauss_cov(x, v, s)),
    LAPLACE.plain: (LAPLACE.kind, lambda x, v, p, s: lap_cov(x, v, s)),
    GAUSSIAN.separate: (GAUSSIAN.kind, lambda x, v, p, s: separate_cov(x, v, s)),
    LAPLACE.separate: (LAPLACE.kind, lambda x, v, p, s: separate_cov_pure(x, v, s)),
    GAUSSIAN.adaptive: (GAUSSIAN.kind, lambda x, v, p, s: adaptive_cov(x, v, p.beta, s)),
    LAPLACE.adaptive: (LAPLACE.kind, lambda x, v, p, s: adaptive_cov_pure(x, v, p.beta, s)),
    ZERO: (None, lambda x, v, p, s: zero_cov(x)),
}
_BUDGET_FLAGS = {"zcdp": "--rho (zCDP budget)", "pure": "--eps (pure-DP budget)"}
# sweep axis -> the SynthSpec field it sets; the budget axes set none
SWEEP_AXES = {"d": "d", "n": "n", "N": "bins", "rho": None, "eps": None}


@dataclass(frozen=True)
class ExperimentPlan:
    """One experiment: mechanisms x (optionally swept) configurations."""

    mechanisms: tuple[str, ...]
    budget: PrivacyBudget
    synth_spec: SynthSpec | None = None
    csv_path: str | None = None
    delta: float = 1e-10
    beta: float = 0.05
    repetitions: int = 50
    sweep_axis: str | None = None
    sweep_values: tuple | None = None
    master_seed: int = 0
    zero_noise: bool = False
    workers: int = 1

    def __post_init__(self):
        if not self.mechanisms:
            raise ValueError("no mechanisms selected")
        for i, m in enumerate(self.mechanisms):
            if m not in MECHANISMS:
                raise ValueError(f"unknown mechanism {m!r}")
            if m in self.mechanisms[:i]:
                raise ValueError(f"mechanism {m!r} is named twice")
            kind = MECHANISMS[m][0]
            if kind not in (None, self.budget.kind):
                raise ValueError(f"mechanism {m!r} needs {_BUDGET_FLAGS[kind]}")
        if (self.synth_spec is None) == (self.csv_path is None):
            raise ValueError("exactly one of synth_spec and csv_path is required")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        if not 0 < self.beta < 1:
            raise ValueError("beta must lie in (0, 1)")
        if (self.sweep_axis is None) != (self.sweep_values is None):
            raise ValueError("sweep axis and values go together")
        if self.sweep_axis is not None:
            if self.sweep_axis not in SWEEP_AXES:
                raise ValueError(f"unknown sweep axis {self.sweep_axis!r}")
            if not self.sweep_values:
                raise ValueError("empty sweep value list")
            if len(set(self.sweep_values)) < len(self.sweep_values):
                raise ValueError(f"repeated value in sweep {self.sweep_values}")
            if SWEEP_AXES[self.sweep_axis] and self.synth_spec is None:
                raise ValueError(f"sweeping {self.sweep_axis} requires synthetic data")
            if SWEEP_AXES[self.sweep_axis] and any(float(v) % 1 for v in self.sweep_values):
                raise ValueError(f"{self.sweep_axis} takes whole numbers, not {self.sweep_values}")
            if self.sweep_axis == "rho" and self.budget.kind != "zcdp":
                raise ValueError("sweeping rho requires a zCDP budget")
            if self.sweep_axis == "eps" and self.budget.kind != "pure":
                raise ValueError("sweeping eps requires a pure-DP budget")
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master seed must fit in an unsigned 64-bit integer")


class ResultRow(NamedTuple):
    """One mechanism run on one configuration.  A named tuple: one is built
    per run, in under half the time of a frozen dataclass."""

    mechanism: str
    d: int
    n: int
    bins: int | None
    budget_kind: str
    budget_value: float
    beta: float
    seed: int
    rep: int
    frobenius_error: float
    elapsed_ms: float
    chosen_tau: float | None
    chosen_branch: str | None


class SummaryRow(NamedTuple):
    mechanism: str
    d: int
    n: int
    bins: int | None
    budget_kind: str
    budget_value: float
    mean_error: float
    std_error: float
    runs: int


def _sub_seed(master: int, label: str) -> int:
    digest = hashlib.blake2b(
        int(master).to_bytes(8, "little") + label.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")


def _configs(plan: ExperimentPlan):
    """Yield (index, synthetic spec or None, budget, dataset) for each
    configuration in turn.  Every configuration is checked before any data is
    read or drawn.  A CSV is loaded once and shared by every configuration (a
    sweep over it can only sweep the budget); each synthetic configuration
    draws its own data when its turn comes, so a sweep need hold only one
    synthetic dataset."""
    field = SWEEP_AXES[plan.sweep_axis] if plan.sweep_axis else None
    configs = []
    for value in plan.sweep_values or (None,):
        spec, budget = plan.synth_spec, plan.budget
        if field:
            spec = dataclasses.replace(spec, **{field: int(value)})
        elif plan.sweep_axis:
            budget = FAMILIES[budget.kind].budget(float(value))
        configs.append((spec, budget))
    shared = None if plan.csv_path is None else rescale_radius(load_csv(plan.csv_path))
    for index, (spec, budget) in enumerate(configs):
        if shared is None:
            seed = _sub_seed(plan.master_seed, f"data/{index}")
            yield index, spec, budget, synth(dataclasses.replace(spec, seed=seed))
        else:
            yield index, spec, budget, shared


def run_plan(plan: ExperimentPlan) -> tuple[list[ResultRow], list[SummaryRow]]:
    """Execute the plan and return per-repetition rows plus a summary.

    The configs run one after another, each on its own dataset, whose Grams
    and norm tables are built once and read by every mechanism and
    repetition; with several workers, a config's runs are shared out before
    the next config starts."""
    root = RandomStream(plan.master_seed, zero_noise=plan.zero_noise)

    def config_runs(index: int, spec: SynthSpec | None, budget: PrivacyBudget, x: Dataset):
        """The run of one (mechanism, repetition) on this config: one stream,
        one distance to the exact covariance, whose finiteness is the one
        check, and one row, with everything the config fixes read once,
        here."""
        sigma, d, n = x.gram(), x.dim, x.count
        bins = spec.bins if spec else None
        kind, value = budget.kind, budget.value
        prefix = f"run/{index}/"

        def one_run(mech: str, rep: int) -> ResultRow:
            stream = root.child(f"{prefix}{mech}/{rep}")
            run = MECHANISMS[mech][1]
            started = time.perf_counter()
            report = run(x, value, plan, stream)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            estimate, tau = report.estimate, report.clip_threshold
            error = frobenius_dist(estimate, sigma)
            # sigma is finite (the data lie in the unit ball), so a finite
            # distance means a finite estimate; only an infinite or nan one,
            # which a huge but finite estimate can also give, needs the
            # entries read
            if not math.isfinite(error) and not np.isfinite(estimate).all():
                raise NumericalFailure(f"non-finite estimate from {mech!r}")
            return ResultRow(
                mechanism=mech,
                d=d,
                n=n,
                bins=bins,
                budget_kind=kind,
                budget_value=value,
                beta=plan.beta,
                seed=plan.master_seed,
                rep=rep,
                frobenius_error=error,
                elapsed_ms=elapsed_ms,
                chosen_tau=tau,
                chosen_branch=report.variant if tau is not None else None,
            )

        return one_run

    mechs, reps = zip(*((m, r) for m in plan.mechanisms for r in range(plan.repetitions)))
    with contextlib.ExitStack() as stack:
        if plan.workers == 1:
            map_runs = map
        else:
            # imported here: concurrent.futures adds about 8 ms to ``import dpcov``
            from concurrent.futures import ThreadPoolExecutor

            map_runs = stack.enter_context(ThreadPoolExecutor(max_workers=plan.workers)).map
        rows = []
        for index, spec, budget, x in _configs(plan):
            rows += map_runs(config_runs(index, spec, budget, x), mechs, reps)
            del x  # dropped before the next config's data is drawn
    return rows, summarize(rows)


def summarize(rows: list[ResultRow]) -> list[SummaryRow]:
    """Mean/std of the Frobenius error per (mechanism, configuration), in
    first-appearance order."""
    if not rows:
        raise ValueError("nothing to summarize")
    groups: dict[tuple, list[float]] = {}
    for row in rows:
        key = (row.mechanism, row.d, row.n, row.bins, row.budget_kind, row.budget_value)
        groups.setdefault(key, []).append(row.frobenius_error)
    out = []
    for key, errors in groups.items():
        mech, d, n, bins, kind, value = key
        # in units of 2^e, the largest finite error's binade, as frobenius_dist
        # rescales: neither the sum nor the squares in np.std can overflow
        _, e = math.frexp(max(filter(math.isfinite, errors), default=0.0))
        scaled = np.ldexp(errors, -e)
        mean = math.ldexp(float(np.mean(scaled)), e)
        with np.errstate(invalid="ignore"):  # an inf error: inf - inf, so the std is nan
            std = math.ldexp(float(np.std(scaled, ddof=1)), e) if len(errors) > 1 else 0.0
        out.append(SummaryRow(mech, d, n, bins, kind, value, mean, std, len(errors)))
    return out


def _cell_writer(hint):
    """How a field of type ``hint`` is written: a float as
    ``format(v, ".17g")``, so files round-trip exactly; anything else with
    ``str``; None, where the type admits it, as an empty cell."""
    kinds = get_args(hint) or (hint,)
    write = "{:.17g}".format if float in kinds else str
    if type(None) in kinds:
        return lambda v: "" if v is None else write(v)
    return write


def _write_csv(path: Path, rows, fields: dict[str, type]) -> None:
    """One row per item, one column per field (name -> type); ``bins`` is
    headed ``N``.  Each field's writer is chosen once and mapped down its
    column."""
    columns = [map(_cell_writer(t), map(operator.attrgetter(f), rows)) for f, t in fields.items()]
    with path.open("w", newline="") as fh:
        fh.write(",".join("N" if f == "bins" else f for f in fields) + "\n")
        fh.writelines(line + "\n" for line in map(",".join, zip(*columns)))


@functools.cache
def _blas() -> dict:
    """The name and version of the BLAS numpy was built with, read once:
    ``np.show_config`` takes about 1.6 ms."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"name": blas["name"], "version": blas["version"]}


def _blas_threads() -> int | str:
    """The thread count of the OpenBLAS that numpy loaded, or "unknown"
    where it cannot be read (another BLAS, or no /proc/self/maps)."""
    get = _openblas_get_num_threads()
    return "unknown" if get is None else int(get())


@functools.cache
def _openblas_get_num_threads():
    """OpenBLAS's thread-count getter, looked up once: the maps scan costs
    about a millisecond, as much as 2% of a small plan."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in libs:
            lib = ctypes.CDLL(path)
            for symbol in (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return fn
    except OSError:
        pass
    return None


def output_paths(out_path: str | Path) -> tuple[Path, Path, Path]:
    """The results CSV at ``out_path`` and its two sidecars, the summary CSV
    and the metadata, that :func:`write_results` writes."""
    out_path = Path(out_path)
    return out_path, out_path.with_suffix(".summary.csv"), out_path.with_suffix(".meta.json")


def write_results(
    rows: list[ResultRow],
    summaries: list[SummaryRow],
    plan: ExperimentPlan,
    out_path: str | Path,
) -> dict:
    """Write the results CSV, a plot-ready summary CSV, and a JSON metadata
    sidecar (:func:`output_paths`); returns the metadata.  All three are
    deterministic functions of the plan and master seed.  The metadata of a
    CSV plan carries ``"non_private": true``: its data were rescaled by a
    non-private, data-dependent factor."""
    results_path, summary_path, meta_path = output_paths(out_path)
    result_fields = get_type_hints(ResultRow)
    # wall-clock times stay out of the file, which must be rerun-stable
    del result_fields["elapsed_ms"]
    _write_csv(results_path, rows, result_fields)
    _write_csv(summary_path, summaries, get_type_hints(SummaryRow))
    spec = plan.synth_spec
    meta = {
        "mechanisms": list(plan.mechanisms),
        # the spec's seed is left out: run_plan draws each configuration's
        # data from a sub-seed of the master seed
        "synthetic": None if spec is None else {
            "n": int(spec.n), "d": int(spec.d), "bins": int(spec.bins), "skew": float(spec.skew),
        },
        "csv_path": None if plan.csv_path is None else str(plan.csv_path),
        "budget_kind": plan.budget.kind,
        "budget_value": plan.budget.value,
        "beta": plan.beta,
        "delta": plan.delta,
        "repetitions": plan.repetitions,
        "master_seed": plan.master_seed,
        "zero_noise": plan.zero_noise,
        "sweep_axis": plan.sweep_axis,
        "sweep_values": list(plan.sweep_values) if plan.sweep_values else None,
        # seeds reproduce the same bytes only under the same numpy, BLAS and
        # BLAS thread count (the BLAS's rounding of Z U and of the
        # mechanisms' products depends on all three)
        "numpy": np.__version__,
        "blas": {**_blas(), "threads": _blas_threads()},
        "python": platform.python_version(),
    }
    if plan.budget.kind == "zcdp":
        meta["approx_dp_equivalent"] = {
            "eps": zcdp_to_approx(plan.budget.value, plan.delta),
            "delta": plan.delta,
        }
    if plan.csv_path is not None:
        # a CSV is divided by 2^ceil(log2 of its largest norm), a power of
        # two read off the data without noise (datagen.rescale_radius), so
        # no budget covers the release
        meta["non_private"] = True
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return meta
