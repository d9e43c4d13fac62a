#!/usr/bin/env python3
"""dpcov benchmark: one workload per process, driven through the public API.

    python3 perfbench/run.py --workload tall-adaptive --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35 --trace 1

Run from anywhere; it benchmarks the sources in ``src/`` next to this
directory and exits with code 2, printing no result, when they are missing.
``--workload all`` runs every workload, each in a fresh process.

A run builds the workload's inputs from ``--seed``, checks the mechanisms'
zero-noise outputs, then measures for about ``--seconds`` seconds.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the same plans alternately with and without spans around dpcov's public
functions and reports the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds host facts and
informational fields.  The exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402  (imported before timing dpcov's own import)

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench-work"
SETUP_BUILDS = 3
MIN_STEPS = 2  # every timed loop runs at least this often, past its deadline if need be

END_TO_END_UNITS = {
    "setup_s": "s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "frob_err_gmean": "fro_norm",
}

PER_LAYER_UNITS = {
    "linalg.full_passes_per_run": "count/run",
    "linalg.bytes_per_run": "B/run",
    "linalg.dataset.self_ms": "ms/run",
    "linalg.norms.self_ms": "ms/run",
    "linalg.clip_dataset.self_ms": "ms/run",
    "linalg.covariance.self_ms": "ms/run",
    "linalg.covariance.gflops": "GFLOP/s",
    "linalg.eig_sym.self_ms": "ms/run",
    "linalg.eig_sym.calls_per_run": "count/run",
    "linalg.reconstruct.self_ms": "ms/run",
    "randomness.wigner.self_ms": "ms/run",
    "randomness.stream.children_per_run": "count/run",
    "randomness.stream.self_ms": "ms/run",
    "bounds.calls_per_run": "count/run",
    "bounds.self_ms": "ms/run",
    "adaptive.svt.queries_per_run": "count/run",
    "adaptive.svt.self_ms": "ms/run",
    "adaptive.priv_radius.self_ms": "ms/run",
    "adaptive.private_trace_ub.self_ms": "ms/run",
    "adaptive.build_histogram.self_ms": "ms/run",
    "mechanisms.clip_mechanism.self_ms": "ms/run",
    "adaptive.adaptive_cov.ms_p50": "ms",
    "adaptive.adaptive_cov.ms_p90": "ms",
    "mechanisms.gauss_cov.ms_p50": "ms",
    "mechanisms.lap_cov.ms_p50": "ms",
    "mechanisms.separate_cov.ms_p50": "ms",
    "mechanisms.separate_cov_pure.ms_p50": "ms",
    "adaptive.adaptive_cov_pure.ms_p50": "ms",
    "harness.run_plan.self_ms_per_run": "ms/run",
    "harness.write_results.self_ms": "ms/run",
    "datagen.self_ms": "ms",
    "datagen.mb_per_s": "MB/s",
    "trace.overhead_frac": "frac",
}

# derived from counts and sizes, not measured directly
COMPUTED = ("linalg.bytes_per_run", "linalg.covariance.gflops", "datagen.mb_per_s")

# functions that read the whole d x n array on every call
FULL_PASSES = (
    "linalg.Dataset.__post_init__",
    "linalg.Dataset.norms",
    "linalg.radius",
    "linalg.covariance",
    "linalg.clip_dataset",
    "linalg.trace_stat",
    "linalg.tail_gamma",
)
# FULL_PASSES functions that read the array through another one of them
# (radius through Dataset.norms); a call counts only when it made no such call
PASS_DELEGATES = {"linalg.radius"}

# mechanisms timed call by call in the traced run, with their budget kind
PER_CALL = (
    ("adaptive", "zcdp"),
    ("gauss", "zcdp"),
    ("lap", "pure"),
    ("separate", "zcdp"),
    ("separate-pure", "pure"),
    ("adaptive-pure", "pure"),
)

LIMITS = (
    "only this benchmark's own processes were timed",
    "no CPU pinning",
    "no page-cache dropping",
    "the machine is shared with other tenants",
)


def percentile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def repeat_for(seconds: float, step, minimum: int):
    """Call ``step`` at least ``minimum`` times, then until another call
    would likely end more than half a call past ``seconds``."""
    until = time.perf_counter() + seconds
    done = 0
    while True:
        started = time.perf_counter()
        step()
        done += 1
        now = time.perf_counter()
        if done >= minimum and now + (now - started) / 2 > until:
            return


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class WorkloadRun:
    """One workload, one seed: inputs, correctness bookkeeping, measurements."""

    def __init__(self, dpcov, workload, seed: int, work: Path):
        self.dpcov = dpcov
        self.w = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.summaries: dict[str, list] = {}
        self.calls_made = 0
        self.info: dict = {}

    # -- bookkeeping ------------------------------------------------------

    def record(self, operations: int, problems: list[str]):
        self.attempted += operations
        self.failed += min(operations, len(problems))
        self.problems.extend(problems)

    def guarded(self, operations: int, what: str, fn):
        """Run ``fn``; an exception counts all ``operations`` as failed."""
        try:
            return fn()
        except Exception as exc:  # a failing operation is a result to report
            traceback.print_exc(file=sys.stderr)
            self.record(operations, [f"{what} raised {exc!r}"] * operations)
            return None

    # -- inputs -----------------------------------------------------------

    def build(self):
        dp, w = self.dpcov, self.w
        x = dp.synth(dp.SynthSpec(n=w.n, d=w.d, bins=w.bins, seed=self.seed))
        return x, dp.covariance(x)

    def setup(self, tracer: tracing.Tracer | None) -> float:
        """Build the inputs SETUP_BUILDS times; the median build time in s."""
        times = []
        if tracer:
            tracer.install()
        try:
            for _ in range(SETUP_BUILDS):
                self.x = self.sigma = None  # so no two builds are alive at once
                started = time.perf_counter()
                self.x, self.sigma = self.build()
                times.append(time.perf_counter() - started)
        finally:
            if tracer:
                tracer.uninstall()
        return statistics.median(times)

    def budgets(self):
        w = self.w
        return (("zcdp", w.rho, w.zcdp_mechanisms), ("pure", w.eps, w.pure_mechanisms))

    def plans(self):
        dp, w = self.dpcov, self.w
        make = {"zcdp": dp.zcdp, "pure": dp.pure}
        return [
            dp.ExperimentPlan(
                mechanisms=names,
                budget=make[kind](value),
                beta=w.beta,
                repetitions=w.repetitions,
                master_seed=self.seed,
                workers=1,
                synth_spec=dp.SynthSpec(n=w.n, d=w.d, bins=w.bins),
            )
            for kind, value, names in self.budgets()
        ]

    # -- correctness ------------------------------------------------------

    def check_zero_noise(self):
        w = self.w
        for kind, value, names in self.budgets():
            for name in names:
                problems = self.guarded(
                    1,
                    f"zero-noise {name}",
                    lambda: gate.zero_noise_problems(
                        self.dpcov, name, kind, self.x, self.sigma, value, w.beta, self.seed
                    ),
                )
                if problems is not None:
                    self.record(1, problems)

    # -- timed work -------------------------------------------------------

    def plan_round(self, plans) -> tuple[int, float]:
        """Each plan once through run_plan + write_results: (runs, seconds)."""
        dp = self.dpcov
        runs, busy = 0, 0.0
        for plan in plans:
            kind = plan.budget.kind
            out = self.work / f"results-{kind}.csv"
            expected = len(plan.mechanisms) * plan.repetitions

            def one():
                rows, summaries = dp.run_plan(plan)
                dp.write_results(rows, summaries, plan, out)
                return rows, summaries

            started = time.perf_counter()
            result = self.guarded(expected, f"{kind} plan", one)
            busy += time.perf_counter() - started
            if result is None:
                continue
            rows, summaries = result
            runs += len(rows)
            problems = gate.row_problems(rows, plan)
            digest = sha256(out)
            if self.digests.setdefault(kind, digest) != digest:
                problems.append(f"{kind} results.csv differs from the first round's")
            self.record(expected, problems)
            self.summaries.setdefault(kind, summaries)
        return runs, busy

    def time_call(self, name: str, kind: str, values: list[float]):
        """Append to ``values`` the wall ms of one direct call of a mechanism
        on the built dataset, with a fresh stream made before the clock starts."""
        budget = self.w.rho if kind == "zcdp" else self.w.eps
        self.calls_made += 1
        stream = self.dpcov.RandomStream(self.seed).child(f"bench/{name}/{self.calls_made}")
        started = time.perf_counter()
        report = self.guarded(
            1, name, lambda: gate.call(self.dpcov, name, self.x, budget, self.w.beta, stream)
        )
        elapsed = time.perf_counter() - started
        if report is not None:
            values.append(elapsed * 1e3)
            self.record(1, gate.report_problems(report, name, kind, budget))

    def end_to_end(self, seconds: float, setup_s: float) -> dict[str, float]:
        plans = self.plans()
        rates: list[float] = []  # runs per second of each plan round
        runs = busy = 0

        def step():
            nonlocal runs, busy
            r, b = self.plan_round(plans)
            runs, busy = runs + r, busy + b
            rates.append(r / b)

        repeat_for(seconds, step, MIN_STEPS)
        errors = [
            s.mean_error
            for summaries in self.summaries.values()
            for s in summaries
            if s.mechanism != "zero"
        ]
        self.info["samples"] = {"plan_rounds": len(rates), "plan_runs": runs, "round_runs_per_s": rates}
        return {
            "setup_s": setup_s,
            "runs_per_s": runs / busy if runs else math.nan,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "frob_err_gmean": math.exp(statistics.fmean(math.log(e) for e in errors)) if errors else math.nan,
        }

    def per_layer(self, seconds: float, setup_tracer: tracing.Tracer) -> dict[str, float]:
        plans = self.plans()
        tracer = tracing.Tracer()
        side = {False: [0, 0.0, 0], True: [0, 0.0, 0]}  # runs, seconds, rounds

        def step():
            traced = side[False][2] > side[True][2]
            if traced:
                tracer.install()
            try:
                r, b = self.plan_round(plans)
            finally:
                if traced:
                    tracer.uninstall()
            side[traced][0] += r
            side[traced][1] += b
            side[traced][2] += 1

        self.plan_round(plans)  # warm-up, checked but not timed
        repeat_for(seconds / 2, step, 2 * MIN_STEPS)
        per_call: dict[str, list[float]] = {name: [] for name, _ in PER_CALL}

        def cycle():
            for name, kind in PER_CALL:
                self.time_call(name, kind, per_call[name])

        repeat_for(seconds / 2, cycle, MIN_STEPS)

        runs = max(side[True][0], 1)
        d, n = self.x.dim, self.x.count
        totals = tracing.totals(tracer.spans)

        def self_ms(*names):
            return sum(totals[k]["self_ns"] for k in names if k in totals) / 1e6 / runs

        def per_run(*names):
            return sum(totals[k]["calls"] for k in names if k in totals) / runs

        passes = tracing.count_calls(tracer.spans, set(FULL_PASSES), PASS_DELEGATES) / runs
        cov = totals.get("linalg.covariance", {"calls": 0, "self_ns": 0})
        setup_totals = tracing.totals(setup_tracer.spans)
        datagen_ms = sum(v["self_ns"] for k, v in setup_totals.items() if k.startswith("datagen.")) / 1e6 / SETUP_BUILDS
        rate = {t: side[t][0] / side[t][1] if side[t][1] else math.nan for t in side}
        bounds = [k for k in totals if k.startswith("bounds.")]

        metrics = {
            "linalg.full_passes_per_run": passes,
            "linalg.bytes_per_run": passes * 8 * d * n,
            "linalg.dataset.self_ms": self_ms("linalg.Dataset.__post_init__"),
            "linalg.norms.self_ms": self_ms("linalg.Dataset.norms"),
            "linalg.clip_dataset.self_ms": self_ms("linalg.clip_dataset"),
            "linalg.covariance.self_ms": self_ms("linalg.covariance"),
            "linalg.covariance.gflops": 2.0 * d * d * n * cov["calls"] / cov["self_ns"] if cov["self_ns"] else math.nan,
            "linalg.eig_sym.self_ms": self_ms("linalg.eig_sym"),
            "linalg.eig_sym.calls_per_run": per_run("linalg.eig_sym"),
            "linalg.reconstruct.self_ms": self_ms("linalg.reconstruct"),
            "randomness.wigner.self_ms": self_ms("randomness.sgw_matrix", "randomness.slw_matrix"),
            "randomness.stream.children_per_run": per_run("randomness.RandomStream.child"),
            "randomness.stream.self_ms": self_ms("randomness.RandomStream.__init__", "randomness.RandomStream.child"),
            "bounds.calls_per_run": per_run(*bounds),
            "bounds.self_ms": self_ms(*bounds),
            "adaptive.svt.queries_per_run": tracer.counts[tracing.SVT_QUERIES] / runs,
            "adaptive.svt.self_ms": self_ms("adaptive.svt"),
            "adaptive.priv_radius.self_ms": self_ms("adaptive.priv_radius"),
            "adaptive.private_trace_ub.self_ms": self_ms("adaptive.private_trace_ub"),
            "adaptive.build_histogram.self_ms": self_ms("adaptive.build_histogram"),
            "mechanisms.clip_mechanism.self_ms": self_ms("mechanisms.clip_mechanism"),
            "harness.run_plan.self_ms_per_run": self_ms("harness.run_plan"),
            "harness.write_results.self_ms": self_ms("harness.write_results"),
            "datagen.self_ms": datagen_ms,
            "datagen.mb_per_s": 8 * d * n / 1e6 / (datagen_ms / 1e3) if datagen_ms else math.nan,
            "trace.overhead_frac": 1.0 - rate[True] / rate[False],
        }
        for name, _ in PER_CALL:
            fn = gate.MECHANISMS[name]
            module = "adaptive" if name.startswith("adaptive") else "mechanisms"
            values = per_call[name]
            metrics[f"{module}.{fn}.ms_p50"] = statistics.median(values) if values else math.nan
        adaptive = per_call["adaptive"]
        metrics["adaptive.adaptive_cov.ms_p90"] = percentile(adaptive, 0.9) if adaptive else math.nan

        traced_ns = side[True][1] * 1e9
        adaptive_self, adaptive_ns = tracing.self_under(
            tracer.spans, {"adaptive.adaptive_cov", "adaptive.adaptive_cov_pure"}
        )
        self.info["samples"] = {
            "untraced_rounds": side[False][2],
            "traced_rounds": side[True][2],
            "traced_runs": side[True][0],
            "spans": len(tracer.spans),
            "per_call": {name: len(v) for name, v in per_call.items()},
        }
        self.info["layers"] = {
            k: {"calls_per_run": v["calls"] / runs, "self_ms_per_run": v["self_ns"] / 1e6 / runs}
            for k, v in sorted(totals.items(), key=lambda kv: -kv[1]["self_ns"])
        }
        self.info["self_share_of_traced_time"] = {
            k: v["self_ns"] / traced_ns for k, v in totals.items() if v["self_ns"] > 0.01 * traced_ns
        }
        self.info["self_share_of_adaptive_runs"] = {
            k: v / adaptive_ns for k, v in sorted(adaptive_self.items(), key=lambda kv: -kv[1]) if adaptive_ns and v > 0.01 * adaptive_ns
        }
        self.info["setup_layers"] = {
            k: {"calls": v["calls"], "self_ms": v["self_ns"] / 1e6} for k, v in setup_totals.items()
        }
        self.info["computed"] = list(COMPUTED)
        return metrics


def blas_threads() -> int | str:
    """OpenBLAS's thread count, read from the library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    blas["threads"] = blas_threads()
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        if proc.returncode == 0:
            revision = proc.stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "git_revision": revision,
    }


IMPORT_PROBE = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import dpcov; print(time.perf_counter() - t)"
)


def import_seconds(src: Path) -> float:
    """Median time to import dpcov (after numpy) in a fresh interpreter."""
    times = []
    for _ in range(SETUP_BUILDS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(src)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def finite_or_none(value: float):
    return value if math.isfinite(value) else None


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool) -> int:
    src = ROOT / "src"
    if not (src / "dpcov" / "__init__.py").is_file():
        print(f"no dpcov sources at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    dpcov = importlib.import_module("dpcov")
    if Path(dpcov.__file__).resolve().parent != (src / "dpcov").resolve():
        print(f"imported dpcov from {dpcov.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[name].toy() if toy else WORKLOADS[name]
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR))
    try:
        run = WorkloadRun(dpcov, workload, seed, work)
        setup_tracer = tracing.Tracer() if trace else None
        build_s = run.setup(setup_tracer)
        import_s = None if trace else import_seconds(src)
        run.check_zero_noise()
        if trace:
            metrics = run.per_layer(seconds, setup_tracer)
            units = PER_LAYER_UNITS
        else:
            # only the traced per-call loop uses the built inputs; dropping
            # them keeps them out of peak_rss_mb
            run.x = run.sigma = None
            metrics = run.end_to_end(seconds, import_s + build_s)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:  # another run is still using it
            pass

    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "toy": toy,
        "host": host_facts(),
        "limits": list(LIMITS),
        "failed_frac": run.failed / max(run.attempted, 1),
        "problems": run.problems[:20],
        "results_sha256": run.digests,
        **run.info,
    }
    if not trace:
        info["import_s"] = import_s
    for key in units:
        print(f"{key} = {metrics[key]:.6g} {units[key]}")
    print(json.dumps({"info": info}, sort_keys=True))
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": finite_or_none(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Every workload in its own process; a combined result line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--toy"] if args.toy else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="shrink the workloads to smoke-test size")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2^63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.toy)


if __name__ == "__main__":
    sys.exit(main())
