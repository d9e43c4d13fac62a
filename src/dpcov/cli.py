"""Command-line entry point.

    dpcov run --mechanism gauss,separate --synthetic n=1000,d=64,N=4,s=3 \
              --rho 0.1 --reps 50 --seed 7 --sweep d=16,64,256 --out results.csv

Exit codes: 0 success, 2 input error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
from pathlib import Path

from .harness import (
    MECHANISMS,
    ExperimentPlan,
    NumericalFailure,
    run_plan,
    write_results,
)
from .datagen import SynthSpec
from .mechanisms import FAMILIES
from .privacy import pure, zcdp

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


def _number(text: str, whole: bool) -> float | int:
    """``text`` read as a float, and kept as an int where ``whole`` and it is
    one (``1e3`` is 1000): the check that rejects the rest names the key."""
    value = float(text)
    return int(value) if whole and value.is_integer() else value


def _parse_synthetic(text: str) -> SynthSpec:
    fields = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"bad --synthetic entry {part!r}; expected key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("n", "d", "N", "s"):
            raise ValueError(f"unknown --synthetic key {key!r} (use n, d, N, s)")
        if key in fields:
            raise ValueError(f"--synthetic key {key!r} is named twice")
        fields[key] = _number(value, whole=key != "s")
    if "n" not in fields or "d" not in fields:
        raise ValueError("--synthetic needs at least n=... and d=...")
    return SynthSpec(fields["n"], fields["d"], fields.get("N", 1), fields.get("s", 3.0))


def _parse_sweep(text: str) -> tuple[str, tuple]:
    if "=" not in text:
        raise ValueError("--sweep expects AXIS=v1,v2,...")
    axis, values = text.split("=", 1)
    axis = axis.strip()
    # whole values as ints on d, n and N; the plan rejects the rest
    parsed = [_number(v, whole=axis not in ("rho", "eps")) for v in values.split(",") if v]
    if not parsed:
        raise ValueError("--sweep got an empty value list")
    return axis, tuple(parsed)


class _HelpFormatter(argparse.HelpFormatter):
    """Wraps help text at spaces only, so a hyphenated name such as
    ``adaptive-pure`` is never split across two lines."""

    def _split_lines(self, text, width):
        return textwrap.wrap(" ".join(text.split()), width, break_on_hyphens=False)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dpcov", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run an experiment plan", formatter_class=_HelpFormatter)
    run.add_argument(
        "--mechanism",
        required=True,
        help=f"comma-separated list from {{{', '.join(MECHANISMS)}}}",
    )
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", help="CSV file, one row per individual")
    source.add_argument("--synthetic", help="synthetic spec, e.g. n=1000,d=64,N=4,s=3")
    budget = run.add_mutually_exclusive_group(required=True)
    budget.add_argument("--rho", type=float, help="zCDP budget")
    budget.add_argument("--eps", type=float, help="pure-DP budget")
    run.add_argument("--delta", type=float, default=1e-10,
                     help="delta for reporting the approximate-DP equivalent")
    run.add_argument("--beta", type=float, default=0.05, help="failure probability")
    run.add_argument("--reps", type=int, default=50, help="repetitions per configuration")
    run.add_argument("--seed", type=int, default=0, help="master seed (decimal uint64)")
    run.add_argument("--sweep", help="sweep one axis, e.g. d=16,64,256 or rho=0.05,0.1")
    run.add_argument("--out", help="results CSV path (also writes .summary.csv / .meta.json)")
    run.add_argument("--zero-noise", action="store_true",
                     help="test mode: all noise draws return 0")
    run.add_argument("--workers", type=int, default=1, help="parallel workers")
    run.add_argument("--verbose", action="store_true", help="print per-run details")
    return parser


def _plan_from_args(args) -> ExperimentPlan:
    sweep_axis, sweep_values = _parse_sweep(args.sweep) if args.sweep else (None, None)
    return ExperimentPlan(
        mechanisms=tuple(m.strip() for m in args.mechanism.split(",") if m.strip()),
        budget=zcdp(args.rho) if args.rho is not None else pure(args.eps),
        synth_spec=_parse_synthetic(args.synthetic) if args.synthetic else None,
        csv_path=args.input,
        delta=args.delta,
        beta=args.beta,
        repetitions=args.reps,
        sweep_axis=sweep_axis,
        sweep_values=sweep_values,
        master_seed=args.seed,
        zero_noise=args.zero_noise,
        workers=args.workers,
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        plan = _plan_from_args(args)
        # checked before the runs, so a mistyped directory costs none of them
        if args.out and not Path(args.out).parent.is_dir():
            raise ValueError(f"--out {args.out!r}: its directory does not exist")
        rows, summaries = run_plan(plan)
        if args.verbose:
            family, v = FAMILIES[plan.budget.kind], plan.budget.value
            if family.adaptive in plan.mechanisms:
                parts = ", ".join(f"{k}={s:.6g}" for k, s in family.ledger(v).items())
                print(f"{family.adaptive} budget ledger ({plan.budget.kind}={v:.6g}): {parts}")
            for row in rows:
                extra = ""
                if row.chosen_tau is not None:
                    extra = f" tau={row.chosen_tau:.6g} branch={row.chosen_branch}"
                print(
                    f"{row.mechanism} d={row.d} n={row.n} N={row.bins} "
                    f"{row.budget_kind}={row.budget_value:.6g} rep={row.rep} "
                    f"err={row.frobenius_error:.6g} ({row.elapsed_ms:.1f} ms){extra}"
                )
        for s in summaries:
            print(
                f"{s.mechanism} d={s.d} n={s.n} N={s.bins} {s.budget_kind}={s.budget_value:.6g}: "
                f"mean={s.mean_error:.6g} std={s.std_error:.6g} ({s.runs} runs)"
            )
        if args.out:
            write_results(rows, summaries, plan, args.out)
    except NumericalFailure as exc:
        print(f"dpcov: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"dpcov: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
