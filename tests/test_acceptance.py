"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live;
without ``-s`` they still print through the capture-disabled reporter.

Statistical criteria are seeded and sized so their pass margins are far
wider than the Monte-Carlo noise of the estimators involved.  Criterion 6
pairs repetitions across configurations with common random numbers, so the
predicted ties and orderings hold exactly rather than up to sampling noise.
"""

import math
import time

import numpy as np

from oracle_utils import (
    calibrations,
    sensitivity_probe,
    skewed_dataset,
    zero_noise_tau_oracle,
)

from dpcov.adaptive import adaptive_cov, adaptive_cov_pure, svt
from dpcov.bounds import (
    eta,
    lap_vec_bound,
    omega,
    slw_frob_bound,
    slw_op_bound,
    upsilon,
)
from dpcov.datagen import SynthSpec, synth
from dpcov.harness import ExperimentPlan, run_plan, write_results
from dpcov.linalg import (
    Dataset,
    clip_dataset,
    covariance,
    frobenius_dist,
    tail_gamma,
    trace_stat,
)
from dpcov.mechanisms import (
    GAUSSIAN,
    LAPLACE,
    clip_mechanism,
    gauss_cov,
    lap_cov,
    separate_cov,
    separate_cov_pure,
)
from dpcov.privacy import zcdp
from dpcov.randomness import (
    RandomStream,
    gaussian_vector,
    laplace_vector,
    sgw_matrix,
    slw_matrix,
)


def report(capsys, number, name, ok, detail, elapsed, limit):
    with capsys.disabled():
        status = "PASS" if ok and elapsed < limit else "FAIL"
        print(f"[ACCEPT {number:02d}] {name}: {status} ({detail}; {elapsed:.1f}s < {limit:.0f}s)")
    assert ok, f"criterion {number} ({name}): {detail}"
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f}s budget: {elapsed:.1f}s"


def test_criterion_01_noise_calibration(capsys):
    started = time.perf_counter()
    d, n, rho, reps = 2, 100, 1.0, 100_000
    x = Dataset(np.eye(d, n))
    stream = RandomStream(1001)
    draws = np.empty(reps)
    for i in range(reps):
        draws[i] = gauss_cov(x, rho, stream).estimate[0, 1]
    target = 1.0 / (math.sqrt(rho) * n)
    rel = abs(draws.std() - target) / target
    report(
        capsys, 1, "noise-calibration", rel <= 0.02,
        f"offdiag std {draws.std():.6f} vs {target:.6f}, rel err {rel:.2%}",
        time.perf_counter() - started, 30,
    )


def test_criterion_02_sensitivity_suite(capsys):
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    slack = 1e-9
    worst = -math.inf
    ok = True
    for _ in range(10_000):
        d = int(rng.integers(2, 33))
        n = int(rng.integers(2, 65))
        cols = rng.standard_normal((d, n))
        cols /= np.maximum(np.linalg.norm(cols, axis=0), 1.0)
        cols *= rng.uniform(0.0, 1.0, size=n)
        primed = cols.copy()
        replacement = rng.standard_normal(d)
        replacement /= max(np.linalg.norm(replacement), 1.0)
        primed[:, rng.integers(n)] = replacement * rng.uniform(0.0, 1.0)
        probe = sensitivity_probe(Dataset(cols), Dataset(primed))
        margins = [probe[key] - value for key, value in calibrations(d, n).items()]
        worst = max(worst, *margins)
        ok = ok and all(m <= slack for m in margins)
    report(
        capsys, 2, "sensitivity-suite", ok,
        f"10^4 neighbor pairs, worst bound excess {worst:.2e} (slack 1e-9)",
        time.perf_counter() - started, 120,
    )


def test_criterion_03_concentration_coverage(capsys):
    started = time.perf_counter()
    trials = 10_000
    betas = (0.05, 0.2)
    failures = []
    stream = RandomStream(1003)
    for d in (16, 64):
        gauss_norms = np.linalg.norm(
            gaussian_vector(stream, trials * d).reshape(trials, d), axis=1
        )
        lap_norms = np.linalg.norm(
            laplace_vector(stream, trials * d).reshape(trials, d), axis=1
        )
        sgw = np.empty((trials, d, d))
        slw = np.empty((trials, d, d))
        for i in range(trials):
            sgw[i] = sgw_matrix(stream, d)
            slw[i] = slw_matrix(stream, d)
        sgw_op = np.abs(np.linalg.eigvalsh(sgw)).max(axis=1)
        sgw_fro = np.linalg.norm(sgw, axis=(1, 2))
        slw_op = np.abs(np.linalg.eigvalsh(slw)).max(axis=1)
        slw_fro = np.linalg.norm(slw, axis=(1, 2))
        for beta in betas:
            checks = [
                ("eta", np.mean(gauss_norms > eta(d, beta))),
                ("upsilon", np.mean(sgw_op > upsilon(d, beta))),
                ("omega", np.mean(sgw_fro > omega(d, beta))),
                ("lap_vec", np.mean(lap_norms > lap_vec_bound(d, beta))),
                ("slw_op", np.mean(slw_op > slw_op_bound(d, beta))),
                ("slw_frob", np.mean(slw_fro > slw_frob_bound(d, beta))),
            ]
            failures.extend(
                f"{name}(d={d},beta={beta}): {freq:.4f}"
                for name, freq in checks
                if freq > beta
            )
    report(
        capsys, 3, "concentration-coverage", not failures,
        "all 6 bounds within beta at d in {16,64}" if not failures else "; ".join(failures),
        time.perf_counter() - started, 300,
    )


def test_criterion_04_worst_case_scaling(capsys):
    started = time.perf_counter()
    rho, n, reps = 0.1, 1000, 50
    dims = (16, 64, 256, 1024)
    gauss_means, sep_means = [], []
    for d in dims:
        x = synth(SynthSpec(n=n, d=d, bins=1, seed=1400 + d))
        sigma = x.gram()
        ge = [
            frobenius_dist(
                gauss_cov(x, rho, RandomStream(1401).child(f"{d}/{r}")).estimate, sigma
            )
            for r in range(reps)
        ]
        se = [
            frobenius_dist(
                separate_cov(x, rho, RandomStream(1402).child(f"{d}/{r}")).estimate, sigma
            )
            for r in range(reps)
        ]
        gauss_means.append(float(np.mean(ge)))
        sep_means.append(float(np.mean(se)))
    log_d = np.log(dims)
    gauss_slope = float(np.polyfit(log_d, np.log(gauss_means), 1)[0])
    sep_slope = float(np.polyfit(log_d, np.log(sep_means), 1)[0])
    ok = (
        0.85 <= gauss_slope <= 1.15
        and 0.10 <= sep_slope <= 0.45
        and sep_means[-1] < gauss_means[-1]
        and sep_means[0] >= gauss_means[0]
    )
    report(
        capsys, 4, "worst-case-scaling", ok,
        f"gauss slope {gauss_slope:.3f} in [0.85,1.15], separate slope {sep_slope:.3f} "
        f"in [0.10,0.45], crossover at d=16/{dims[-1]} ok",
        time.perf_counter() - started, 600,
    )


def test_criterion_05_theorem_bound(capsys):
    started = time.perf_counter()
    d, n, rho, beta, runs = 256, 1000, 0.1, 0.05, 200
    x = synth(SynthSpec(n=n, d=d, bins=1, seed=1500))
    sigma = covariance(x)
    tr = trace_stat(x)
    bound = (2**1.25) * math.sqrt(tr) / (rho**0.25 * math.sqrt(n)) * math.sqrt(
        upsilon(d, beta / 2)
    ) + math.sqrt(2) / (math.sqrt(rho) * n) * eta(d, beta / 2)
    stream = RandomStream(1501)
    errors = [
        frobenius_dist(separate_cov(x, rho, stream).estimate, sigma) for _ in range(runs)
    ]
    hits = sum(e <= bound for e in errors)
    report(
        capsys, 5, "theorem-bound", hits >= 0.95 * runs,
        f"{hits}/{runs} runs under bound {bound:.3f} (max error {max(errors):.3f})",
        time.perf_counter() - started, 300,
    )


def test_criterion_06_trace_sensitivity(capsys):
    started = time.perf_counter()
    d, n, rho, beta, reps = 200, 50_000, 0.1, 0.05, 50
    bins = (1, 2, 4, 8)
    means = {"gauss": [], "separate": [], "adaptive": []}
    for n_bins in bins:
        # one pass over the data; the three mechanisms and every rep read the
        # Grams and norm tables the dataset keeps
        x = synth(SynthSpec(n=n, d=d, bins=n_bins, seed=1600 + n_bins))
        sigma = x.gram()
        errs = {"gauss": [], "separate": [], "adaptive": []}
        for r in range(reps):
            # one stream label per (mechanism, rep), shared across bin counts:
            # common random numbers pair the comparisons
            errs["gauss"].append(
                frobenius_dist(
                    gauss_cov(x, rho, RandomStream(1601).child(f"rep{r}")).estimate, sigma
                )
            )
            errs["separate"].append(
                frobenius_dist(
                    separate_cov(x, rho, RandomStream(1602).child(f"rep{r}")).estimate, sigma
                )
            )
            errs["adaptive"].append(
                frobenius_dist(
                    adaptive_cov(x, rho, beta, RandomStream(1603).child(f"rep{r}")).estimate,
                    sigma,
                )
            )
        for mech in means:
            means[mech].append(float(np.mean(errs[mech])))
    gauss_spread = max(means["gauss"]) / min(means["gauss"]) - 1.0
    sep_monotone = all(
        b <= a * (1 + 1e-9) for a, b in zip(means["separate"], means["separate"][1:])
    )
    ada_monotone = all(
        b <= a * (1 + 1e-9) for a, b in zip(means["adaptive"], means["adaptive"][1:])
    )
    ok = gauss_spread <= 0.10 and sep_monotone and ada_monotone
    report(
        capsys, 6, "trace-sensitivity", ok,
        f"gauss spread {gauss_spread:.2%} (<=10%), separate {np.round(means['separate'], 5)} "
        f"and adaptive {np.round(means['adaptive'], 5)} nonincreasing in N",
        time.perf_counter() - started, 900,
    )


def test_criterion_07_adaptive_optimality(capsys):
    started = time.perf_counter()
    n, rho, beta, runs = 4096, 0.1, 0.05, 50
    x = skewed_dataset(n, seed=1700, heavy=5)
    d = x.dim
    sigma = x.gram()
    tr = trace_stat(x)

    adaptive_errors = [
        frobenius_dist(
            adaptive_cov(x, rho, beta, RandomStream(1701).child(f"r{i}")).estimate, sigma
        )
        for i in range(runs)
    ]
    plain_errors = [
        frobenius_dist(
            separate_cov(x, rho, RandomStream(1702).child(f"r{i}")).estimate, sigma
        )
        for i in range(runs)
    ]

    # oracle: best noise-plus-tail objective over the dyadic grid spanning
    # the data's norm scales, the comparator the adaptive guarantee targets
    grid = [math.ldexp(1.0, t) for t in range(0, -9, -1)]
    bounds = GAUSSIAN.noise_bounds(rho, beta, d, n)
    objective = min(
        min(bounds(trace_stat(clip_dataset(x, tau)), tau))
        + tail_gamma(x, tau)
        for tau in grid
    )
    # diagnostic only: best *measured* clipped-mechanism error on the same
    # grid (the bound-driven branch dispatch cannot chase this within any
    # constant when the branch bounds have different slack)
    empirical = math.inf
    for tau in grid[:4]:
        for branch in ("gauss", "separate"):
            runs_e = [
                frobenius_dist(
                    clip_mechanism(
                        x, zcdp(rho), tau, RandomStream(1703).child(f"{tau}/{branch}/{i}"), branch
                    ).estimate,
                    sigma,
                )
                for i in range(12)
            ]
            empirical = min(empirical, float(np.mean(runs_e)))

    mean_adaptive = float(np.mean(adaptive_errors))
    mean_plain = float(np.mean(plain_errors))
    ok = mean_adaptive <= 1.5 * objective and mean_adaptive < mean_plain
    report(
        capsys, 7, "adaptive-optimality", ok,
        f"adaptive {mean_adaptive:.5f} <= 1.5x objective oracle {objective:.5f} "
        f"(ratio {mean_adaptive / objective:.2f}; vs measured-best {empirical:.5f} "
        f"the ratio is {mean_adaptive / empirical:.2f}) and < unclipped separate {mean_plain:.5f}",
        time.perf_counter() - started, 600,
    )


def test_criterion_08_zero_noise_exactness(capsys):
    started = time.perf_counter()
    x = synth(SynthSpec(n=400, d=12, bins=3, seed=1800))
    sigma = covariance(x)
    zero = RandomStream(0, zero_noise=True)
    exact = (
        np.array_equal(gauss_cov(x, 0.5, zero).estimate, sigma)
        and np.array_equal(lap_cov(x, 0.5, zero).estimate, sigma)
        and frobenius_dist(separate_cov(x, 0.5, zero).estimate, sigma)
        <= 1e-8 * np.linalg.norm(sigma)
        and frobenius_dist(separate_cov_pure(x, 0.5, zero).estimate, sigma)
        <= 1e-8 * np.linalg.norm(sigma)
    )

    rng = np.random.default_rng(1801)
    matches = 0
    for i in range(100):
        d = int(rng.integers(2, 9))
        n = int(rng.integers(600, 2000))
        scale_exp = int(rng.integers(-6, 1))
        norms = np.ldexp(rng.uniform(0.3, 1.0, size=n), scale_exp)
        heavy = int(rng.integers(0, 8))
        norms[:heavy] = rng.uniform(0.5, 1.0, size=heavy)
        cols = rng.standard_normal((d, n))
        cols /= np.linalg.norm(cols, axis=0)
        data = Dataset(cols * norms)
        rho = float(rng.choice([1.0, 4.0]))
        rep = adaptive_cov(data, rho, 0.05, RandomStream(0, zero_noise=True))
        r_oracle, tau_oracle = zero_noise_tau_oracle(data, rho, 0.05)
        matches += rep.selection.r_tilde == r_oracle and rep.selection.tau == tau_oracle
    report(
        capsys, 8, "zero-noise-exactness", exact and matches == 100,
        f"mechanisms exact; adaptive threshold matched the grid oracle on {matches}/100 datasets",
        time.perf_counter() - started, 120,
    )


def test_criterion_09_svt_utility(capsys):
    started = time.perf_counter()
    eps, t, beta, trials = 1.0, 100, 0.1, 1000
    slack = (6.0 / eps) * math.log(2 * t / beta)
    rng = np.random.default_rng(1900)
    stream = RandomStream(1901)
    good = 0
    for _ in range(trials):
        values = rng.uniform(-60.0, 60.0, size=t)
        k = svt(iter(values), 1.0, 0.0, eps, stream)
        ok = all(values[i] <= slack for i in range(k - 1))
        if k <= t:
            ok = ok and values[k - 1] >= -slack
        good += ok
    report(
        capsys, 9, "svt-utility", good >= 0.9 * trials,
        f"{good}/{trials} trials within the (6/eps)log(2t/beta) slack",
        time.perf_counter() - started, 60,
    )


def test_criterion_10_budget_ledger(capsys):
    started = time.perf_counter()
    x = synth(SynthSpec(n=300, d=8, bins=2, seed=2000))
    ok = True
    for rho in (0.1, 0.3, 0.7, 1.0, 2.5):
        rep = adaptive_cov(x, rho, 0.05, RandomStream(2001))
        ok = ok and sum(GAUSSIAN.ledger(rho).values()) == rho
        ok = ok and rep.budget_spent.value == rho
    for eps in (0.25, 1.0, 3.0):
        rep = adaptive_cov_pure(x, eps, 0.05, RandomStream(2002))
        ok = ok and sum(LAPLACE.ledger(eps).values()) == eps
        ok = ok and rep.budget_spent.value == eps
    report(
        capsys, 10, "budget-ledger", ok,
        "radius+trace+svt+mechanism sums exactly to the requested budget (zCDP and pure)",
        time.perf_counter() - started, 60,
    )


def test_criterion_11_determinism(capsys, tmp_path):
    started = time.perf_counter()
    plan = dict(
        mechanisms=("gauss", "separate", "adaptive", "zero"),
        budget=zcdp(0.4),
        synth_spec=SynthSpec(n=80, d=8, bins=2),
        repetitions=3,
        sweep_axis="rho",
        sweep_values=(0.2, 0.4),
        master_seed=2100,
    )
    outputs = []
    for i, workers in enumerate((1, 1, 3)):
        p = ExperimentPlan(workers=workers, **plan)
        rows, summaries = run_plan(p)
        write_results(rows, summaries, p, tmp_path / f"run{i}.csv")
        outputs.append(
            (tmp_path / f"run{i}.csv").read_bytes()
            + (tmp_path / f"run{i}.summary.csv").read_bytes()
            + (tmp_path / f"run{i}.meta.json").read_bytes()
        )
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        capsys, 11, "determinism", ok,
        "rerun and 3-worker run produced byte-identical results files",
        time.perf_counter() - started, 120,
    )
