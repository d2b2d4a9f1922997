"""Acceptance suite: one test per criterion, printed as pass/fail lines.

Every tolerance is pinned here; seeds are fixed so the suite is
deterministic.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from adastoc import cli
from adastoc.complexity import monte_carlo_toc, storm_complexity_report
from adastoc.framework import AlgoConfig, derive_configs, run_lockstep
from adastoc.methods import SassMethod, StormMethod
from adastoc.oracles import (
    PairCorruptionOracles,
    SassMinibatchOracles,
    SassOracleSpec,
    StormMinibatchOracles,
    StormOracleSpec,
    empirical_oracle_failure_rate,
    sass_cost_models,
)
from adastoc.problems import NoiseSpec, make_problem
from adastoc.walk import (
    WalkParams,
    couple_with_trace,
    feller_transition_prob,
    gamma_threshold,
    hitting_prob_bound,
    hitting_prob_exact,
    stepsize_lower_bound,
    trace_exponents,
    transition_matrix,
    walk_ensemble_stats,
)

Z99 = 2.5758293035489004
P_GRID = [round(0.55 + 0.05 * i, 2) for i in range(9)]  # 0.55 .. 0.95


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_closed_form_vs_matrix_powers():
    start = time.time()
    worst = 0.0
    for p in P_GRID:
        for level in range(1, 16):
            mat = transition_matrix(p, level)
            v = np.zeros(level + 1)
            v[0] = 1.0
            for m in range(0, 201):
                worst = max(worst, abs(v[level] - feller_transition_prob(p, level, m)))
                v = v @ mat
    elapsed = time.time() - start
    _report(1, worst <= 1e-9 and elapsed < 10.0,
            f"max |closed form - matrix power| = {worst:.3e}, {elapsed:.1f}s")


def test_criterion_02_hitting_bound_validity_and_geometric_floor():
    start = time.time()
    ok = True
    worst_gap = math.inf
    for p in P_GRID:
        q = 1.0 - p
        for level in range(1, 21):
            for n in (10, 100, 1000):
                exact = hitting_prob_exact(p, level, n)
                bound = hitting_prob_bound(p, level, n)
                if exact > min(1.0, bound) + 1e-12:
                    ok = False
                worst_gap = min(worst_gap, min(1.0, bound) - exact)
                if n >= level and exact < q**level - 1e-15:
                    ok = False
    elapsed = time.time() - start
    _report(2, ok and elapsed < 30.0,
            f"exact <= min(1, bound) and exact >= q^l on full grid, min slack {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_03_monte_carlo_consistency():
    start = time.time()
    p, level, n, reps = 0.8, 5, 100, 10**6
    exact = hitting_prob_exact(p, level, n)
    max_levels, _ = walk_ensemble_stats(p, n, reps, np.random.default_rng(20240311))
    estimate = float(np.mean(max_levels >= level))
    half_width = Z99 * math.sqrt(exact * (1.0 - exact) / reps)
    elapsed = time.time() - start
    _report(3, abs(estimate - exact) <= half_width and elapsed < 60.0,
            f"|{estimate:.6f} - {exact:.6f}| <= {half_width:.6f}, {elapsed:.1f}s")


def test_criterion_04_stepsize_floor_dip_fraction():
    start = time.time()
    params = WalkParams(p=0.8, gamma=0.5, alpha_bar=1.0, omega=1.0)
    n, reps = 100, 10**5
    alpha_star, success_prob, _ = stepsize_lower_bound(params, n)
    assert alpha_star == pytest.approx(4.7e-4, rel=2e-2)
    budget = 1.0 - success_prob  # n^-omega + c * n^-(1+omega) = 0.012
    assert budget == pytest.approx(0.012, rel=1e-9)
    max_levels, _ = walk_ensemble_stats(params.p, n, reps, np.random.default_rng(77))
    induced_min = params.alpha_bar * params.gamma ** max_levels.astype(float)
    dip = float(np.mean(induced_min < alpha_star))
    half_width = Z99 * math.sqrt(budget * (1 - budget) / reps)
    elapsed = time.time() - start
    _report(4, dip <= budget + half_width and elapsed < 60.0,
            f"dip fraction {dip:.5f} <= {budget:.5f} + {half_width:.5f}, {elapsed:.1f}s")


def test_criterion_05_coupling_soundness():
    start = time.time()
    delta0 = delta1 = 0.1
    p_assumed = 1.0 - delta0 - delta1
    p_clean = (1.0 - delta0) * (1.0 - delta1)
    n, pairs = 100, 10**4
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    suite = PairCorruptionOracles(delta0=delta0, delta1=delta1)
    cfg = AlgoConfig(theta=0.1, gamma=0.5, alpha0=0.1, alpha_max=0.1, r=0.0, seed=0, max_iterations=n)
    rng = np.random.default_rng(31337)
    violations = 0
    finals = np.empty(pairs, dtype=np.int64)
    seeds = [c.seed for c in derive_configs(cfg, 4242, pairs)]
    traces = run_lockstep(prob, SassMethod(), suite, cfg, 1e-9, seeds, x0=np.array([2.0, 0.0]))
    for i, trace in enumerate(traces):
        assert trace.stopping_iteration is None
        y = trace_exponents(trace, 0.1)
        z = couple_with_trace(y, p_assumed, rng, p_prime=p_clean)
        if (z.states < y).any():
            violations += 1
        finals[i] = z.states[-1]
    _, independent = walk_ensemble_stats(p_assumed, n, pairs, np.random.default_rng(55))

    kmax = int(max(finals.max(), independent.max()))
    o1 = np.bincount(finals, minlength=kmax + 1).astype(float)
    o2 = np.bincount(independent, minlength=kmax + 1).astype(float)
    cut = kmax
    while cut > 1 and (o1[cut:].sum() + o2[cut:].sum()) < 10:
        cut -= 1
    b1 = np.concatenate([o1[:cut], [o1[cut:].sum()]])
    b2 = np.concatenate([o2[:cut], [o2[cut:].sum()]])
    pooled = (b1 + b2) / (b1.sum() + b2.sum())
    e1, e2 = b1.sum() * pooled, b2.sum() * pooled
    chi2 = float((((b1 - e1) ** 2) / e1).sum() + (((b2 - e2) ** 2) / e2).sum())
    dof = len(b1) - 1
    crit = stats.chi2.ppf(0.99, dof)
    elapsed = time.time() - start
    _report(5, violations == 0 and chi2 <= crit,
            f"{violations} dominance violations over {pairs} pairs; chi2 {chi2:.2f} <= {crit:.2f} (dof {dof}), {elapsed:.0f}s")


def test_criterion_06_threshold_self_consistency():
    worst = math.inf
    ok = True
    for p in (0.6, 0.75, 0.9):
        for n in (100, 1000, 10_000):
            for omega in (0.5, 1.0):
                for beta in (0.25, 0.4):
                    gamma = gamma_threshold(p, n, omega, beta)
                    params = WalkParams(p=p, gamma=gamma, alpha_bar=1.0, omega=omega)
                    alpha_star, _, _ = stepsize_lower_bound(params, n)
                    slack = alpha_star - beta
                    worst = min(worst, slack)
                    if slack < -1e-12:
                        ok = False
    _report(6, ok, f"alpha_star >= beta*alpha_bar on 3x3x2x2 grid, min slack {worst:.2e}")


def test_criterion_07_chebyshev_oracle_contracts():
    start = time.time()
    sigma = 0.2
    noise = NoiseSpec.gaussian(sigma_f=sigma, m_c=sigma**2)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(
        kappa_ef=1.0, delta0=0.1, kappa_eg=1.0, delta1=0.1, sigma_f=sigma, sigma_g=sigma
    )
    x = np.array([1.0, -0.5])
    trials = 10**4
    half = Z99 * math.sqrt(0.1 * 0.9 / trials)
    ok = True
    rates = []
    for alpha in (0.1, 0.5, 1.0):
        rate_v, rate_g = empirical_oracle_failure_rate(
            StormMinibatchOracles(spec), prob, x, alpha, trials, 808
        )
        rates.append((alpha, rate_v, rate_g))
        if rate_v > spec.delta0 + half or rate_g > spec.delta1 + half:
            ok = False
    elapsed = time.time() - start
    _report(7, ok and elapsed < 60.0,
            "failure rates " + "; ".join(f"a={a}: {rv:.4f}/{rg:.4f}" for a, rv, rg in rates)
            + f" all <= 0.1+{half:.4f}, {elapsed:.0f}s")


def _storm_setup(epsilon: float, gamma: float = 0.8, zeta: float = 10.0):
    noise = NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(
        kappa_ef=1.0, delta0=0.1, kappa_eg=1.0, delta1=0.1,
        sigma_f=1e-3, sigma_g=math.sqrt(1e-2),
    )
    alpha_bar = epsilon / zeta
    cfg = AlgoConfig(
        theta=0.1, gamma=gamma, alpha0=alpha_bar, alpha_max=alpha_bar,
        r=0.0, theta2=1.0, max_iterations=10**6, seed=0,
    )
    return prob, spec, cfg


def test_criterion_08_highprob_bound_empirically():
    start = time.time()
    epsilon, gamma, zeta, omega = 0.1, 0.8, 10.0, 1.0
    prob, spec, cfg = _storm_setup(epsilon, gamma, zeta)
    c2 = 10.0
    n = math.ceil(c2 * 2.0 / epsilon**2)
    report = storm_complexity_report(spec, epsilon, zeta, n, gamma, omega, prob_t_exceeds_n=1.0 / c2)
    reps = 10**3
    summary = monte_carlo_toc(
        prob, StormMethod(), StormMinibatchOracles(spec), cfg, epsilon, reps, 20240501,
        x0=np.array([0.35, 0.35]), bound=report.high_probability,
    )
    failure = report.high_probability.failure_prob
    half = Z99 * math.sqrt(max(failure * (1 - failure), 1e-6) / reps)
    elapsed = time.time() - start
    _report(8, summary.exceed_fraction <= failure + half and summary.stopped_fraction == 1.0,
            f"exceed fraction {summary.exceed_fraction:.4f} <= failure prob {failure:.4f} + {half:.4f}, "
            f"bound {report.high_probability.bound_value:.3e}, mean TOC {summary.mean_toc:.3e}, {elapsed:.0f}s")


def test_criterion_09_scaling_exponents():
    start = time.time()

    # trust-region side: total gradient samples vs 1/epsilon on the noisy quadratic
    eps_grid = [0.2, 0.1, 0.05]
    mean_toc1 = []
    for i, epsilon in enumerate(eps_grid):
        prob, spec, cfg = _storm_setup(epsilon)
        summary = monte_carlo_toc(
            prob, StormMethod(), StormMinibatchOracles(spec), cfg, epsilon, 40, 9000 + i,
            x0=np.array([0.35, 0.35]),
        )
        assert summary.stopped_fraction == 1.0
        mean_toc1.append(summary.mean_toc1)
    x = np.log([1.0 / e for e in eps_grid])
    slope = float(np.polyfit(x, np.log(mean_toc1), 1)[0])

    # step-search side: iterations vs log(1/epsilon), strongly convex
    sc_eps = [1e-1, 1e-2, 1e-3, 1e-4, 1e-5]
    noise = NoiseSpec.gaussian(sigma_f=1e-4, m_c=1e-8)
    prob_sc = make_problem("quadratic", 2, 1.0, noise, seed=0)
    theta, batch_c = 0.5, 100.0
    alpha_bar = (1.0 - theta) / prob_sc.lipschitz
    sspec = SassOracleSpec(kappa=1.0, tau=math.inf, delta1=0.1)
    mean_t = []
    for i, epsilon in enumerate(sc_eps):
        value, _ = sass_cost_models(sspec, noise, epsilon, "strongly_convex", batch_c)
        r = 2.0 * noise.sigma_f / math.sqrt(value.batch(alpha_bar))
        cfg = AlgoConfig(theta=theta, gamma=0.7, alpha0=alpha_bar, alpha_max=alpha_bar, r=r, seed=0)
        suite = SassMinibatchOracles(sspec, epsilon=epsilon, case="strongly_convex", batch_scale=batch_c)
        summary = monte_carlo_toc(
            prob_sc, SassMethod(), suite, cfg, epsilon, 20, 7100 + i,
            mode="strongly_convex", x0=np.array([math.sqrt(2.0), math.sqrt(2.0)]),
        )
        assert summary.stopped_fraction == 1.0
        mean_t.append(summary.mean_iterations)
    xs = np.log([1.0 / e for e in sc_eps])
    ys = np.array(mean_t)
    coef = np.polyfit(xs, ys, 1)
    resid = ys - np.polyval(coef, xs)
    r2 = 1.0 - float(resid @ resid) / float(((ys - ys.mean()) ** 2).sum())

    elapsed = time.time() - start
    _report(9, 3.0 <= slope <= 5.0 and r2 >= 0.9 and elapsed < 600.0,
            f"gradient-sample slope {slope:.3f} in [3,5]; iteration growth R^2 {r2:.4f} >= 0.9, {elapsed:.0f}s")


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    runs = {
        "walk": lambda d: [
            "walk", "--p=0.8", "--gamma=0.5,0.7", "--n=60", "--reps=3000", "--seed=9",
            f"--out={d / 'w.csv'}", f"--summary-out={d / 'ws.csv'}",
        ],
        "hitting": lambda d: [
            "hitting", "--p=0.8", "--l-max=10", "--n=80", "--reps=5000", "--seed=9",
            f"--out={d / 'h.csv'}",
        ],
        "optimize": lambda d: [
            "optimize", "--method=storm", "--oracle=minibatch", "--noise=gaussian",
            "--sigma-f=0.001", "--m-c=0.01", "--epsilon=0.1", "--gamma=0.8", "--seed=9",
            "--x0=0.35,0.35", f"--out={d / 'o.csv'}",
        ],
        "sweep": lambda d: [
            "sweep", "--method=storm", "--epsilons=0.2,0.1", "--reps=5", "--sigma-f=0.001",
            "--m-c=0.01", "--gamma=0.8", "--seed=9", f"--out={d / 's.csv'}",
        ],
    }
    ok = True
    for name, argv_of in runs.items():
        d1, d2 = tmp_path / f"{name}1", tmp_path / f"{name}2"
        d1.mkdir(), d2.mkdir()
        assert cli.main(argv_of(d1)) == 0
        assert cli.main(argv_of(d2)) == 0
        for f1 in sorted(d1.iterdir()):
            if f1.read_bytes() != (d2 / f1.name).read_bytes():
                ok = False
    elapsed = time.time() - start
    _report(10, ok, f"all four commands byte-identical on re-run, {elapsed:.0f}s")
