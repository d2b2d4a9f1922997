"""Command-line front end: experiment runners with deterministic CSV output.

Four subcommands:

* walk     - simulate step sizes induced by the one-sided walk against the
             theoretical floor alpha_star(n), per contraction factor gamma:
             one representative path per gamma, and the dip fraction of one
             walk ensemble shared by every gamma next to its exact value;
* hitting  - exact hitting probabilities versus the closed-form bound and a
             Monte Carlo estimate, per level;
* optimize - one adaptive run, trace CSV plus a one-line cost summary;
* sweep    - tolerance sweep comparing Monte Carlo total cost against the
             expected and high-probability bounds.

Flags are long-form `--name value`; unknown flags, and prefixes of known
ones, are errors.  A JSON file passed with --config supplies defaults,
explicit flags win.  Relative output paths resolve against $ADASTOC_OUTDIR
when set.  Exit codes: 0 success, 1 validation error, 2 theory violation
detected, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .complexity import expected_toc_bound, highprob_toc_bound, monte_carlo_sweep
from .errors import (
    AdastocError,
    AssumptionViolationError,
    TheoryViolationError,
)
from .framework import AlgoConfig, _check_seed, derive_seeds, run_adaptive
from .methods import SassMethod, StormMethod
from .oracles import (
    ExactOracles,
    PairCorruptionOracles,
    SassMinibatchOracles,
    SassOracleSpec,
    StormMinibatchOracles,
    StormOracleSpec,
)
from .problems import NoiseSpec, make_problem
from .tableio import _write_lines, format_cell, write_csv
from .walk import (
    WalkParams,
    _check_reliability,
    gamma_threshold,
    hitting_prob_bound,
    hitting_prob_exact,
    simulate_walk,
    stepsize_lower_bound,
    walk_ensemble_stats,
)

Z99 = 2.5758293035489004  # two-sided 99% normal quantile

DEFAULT_GAMMA_GRID = "0.5,0.6,0.7,0.8,0.9"

WALK_CSV_HEADER = ("gamma", "k", "alpha_walk_min_so_far", "alpha_star")
WALK_SUMMARY_HEADER = (
    "gamma", "alpha_star", "dip_fraction", "dip_exact", "failure_bound", "n", "reps"
)
HITTING_CSV_HEADER = ("l", "exact", "bound", "mc_estimate", "mc_ci_halfwidth")
SWEEP_CSV_HEADER = (
    "epsilon",
    "mean_T",
    "mean_toc0",
    "mean_toc1",
    "bound_expected",
    "bound_highprob",
    "exceed_frac",
)


class CliValidationError(AdastocError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code is owned by main(), not argparse
        raise CliValidationError(message)


def _floats(value) -> list[float]:
    """Floats from a comma-separated flag value or a config file's JSON value or list."""
    items = value if isinstance(value, list) else str(value).split(",")
    return [float(tok) for tok in items if tok != ""]


def _resolve_out(value: str | None, default_name: str) -> Path:
    path = Path(value) if value else Path(default_name)
    base = os.environ.get("ADASTOC_OUTDIR")
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _load_config_file(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise CliValidationError(f"bad JSON config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise CliValidationError("config file must hold a JSON object")
    return data


def _merge(args: argparse.Namespace, table: dict) -> dict:
    """Defaults <- config file <- explicit flags; unknown config keys are errors."""
    cfg = _load_config_file(getattr(args, "config", None))
    unknown = set(cfg) - set(table)
    if unknown:
        raise CliValidationError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for key, (cast, default) in table.items():
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key, default)
        if isinstance(value, list) and cast is not _floats:
            raise CliValidationError(f"{key} takes one value, not a list")
        if value is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise CliValidationError(f"bad value for {key}: {value!r}") from exc
        merged[key] = value
    return merged


def _add_options(parser: argparse.ArgumentParser, table: dict) -> None:
    parser.add_argument("--config", default=None, help="JSON file of defaults; flags win")
    for key in table:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, default=None)


# -- walk ---------------------------------------------------------------------

WALK_OPTIONS = {
    "p": (float, 0.8),
    "gamma": (_floats, DEFAULT_GAMMA_GRID),
    "alpha_bar": (float, 1.0),
    "omega": (float, 1.0),
    "n": (int, 100),
    "reps": (int, 10_000),
    "seed": (int, 0),
    "out": (str, None),
    "summary_out": (str, None),
}


def _dip_depth(params: WalkParams, alpha_star: float, level: int, n: int) -> int:
    """The first depth m in 0..n with alpha_bar * gamma**m < alpha_star, n + 1 if there is none.

    alpha_star lies a level or two below `stepsize_lower_bound`'s level, so
    eight depths from level - 2 are tried first.  They decide when the first
    is 0 or a normal double above alpha_star by a relative 1e-12 (every
    shallower depth is then above it too, whatever the last bits of
    gamma**m), and one is below alpha_star or the last is n.  Else every
    depth is scanned.  Both use numpy's array **: Python's ** and
    np.float_power differ from it in the last bit.
    """
    lo = min(max(level - 2, 0), n)
    depths = np.arange(lo, min(lo + 8, n + 1), dtype=float)
    steps = params.alpha_bar * params.gamma ** depths
    below = steps < alpha_star
    shallower_above = lo == 0 or steps[0] >= max(alpha_star * (1.0 + 1e-12), sys.float_info.min)
    if not (shallower_above and (below.any() or depths[-1] == n)):
        depths = np.arange(n + 1, dtype=float)
        below = params.alpha_bar * params.gamma ** depths < alpha_star
    return int(depths[np.argmax(below)]) if below.any() else n + 1


def run_walk(opts: dict) -> int:
    """One representative path per gamma, and every gamma's dip fraction from one ensemble.

    The deepest level M = max_k Z_k of an n-step walk has a law that depends
    on p and n only, so one ensemble of `reps` walks serves every gamma: a
    path dips below alpha_star when M >= m, m the first depth in 0..n with
    alpha_bar * gamma**m < alpha_star (n + 1 if there is none), and
    `dip_exact` = P(M >= m) is its exact probability.  Every input is
    checked, and the run exits 2 if some dip_exact exceeds its
    failure_bound, before any random draw.  Gamma i's path draws from the first child of the i-th of
    root.spawn(len(gammas) + 1); the ensemble draws from the last one.
    """
    gammas = opts["gamma"]
    if not gammas:
        raise CliValidationError("at least one gamma is required")
    p, n, reps = opts["p"], opts["n"], opts["reps"]
    if reps < 1:
        raise CliValidationError(f"reps must be positive, got {reps}")
    params = [
        WalkParams(p=p, gamma=gamma, alpha_bar=opts["alpha_bar"], omega=opts["omega"])
        for gamma in gammas
    ]
    floors = [stepsize_lower_bound(walk_params, n) for walk_params in params]
    dip_depths = [_dip_depth(w, alpha_star, level, n) for w, (alpha_star, _, level) in zip(params, floors)]
    dip_exacts = hitting_prob_exact(p, dip_depths, n).tolist()
    for gamma, (_, success_prob, _), dip_exact in zip(gammas, floors, dip_exacts):
        if dip_exact > 1.0 - success_prob + 1e-12:
            raise TheoryViolationError(
                f"exact dip probability {dip_exact} exceeds the failure bound "
                f"{1.0 - success_prob} at (p={p}, gamma={gamma}, n={n})"
            )
    out = _resolve_out(opts["out"], "walk.csv")
    if opts["summary_out"]:
        summary_out = _resolve_out(opts["summary_out"], "")
    else:
        summary_out = out.with_name(out.stem + "_summary.csv")
    *children, ensemble_stream = np.random.SeedSequence(opts["seed"]).spawn(len(gammas) + 1)
    max_levels, _ = walk_ensemble_stats(p, n, reps, np.random.default_rng(ensemble_stream))

    lines = []
    summary_rows = []
    for walk_params, (alpha_star, success_prob, _), dip_depth, dip_exact, child in zip(
        params, floors, dip_depths, dip_exacts, children
    ):
        gamma, alpha_bar = walk_params.gamma, walk_params.alpha_bar
        path = simulate_walk(walk_params, n, np.random.default_rng(child.spawn(1)[0]))
        running_max = np.maximum.accumulate(path.states)
        # the running maximum passes through every level 0..running_max[-1]:
        # format gamma, and each level's step size with alpha_star, once
        step_sizes = alpha_bar * gamma ** np.arange(running_max[-1] + 1, dtype=float)
        head, star = format_cell(gamma), format_cell(alpha_star)
        rests = [f"{format_cell(value)},{star}" for value in step_sizes.tolist()]
        lines.extend([f"{head},{k},{rests[z]}" for k, z in enumerate(running_max.tolist())])
        dip_fraction = float(np.mean(max_levels >= dip_depth))
        summary_rows.append(
            (gamma, alpha_star, dip_fraction, dip_exact, 1.0 - success_prob, n, reps)
        )
    _write_lines(out, WALK_CSV_HEADER, lines)
    write_csv(summary_out, WALK_SUMMARY_HEADER, summary_rows)
    print(f"wrote {out} and {summary_out}")
    return 0


# -- hitting --------------------------------------------------------------------

HITTING_OPTIONS = {
    "p": (float, 0.8),
    "l_max": (int, 15),
    "n": (int, 100),
    "reps": (int, 100_000),
    "seed": (int, 0),
    "out": (str, None),
}


def run_hitting(opts: dict) -> int:
    p, l_max, n, reps = opts["p"], opts["l_max"], opts["n"], opts["reps"]
    if l_max < 0:
        raise CliValidationError(f"l_max must be nonnegative, got {l_max}")
    _check_reliability(p)
    out = _resolve_out(opts["out"], "hitting.csv")
    rng = np.random.default_rng(np.random.SeedSequence(opts["seed"]))
    max_levels, _ = walk_ensemble_stats(p, n, reps, rng)
    rows = []
    exacts = hitting_prob_exact(p, range(l_max + 1), n)
    for level, exact in enumerate(exacts.tolist()):
        bound = 1.0 if level == 0 else hitting_prob_bound(p, level, n)
        if exact > min(1.0, bound) + 1e-12:
            raise TheoryViolationError(
                f"exact hitting probability exceeds its bound at (p={p}, l={level}, n={n})"
            )
        mc = float(np.mean(max_levels >= level))
        ci = Z99 * math.sqrt(mc * (1.0 - mc) / reps)
        rows.append((level, exact, bound, mc, ci))
    write_csv(out, HITTING_CSV_HEADER, rows)
    print(f"wrote {out}")
    return 0


# -- shared problem/method construction -----------------------------------------

_PROBLEM_OPTIONS = {
    "problem": (str, "quadratic"),
    "dim": (int, 2),
    "conditioning": (float, 1.0),
    "noise": (str, "gaussian"),
    "sigma_f": (float, 0.001),
    "m_c": (float, 0.001),
    "m_v": (float, 0.0),
    "problem_seed": (int, 0),
}

_ORACLE_OPTIONS = {
    "oracle": (str, "minibatch"),
    "kappa_ef": (float, 1.0),
    "kappa_eg": (float, 1.0),
    "delta0": (float, 0.1),
    "delta1": (float, 0.1),
    "kappa": (float, 1.0),
    "tau": (float, math.inf),
    "batch_c": (float, 1.0),
    "value_shift": (float, 1.0e6),
}

_ALGO_OPTIONS = {
    "method": (str, "storm"),
    "mode": (str, "nonconvex"),
    "theta": (float, 0.1),
    "gamma": (float, 0.6),
    "alpha0": (float, None),
    "alpha_max": (float, None),
    "r": (float, None),
    "theta2": (float, 1.0),
    "max_iterations": (int, 1_000_000),
    "seed": (int, 0),
    "zeta": (float, 10.0),
}


def _build_problem(opts: dict):
    kind = {"quadratic": "quadratic", "logistic": "logistic_synthetic"}.get(opts["problem"])
    if kind is None:
        raise CliValidationError(f"unknown problem {opts['problem']!r}")
    if opts["noise"] == "none":
        noise = NoiseSpec.none()
    elif opts["noise"] == "gaussian":
        noise = NoiseSpec.gaussian(sigma_f=opts["sigma_f"], m_c=opts["m_c"], m_v=opts["m_v"])
    else:
        raise CliValidationError(f"unknown noise kind {opts['noise']!r} (use none or gaussian)")
    return make_problem(kind, opts["dim"], opts["conditioning"], noise, seed=opts["problem_seed"])


def _build_method(opts: dict):
    if opts["method"] == "storm":
        return StormMethod()
    if opts["method"] == "sass":
        return SassMethod()
    raise CliValidationError(f"unknown method {opts['method']!r}")


def _storm_spec(opts: dict, noise: NoiseSpec) -> StormOracleSpec:
    return StormOracleSpec(
        kappa_ef=opts["kappa_ef"],
        delta0=opts["delta0"],
        kappa_eg=opts["kappa_eg"],
        delta1=opts["delta1"],
        sigma_f=noise.sigma_f,
        sigma_g=math.sqrt(noise.m_c),
    )


def _build_suite(opts: dict, problem, epsilon: float):
    oracle = opts["oracle"]
    if oracle == "exact":
        return ExactOracles()
    if oracle == "corruption":
        return PairCorruptionOracles(
            delta0=opts["delta0"], delta1=opts["delta1"], value_shift=opts["value_shift"]
        )
    if oracle == "minibatch":
        if opts["method"] == "storm":
            return StormMinibatchOracles(_storm_spec(opts, problem.noise))
        case = "strongly_convex" if opts["mode"] == "strongly_convex" else "nonconvex"
        spec = SassOracleSpec(kappa=opts["kappa"], tau=opts["tau"])
        return SassMinibatchOracles(spec, epsilon=epsilon, case=case, batch_scale=opts["batch_c"])
    raise CliValidationError(f"unknown oracle kind {oracle!r}")


def _run_config(opts: dict, problem, suite, epsilon: float, gamma: float) -> AlgoConfig:
    """The loop's parameters for one run of the suite at tolerance epsilon.

    An unset alpha_max is epsilon/zeta for the trust region and the
    deterministic success threshold (1-theta)/L for step search; an unset
    alpha0 is alpha_max.  An unset r (noise compensation) is zero for the
    trust region and the exact oracles, and twice the value-estimate
    deviation of the suite's minibatch for step search.
    """
    if opts["method"] == "storm":
        if not opts["zeta"] > 0.0:
            raise CliValidationError("zeta must be positive")
        anchor = epsilon / opts["zeta"]
    else:
        anchor = (1.0 - opts["theta"]) / problem.lipschitz
    alpha_max = opts["alpha_max"] if opts["alpha_max"] is not None else anchor
    r = opts["r"]
    if r is None:
        r = 0.0
        if opts["method"] == "sass" and opts["oracle"] == "minibatch":
            value, _ = suite.cost_models(problem)
            r = 2.0 * problem.noise.sigma_f / math.sqrt(value.batch(1.0))
    return AlgoConfig(
        theta=opts["theta"],
        gamma=gamma,
        alpha0=opts["alpha0"] if opts["alpha0"] is not None else alpha_max,
        alpha_max=alpha_max,
        r=r,
        theta2=opts["theta2"],
        max_iterations=opts["max_iterations"],
    )


# -- optimize --------------------------------------------------------------------

OPTIMIZE_OPTIONS = {
    **_PROBLEM_OPTIONS,
    **_ORACLE_OPTIONS,
    **_ALGO_OPTIONS,
    "epsilon": (float, 0.1),
    "x0": (_floats, None),
    "out": (str, None),
}


def run_optimize(opts: dict) -> int:
    epsilon = opts["epsilon"]
    if not epsilon > 0.0:
        raise CliValidationError("epsilon must be positive")
    problem = _build_problem(opts)
    method = _build_method(opts)
    suite = _build_suite(opts, problem, epsilon)
    config = _run_config(opts, problem, suite, epsilon, opts["gamma"])
    x0 = np.array(opts["x0"]) if opts["x0"] else None
    trace = run_adaptive(
        problem, method, suite, config, epsilon, mode=opts["mode"], x0=x0, seed=opts["seed"]
    )
    out = _resolve_out(opts["out"], "trace.csv")
    trace.write_csv(out)
    for line in problem.descriptor().splitlines():
        print(f"# {line}")
    t_eps = "" if trace.stopping_iteration is None else str(trace.stopping_iteration)
    toc0, toc1 = sum(trace.cost0.tolist()), sum(trace.cost1.tolist())
    print("T_eps,toc0,toc1,toc")
    print(f"{t_eps},{toc0},{toc1},{toc0 + toc1}")
    print(f"wrote {out}")
    return 0


# -- sweep ------------------------------------------------------------------------

SWEEP_OPTIONS = {
    **_PROBLEM_OPTIONS,
    **_ORACLE_OPTIONS,
    **_ALGO_OPTIONS,
    "epsilons": (_floats, "0.2,0.1,0.05"),
    "reps": (int, 40),
    "gamma_policy": (str, "fixed"),
    "beta": (float, 0.25),
    "omega": (float, 1.0),
    "horizon_c1": (float, 2.0),
    "horizon_c2": (float, 10.0),
    "reliability_p": (float, 0.8),
    "x0": (_floats, None),
    "out": (str, None),
}


def run_sweep(opts: dict) -> int:
    """One row per tolerance: Monte Carlo means and bounds on the cost models the runs pay.

    Every tolerance's replications run together (`monte_carlo_sweep`), and
    each row is what that tolerance's run alone gives.
    """
    epsilons = opts["epsilons"]
    if not epsilons:
        raise CliValidationError("at least one epsilon is required")
    if not all(epsilon > 0.0 for epsilon in epsilons):
        raise CliValidationError("every epsilon must be positive")
    for key in ("horizon_c1", "horizon_c2"):
        if not opts[key] > 0.0:  # a horizon clamped to 2 would bound runs it does not cover
            raise CliValidationError(f"{key} must be positive")
    storm = opts["method"] == "storm"
    problem = _build_problem(opts)
    method = _build_method(opts)
    if storm:
        p = _storm_spec(opts, problem.noise).p  # an inadmissible spec fails before any run
    else:
        p = opts["reliability_p"]
        _check_reliability(p)
    policy = opts["gamma_policy"]
    if policy not in ("fixed", "corollary"):
        raise CliValidationError(f"unknown gamma policy {policy!r}")
    out = _resolve_out(opts["out"], "sweep.csv")
    x0 = np.array(opts["x0"]) if opts["x0"] else None

    plans, runs = [], []
    try:
        for epsilon, master_seed in zip(epsilons, derive_seeds(opts["seed"], len(epsilons))):
            if opts["mode"] == "strongly_convex":
                n = math.ceil(opts["horizon_c1"] * max(1.0, math.log(1.0 / epsilon)) + opts["horizon_c2"])
            else:
                n = math.ceil(opts["horizon_c2"] * opts["horizon_c1"] / epsilon**2)
            n = max(n, 2)
            gamma = opts["gamma"]
            if policy == "corollary":
                gamma = gamma_threshold(p, n, opts["omega"], opts["beta"])
            suite = _build_suite(opts, problem, epsilon)
            config = _run_config(opts, problem, suite, epsilon, gamma)
            alpha_bar = epsilon / opts["zeta"] if storm else config.alpha_max
            params = WalkParams(p=p, gamma=gamma, alpha_bar=alpha_bar, omega=opts["omega"])
            plans.append((epsilon, n, params, suite))
            runs.append((suite, config, epsilon, master_seed))
    except Exception:
        if runs:  # the tolerances before this one run first, so their errors come first
            monte_carlo_sweep(problem, method, runs, opts["reps"], opts["mode"], x0)
        raise
    summaries = monte_carlo_sweep(problem, method, runs, opts["reps"], opts["mode"], x0)

    rows = []
    for (epsilon, n, params, suite), summary in zip(plans, summaries):
        # the trust region bounds P(T > n) by Markov; step search plugs in the observed fraction
        prob_t_exceeds_n = min(1.0, 1.0 / opts["horizon_c2"]) if storm else 1.0 - summary.stopped_fraction
        models = suite.cost_models(problem)
        high = highprob_toc_bound(models, params, n, prob_t_exceeds_n)
        rows.append(
            (
                epsilon,
                summary.mean_iterations,
                summary.mean_toc0,
                summary.mean_toc1,
                expected_toc_bound(models, params, n).bound_value,
                high.bound_value,
                summary.exceed_fraction(high),
            )
        )
    write_csv(out, SWEEP_CSV_HEADER, rows)
    print(f"wrote {out}")
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> _Parser:
    # allow_abbrev=False: a prefix of a flag is an unknown flag, not an alias
    parser = _Parser(
        prog="adastoc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table in (
        ("walk", WALK_OPTIONS),
        ("hitting", HITTING_OPTIONS),
        ("optimize", OPTIMIZE_OPTIONS),
        ("sweep", SWEEP_OPTIONS),
    ):
        _add_options(sub.add_parser(name, allow_abbrev=False), table)
    return parser


_RUNNERS = {
    "walk": (WALK_OPTIONS, run_walk),
    "hitting": (HITTING_OPTIONS, run_hitting),
    "optimize": (OPTIMIZE_OPTIONS, run_optimize),
    "sweep": (SWEEP_OPTIONS, run_sweep),
}


_parser = functools.cache(build_parser)  # one parser per process: parsing leaves it unchanged


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
        table, runner = _RUNNERS[args.command]
        opts = _merge(args, table)
        _check_seed(opts["seed"])  # every subcommand takes --seed
        return runner(opts)
    except (TheoryViolationError, AssumptionViolationError) as exc:
        print(f"theory violation: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (CliValidationError, AdastocError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
