"""Command-line front end: experiment runners with deterministic CSV output.

Four subcommands:

* walk     - simulate step sizes induced by the one-sided walk against the
             theoretical floor alpha_star(n), per contraction factor gamma;
* hitting  - exact hitting probabilities versus the closed-form bound and a
             Monte Carlo estimate, per level;
* optimize - one adaptive run, trace CSV plus a one-line cost summary;
* sweep    - tolerance sweep comparing Monte Carlo total cost against the
             expected and high-probability bounds.

Flags are long-form `--name value`; unknown flags are errors.  A JSON file
passed with --config supplies defaults, explicit flags win.  Relative output
paths resolve against $ADASTOC_OUTDIR when set.  Exit codes: 0 success,
1 validation error, 2 theory violation detected, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .complexity import (
    accumulate_toc,
    monte_carlo_toc,
    sass_complexity_report,
    storm_complexity_report,
)
from .errors import (
    AdastocError,
    AssumptionViolationError,
    TheoryViolationError,
)
from .framework import AlgoConfig, run_adaptive
from .methods import SassMethod, StormMethod
from .oracles import (
    ExactOracles,
    PairCorruptionOracles,
    SassMinibatchOracles,
    SassOracleSpec,
    StormMinibatchOracles,
    StormOracleSpec,
    sass_cost_models,
)
from .problems import NoiseSpec, make_problem
from .tableio import write_csv
from .walk import (
    WalkParams,
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
WALK_SUMMARY_HEADER = ("gamma", "alpha_star", "dip_fraction", "failure_bound", "n", "reps")
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


def run_walk(opts: dict) -> int:
    gammas = opts["gamma"]
    if not gammas:
        raise CliValidationError("at least one gamma is required")
    n, reps = opts["n"], opts["reps"]
    out = _resolve_out(opts["out"], "walk.csv")
    if opts["summary_out"]:
        summary_out = _resolve_out(opts["summary_out"], "")
    else:
        summary_out = out.with_name(out.stem + "_summary.csv")
    root = np.random.SeedSequence(opts["seed"])
    children = root.spawn(len(gammas))

    rows = []
    summary_rows = []
    for gamma, child in zip(gammas, children):
        params = WalkParams(p=opts["p"], gamma=gamma, alpha_bar=opts["alpha_bar"], omega=opts["omega"])
        alpha_star, success_prob, _ = stepsize_lower_bound(params, n)
        path_stream, ensemble_stream = child.spawn(2)
        path = simulate_walk(params, n, np.random.default_rng(path_stream))
        running_max = np.maximum.accumulate(path.states)
        min_so_far = params.alpha_bar * gamma ** running_max.astype(float)
        for k in range(n + 1):
            rows.append((gamma, k, float(min_so_far[k]), alpha_star))
        max_levels, _ = walk_ensemble_stats(opts["p"], n, reps, np.random.default_rng(ensemble_stream))
        induced_min = params.alpha_bar * gamma ** max_levels.astype(float)
        dip_fraction = float(np.mean(induced_min < alpha_star))
        summary_rows.append(
            (gamma, alpha_star, dip_fraction, 1.0 - success_prob, n, reps)
        )
    write_csv(out, WALK_CSV_HEADER, rows)
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
    if not (0.5 < p <= 1.0):
        raise CliValidationError(f"reliability p must lie in (1/2, 1], got {p}")
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
    "epsilon": (float, 0.1),
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
    sigma_g = noise.sigma_g if noise.sigma_g is not None else math.sqrt(noise.m_c)
    return StormOracleSpec(
        kappa_ef=opts["kappa_ef"],
        delta0=opts["delta0"],
        kappa_eg=opts["kappa_eg"],
        delta1=opts["delta1"],
        sigma_f=noise.sigma_f,
        sigma_g=sigma_g,
    )


def _sass_spec(opts: dict) -> SassOracleSpec:
    return SassOracleSpec(kappa=opts["kappa"], tau=opts["tau"], delta1=opts["delta1"])


def _case(opts: dict) -> str:
    return "strongly_convex" if opts["mode"] == "strongly_convex" else "nonconvex"


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
        return SassMinibatchOracles(
            _sass_spec(opts), epsilon=epsilon, case=_case(opts), batch_scale=opts["batch_c"]
        )
    raise CliValidationError(f"unknown oracle kind {oracle!r}")


def _default_alpha_bounds(opts: dict, problem) -> tuple[float, float]:
    """Fill alpha0/alpha_max when not given: epsilon/zeta for the trust region,
    the deterministic success threshold (1-theta)/L for step search."""
    if opts["method"] == "storm":
        if not opts["zeta"] > 0.0:
            raise CliValidationError("zeta must be positive")
        anchor = opts["epsilon"] / opts["zeta"]
    else:
        anchor = (1.0 - opts["theta"]) / problem.lipschitz
    alpha_max = opts["alpha_max"] if opts["alpha_max"] is not None else anchor
    alpha0 = opts["alpha0"] if opts["alpha0"] is not None else alpha_max
    return alpha0, alpha_max


def _default_r(opts: dict, problem, epsilon: float) -> float:
    """Per-method noise compensation: zero for the trust region and the exact
    oracles, twice the minibatch value-estimate deviation for step search."""
    if opts["r"] is not None:
        return opts["r"]
    if opts["method"] == "sass" and opts["oracle"] == "minibatch":
        value, _ = sass_cost_models(
            _sass_spec(opts), problem.noise, epsilon, _case(opts), opts["batch_c"]
        )
        batch0 = value.batch(1.0)
        return 2.0 * problem.noise.sigma_f / math.sqrt(batch0)
    return 0.0


# -- optimize --------------------------------------------------------------------

OPTIMIZE_OPTIONS = {
    **_PROBLEM_OPTIONS,
    **_ORACLE_OPTIONS,
    **_ALGO_OPTIONS,
    "x0": (_floats, None),
    "out": (str, None),
}


def run_optimize(opts: dict) -> int:
    if not opts["epsilon"] > 0.0:
        raise CliValidationError("epsilon must be positive")
    problem = _build_problem(opts)
    method = _build_method(opts)
    suite = _build_suite(opts, problem, opts["epsilon"])
    alpha0, alpha_max = _default_alpha_bounds(opts, problem)
    config = AlgoConfig(
        theta=opts["theta"],
        gamma=opts["gamma"],
        alpha0=alpha0,
        alpha_max=alpha_max,
        r=_default_r(opts, problem, opts["epsilon"]),
        theta2=opts["theta2"],
        max_iterations=opts["max_iterations"],
        seed=opts["seed"],
    )
    x0 = np.array(opts["x0"]) if opts["x0"] else None
    trace = run_adaptive(problem, method, suite, config, opts["epsilon"], mode=opts["mode"], x0=x0)
    out = _resolve_out(opts["out"], "trace.csv")
    trace.write_csv(out)
    for line in problem.descriptor().splitlines():
        print(f"# {line}")
    t_eps = "" if trace.stopping_iteration is None else str(trace.stopping_iteration)
    toc = accumulate_toc(trace)
    print("T_eps,toc0,toc1,toc")
    print(f"{t_eps},{toc.toc0},{toc.toc1},{toc.toc}")
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
    epsilons = opts["epsilons"]
    if not epsilons:
        raise CliValidationError("at least one epsilon is required")
    if not all(epsilon > 0.0 for epsilon in epsilons):
        raise CliValidationError("every epsilon must be positive")
    if opts["method"] == "storm" and not opts["horizon_c2"] > 0.0:
        # the trust-region report bounds P(T > n) by 1/horizon_c2
        raise CliValidationError("horizon_c2 must be positive")
    problem = _build_problem(opts)
    method = _build_method(opts)
    out = _resolve_out(opts["out"], "sweep.csv")
    root = np.random.SeedSequence(opts["seed"])
    children = root.spawn(len(epsilons))
    x0 = np.array(opts["x0"]) if opts["x0"] else None

    rows = []
    for epsilon, child in zip(epsilons, children):
        master_seed = int(child.generate_state(1, dtype=np.uint64)[0])
        local = dict(opts)
        local["epsilon"] = epsilon
        suite = _build_suite(local, problem, epsilon)
        alpha0, alpha_max = _default_alpha_bounds(local, problem)

        if opts["mode"] == "strongly_convex":
            n = math.ceil(opts["horizon_c1"] * max(1.0, math.log(1.0 / epsilon)) + opts["horizon_c2"])
        else:
            n = math.ceil(opts["horizon_c2"] * opts["horizon_c1"] / epsilon**2)
        n = max(n, 2)

        if opts["method"] == "storm":
            spec = _storm_spec(local, problem.noise)  # an inadmissible spec fails before the run
            p = spec.p
        else:
            p = opts["reliability_p"]
        if opts["gamma_policy"] == "corollary":
            gamma = gamma_threshold(p, n, opts["omega"], opts["beta"])
        elif opts["gamma_policy"] == "fixed":
            gamma = opts["gamma"]
        else:
            raise CliValidationError(f"unknown gamma policy {opts['gamma_policy']!r}")

        config = AlgoConfig(
            theta=opts["theta"],
            gamma=gamma,
            alpha0=alpha0,
            alpha_max=alpha_max,
            r=_default_r(opts, problem, epsilon),
            theta2=opts["theta2"],
            max_iterations=opts["max_iterations"],
            seed=0,
        )

        summary = monte_carlo_toc(
            problem, method, suite, config, epsilon, opts["reps"], master_seed,
            mode=opts["mode"], x0=x0,
        )
        if opts["method"] == "storm":
            prob_t = min(1.0, 1.0 / opts["horizon_c2"])
            report = storm_complexity_report(
                spec, epsilon, opts["zeta"], n, gamma, opts["omega"],
                prob_t_exceeds_n=prob_t,
            )
        else:
            # plug-in exceedance probability from the observed quantile
            prob_t = 1.0 - summary.stopped_fraction
            report = sass_complexity_report(
                _sass_spec(local), problem.noise, epsilon, n, gamma, opts["omega"], _case(opts),
                p=p, alpha_bar=alpha_max, batch_scale=opts["batch_c"], prob_t_exceeds_n=prob_t,
            )
        tocs = np.array([rec.toc for rec in summary.records], dtype=float)
        exceed = float(np.mean(tocs > report.high_probability.bound_value))

        rows.append(
            (
                epsilon,
                summary.mean_iterations,
                summary.mean_toc0,
                summary.mean_toc1,
                report.expected.bound_value,
                report.high_probability.bound_value,
                exceed,
            )
        )
    write_csv(out, SWEEP_CSV_HEADER, rows)
    print(f"wrote {out}")
    return 0


# -- entry point --------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="adastoc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, table in (
        ("walk", WALK_OPTIONS),
        ("hitting", HITTING_OPTIONS),
        ("optimize", OPTIMIZE_OPTIONS),
        ("sweep", SWEEP_OPTIONS),
    ):
        _add_options(sub.add_parser(name), table)
    return parser


_RUNNERS = {
    "walk": (WALK_OPTIONS, run_walk),
    "hitting": (HITTING_OPTIONS, run_hitting),
    "optimize": (OPTIMIZE_OPTIONS, run_optimize),
    "sweep": (SWEEP_OPTIONS, run_sweep),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser().parse_args(argv)
        table, runner = _RUNNERS[args.command]
        opts = _merge(args, table)
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
