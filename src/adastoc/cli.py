"""Command-line front end: experiment runners with deterministic CSV output.

Four subcommands:

* walk     - simulate step sizes alpha_bar * gamma**l (the C pow
             np.float_power, as the loop's) induced by the one-sided walk
             against the floor alpha_star(n), per contraction factor gamma:
             one representative path per gamma, and the dip fraction of one
             walk ensemble shared by every gamma next to its exact value;
* hitting  - exact hitting probabilities versus the closed-form bound and a
             Monte Carlo estimate, per level;
* optimize - one adaptive run, trace CSV plus a one-line cost summary;
* sweep    - tolerance sweep comparing Monte Carlo total cost against the
             expected and high-probability bounds.

Flags are long-form `--name value`; unknown flags, and prefixes of known
ones, are errors.  A JSON file passed with --config supplies any option the
run reads, explicit flags win.  A flag or config key the run does not read
is refused before anything is drawn or written.  The oracle flags each
method/oracle pair reads:

  storm + minibatch               --kappa-ef --kappa-eg --delta0 --delta1
  storm or sass + corruption      --delta0 --delta1 --value-shift
  sass + minibatch                --kappa --tau --batch-c
  storm or sass + exact           none
  storm or sass + minibatch + --noise none   none (the exact oracles)

--zeta and --theta2 are storm's; optimize reads --zeta only when
--alpha-max is unset, as alpha_max defaults to epsilon/zeta.  Only a
minibatch run with --noise gaussian reads the noise levels --sigma-f
--m-c --m-v, and only --problem logistic reads --problem-seed.  A storm
sweep also reads --delta0 and --delta1 whatever its oracle (its walk's p
is 1 - delta0 - delta1), and a sweep reads --reliability-p for sass only,
--gamma for --gamma-policy fixed only and --beta for corollary only.  An
optimize or sweep run with --oracle exact, or minibatch with --noise none,
draws nothing: it reads no --seed, and a sweep runs one replication per
tolerance and reads no --reps.  Relative output paths resolve against
$ADASTOC_OUTDIR when set.  Exit codes: 0 success, 1 validation error,
2 theory violation detected, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
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
from .tableio import format_cell, write_csv, write_lines
from .walk import (
    WalkParams,
    _check_reliability,
    _first_level,
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


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class _Options(dict):
    """One run's options, recording the keys the runner reads as `opts[key]`.

    `given` holds the keys set by a flag or a config key.  A runner calls
    `refuse_unread` after its last read and before its first draw or file
    write: a given key it has not read would change nothing, so it is an
    error.  The runner's reads are thus the one statement of what each
    method/oracle pair takes.
    """

    def __init__(self, command: str, values: dict, given: set[str]):
        super().__init__(values)
        self.command, self.given, self.read = command, given, set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def refuse_unread(self, *selectors: str) -> None:
        """Refuse the given keys not read, naming the command and the selectors that decide its reads."""
        unread = sorted(self.given - self.read)
        if unread:
            run = " ".join([self.command, *(f"{_flag(key)} {self[key]}" for key in selectors)])
            raise CliValidationError(f"{run} does not read {', '.join(map(_flag, unread))}")


def _seed(opts: _Options, draws: bool = True) -> int:
    """The run's checked --seed; a run that draws nothing reads none and runs at 0."""
    if not draws:
        return 0
    seed = opts["seed"]
    _check_seed(seed)
    return seed


def _merge(args: argparse.Namespace, table: dict) -> _Options:
    """Defaults <- config file <- explicit flags; unknown config keys are errors."""
    cfg = _load_config_file(getattr(args, "config", None))
    unknown = set(cfg) - set(table)
    if unknown:
        raise CliValidationError(f"unknown config keys: {sorted(unknown)}")
    merged, given = {}, set(cfg)
    for key, (cast, default) in table.items():
        value = getattr(args, key, None)
        if value is None:
            value = cfg.get(key, default)
        else:
            given.add(key)
        if isinstance(value, list) and cast is not _floats:
            raise CliValidationError(f"{key} takes one value, not a list")
        if value is not None:
            try:
                value = cast(value)
            except (TypeError, ValueError) as exc:
                raise CliValidationError(f"bad value for {key}: {value!r}") from exc
        merged[key] = value
    return _Options(args.command, merged, given)


def _add_options(parser: argparse.ArgumentParser, table: dict) -> None:
    parser.add_argument("--config", default=None, help="JSON file of defaults; flags win")
    for key in table:
        parser.add_argument(_flag(key), default=None)


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


def _dip_depth(params: WalkParams, alpha_star: float, n: int) -> int:
    """The first depth m in 0..n with alpha_bar * gamma**m < alpha_star, n + 1 if there is none.

    gamma**m is the loop's C pow (np.float_power), and it falls with m.
    """
    return _first_level(lambda m: params.alpha_bar * np.float_power(params.gamma, m) < alpha_star, 0, n + 1)


def _path_lines(params: WalkParams, alpha_star: float, n: int, stream) -> list[str]:
    """The walk CSV's lines for one gamma: its representative n-step path, drawn from stream's first child."""
    path = simulate_walk(params, n, np.random.default_rng(stream.spawn(1)[0]))
    running_max = np.maximum.accumulate(path.states)
    # the running maximum passes through every level 0..running_max[-1]:
    # format gamma, and each level's step size with alpha_star, once
    step_sizes = params.alpha_bar * np.float_power(params.gamma, np.arange(running_max[-1] + 1))
    head, star = format_cell(params.gamma), format_cell(alpha_star)
    rests = [f"{format_cell(value)},{star}" for value in step_sizes.tolist()]
    return [f"{head},{k},{rests[z]}" for k, z in enumerate(running_max.tolist())]


def run_walk(opts: _Options) -> int:
    """One representative path per gamma, and every gamma's dip fraction from one ensemble.

    The deepest level M = max_k Z_k of an n-step walk has a law that depends
    on p and n only, so one ensemble of `reps` walks serves every gamma: a
    path dips below alpha_star when M >= m, m the first depth in 0..n with
    alpha_bar * gamma**m < alpha_star (`_dip_depth`; n + 1 if none), and
    `dip_exact` = P(M >= m) is its exact probability.  Every input is
    checked, and the run exits 2 if some dip_exact exceeds its
    failure_bound, before any random draw.  Gamma i's path draws from the first child of the i-th of
    root.spawn(len(gammas) + 1); the ensemble draws from the last one.  The
    summary rows come first; each gamma's path is then drawn and written in
    turn, so one gamma's lines are held at a time.
    """
    seed, gammas = _seed(opts), opts["gamma"]
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
    dip_depths = [_dip_depth(w, alpha_star, n) for w, (alpha_star, _, _) in zip(params, floors)]
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
    *children, ensemble_stream = np.random.SeedSequence(seed).spawn(len(gammas) + 1)
    opts.refuse_unread()
    max_levels, _ = walk_ensemble_stats(p, n, reps, np.random.default_rng(ensemble_stream))
    summary_rows = [
        (w.gamma, alpha_star, float(np.mean(max_levels >= dip_depth)), dip_exact, 1.0 - success_prob, n, reps)
        for w, (alpha_star, success_prob, _), dip_depth, dip_exact in zip(params, floors, dip_depths, dip_exacts)
    ]

    # one gamma's lines at a time: each path is drawn as the CSV reaches it
    write_lines(out, WALK_CSV_HEADER, itertools.chain.from_iterable(
        _path_lines(w, alpha_star, n, child) for w, (alpha_star, _, _), child in zip(params, floors, children)
    ))
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


def run_hitting(opts: _Options) -> int:
    seed, p, l_max, n, reps = _seed(opts), opts["p"], opts["l_max"], opts["n"], opts["reps"]
    if l_max < 0:
        raise CliValidationError(f"l_max must be nonnegative, got {l_max}")
    _check_reliability(p)
    exacts = hitting_prob_exact(p, range(l_max + 1), n).tolist()
    bounds = [1.0 if level == 0 else hitting_prob_bound(p, level, n) for level in range(l_max + 1)]
    for level, (exact, bound) in enumerate(zip(exacts, bounds)):
        if exact > min(1.0, bound) + 1e-12:
            raise TheoryViolationError(
                f"exact hitting probability exceeds its bound at (p={p}, l={level}, n={n})"
            )
    out = _resolve_out(opts["out"], "hitting.csv")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    opts.refuse_unread()
    max_levels, _ = walk_ensemble_stats(p, n, reps, rng)
    rows = []
    for level, (exact, bound) in enumerate(zip(exacts, bounds)):
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
    """The run's problem; exact and corruption oracles draw no noise, and a quadratic draws nothing."""
    kind = {"quadratic": "quadratic", "logistic": "logistic_synthetic"}.get(opts["problem"])
    if kind is None:
        raise CliValidationError(f"unknown problem {opts['problem']!r}")
    if opts["noise"] not in ("none", "gaussian"):
        raise CliValidationError(f"unknown noise kind {opts['noise']!r} (use none or gaussian)")
    noise = NoiseSpec.none()
    if opts["noise"] == "gaussian" and opts["oracle"] == "minibatch":
        noise = NoiseSpec.gaussian(sigma_f=opts["sigma_f"], m_c=opts["m_c"], m_v=opts["m_v"])
    seed = opts["problem_seed"] if kind == "logistic_synthetic" else 0
    return make_problem(kind, opts["dim"], opts["conditioning"], noise, seed=seed)


def _build_method(opts: dict):
    if opts["method"] == "storm":
        return StormMethod()
    if opts["method"] == "sass":
        return SassMethod()
    raise CliValidationError(f"unknown method {opts['method']!r}")


def _build_suite(opts: dict, problem, epsilon: float):
    """The run's oracle suite; a minibatch of noise-free samples is the exact estimate at one sample per call."""
    oracle = opts["oracle"]
    if oracle == "exact" or (oracle == "minibatch" and opts["noise"] == "none"):
        return ExactOracles()
    if oracle == "corruption":
        return PairCorruptionOracles(
            delta0=opts["delta0"], delta1=opts["delta1"], value_shift=opts["value_shift"]
        )
    if oracle == "minibatch":
        if opts["method"] == "storm":
            return StormMinibatchOracles(StormOracleSpec(
                kappa_ef=opts["kappa_ef"], delta0=opts["delta0"], kappa_eg=opts["kappa_eg"], delta1=opts["delta1"],
                sigma_f=problem.noise.sigma_f, sigma_g=math.sqrt(problem.noise.m_c),
            ))
        case = "strongly_convex" if opts["mode"] == "strongly_convex" else "nonconvex"
        spec = SassOracleSpec(kappa=opts["kappa"], tau=opts["tau"])
        return SassMinibatchOracles(spec, epsilon=epsilon, case=case, batch_scale=opts["batch_c"])
    raise CliValidationError(f"unknown oracle kind {oracle!r}")


def _storm_anchor(opts: dict, epsilon: float) -> float:
    """epsilon/zeta: the trust region's unset alpha_max, and the alpha_bar of a storm sweep's walk."""
    if not opts["zeta"] > 0.0:
        raise CliValidationError("zeta must be positive")
    return epsilon / opts["zeta"]


def _run_config(opts: dict, problem, suite, epsilon: float, gamma: float) -> AlgoConfig:
    """The loop's parameters for one run of the suite at tolerance epsilon.

    An unset alpha_max is epsilon/zeta for the trust region (a given one
    leaves zeta unread) and the deterministic success threshold
    (1-theta)/L for step search; an unset alpha0 is alpha_max.  An unset r
    (noise compensation) is zero except for step search's minibatch suite,
    where it is twice the value-estimate deviation of the minibatch.
    """
    storm = opts["method"] == "storm"
    alpha_max = opts["alpha_max"]
    if alpha_max is None:
        alpha_max = _storm_anchor(opts, epsilon) if storm else (1.0 - opts["theta"]) / problem.lipschitz
    theta2 = opts["theta2"] if storm else AlgoConfig.theta2  # step search has no gradient-versus-radius test
    r = opts["r"]
    if r is None:
        r = 0.0
        if isinstance(suite, SassMinibatchOracles):
            value, _ = suite.cost_models(problem)
            r = 2.0 * problem.noise.sigma_f / math.sqrt(value.batch(1.0))
    return AlgoConfig(
        theta=opts["theta"],
        gamma=gamma,
        alpha0=opts["alpha0"] if opts["alpha0"] is not None else alpha_max,
        alpha_max=alpha_max,
        r=r,
        theta2=theta2,
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


def _check_tolerance(epsilon: float, name: str) -> None:
    if not epsilon > 0.0:
        raise CliValidationError(f"{name} must be positive")
    if epsilon == math.inf:
        raise CliValidationError(f"{name} must be finite")


def run_optimize(opts: _Options) -> int:
    epsilon = opts["epsilon"]
    _check_tolerance(epsilon, "epsilon")
    problem = _build_problem(opts)
    method = _build_method(opts)
    suite = _build_suite(opts, problem, epsilon)
    config = _run_config(opts, problem, suite, epsilon, opts["gamma"])
    x0 = np.array(opts["x0"]) if opts["x0"] else None
    mode, seed, out = opts["mode"], _seed(opts, suite.draws is not None), _resolve_out(opts["out"], "trace.csv")
    # a trust region's given alpha_max is why it reads no zeta
    decides_zeta = ("alpha_max",) if opts["method"] == "storm" and opts["alpha_max"] is not None else ()
    opts.refuse_unread("problem", "method", "oracle", "noise", *decides_zeta)
    trace = run_adaptive(problem, method, suite, config, epsilon, mode=mode, x0=x0, seed=seed)
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


def _horizon(opts: dict, epsilon: float) -> int:
    """The sweep's horizon n at tolerance epsilon, at least 2; a horizon that is not finite is refused."""
    c1, c2 = opts["horizon_c1"], opts["horizon_c2"]
    if opts["mode"] == "strongly_convex":
        n = c1 * max(1.0, math.log(1.0 / epsilon)) + c2
    else:  # epsilon**2 as a double is 0 or inf at the range's ends, where Python's float ** raises
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            n = c2 * c1 / np.float64(epsilon) ** 2
    if not math.isfinite(n):
        raise CliValidationError(f"the horizon at epsilon={epsilon} is not finite")
    return max(math.ceil(n), 2)


def run_sweep(opts: _Options) -> int:
    """One row per tolerance: Monte Carlo means and bounds on the cost models the runs pay.

    Every tolerance is planned first (horizon, suite, config); then one
    `monte_carlo_sweep` call checks every run and advances every
    tolerance's replications together.  So every configuration, and every
    given option no tolerance's plan read, is refused before any replication
    runs, and each row is what its tolerance's run alone gives.
    """
    epsilons = opts["epsilons"]
    if not epsilons:
        raise CliValidationError("at least one epsilon is required")
    for epsilon in epsilons:
        _check_tolerance(epsilon, "every epsilon")
    for key in ("horizon_c1", "horizon_c2"):
        if not opts[key] > 0.0:  # a horizon clamped to 2 would bound runs it does not cover
            raise CliValidationError(f"{key} must be positive")
    storm = opts["method"] == "storm"
    problem = _build_problem(opts)
    method = _build_method(opts)
    if storm:
        p = StormOracleSpec(delta0=opts["delta0"], delta1=opts["delta1"]).p  # an inadmissible pair fails before any run
    else:
        p = opts["reliability_p"]
        _check_reliability(p)
    policy = opts["gamma_policy"]
    if policy not in ("fixed", "corollary"):
        raise CliValidationError(f"unknown gamma policy {policy!r}")
    out = _resolve_out(opts["out"], "sweep.csv")
    x0 = np.array(opts["x0"]) if opts["x0"] else None

    plans, runs = [], []
    for epsilon in epsilons:
        n = _horizon(opts, epsilon)
        if policy == "corollary":
            gamma = gamma_threshold(p, n, opts["omega"], opts["beta"])
        else:
            gamma = opts["gamma"]
        suite = _build_suite(opts, problem, epsilon)
        config = _run_config(opts, problem, suite, epsilon, gamma)
        alpha_bar = _storm_anchor(opts, epsilon) if storm else config.alpha_max
        params = WalkParams(p=p, gamma=gamma, alpha_bar=alpha_bar, omega=opts["omega"])
        plans.append((epsilon, n, params, suite))
        runs.append((suite, config, epsilon))
    # every tolerance's suite is of one kind; one that draws nothing repeats a single run, so it runs once
    draws = suite.draws is not None
    seeds = derive_seeds(_seed(opts, draws), len(epsilons))
    reps, mode = opts["reps"] if draws else 1, opts["mode"]
    opts.refuse_unread("problem", "method", "oracle", "noise", "gamma_policy")
    summaries = monte_carlo_sweep(problem, method, [(*run, seed) for run, seed in zip(runs, seeds)], reps, mode, x0)

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


_RUNNERS = {
    "walk": (WALK_OPTIONS, run_walk),
    "hitting": (HITTING_OPTIONS, run_hitting),
    "optimize": (OPTIMIZE_OPTIONS, run_optimize),
    "sweep": (SWEEP_OPTIONS, run_sweep),
}


def build_parser() -> _Parser:
    # allow_abbrev=False: a prefix of a flag is an unknown flag, not an alias
    parser = _Parser(
        prog="adastoc", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter,
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (table, _) in _RUNNERS.items():
        _add_options(sub.add_parser(name, allow_abbrev=False), table)
    return parser


_parser = functools.cache(build_parser)  # one parser per process: parsing leaves it unchanged


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parser().parse_args(argv)
        table, runner = _RUNNERS[args.command]
        return runner(_merge(args, table))
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
