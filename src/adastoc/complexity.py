"""Total oracle cost accounting and evaluation of the theoretical bounds.

The total oracle cost of a run is the sum of per-iteration sample counts.
Two abstract bounds are evaluated numerically (no hidden constants):

* expected: n * sum_{l=0..n} min(1, n (q/p)^l + c (2q)^l) *
  oc(alpha_bar gamma^l), a finite sum over the walk's levels: level by
  level, in log space where a step size, weight or cost leaves the double
  range, until every model's raw cost passes 2^53, and from there to n as
  sums of geometric series in closed form, so its work does not grow with n;
* high probability: n * oc(alpha_star(n)) with failure probability
  P(T > n) + n^-omega + c n^-(1+omega), where alpha_star is the step-size
  floor.

The trust-region and step-search reports evaluate both bounds on the
matching per-iteration cost models.  `growth_exponent` states the
asymptotic growth a cost model's total inherits from the step-size walk.
Monte Carlo replications provide the empirical side of each bound:
`monte_carlo_sweep` advances the replications of a sweep's tolerances in
lockstep, one adaptive loop for each stretch of tolerances that share an
oracle suite, and returns the loop's per-seed columns
(`framework.McTocSummary`), one summary per tolerance; `monte_carlo_toc`
is its one-tolerance call.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError, InvalidParameterError
from .framework import AlgoConfig, McTocSummary, _check_groups, _lockstep, _start, derive_seeds
from .oracles import SassOracleSpec, StormOracleSpec, sass_cost_models, storm_cost_models
from .problems import NoiseSpec, Problem
from .walk import WalkParams, _walk_failure, stepsize_lower_bound

__all__ = [
    "BoundReport",
    "MethodComplexityReport",
    "expected_toc_bound",
    "highprob_toc_bound",
    "storm_complexity_report",
    "sass_complexity_report",
    "growth_exponent",
    "monte_carlo_toc",
    "monte_carlo_sweep",
]


@dataclass(frozen=True)
class BoundReport:
    """A computed theoretical bound with its failure probability."""

    bound_value: float
    failure_prob: float
    kind: str

    def __post_init__(self):
        if not (0.0 <= self.failure_prob <= 1.0):
            raise InvalidParameterError("failure_prob must lie in [0,1]")
        if self.kind not in ("expected", "high_probability"):
            raise InvalidParameterError(f"unknown bound kind {self.kind!r}")


@dataclass(frozen=True)
class MethodComplexityReport:
    """A method's expected and high-probability total-cost bounds."""

    expected: BoundReport
    high_probability: BoundReport


def growth_exponent(model, params: WalkParams) -> float:
    """P log gamma / log(q/p): the growth exponent of a total paying model along the walk.

    P is the model's power (its cost grows as alpha**-P), and the walk's
    excursions inflate the total at this rate.  A perfectly reliable walk
    (q = 0) never climbs a level, so the exponent is 0.
    """
    if params.q == 0.0:
        return 0.0
    return model.power * math.log(params.gamma) / math.log(params.q / params.p)


_LEVEL_BLOCK = 4096  # levels per array pass: memory does not grow with n
_LOG_TINY = math.log(math.ulp(0.0))  # a term whose log is below this is 0 in a double
_RAW_EXACT = 2.0**53  # a raw cost this large is an integer: ceil and max(1, .) leave it unchanged
# the tail's decimals: 40 digits, and an exponent range that holds gamma**(-P n) at any n
_TAIL = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)


def _level_costs(models, params: WalkParams, levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Summed per-iteration cost of the models at alpha_l = alpha_bar * gamma**l, and its log.

    The cost is inf where it overflows a double; the log is then taken from
    log alpha_l = log alpha_bar + l log gamma, so it is finite at every level.
    """
    alpha = params.alpha_bar * np.float_power(params.gamma, levels)
    log_alpha = math.log(params.alpha_bar) + levels * math.log(params.gamma)
    costs = [m.cost(alpha) for m in models]
    logs = [np.where(np.isfinite(c), np.log(c), math.log(m.calls_per_iteration) + m.log_raw(log_alpha))
            for m, c in zip(models, costs)]
    with np.errstate(over="ignore"):
        return sum(costs), np.logaddexp.reduce(logs)


def _first_level(test, lo: int, hi: int) -> int:
    """The first level in lo..hi-1 that passes test, else hi; test is monotone and takes an array of levels.

    The first call tests the 256 levels from lo, where the levels sought
    usually lie; each later call tests 64 levels spread over the bracket,
    so a bracket of n levels takes about log(n) / log(64) calls.
    """
    probes = list(range(lo, min(hi, lo + 256)))
    while lo < hi:
        hits = test(np.array(probes, dtype=float))
        if hits.any():
            j = int(np.argmax(hits))
            lo, hi = (probes[j - 1] + 1 if j else lo), probes[j]
        else:
            lo = probes[-1] + 1
        probes = sorted({lo + (hi - lo) * k // 64 for k in range(64)})
    return hi


def _head_end(models, params: WalkParams, n: int) -> int:
    """First level H from which each model's cost is sum_i c_i (alpha_bar gamma**l)**-P_i, n + 1 if none is.

    That holds past every finite cap once each model with a positive power
    has raw >= 2**53; a model with only zero powers costs a constant.  A
    negative power leaves the cost's monotonicity to the level-by-level
    check, so every level is evaluated.
    """
    if any(power < 0.0 for m in models for *_, power in m.terms):
        return n + 1
    powered = [m for m in models if m.power > 0.0]
    caps = [a for m in powered for _, a, power in m.terms if power > 0.0 and math.isfinite(a)]

    def reached(levels):
        alpha = params.alpha_bar * np.float_power(params.gamma, levels)
        ok = np.ones(len(levels), dtype=bool)
        for a in caps:
            ok &= alpha <= a
        for m in powered:
            ok &= m.raw(alpha) >= _RAW_EXACT
        return ok

    return _first_level(reached, 0, n + 1)


def _exact_sum(values: list[float]) -> list[float]:
    """Doubles, largest first, whose sum is exactly that of the finite values: a total that never rounds.

    Raises OverflowError where that sum is beyond the double range.
    """
    parts = []
    while (rest := math.fsum([*values, *(-x for x in parts)])) != 0.0:
        parts.append(rest)
    return parts


def _head(models, params: WalkParams, n: int, end: int) -> tuple[list[float], bool]:
    """The exact sum (`_exact_sum`) of the bound's terms at levels 0..end-1, and whether the rest is 0 or inf.

    Returns [inf] when the sum overflows.  Where w_l < 1 a term is at most
    exp(decay) times the one before (the weight falls by 2q, the cost grows
    by gamma**-power), so with decay < 0 a term that is 0 in a double is
    followed by terms that are 0 too.
    """
    q, p, c, log_n = params.q, params.p, params.c, math.log(n)
    parts, last_log = [], -math.inf
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_qp, log_2q, log_c = np.log(q / p), np.log(2.0 * q), np.log(c)
        decay = log_2q - max(0.0, *(m.power for m in models)) * math.log(params.gamma)
        for start in range(0, end, _LEVEL_BLOCK):
            levels = np.arange(start, min(start + _LEVEL_BLOCK, end), dtype=float)
            cost, log_cost = _level_costs(models, params, levels)
            rising = np.diff(log_cost, prepend=last_log) < 0.0
            if rising.any():
                level = start + int(np.argmax(rising))
                raise AssumptionViolationError(f"cost model increases with alpha near level {level}; monotonicity is required")
            # fmin: at q = 0, level 0 meets 0 * log 0 = nan, and its weight is 1
            weight = np.fmin(1.0, n * np.exp(levels * log_qp) + c * np.exp(levels * log_2q))
            log_weight = np.fmin(0.0, np.logaddexp(log_n + levels * log_qp, log_c + levels * log_2q))
            log_term = log_n + log_weight + log_cost
            exact = (weight >= np.finfo(float).tiny) & np.isfinite(cost)
            term = np.where(exact, float(n) * (weight * cost), np.exp(log_term))
            if np.isinf(term).any():
                return [math.inf], True
            try:
                parts = _exact_sum([*parts, *term.tolist()])
            except OverflowError:  # finite terms whose sum is beyond the double range
                return [math.inf], True
            last_log = log_cost[-1]
            if decay < 0.0 and weight[-1] < 1.0 and log_term[-1] < _LOG_TINY:
                return parts, True
    return parts, False


def _tail(models, params: WalkParams, n: int, start: int) -> float:
    """n * sum_{l=start..n} w_l * oc_l where each model's cost is its raw formula (`_head_end`).

    There oc_l = sum_j K_j rho_j**l over every term (c, a, P) of every model,
    K = calls * c * alpha_bar**-P and rho = gamma**-P (a model with only
    zero powers is its constant cost, rho = 1).  The weight is 1 before l*,
    the first level whose n (q/p)**l + c (2q)**l (the head's expression) is
    below 1, and that expression from l* on.  Each piece is then a sum of
    geometric series, summed in 40-digit decimals from the float inputs,
    whose exponent range holds any power a horizon n reaches.
    """
    q, p, c = params.q, params.p, params.c
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_qp, log_2q = np.log(q / p), np.log(2.0 * q)
        below_one = _first_level(lambda l: n * np.exp(l * log_qp) + c * np.exp(l * log_2q) < 1.0, 0, n + 1)
    with decimal.localcontext(_TAIL):
        D = decimal.Decimal
        alpha_bar, gamma = D(params.alpha_bar), D(params.gamma)
        series = []  # (K, rho) of every term
        for m in models:
            if m.power > 0.0:
                series += [(m.calls_per_iteration * D(ci) / alpha_bar ** D(pi), 1 / gamma ** D(pi)) for ci, _, pi in m.terms]
            else:
                series.append((D(float(m.cost(params.alpha_bar))), D(1)))

        def geometric(x, lo, hi):  # sum_{l=lo..hi} x**l
            return hi - lo + 1 if x == 1 else x**lo * (x ** (hi - lo + 1) - 1) / (x - 1)

        total = D(0)
        if start < below_one:  # w = 1
            total += sum(k * geometric(rho, start, min(below_one, n + 1) - 1) for k, rho in series)
        lo = max(start, below_one)
        if lo <= n:  # w = n (q/p)**l + c (2q)**l
            r, s = D(q) / D(p), 2 * D(q)
            total += sum(k * (n * geometric(r * rho, lo, n) + D(c) * geometric(s * rho, lo, n)) for k, rho in series)
        return float(n * total)


def expected_toc_bound(models, params: WalkParams, n: int) -> BoundReport:
    """Evaluation of the expected total-cost bound over n iterations.

    models are the cost models one iteration pays, e.g. (value, gradient);
    their summed cost oc(alpha) must be non-increasing in alpha, and a
    violation on the level grid raises.  The bound is n * sum_{l=0..n} w_l *
    oc(alpha_bar * gamma**l), w_l = min(1, n (q/p)**l + c (2q)**l).  The
    head, levels 0..H-1 with H from `_head_end`, is summed exactly
    (math.fsum) from its terms: products of doubles where the weight is a
    normal double and the cost finite, else exp(log n + log w_l + log oc).
    It ends early past the last term that is not 0 in a double, or where
    the sum overflows.  The tail, levels H..n, is a sum of geometric series
    in closed form (`_tail`), so the work does not grow with n.  The bound
    is head plus tail rounded once, inf only when it exceeds the double
    range; it is the correctly rounded sum of the terms when H > n.
    """
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    end = _head_end(models, params, n)
    parts, done = _head(models, params, n, end)
    tail = 0.0 if done or end > n else _tail(models, params, n, end)
    try:
        total = math.fsum([*parts, tail])
    except OverflowError:  # a finite head and tail whose sum is beyond the double range
        total = math.inf
    return BoundReport(bound_value=total, failure_prob=0.0, kind="expected")


def highprob_toc_bound(
    models, params: WalkParams, n: int, prob_t_exceeds_n: float
) -> BoundReport:
    """n * oc(alpha_star(n)), failing w.p. at most P(T>n) + n^-omega + c n^-(1+omega).

    oc is the models' summed cost, as in expected_toc_bound; it is inf at a
    floor that underflows to 0 unless no model grows as alpha shrinks.
    """
    if not (0.0 <= prob_t_exceeds_n <= 1.0):
        raise InvalidParameterError("prob_t_exceeds_n must lie in [0,1]")
    alpha_star = stepsize_lower_bound(params, n)[0]
    return BoundReport(
        bound_value=float(n) * float(sum(m.cost(alpha_star) for m in models)),
        failure_prob=min(1.0, prob_t_exceeds_n + _walk_failure(params, n)),
        kind="high_probability",
    )


def storm_complexity_report(
    spec: StormOracleSpec,
    epsilon: float,
    zeta: float,
    n: int,
    gamma: float,
    omega: float,
    prob_t_exceeds_n: float = 0.0,
) -> MethodComplexityReport:
    """Expected and high-probability total-sample bounds for the first-order trust-region method.

    The reliability threshold is alpha_bar = epsilon / zeta and the
    per-iteration reliability is p = 1 - delta0 - delta1.  The value and
    gradient models grow as alpha**-4 and alpha**-2, so their totals carry
    the growth exponents (`growth_exponent`) 4 log_{q/p} gamma and
    2 log_{q/p} gamma.
    """
    if epsilon <= 0.0 or zeta <= 0.0:
        raise InvalidParameterError("epsilon and zeta must be positive")
    params = WalkParams(p=spec.p, gamma=gamma, alpha_bar=epsilon / zeta, omega=omega)
    models = storm_cost_models(spec)
    return MethodComplexityReport(
        expected_toc_bound(models, params, n), highprob_toc_bound(models, params, n, prob_t_exceeds_n)
    )


def sass_complexity_report(
    spec: SassOracleSpec,
    noise: NoiseSpec,
    epsilon: float,
    n: int,
    gamma: float,
    omega: float,
    case: str,
    p: float,
    alpha_bar: float,
    batch_scale: float = 1.0,
    prob_t_exceeds_n: float = 0.0,
) -> MethodComplexityReport:
    """Expected and high-probability total-sample bounds for the step-search method.

    p and alpha_bar are the reliability constants of the step-size process
    for the configured oracles and problem; they are inputs here because
    they depend on problem constants (smoothness, theta) rather than on the
    cost formulas.  Value-sample cost is alpha-independent, so its growth
    exponent (`growth_exponent`) is zero; the gradient exponent
    2 log_{q/p} gamma comes from the m_v / (kappa alpha)^2 part and
    vanishes with m_v.
    """
    params = WalkParams(p=p, gamma=gamma, alpha_bar=alpha_bar, omega=omega)
    models = sass_cost_models(spec, noise, epsilon, case, batch_scale)
    return MethodComplexityReport(
        expected_toc_bound(models, params, n), highprob_toc_bound(models, params, n, prob_t_exceeds_n)
    )


def monte_carlo_toc(
    problem: Problem,
    method,
    oracle_suite,
    config: AlgoConfig,
    epsilon: float,
    replications: int,
    master_seed: int,
    mode: str = "nonconvex",
    x0: np.ndarray | None = None,
) -> McTocSummary:
    """Independent replications of the adaptive loop, summarized as per-replication columns.

    Replication seeds are derive_seeds(master_seed, replications), and the
    replications advance in lockstep keeping only where each one ended
    (`McTocSummary`); for run_adaptive at seed i, entry i of toc0/toc1 is
    the sum of its cost0/cost1 column, of iterations that column's length,
    of stopped_at its stopping_iteration (-1 for None) and of final_x,
    final_grad_norm and final_gap the trace's own.  A bad start point (one
    where f overflows too) or configuration is refused before any
    replication runs.  A replication that fails leaves the one loop; then
    the lowest one that fails raises, naming itself and its iteration as
    one-at-a-time runs would.  This is the one-run call of
    `monte_carlo_sweep`, which advances several tolerances' replications
    together and gives each the summary this call gives it.
    """
    run = (oracle_suite, config, epsilon, master_seed)
    return monte_carlo_sweep(problem, method, [run], replications, mode, x0)[0]


def monte_carlo_sweep(
    problem: Problem,
    method,
    runs,
    replications: int,
    mode: str = "nonconvex",
    x0: np.ndarray | None = None,
) -> list[McTocSummary]:
    """monte_carlo_toc for each (suite, config, epsilon, master_seed) of runs, in lockstep.

    Neighbouring runs with equal suites advance their replications together
    in one loop, and summary i is exactly what monte_carlo_toc gives run i
    alone.  The runs must share theta, theta2 and max_iterations.  Every run
    is checked, and its suite's cost models built, before any replication
    runs.  A replication that fails retires from its loop, which runs on
    (`framework._lockstep`) and then raises what one-at-a-time
    monte_carlo_toc calls raise first: the first failing run's error,
    naming its lowest failing replication.
    """
    runs = list(runs)
    if not runs:
        raise InvalidParameterError("at least one run is needed")
    groups = []
    for suite, config, epsilon, master_seed in runs:
        x = _start(problem, method, suite, epsilon, mode, x0)
        suite.cost_models(problem)  # a degenerate cost model is a configuration error, not a replication's
        groups.append((config, epsilon, derive_seeds(master_seed, replications)))
    _check_groups(groups)
    starts = [i for i in range(len(runs)) if i == 0 or runs[i][0] != runs[i - 1][0]]
    summaries = []
    for lo, hi in zip(starts, [*starts[1:], len(runs)]):  # one loop per stretch of equal suites
        summaries += _lockstep(problem, method, runs[lo][0], groups[lo:hi], mode, x, record=False)
    return summaries
