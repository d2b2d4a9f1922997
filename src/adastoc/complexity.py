"""Total oracle cost accounting and evaluation of the theoretical bounds.

The total oracle cost of a run is the sum of per-iteration sample counts.
Two abstract bounds are evaluated numerically (no hidden constants):

* expected: n * sum_{l=1..n} min(1, n (q/p)^l + c (2q)^l) * oc(alpha_bar
  gamma^l) + n * oc(alpha_bar), a finite sum taken exactly with log-space
  powers;
* high probability: n * oc(alpha_star(n)) with failure probability
  P(T > n) + n^-omega + c n^-(1+omega), where alpha_star is the step-size
  floor.

The trust-region and step-search reports instantiate these with the
matching per-iteration cost models and additionally state the asymptotic
growth exponents carried by the step-size walk.  Monte Carlo replications
provide the empirical side of each bound: `monte_carlo_toc` advances all
of them in lockstep through one adaptive loop and keeps only each one's
sample totals, iterations used and whether it stopped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolationError, InvalidParameterError
from .framework import AlgoConfig, RunTrace, _lockstep, _start, derive_configs
from .oracles import (
    SassOracleSpec,
    StormOracleSpec,
    SummedCost,
    sass_cost_models,
    storm_cost_models,
)
from .problems import NoiseSpec, Problem
from .walk import WalkParams, stepsize_lower_bound

__all__ = [
    "TocRecord",
    "BoundReport",
    "MethodComplexityReport",
    "McTocSummary",
    "accumulate_toc",
    "expected_toc_bound",
    "highprob_toc_bound",
    "storm_complexity_report",
    "sass_complexity_report",
    "monte_carlo_toc",
]


@dataclass(frozen=True)
class TocRecord:
    """Sample counts of one run: value samples, gradient samples, their sum."""

    toc0: int
    toc1: int
    toc: int
    iterations_used: int
    stopped: bool

    def __post_init__(self):
        if self.toc != self.toc0 + self.toc1:
            raise InvalidParameterError("toc must equal toc0 + toc1")


@dataclass(frozen=True)
class BoundReport:
    """A computed theoretical bound with its failure probability and inputs."""

    bound_value: float
    failure_prob: float
    kind: str
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (0.0 <= self.failure_prob <= 1.0):
            raise InvalidParameterError("failure_prob must lie in [0,1]")
        if self.kind not in ("expected", "high_probability"):
            raise InvalidParameterError(f"unknown bound kind {self.kind!r}")


@dataclass(frozen=True)
class MethodComplexityReport:
    """Expected and high-probability total-cost bounds plus growth exponents."""

    expected: BoundReport
    high_probability: BoundReport
    toc0_exponent: float
    toc1_exponent: float
    p: float
    alpha_bar: float


def accumulate_toc(trace: RunTrace, horizon: int | None = None) -> TocRecord:
    """Sum per-iteration costs over the trace, optionally capped at a horizon."""
    cost0, cost1 = trace.cost0[:horizon], trace.cost1[:horizon]
    toc0, toc1 = sum(cost0.tolist()), sum(cost1.tolist())
    stopped = trace.stopping_iteration is not None and (
        horizon is None or trace.stopping_iteration <= horizon
    )
    return TocRecord(
        toc0=toc0, toc1=toc1, toc=toc0 + toc1, iterations_used=len(cost0), stopped=stopped
    )


_ALPHA_FLOOR = 1e-70  # below this the power-law cost formulas overflow double precision


def expected_toc_bound(cost, params: WalkParams, n: int) -> BoundReport:
    """Evaluation of the expected total-cost bound over n iterations.

    cost must expose cost(alpha) and power, be non-increasing in alpha, and
    grow at most like alpha**-power; a monotonicity violation detected on
    the evaluation grid raises.  The sum is taken term by term until the
    hitting weight underflows to zero (past which every term vanishes
    exactly); should the level step size fall below the float floor first,
    the remaining terms are replaced by a geometric upper bound on the tail
    with ratio 2q / gamma**power, so the result is always a valid upper
    bound.  In the divergent regime (gamma < (2q)**(1/power)) the bound is
    inf; an alpha-independent cost (power 0) never diverges.
    """
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    q, p, c = params.q, params.p, params.c
    log_qp = math.log(q / p) if q > 0.0 else -math.inf
    log_2q = math.log(2.0 * q) if q > 0.0 else -math.inf
    base_cost = cost.cost(params.alpha_bar)
    total = float(n) * base_cost
    prev_cost = base_cost
    prev_term = math.inf
    for l in range(1, n + 1):
        weight = min(1.0, n * math.exp(l * log_qp) + c * math.exp(l * log_2q))
        if weight == 0.0:
            break
        alpha_l = params.alpha_bar * params.gamma**l
        if alpha_l < _ALPHA_FLOOR:
            ratio = 0.0 if math.isinf(prev_term) else (2.0 * q) / params.gamma**cost.power
            if prev_term > 0.0 and ratio < 1.0:
                total += float(n) * prev_term * ratio / (1.0 - ratio)
            else:
                total = math.inf
            break
        level_cost = cost.cost(alpha_l)
        if level_cost < prev_cost:
            raise AssumptionViolationError(
                f"cost model increases with alpha near level {l}; monotonicity is required"
            )
        prev_cost = level_cost
        term = weight * level_cost
        prev_term = term
        total += float(n) * term
        if math.isinf(total):
            break
    return BoundReport(
        bound_value=total,
        failure_prob=0.0,
        kind="expected",
        inputs={"n": n, "p": params.p, "gamma": params.gamma, "alpha_bar": params.alpha_bar},
    )


def highprob_toc_bound(
    cost, params: WalkParams, n: int, prob_t_exceeds_n: float
) -> BoundReport:
    """n * oc(alpha_star(n)), failing w.p. at most P(T>n) + n^-omega + c n^-(1+omega)."""
    if not (0.0 <= prob_t_exceeds_n <= 1.0):
        raise InvalidParameterError("prob_t_exceeds_n must lie in [0,1]")
    alpha_star, _, level = stepsize_lower_bound(params, n)
    walk_failure = n ** (-params.omega) + params.c * n ** (-(1.0 + params.omega))
    failure = min(1.0, prob_t_exceeds_n + walk_failure)
    return BoundReport(
        bound_value=float(n) * cost.cost(alpha_star),
        failure_prob=failure,
        kind="high_probability",
        inputs={
            "n": n,
            "p": params.p,
            "gamma": params.gamma,
            "alpha_bar": params.alpha_bar,
            "omega": params.omega,
            "alpha_star": alpha_star,
            "level": level,
            "prob_t_exceeds_n": prob_t_exceeds_n,
        },
    )


def _report(models, params: WalkParams, n: int, prob_t_exceeds_n: float) -> MethodComplexityReport:
    """Both bounds on the summed per-iteration cost, plus each model's growth exponent."""
    value_model, grad_model = models
    total = SummedCost(components=(value_model, grad_model))
    log_gamma, log_qp = math.log(params.gamma), math.log(params.q / params.p)
    return MethodComplexityReport(
        expected=expected_toc_bound(total, params, n),
        high_probability=highprob_toc_bound(total, params, n, prob_t_exceeds_n),
        toc0_exponent=value_model.power * log_gamma / log_qp,
        toc1_exponent=grad_model.power * log_gamma / log_qp,
        p=params.p,
        alpha_bar=params.alpha_bar,
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
    """Total-sample bounds for the first-order trust-region method.

    The reliability threshold is alpha_bar = epsilon / zeta and the
    per-iteration reliability is p = 1 - delta0 - delta1.  The growth
    exponents 4 log_{q/p} gamma (value samples) and 2 log_{q/p} gamma
    (gradient samples) describe how the walk's excursions inflate the
    respective totals.
    """
    if epsilon <= 0.0 or zeta <= 0.0:
        raise InvalidParameterError("epsilon and zeta must be positive")
    params = WalkParams(p=spec.p, gamma=gamma, alpha_bar=epsilon / zeta, omega=omega)
    return _report(storm_cost_models(spec), params, n, prob_t_exceeds_n)


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
    """Total-sample bounds for the step-search method.

    p and alpha_bar are the reliability constants of the step-size process
    for the configured oracles and problem; they are inputs here because
    they depend on problem constants (smoothness, theta) rather than on the
    cost formulas.  Value-sample cost is alpha-independent, so its growth
    exponent is zero; the gradient exponent 2 log_{q/p} gamma comes from the
    m_v / (kappa alpha)^2 part and vanishes with m_v.
    """
    params = WalkParams(p=p, gamma=gamma, alpha_bar=alpha_bar, omega=omega)
    models = sass_cost_models(spec, noise, epsilon, case, batch_scale)
    return _report(models, params, n, prob_t_exceeds_n)


@dataclass(frozen=True)
class McTocSummary:
    """Empirical distribution of total oracle cost over replications."""

    records: tuple[TocRecord, ...]
    mean_toc: float
    mean_toc0: float
    mean_toc1: float
    p50_toc: float
    p95_toc: float
    mean_iterations: float
    stopped_fraction: float
    exceed_fraction: float

    @property
    def replications(self) -> int:
        return len(self.records)


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
    bound: BoundReport | None = None,
) -> McTocSummary:
    """Independent replications of the adaptive loop with per-replication TOC records.

    Replication seeds derive deterministically from master_seed, and the
    replications advance in lockstep keeping only their sample totals;
    each one's record equals accumulate_toc of run_adaptive at its seed.
    exceed_fraction is the fraction of replications whose total cost
    exceeds the supplied bound (nan when no bound is given).  A bad start
    point or configuration is refused before any replication runs; an
    error during the runs names the lowest replication that fails, with
    its iteration, as one-at-a-time runs would.
    """
    seeds = [cfg.seed for cfg in derive_configs(config, master_seed, replications)]
    x = _start(problem, method, oracle_suite, epsilon, mode, x0)
    try:
        ends = _lockstep(problem, method, oracle_suite, config, epsilon, mode, x, seeds, record=False)
    except Exception:
        for i, seed in enumerate(seeds):
            try:
                _lockstep(problem, method, oracle_suite, config, epsilon, mode, x, [seed], record=False)
            except Exception as exc:
                raise type(exc)(f"replication {i}: {exc}") from exc
        raise
    records = [
        TocRecord(
            toc0=end.toc0,
            toc1=end.toc1,
            toc=end.toc0 + end.toc1,
            iterations_used=end.iterations,
            stopped=end.stopping_iteration is not None,
        )
        for end in ends
    ]
    tocs = np.array([rec.toc for rec in records], dtype=float)
    if bound is not None:
        exceed = float(np.mean(tocs > bound.bound_value))
    else:
        exceed = math.nan
    return McTocSummary(
        records=tuple(records),
        mean_toc=float(tocs.mean()),
        mean_toc0=float(np.mean([rec.toc0 for rec in records])),
        mean_toc1=float(np.mean([rec.toc1 for rec in records])),
        p50_toc=float(np.quantile(tocs, 0.5)),
        p95_toc=float(np.quantile(tocs, 0.95)),
        mean_iterations=float(np.mean([rec.iterations_used for rec in records])),
        stopped_fraction=float(np.mean([rec.stopped for rec in records])),
        exceed_fraction=exceed,
    )
