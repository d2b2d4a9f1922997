"""The generic adaptive loop: model/step/accept plug-ins and trace recording.

Each iteration draws fresh oracle estimates (even when the iterate does not
move), proposes a step at the current step size parameter alpha, tests for
sufficient reduction, and then multiplies alpha by 1/gamma (capped at
alpha_max) on success or by gamma on failure.  alpha is carried as
base * gamma**exponent with an integer exponent next to the float value, so
the two-outcome update law can be checked exactly over long runs.

Ground-truth optimality measures (gradient norm, optimality gap) are
recorded every iteration purely for instrumentation and stopping-time
detection; the optimizer itself never reads them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidParameterError,
    MissingGroundTruthError,
    NumericError,
)
from .problems import Problem
from .tableio import format_row

__all__ = [
    "AlgoConfig",
    "IterationRecord",
    "RunTrace",
    "update_step_size",
    "stopping_time",
    "run_adaptive",
    "empirical_success_probability",
    "TRACE_CSV_HEADER",
]

TRACE_CSV_HEADER = ("k", "alpha", "success", "cost0", "cost1", "true_grad_norm", "true_gap")

NONCONVEX = "nonconvex"
STRONGLY_CONVEX = "strongly_convex"
_MODES = (NONCONVEX, STRONGLY_CONVEX)


@dataclass(frozen=True)
class AlgoConfig:
    """Parameters of the adaptive loop.

    theta is the sufficient-reduction fraction, gamma the step-size
    contraction factor, r the noise-compensation offset of the acceptance
    test, and theta2 the gradient-versus-radius threshold used by the
    trust-region acceptance.  alpha_max may be infinite.
    """

    theta: float
    gamma: float
    alpha0: float
    alpha_max: float = math.inf
    r: float = 0.0
    theta2: float = 1.0
    max_iterations: int = 1_000_000
    seed: int = 0

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise InvalidParameterError(f"theta must lie in (0,1), got {self.theta}")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidParameterError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.alpha_max <= 0.0:
            raise InvalidParameterError("alpha_max must be positive")
        if not (0.0 < self.alpha0 <= self.alpha_max):
            raise InvalidParameterError("alpha0 must lie in (0, alpha_max]")
        if self.r < 0.0:
            raise InvalidParameterError("r must be nonnegative")
        if self.theta2 < 0.0:
            raise InvalidParameterError("theta2 must be nonnegative")
        if self.max_iterations < 1:
            raise InvalidParameterError("max_iterations must be positive")
        if self.seed < 0:
            raise InvalidParameterError("seed must be a nonnegative integer")


@dataclass(frozen=True)
class IterationRecord:
    """One iteration: step size, outcome, oracle costs, ground-truth measures.

    alpha equals alpha_base * gamma**alpha_exp exactly; the pair is kept so
    the step-size law can be verified without float drift.  true_gap is nan
    when the problem's minimum value is unknown.
    """

    k: int
    alpha: float
    success: bool
    cost0: int
    cost1: int
    true_grad_norm: float
    true_gap: float
    alpha_base: float
    alpha_exp: int


@dataclass
class RunTrace:
    """The realization of one run: per-iteration records plus stopping data.

    Records cover iterations 0..T-1 when the run stopped at T (a stopped run
    does no work at its stopping index); final_grad_norm/final_gap are the
    ground-truth measures at the last iterate reached.
    """

    records: list[IterationRecord]
    stopping_iteration: int | None
    config: AlgoConfig
    epsilon: float
    mode: str
    final_grad_norm: float
    final_gap: float
    final_x: np.ndarray = field(repr=False)

    def csv_rows(self):
        for rec in self.records:
            yield (
                rec.k,
                rec.alpha,
                rec.success,
                rec.cost0,
                rec.cost1,
                rec.true_grad_norm,
                rec.true_gap,
            )

    def write_csv(self, path: str | Path) -> None:
        lines = [",".join(TRACE_CSV_HEADER)]
        lines.extend(format_row(row) for row in self.csv_rows())
        Path(path).write_text("\n".join(lines) + "\n")


def update_step_size(
    base: float, exp: int, success: bool, gamma: float, alpha_max: float
) -> tuple[float, int]:
    """One application of the two-outcome law to alpha = base * gamma**exp.

    A failure raises the integer exponent by one (alpha -> gamma * alpha);
    a success lowers it by one (alpha -> alpha / gamma) unless that would
    overshoot alpha_max, in which case the step size is re-anchored at
    (alpha_max, 0).  alpha is recomputed from the pair on every read, so a
    million updates introduce no cumulative rounding.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidParameterError(f"gamma must lie in (0,1), got {gamma}")
    alpha = base * gamma**exp
    if alpha <= 0.0:
        raise InvalidParameterError("alpha must be positive")
    if alpha > alpha_max:
        raise InvalidParameterError("alpha must not exceed alpha_max")
    if not success:
        return base, exp + 1
    if base * gamma ** (exp - 1) > alpha_max:
        return alpha_max, 0
    return base, exp - 1


def stopping_time(trace: RunTrace, epsilon: float, mode: str) -> int | None:
    """First index whose ground-truth measure is at or below epsilon.

    Scans the recorded iterations and then the final iterate; returns None
    when the tolerance is never met within the trace.
    """
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    if mode not in _MODES:
        raise InvalidParameterError(f"unknown stopping mode {mode!r}")
    if mode == NONCONVEX:
        measures = [rec.true_grad_norm for rec in trace.records]
        final = trace.final_grad_norm
    else:
        measures = [rec.true_gap for rec in trace.records]
        final = trace.final_gap
        if any(math.isnan(m) for m in measures) or math.isnan(final):
            raise MissingGroundTruthError(
                "strongly_convex stopping needs the problem's minimum value"
            )
    for k, m in enumerate(measures):
        if m <= epsilon:
            return k
    if final <= epsilon:
        return len(measures)
    return None


def run_adaptive(
    problem: Problem,
    method,
    oracle_suite,
    config: AlgoConfig,
    epsilon: float,
    mode: str = NONCONVEX,
    x0: np.ndarray | None = None,
) -> RunTrace:
    """Run the adaptive loop until the stopping time or max_iterations.

    Fresh oracle calls are made every iteration.  The trace is a
    deterministic function of (problem, config.seed, x0).
    """
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    if mode not in _MODES:
        raise InvalidParameterError(f"unknown stopping mode {mode!r}")
    if mode not in getattr(method, "stopping_modes", _MODES):
        raise ConfigurationError(f"{type(method).__name__} does not support {mode} stopping")
    suite_family = getattr(oracle_suite, "family", "any")
    if suite_family not in ("any", method.family):
        raise ConfigurationError(
            f"oracle suite family {suite_family!r} does not match method {method.family!r}"
        )
    oracle_suite.validate(problem)
    if mode == STRONGLY_CONVEX and problem.min_value is None:
        raise MissingGroundTruthError("strongly_convex stopping needs a known minimum value")

    rng = np.random.default_rng(config.seed)
    x = np.array(problem.x0 if x0 is None else x0, dtype=float)
    base, exp = config.alpha0, 0
    records: list[IterationRecord] = []
    stopping: int | None = None

    k = 0
    while True:
        grad_norm = float(np.linalg.norm(problem.grad(x)))
        gap = problem.gap(x) if problem.min_value is not None else math.nan
        measure = grad_norm if mode == NONCONVEX else gap
        if measure <= epsilon:
            stopping = k
            break
        if k >= config.max_iterations:
            break

        alpha = base * config.gamma**exp
        g, cost1 = oracle_suite.gradient(problem, x, alpha, rng)
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient estimate at iteration {k}")
        proposal = method.propose(g, alpha)
        x_plus = x + proposal.step
        f0, f_plus, cost0 = oracle_suite.values(problem, x, x_plus, alpha, rng)
        if not (np.isfinite(f0) and np.isfinite(f_plus)):
            raise NumericError(f"non-finite value estimate at iteration {k}")
        success = method.accepts(f0, f_plus, g, proposal, alpha, config)

        records.append(
            IterationRecord(
                k=k,
                alpha=alpha,
                success=success,
                cost0=cost0,
                cost1=cost1,
                true_grad_norm=grad_norm,
                true_gap=gap,
                alpha_base=base,
                alpha_exp=exp,
            )
        )
        if success:
            x = x_plus
        base, exp = update_step_size(base, exp, success, config.gamma, config.alpha_max)
        k += 1

    return RunTrace(
        records=records,
        stopping_iteration=stopping,
        config=config,
        epsilon=epsilon,
        mode=mode,
        final_grad_norm=float(np.linalg.norm(problem.grad(x))),
        final_gap=problem.gap(x) if problem.min_value is not None else math.nan,
        final_x=x,
    )


def empirical_success_probability(
    traces, alpha_bar: float
) -> tuple[float | None, int]:
    """Success frequency over pre-stopping iterations with alpha <= alpha_bar.

    Returns (p_hat, count); p_hat is None when no iteration qualifies, so a
    confidence interval can always be formed from count.
    """
    if alpha_bar <= 0.0:
        raise InvalidParameterError("alpha_bar must be positive")
    successes = 0
    count = 0
    tol = 1.0 + 1e-12
    for trace in traces:
        for rec in trace.records:
            if rec.alpha <= alpha_bar * tol:
                count += 1
                successes += rec.success
    if count == 0:
        return None, 0
    return successes / count, count


def derive_configs(config: AlgoConfig, master_seed: int, replications: int) -> list[AlgoConfig]:
    """Per-replication configs with independent seeds derived from master_seed."""
    if replications < 1:
        raise InvalidParameterError("replications must be positive")
    seeds = [
        int(child.generate_state(1, dtype=np.uint64)[0])
        for child in np.random.SeedSequence(master_seed).spawn(replications)
    ]
    return [replace(config, seed=s) for s in seeds]
