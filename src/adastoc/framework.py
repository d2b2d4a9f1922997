"""The generic adaptive loop: model/step/accept plug-ins and trace recording.

Each iteration draws fresh oracle estimates (even when the iterate does not
move), proposes a step at the current step size parameter alpha, tests for
sufficient reduction, and then multiplies alpha by 1/gamma (capped at
alpha_max) on success or by gamma on failure.  alpha is carried as
base * gamma**exponent with an integer exponent next to the float value, so
the two-outcome update law can be checked exactly over long runs.

One loop serves a single run and R independent replications alike.  It
advances R rows in lockstep: the iterates are an (R, dim) array, each row
has its own exponent and base, and a row leaves the stack when it stops.
Each row draws from its own generator, in the order a lone run draws (the
gradient estimate, then the values at the iterate and at the trial
point), and every row takes the same block of draws per call, so a
replication's numbers do not depend on how many rows run beside it.

The rows come in groups, which share one oracle suite.  A group is one
tolerance of a sweep: its `AlgoConfig`, its epsilon and its seeds.  Each
row carries its group's epsilon and noise offset r, and its step-size
states, batches and charges come from its group's config, so a row gets
exactly the numbers its group's run alone gives it.  The groups must
share theta, theta2 and max_iterations.  `run_lockstep` runs one group,
keeps every row's trace and returns one `RunTrace` per seed;
`run_adaptive` is its one-seed call.  The Monte Carlo harness
(`complexity.monte_carlo_sweep`, and `monte_carlo_toc`, its one-group
call) runs the loop keeping only where each row ended, one
`McTocSummary` per group, so its memory does not grow with the
iterations.

A trace is columns, one array per recorded quantity (`TRACE_COLUMNS`), as
the loop produces them; `RunTrace.records` is the same trace as one
`IterationRecord` per iteration, built on first use.

The loop speaks one plug-in protocol: the suite's `gradient_rows` and
`values_rows` and the method's `propose_rows` and `accepts_rows` (see
`oracles` and `methods`).  The one-point calls compute the same formulas
for use outside the loop.  A plug-in that lacks a row method, or
overrides a one-point method below its row method, is refused with
ConfigurationError.

The loop, not the suite, decides what an iteration costs: a run reads the
suite's `cost_models(problem)` once (`_start`), and the step-size table holds,
next to each state's alpha, each model's per-call batch (handed to the
row methods) and per-iteration charge (added to the totals, or recorded as
the trace's cost0 and cost1).  So an iteration's cost depends only on its
step size, and a row is charged exactly what the bounds count.

Ground truth is evaluated once per distinct iterate: f at an accepted
trial point becomes f at the next iterate, and grad f is computed only
for rows that moved.  A·x is computed once per point: evaluating f at the
trial points (`Problem._value_rows`) also returns the partial result grad
f is built from, which is kept until acceptance is known and finishes
grad f for the rows that moved.  The oracle suite turns that truth into
estimates; the optimizer itself never reads it.  The gradient norm and
optimality gap are recorded every iteration, purely for instrumentation
and stopping-time detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidParameterError,
    MissingGroundTruthError,
    NumericError,
)
from .problems import Problem
from .rows import RowStreams, row_dot
from .tableio import write_lines

__all__ = [
    "AlgoConfig",
    "IterationRecord",
    "RunTrace",
    "McTocSummary",
    "update_step_size",
    "stopping_time",
    "run_adaptive",
    "run_lockstep",
    "derive_seeds",
    "empirical_success_probability",
    "TRACE_COLUMNS",
    "TRACE_CSV_HEADER",
]

# a trace's columns and their dtypes; cost0/cost1 hold Python ints, exact beyond int64
_COLUMN_DTYPES = {
    "alpha": float,
    "success": bool,
    "cost0": object,
    "cost1": object,
    "true_grad_norm": float,
    "true_gap": float,
    "alpha_base": float,
    "alpha_exp": np.int64,
}
TRACE_COLUMNS = tuple(_COLUMN_DTYPES)
TRACE_CSV_HEADER = ("k", "alpha", "success", "cost0", "cost1", "true_grad_norm", "true_gap")
_TRACE_CSV_FORMAT = "%d,%.17e,%d,%d,%d,%.17e,%.17e"

NONCONVEX = "nonconvex"
STRONGLY_CONVEX = "strongly_convex"
_MODES = (NONCONVEX, STRONGLY_CONVEX)


@dataclass(frozen=True)
class AlgoConfig:
    """Parameters of the adaptive loop.

    theta is the sufficient-reduction fraction, gamma the step-size
    contraction factor, r the noise-compensation offset of the acceptance
    test, and theta2 the gradient-versus-radius threshold used by the
    trust-region acceptance.  alpha_max may be infinite, alpha0 may not.
    """

    theta: float
    gamma: float
    alpha0: float
    alpha_max: float = math.inf
    r: float = 0.0
    theta2: float = 1.0
    max_iterations: int = 1_000_000

    def __post_init__(self):
        if not (0.0 < self.theta < 1.0):
            raise InvalidParameterError(f"theta must lie in (0,1), got {self.theta}")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidParameterError(f"gamma must lie in (0,1), got {self.gamma}")
        if not self.alpha_max > 0.0:
            raise InvalidParameterError("alpha_max must be positive")
        if not (0.0 < self.alpha0 <= self.alpha_max):
            raise InvalidParameterError("alpha0 must lie in (0, alpha_max]")
        if self.alpha0 == math.inf:
            raise InvalidParameterError("alpha0 must be finite")
        if not self.r >= 0.0:
            raise InvalidParameterError("r must be nonnegative")
        if not self.theta2 >= 0.0:
            raise InvalidParameterError("theta2 must be nonnegative")
        if self.max_iterations < 1:
            raise InvalidParameterError("max_iterations must be positive")


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


class RunTrace:
    """The realization of one run: one array per trace column plus stopping data.

    The columns (`TRACE_COLUMNS`) cover iterations 0..T-1 when the run
    stopped at T (a stopped run does no work at its stopping index):
    alpha, success, cost0 and cost1 (object arrays of Python ints),
    true_grad_norm, true_gap, alpha_base and alpha_exp.
    final_grad_norm/final_gap are the ground-truth measures at the last
    iterate reached.  A trace built from IterationRecords converts them to
    columns once; `records` converts back, once, on first use.
    """

    def __init__(
        self,
        records: list[IterationRecord],
        stopping_iteration: int | None,
        config: AlgoConfig,
        epsilon: float,
        mode: str,
        final_grad_norm: float,
        final_gap: float,
        final_x: np.ndarray,
    ):
        for name, dtype in _COLUMN_DTYPES.items():
            setattr(self, name, np.array([getattr(rec, name) for rec in records], dtype=dtype))
        self.stopping_iteration = stopping_iteration
        self.config = config
        self.epsilon = epsilon
        self.mode = mode
        self.final_grad_norm = final_grad_norm
        self.final_gap = final_gap
        self.final_x = final_x

    @classmethod
    def _from_columns(cls, columns: dict, **ends) -> RunTrace:
        """A trace from one array per column and the stopping data, without IterationRecords."""
        trace = cls.__new__(cls)
        vars(trace).update(columns, **ends)
        return trace

    @cached_property
    def records(self) -> list[IterationRecord]:
        rows = zip(*(getattr(self, name).tolist() for name in TRACE_COLUMNS))
        return [IterationRecord(k, *row) for k, row in enumerate(rows)]

    def write_csv(self, path: str | Path) -> None:
        columns = [getattr(self, name).tolist() for name in TRACE_CSV_HEADER[1:]]
        rows = zip(range(len(self.alpha)), *columns)
        write_lines(path, TRACE_CSV_HEADER, map(_TRACE_CSV_FORMAT.__mod__, rows))


def update_step_size(
    base: float, exp: int, success: bool, gamma: float, alpha_max: float
) -> tuple[float, int]:
    """One application of the two-outcome law to alpha = base * gamma**exp.

    A failure raises the integer exponent by one (alpha -> gamma * alpha);
    a success lowers it by one (alpha -> alpha / gamma) unless that would
    overshoot alpha_max, in which case the step size is re-anchored at
    (alpha_max, 0).  alpha is recomputed from the pair on every read, so a
    million updates introduce no cumulative rounding.  This is the one-state
    call of `_step_law`, which also fills the loop's step-size table.
    """
    if not (0.0 < gamma < 1.0):
        raise InvalidParameterError(f"gamma must lie in (0,1), got {gamma}")
    alpha = base * gamma**exp
    if not alpha > 0.0:
        raise InvalidParameterError("alpha must be positive")
    if not alpha <= alpha_max:
        raise InvalidParameterError("alpha must not exceed alpha_max")
    new_base, new_exp = _step_law(base, exp, success, gamma, alpha_max)
    return float(new_base), int(new_exp)


def _step_law(base, exp, success, gamma: float, alpha_max: float):
    """The two-outcome law on arrays of states alpha = base * gamma**exp: (base, exp) after it.

    gamma**e is np.float_power, the C library's pow, as Python's float ** is
    (numpy's array ** differs in the last bit for some exponents); beyond
    the float range it is inf.
    """
    with np.errstate(over="ignore"):
        capped = success & (base * np.float_power(gamma, exp - 1) > alpha_max)
    return np.where(capped, alpha_max, base), np.where(capped, 0, exp + 1 - 2 * success)


def stopping_time(trace: RunTrace, epsilon: float, mode: str) -> int | None:
    """First index whose ground-truth measure is at or below epsilon.

    Scans the recorded iterations and then the final iterate; returns None
    when the tolerance is never met within the trace.
    """
    if not epsilon > 0.0:
        raise InvalidParameterError("epsilon must be positive")
    if mode not in _MODES:
        raise InvalidParameterError(f"unknown stopping mode {mode!r}")
    if mode == NONCONVEX:
        measures, final = trace.true_grad_norm, trace.final_grad_norm
    else:
        measures, final = trace.true_gap, trace.final_gap
        if np.isnan(measures).any() or math.isnan(final):
            raise MissingGroundTruthError(
                "strongly_convex stopping needs the problem's minimum value"
            )
    met = np.flatnonzero(measures <= epsilon)
    if len(met):
        return int(met[0])
    if final <= epsilon:
        return len(measures)
    return None


@dataclass(frozen=True, eq=False)
class McTocSummary:
    """Where each replication of a lockstep run ended: one array per column, indexed by seed.

    stopped_at is the stopping iteration, -1 for a replication that reached
    max_iterations; iterations counts the iterations each one ran, toc0 and
    toc1 (object arrays of Python ints) are its value and gradient sample
    totals, and final_x, final_grad_norm and final_gap the last iterate
    reached and its ground-truth measures.  The mean costs sum those ints
    exactly and round once; a mean or total beyond the double range is inf.
    """

    stopped_at: np.ndarray
    iterations: np.ndarray
    toc0: np.ndarray
    toc1: np.ndarray
    final_x: np.ndarray
    final_grad_norm: np.ndarray
    final_gap: np.ndarray

    @property
    def stopped(self) -> np.ndarray:
        return self.stopped_at >= 0

    @property
    def replications(self) -> int:
        return len(self.toc0)

    @property
    def mean_toc(self) -> float:
        return _mean((self.toc0 + self.toc1).tolist())

    @property
    def mean_toc0(self) -> float:
        return _mean(self.toc0.tolist())

    @property
    def mean_toc1(self) -> float:
        return _mean(self.toc1.tolist())

    @property
    def mean_iterations(self) -> float:
        return float(np.mean(self.iterations))

    @property
    def stopped_fraction(self) -> float:
        return float(np.mean(self.stopped))

    def exceed_fraction(self, bound) -> float:
        """Fraction of the replications whose total cost exceeds bound.bound_value (a BoundReport)."""
        return float(np.mean(self._totals() > bound.bound_value))

    def _totals(self) -> np.ndarray:
        """Each replication's total cost as a double, inf where it is beyond the double range."""
        return np.array([_to_float(total) for total in (self.toc0 + self.toc1).tolist()])


def _to_float(value: int) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _mean(totals: list[int]) -> float:
    """The mean of Python int totals, summed exactly and rounded once; inf beyond the double range."""
    try:
        return sum(totals) / len(totals)
    except OverflowError:
        return math.inf


def run_adaptive(
    problem: Problem,
    method,
    oracle_suite,
    config: AlgoConfig,
    epsilon: float,
    mode: str = NONCONVEX,
    x0: np.ndarray | None = None,
    seed: int = 0,
) -> RunTrace:
    """Run the adaptive loop until the stopping time or max_iterations.

    Fresh oracle calls are made every iteration.  The trace is a
    deterministic function of (problem, config, seed, x0).
    """
    return run_lockstep(problem, method, oracle_suite, config, epsilon, [seed], mode, x0)[0]


def run_lockstep(
    problem: Problem,
    method,
    oracle_suite,
    config: AlgoConfig,
    epsilon: float,
    seeds,
    mode: str = NONCONVEX,
    x0: np.ndarray | None = None,
) -> list[RunTrace]:
    """One replication per seed, advanced together.

    Trace i is what run_adaptive gives with seed seeds[i]; the lowest failing seed's error is raised.
    """
    start = _start(problem, method, oracle_suite, config, epsilon, mode, x0)
    if len(seeds) < 1:
        raise InvalidParameterError("at least one seed is needed")
    for seed in seeds:
        _check_seed(seed)
    return _lockstep(problem, method, oracle_suite, [(config, epsilon, seeds)], mode, start, record=True)


_BLOCK = 256  # draws each row's generator is read ahead by in a one-group loop; _BLOCK // G with G groups
_CHUNK = 1024  # trace entries (rows x iterations) kept as per-iteration arrays before they are packed


def _check_groups(groups) -> None:
    """Refuse groups whose loops differ beyond per-row parameters."""
    if len({(c.theta, c.theta2, c.max_iterations) for c, _, _ in groups}) > 1:
        raise InvalidParameterError("grouped runs must share theta, theta2 and max_iterations")


def _lockstep(problem, method, suite, groups, mode, start, record):
    """The adaptive loop over one row per seed of every group, from what `_start` returns.

    groups is a list of (config, epsilon, checked seeds) sharing the oracle suite, checked by `_check_groups`;
    the rows are laid out group by group, in seed order.  With record,
    returns one RunTrace per row.  Without, returns one McTocSummary per
    group: the trace is not kept, only where each row ended.  A row whose
    step size underflows, batch overflows or estimate is not finite keeps
    the error it raises alone and retires with the rows after it; the other
    rows run on, then the lowest failing row raises, its index in its group
    prefixed without record.  A plug-in's own exception propagates as it is.
    """
    counts = [len(seeds) for *_, seeds in groups]
    group = np.repeat(np.arange(len(groups)), counts)
    min_value = math.nan if problem.min_value is None else problem.min_value
    gap_mode = mode == STRONGLY_CONVEX
    config = groups[0][0]  # theta, theta2 and max_iterations, which every group shares

    n = len(group)
    ids = np.arange(n)
    eps = np.array([epsilon for _, epsilon, _ in groups])[group]
    r = np.array([c.r for c, _, _ in groups])[group]
    x, f, g, grad_norm, models = start
    X, G = np.repeat(x[None], n, axis=0), np.repeat(g, n, axis=0)
    F, grad_norm = np.repeat(f, n), np.repeat(grad_norm, n)
    value_rows, grad_rows = problem._value_rows, problem._grad_rows
    met = (F - min_value if gap_mode else grad_norm) <= eps
    sizes = _StepSizes([c for c, _, _ in groups], models)
    state = sizes.slot(group, 0, 0)  # alpha = alpha0
    toc0 = toc1 = np.zeros(n, dtype=object)
    ends = McTocSummary(
        np.full(n, -1), np.zeros(n, dtype=int), np.zeros(n, dtype=object), np.zeros(n, dtype=object),
        np.empty_like(X), np.empty(n), np.empty(n),
    )
    chunks, columns, pending = [], [], 0  # the trace of every row, packed every _CHUNK entries
    retire = np.count_nonzero(met) > 0
    max_iterations = config.max_iterations
    # the loop body runs once per iteration whatever R is: bind its callees once
    count, isfinite = np.count_nonzero, np.isfinite
    # G groups' rows hold the read-ahead of one group's, so memory grows with reps, not reps x G
    block = max(1, _BLOCK // len(groups))
    rngs = (np.random.default_rng(seed) for *_, seeds in groups for seed in seeds)
    streams = RowStreams(rngs, suite.draws, block)
    gradient_rows, values_rows = suite.gradient_rows, suite.values_rows
    propose_rows, accepts_rows = method.propose_rows, method.accepts_rows
    failed = (n, None)  # the lowest failing row and its error: it and the rows after it retire

    k = 0
    while True:
        if retire or k >= max_iterations:
            out = met if k < max_iterations else np.ones(len(ids), dtype=bool)
            out = out if failed[1] is None else out | (ids >= failed[0])
            rows = ids[out]
            ends.stopped_at[rows] = np.where(met[out], k, -1)
            ends.iterations[rows] = k
            ends.toc0[rows] = toc0[out]
            ends.toc1[rows] = toc1[out]
            ends.final_x[rows] = X[out]
            ends.final_grad_norm[rows] = grad_norm[out]
            ends.final_gap[rows] = F[out] - min_value
            keep = ~out
            if not count(keep):
                break
            ids, X, F, G, grad_norm, met, state, toc0, toc1, eps, r = (
                a[keep] for a in (ids, X, F, G, grad_norm, met, state, toc0, toc1, eps, r)
            )
            streams.keep(keep)
            retire = False
        if k >= sizes.valid_until:
            sizes.cover(state, k)
        alpha, batch0, batch1 = sizes.alpha[state], sizes.batch[0][state], sizes.batch[1][state]
        if sizes.may_fail and (checked := sizes.check(state)) is not None:  # failing rows end on stand-ins
            failed, retire = _lowest(failed, ids, *checked), True
            alpha, batch0, batch1 = (np.where(checked[0], 1.0, a) for a in (alpha, batch0, batch1))

        g_hat = gradient_rows(problem, X, G, batch1, streams)
        if count(isfinite(g_hat)) < g_hat.size:
            bad = ~isfinite(g_hat).all(axis=1)
            error = NumericError(f"non-finite gradient estimate at iteration {k}")
            failed, retire = _lowest(failed, ids, bad, error), True
            g_hat = np.where(bad[:, None], 0.0, g_hat)
        steps, aux = propose_rows(g_hat, alpha)
        X_plus = X + steps
        F_plus, partial = value_rows(X_plus)  # kept to build grad f at X_plus if a row accepts
        f0, f_plus = values_rows(problem, X, X_plus, F, F_plus, batch0, streams)
        finite = isfinite(f0) & isfinite(f_plus)
        if count(finite) < len(f0):
            error = NumericError(f"non-finite value estimate at iteration {k}")
            failed, retire = _lowest(failed, ids, ~finite, error), True
            f0, f_plus = np.where(finite, f0, 0.0), np.where(finite, f_plus, 0.0)
        success = accepts_rows(f0, f_plus, g_hat, steps, aux, alpha, r, config)
        if record:
            columns.append((ids, state, success, grad_norm, F))
            pending += len(ids)
            if pending >= _CHUNK:
                chunks.append(_pack(columns))
                columns, pending = [], 0
        else:
            toc0 = toc0 + sizes.charge[0][state]
            toc1 = toc1 + sizes.charge[1][state]

        moved = count(success)
        if moved:
            if moved == len(success):
                X, F, G = X_plus, F_plus, grad_rows(X_plus, partial)
            else:
                X = np.where(success[:, None], X_plus, X)
                F = np.where(success, F_plus, F)
                G = G.copy()
                G[success] = grad_rows(X_plus[success], partial[success])
            grad_norm = np.sqrt(row_dot(G, G))
            met = (F - min_value if gap_mode else grad_norm) <= eps
            retire = retire or count(met) > 0
        state = sizes.next[state + success]
        k += 1
    del streams  # the generators and their read-ahead buffers, before the trace is sorted
    bounds = np.cumsum([0, *counts]).tolist()
    if (error := failed[1]) is not None:  # the first failing group's lowest failing seed
        raise error if record else type(error)(f"replication {failed[0] - bounds[group[failed[0]]]}: {error}")
    if not record:
        return [
            McTocSummary(*(getattr(ends, f.name)[lo:hi] for f in fields(McTocSummary)))
            for lo, hi in zip(bounds, bounds[1:])
        ]
    if columns:
        chunks.append(_pack(columns))
    runs = [(c, epsilon) for c, epsilon, seeds in groups for _ in seeds]
    return _traces(chunks, ends, sizes, min_value, runs, mode)


def _lowest(failed, ids, bad, error) -> tuple:
    """The lower of failed, a (row id, error) pair, and (the first row of the mask bad, error); failed on a tie."""
    return min(failed, (int(ids[np.argmax(bad)]), error), key=lambda pair: pair[0])


def _pack(columns) -> tuple:
    """Several iterations' entries as one array per column: ids, state, success, grad_norm, f."""
    return tuple(np.concatenate(column) for column in zip(*columns))


def _traces(chunks, ends, sizes, min_value, runs, mode) -> list[RunTrace]:
    """One RunTrace per row: a stable sort on the row ids puts each row's iterations together, in order.

    runs holds each row's (config, epsilon).  Empties chunks, and sorts one
    column at a time, so each column's packed pieces are freed as soon as
    it is sorted.
    """
    columns = {name: np.empty(0, dtype=dtype) for name, dtype in _COLUMN_DTYPES.items()}
    if chunks:
        parts = list(zip(*chunks))  # ids, state, success, grad_norm, f
        chunks.clear()
        order = np.argsort(np.concatenate(parts.pop(0)), kind="stable")
        state, success, grad_norm, gap = (np.concatenate(parts.pop(0))[order] for _ in range(4))
        gap -= min_value
        columns = dict(zip(TRACE_COLUMNS, (
            sizes.alpha[state], success, *(charge[state] for charge in sizes.charge), grad_norm, gap,
            sizes.base[state], sizes.exp[state],
        )))
    bounds = np.cumsum(ends.iterations).tolist()
    traces = []
    for lo, hi, (config, epsilon), stopped_at, final_x, final_grad_norm, final_gap in zip(
        [0] + bounds, bounds, runs, ends.stopped_at.tolist(), ends.final_x,
        ends.final_grad_norm.tolist(), ends.final_gap.tolist(),
    ):
        traces.append(RunTrace._from_columns(
            {name: col[lo:hi] for name, col in columns.items()},
            stopping_iteration=None if stopped_at < 0 else stopped_at, config=config, epsilon=epsilon,
            mode=mode, final_grad_norm=final_grad_norm, final_gap=final_gap, final_x=final_x,
        ))
    return traces


class _StepSizes:
    """The step-size law (`_step_law`) and the oracle costs as a table over step-size states.

    Each group's config has its own states.  A state is (anchor, exp):
    alpha = base * gamma**exp with the group's gamma and base alpha0
    (anchor 0) or alpha_max (anchor 1, after a re-anchoring).  Rows hold
    the state's slot 4 * (G * z(exp) + g) + 2 * anchor, g the group of G
    and z the zigzag map 0, -1, 1, -2, ... -> 0, 1, 2, 3, ..., so slots
    stay valid as the table grows in either direction.  alpha[slot] is
    base * gamma**exp, and next[slot + success] is the slot after one
    update: a row's update is one addition and two lookups.  For the value
    model (i = 0) and the gradient model (i = 1) of `models`,
    batch[i][slot] is the per-call batch at alpha as a float, and
    charge[i][slot] the per-iteration charge calls_per_iteration * batch as
    a Python int.  The table is filled, a block of exponents at a time, for
    exponents lo..hi in every group, which follow the live rows only: there
    is no floor.  A state whose alpha is 0 or above alpha_max is filled
    too, with next = -1; no row reaches it.  A batch beyond the float range
    is filled as inf with charge 0; `check` finds the rows that reach it, or
    alpha = 0, and the first one's error.  Other entries hold alpha = nan.
    """

    SLACK = 16  # exponents kept filled beyond the live ones, on each side

    def __init__(self, configs, models):
        self.configs = list(configs)
        self.models = models
        self.lo, self.hi = 0, -1
        self.alpha = np.empty(0)
        self.next = np.empty(0, dtype=np.intp)
        self.base = np.empty(0)
        self.exp = np.empty(0, dtype=np.int64)
        self.batch = [np.empty(0), np.empty(0)]
        self.charge = [np.empty(0, dtype=object), np.empty(0, dtype=object)]
        self.may_fail = False  # whether a filled state fails `check`
        self.valid_until = 0  # the first iteration that needs cover() again

    def slot(self, group, anchor, exp):
        return 4 * (len(self.configs) * np.where(exp >= 0, 2 * exp, -2 * exp - 1) + group) + 2 * anchor

    def cover(self, state: np.ndarray, k: int) -> None:
        """Fill the states the rows can reach from iteration k on, and say until when.

        An update moves an exponent by at most one, so the table stays
        valid for as many iterations as the live exponents are from the
        edges of its filled range.
        """
        exps = self.exp[state] if self.hi >= self.lo else np.zeros(1, dtype=np.int64)
        lo, hi = int(exps.min()), int(exps.max())
        if lo - self.SLACK < self.lo or hi + self.SLACK > self.hi:
            margin = max(2 * self.SLACK, self.hi - self.lo)
            self._fill(min(lo - margin, self.lo), max(hi + margin, self.hi))
        self.valid_until = k + min(self.hi - hi, lo - self.lo)

    def _fill(self, lo: int, hi: int) -> None:
        size = 4 * len(self.configs) * (max(2 * hi, -2 * lo - 1) + 1)
        grow = size - len(self.alpha)
        self.alpha = np.concatenate([self.alpha, np.full(grow, np.nan)])
        self.next = np.concatenate([self.next, np.full(grow, -1, dtype=np.intp)])
        self.base = np.concatenate([self.base, np.full(grow, np.nan)])
        self.exp = np.concatenate([self.exp, np.zeros(grow, dtype=np.int64)])
        self.batch = [np.concatenate([b, np.full(grow, np.nan)]) for b in self.batch]
        self.charge = [np.concatenate([c, np.zeros(grow, dtype=object)]) for c in self.charge]
        exps = np.concatenate([np.arange(lo, self.lo), np.arange(self.hi + 1, hi + 1)])
        success = np.array([[False], [True]])
        for group, config in enumerate(self.configs):
            gamma, alpha_max = config.gamma, config.alpha_max
            # anchor 1 is reached by a re-anchoring that changes the base
            changes = math.isfinite(alpha_max) and config.alpha0 != alpha_max
            anchors = np.array([0, 1] if changes else [0])
            anchor, exp = np.repeat(anchors, len(exps)), np.tile(exps, len(anchors))
            slots, base = self.slot(group, anchor, exp), np.array([config.alpha0, alpha_max])[anchor]
            with np.errstate(over="ignore"):
                alpha = base * np.float_power(gamma, exp)
            self.alpha[slots], self.base[slots], self.exp[slots] = alpha, base, exp
            new_base, new_exp = _step_law(base, exp, success, gamma, alpha_max)
            after = self.slot(group, np.where(new_base == base, anchor, 1), new_exp)
            self.next[slots + success] = np.where((alpha == 0.0) | (alpha > alpha_max), -1, after)
            fails = alpha == 0.0
            for i, model in enumerate(self.models):
                batch = model.per_call(alpha)
                over = np.isinf(batch)
                fails |= over
                self.batch[i][slots] = batch
                calls = model.calls_per_iteration
                self.charge[i][slots] = [calls * int(b) for b in np.where(over, 0.0, batch).tolist()]
            self.may_fail = self.may_fail or bool(fails.any())
        self.lo, self.hi = lo, hi

    def check(self, state: np.ndarray):
        """None, or the mask of rows whose alpha is 0 or whose cost overflows and the first one's error."""
        bad = ~(self.alpha[state] > 0.0) | np.isinf(self.batch[0][state]) | np.isinf(self.batch[1][state])
        if np.count_nonzero(bad):
            try:
                for model in reversed(self.models):  # CostModel.batch's error, the gradient model's first
                    model.batch(float(self.alpha[state[np.argmax(bad)]]))
            except InvalidParameterError as exc:
                return bad, exc


def _start(problem: Problem, method, oracle_suite, config: AlgoConfig, epsilon: float, mode: str, x0):
    """Check one run before anything is drawn; return (x, f, g, grad_norm, models), where its rows start.

    This is the run's whole pre-flight, made once per run: the only place
    a run reads its suite's cost_models (where a suite refuses a problem
    it cannot serve) and evaluates its start point x.  f and the norm of
    grad f must be finite at x, and each cost model must give a batch at
    config.alpha0, the gradient model checked first as in
    `_StepSizes.check`: a batch that overflows at the start step size is
    the configuration's error, not a replication's.
    """
    _check_rows(oracle_suite, ("gradient", "values"))
    _check_rows(method, ("propose", "accepts"))
    if not epsilon > 0.0:
        raise InvalidParameterError("epsilon must be positive")
    if epsilon == math.inf:
        raise InvalidParameterError("epsilon must be finite")
    if mode not in _MODES:
        raise InvalidParameterError(f"unknown stopping mode {mode!r}")
    if mode not in getattr(method, "stopping_modes", _MODES):
        raise ConfigurationError(f"{type(method).__name__} does not support {mode} stopping")
    suite_family = getattr(oracle_suite, "family", "any")
    if suite_family not in ("any", method.family):
        raise ConfigurationError(
            f"oracle suite family {suite_family!r} does not match method {method.family!r}"
        )
    models = oracle_suite.cost_models(problem)
    if mode == STRONGLY_CONVEX and problem.min_value is None:
        raise MissingGroundTruthError("strongly_convex stopping needs a known minimum value")
    x = np.array(problem.x0 if x0 is None else x0, dtype=float)
    if x.shape != (problem.dim,):
        raise InvalidParameterError(f"x0 must have shape ({problem.dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("x0 must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # the ground truth the loop starts from
        f, partial = problem._value_rows(x[None])
        g = problem._grad_rows(x[None], partial)
        grad_norm = np.sqrt(row_dot(g, g))
    if not (np.isfinite(f[0]) and np.isfinite(grad_norm[0])):
        raise InvalidParameterError("the objective or its gradient norm is not finite at x0")
    for model in reversed(models):
        model.batch(config.alpha0)
    return x, f, g, grad_norm, models


def _check_rows(plugin, names: tuple[str, ...]) -> None:
    """Each `<name>_rows` must exist and come from a subclass of the class defining `<name>`.

    The loop calls only the row methods, so a one-point method overridden
    below its row method would be silently ignored.
    """
    cls = type(plugin)

    def owner(name):
        return next((c for c in cls.__mro__ if name in vars(c)), None)

    for name in names:
        rows, one = owner(f"{name}_rows"), owner(name)
        if rows is None:
            raise ConfigurationError(
                f"{cls.__name__} defines no {name}_rows; the adaptive loop calls only row methods"
            )
        if one is not None and not issubclass(rows, one):
            raise ConfigurationError(
                f"{one.__name__}.{name} is overridden below {rows.__name__}.{name}_rows; "
                f"the adaptive loop calls only {name}_rows"
            )


def empirical_success_probability(
    traces, alpha_bar: float
) -> tuple[float | None, int]:
    """Success frequency over pre-stopping iterations with alpha <= alpha_bar.

    Returns (p_hat, count); p_hat is None when no iteration qualifies, so a
    confidence interval can always be formed from count.
    """
    if not alpha_bar > 0.0:
        raise InvalidParameterError("alpha_bar must be positive")
    successes = count = 0
    for trace in traces:
        below = trace.alpha <= alpha_bar * (1.0 + 1e-12)
        count += int(np.count_nonzero(below))
        successes += int(np.count_nonzero(trace.success[below]))
    if count == 0:
        return None, 0
    return successes / count, count


def derive_seeds(master_seed: int, replications: int) -> list[int]:
    """Independent replication seeds derived from master_seed, one per spawned child."""
    if replications < 1:
        raise InvalidParameterError("replications must be positive")
    _check_seed(master_seed)
    return [
        int(child.generate_state(1, dtype=np.uint64)[0])
        for child in np.random.SeedSequence(master_seed).spawn(replications)
    ]


def _check_seed(seed) -> None:
    if not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise InvalidParameterError("seed must be a nonnegative integer")
