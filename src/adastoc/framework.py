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
`run_lockstep` keeps every row's trace and returns one `RunTrace` per
seed; `run_adaptive` is its one-seed call.  The Monte Carlo harness
(`complexity.monte_carlo_toc`) runs the same loop keeping only each row's
sample totals, so its memory does not grow with the iterations.

A trace is columns, one array per recorded quantity (`TRACE_COLUMNS`), as
the loop produces them; `RunTrace.records` is the same trace as one
`IterationRecord` per iteration, built on first use.

The loop speaks one plug-in protocol: the suite's `gradient_rows` and
`values_rows` and the method's `propose_rows` and `accepts_rows` (see
`oracles` and `methods`).  The one-point calls compute the same formulas
for use outside the loop.  A plug-in that lacks a row method, or
overrides a one-point method below its row method, is refused with
ConfigurationError.

Ground truth is evaluated once per distinct iterate: f at an accepted
trial point becomes f at the next iterate, and grad f is recomputed only
for rows that moved.  The oracle suite turns that truth into estimates;
the optimizer itself never reads it.  The gradient norm and optimality gap
are recorded every iteration, purely for instrumentation and
stopping-time detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
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
from .tableio import format_row

__all__ = [
    "AlgoConfig",
    "IterationRecord",
    "RunTrace",
    "update_step_size",
    "stopping_time",
    "run_adaptive",
    "run_lockstep",
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
        lines = [",".join(TRACE_CSV_HEADER)]
        lines.extend(format_row(row) for row in zip(range(len(self.alpha)), *columns))
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


@dataclass(frozen=True)
class RowResult:
    """Where one row of a lockstep run ended.

    stopping_iteration is None when the row reached max_iterations;
    iterations counts the iterations it ran, toc0/toc1 its value and
    gradient sample totals (kept only when the trace is not).
    """

    stopping_iteration: int | None
    iterations: int
    toc0: int
    toc1: int
    final_x: np.ndarray = field(repr=False)
    final_grad_norm: float
    final_gap: float


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
    return run_lockstep(problem, method, oracle_suite, config, epsilon, [config.seed], mode, x0)[0]


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
    """One replication per seed, advanced together; config.seed is not used.

    Trace i is what run_adaptive gives with seed seeds[i].
    """
    x = _start(problem, method, oracle_suite, epsilon, mode, x0)
    return _lockstep(problem, method, oracle_suite, config, epsilon, mode, x, seeds, record=True)


_BLOCK = 256  # draws each row's generator is read ahead by
_CHUNK = 1024  # trace entries (rows x iterations) kept as per-iteration arrays before they are packed


def _lockstep(problem, method, suite, config, epsilon, mode, x, seeds, record):
    """The adaptive loop over one row per seed, from the start point x (see `_start`).

    With record, returns one RunTrace per seed.  Without, returns one
    RowResult per seed: the trace is not kept, only the sample totals.
    """
    if len(seeds) < 1:
        raise InvalidParameterError("at least one seed is needed")
    rngs = [np.random.default_rng(seed) for seed in seeds]
    streams = RowStreams(rngs, suite.draws, _BLOCK)
    min_value = math.nan if problem.min_value is None else problem.min_value
    gap_mode = mode == STRONGLY_CONVEX

    n = len(seeds)
    ids = np.arange(n)
    X = np.repeat(x[None], n, axis=0)
    F, G = problem.value(X), problem.grad(X)
    grad_norm = np.sqrt(row_dot(G, G))
    met = (F - min_value if gap_mode else grad_norm) <= epsilon
    sizes = _StepSizes(config)
    state = np.zeros(n, dtype=np.intp)  # _StepSizes.slot(0, 0): alpha = alpha0
    toc0 = toc1 = np.zeros(n, dtype=object)
    results: list[RowResult | None] = [None] * n
    chunks, columns, pending = [], [], 0  # the trace of every row, packed every _CHUNK entries
    retire = np.count_nonzero(met) > 0
    max_iterations = config.max_iterations
    # the loop body runs once per iteration whatever R is: bind its callees once
    count, isfinite = np.count_nonzero, np.isfinite
    gradient_rows, values_rows = suite.gradient_rows, suite.values_rows
    propose_rows, accepts_rows = method.propose_rows, method.accepts_rows
    value, grad = problem.value, problem.grad

    k = 0
    while True:
        if retire or k >= max_iterations:
            out = met if k < max_iterations else np.ones(len(ids), dtype=bool)
            for j in np.flatnonzero(out).tolist():
                results[ids[j]] = RowResult(
                    stopping_iteration=k if met[j] else None,
                    iterations=k,
                    toc0=toc0[j],
                    toc1=toc1[j],
                    final_x=X[j].copy(),
                    final_grad_norm=float(grad_norm[j]),
                    final_gap=float(F[j] - min_value),
                )
            keep = ~out
            if not count(keep):
                break
            ids, X, F, G, grad_norm, met, state, toc0, toc1 = (
                a[keep] for a in (ids, X, F, G, grad_norm, met, state, toc0, toc1)
            )
            streams.keep(keep)
            retire = False
        if k >= sizes.valid_until:
            sizes.cover(state, k)
        alpha = sizes.alpha[state]
        if sizes.may_vanish and count(alpha > 0.0) < len(alpha):
            raise InvalidParameterError("alpha must be positive")

        g_hat, cost1 = gradient_rows(problem, X, G, alpha, streams)
        if count(isfinite(g_hat)) < g_hat.size:
            raise NumericError(f"non-finite gradient estimate at iteration {k}")
        steps, aux = propose_rows(g_hat, alpha)
        X_plus = X + steps
        F_plus = value(X_plus)
        f0, f_plus, cost0 = values_rows(problem, X, X_plus, F, F_plus, alpha, streams)
        # a finite difference means both are finite; only an overflow needs the full check
        if count(isfinite(f0 - f_plus)) < len(f0) and not (
            np.all(isfinite(f0)) and np.all(isfinite(f_plus))
        ):
            raise NumericError(f"non-finite value estimate at iteration {k}")
        success = accepts_rows(f0, f_plus, g_hat, steps, aux, alpha, config)
        if record:
            columns.append((ids, state, success, cost0, cost1, grad_norm, F))
            pending += len(ids)
            if pending >= _CHUNK:
                chunks.append(_pack(columns))
                columns, pending = [], 0
        else:
            toc0 = toc0 + cost0
            toc1 = toc1 + cost1

        moved = count(success)
        if moved:
            if moved == len(success):
                X, F, G = X_plus, F_plus, grad(X_plus)
            else:
                X = np.where(success[:, None], X_plus, X)
                F = np.where(success, F_plus, F)
                G = G.copy()
                G[success] = grad(X_plus[success])
            grad_norm = np.sqrt(row_dot(G, G))
            met = (F - min_value if gap_mode else grad_norm) <= epsilon
            retire = count(met) > 0
        state = sizes.next[state + success]
        k += 1
    if not record:
        return results
    if columns:
        chunks.append(_pack(columns))
    return _traces(chunks, results, sizes, min_value, config, epsilon, mode)


def _pack(columns) -> tuple:
    """Several iterations' entries as one array per column: ids, state, success, cost0, cost1, grad_norm, f."""
    ids, state, success, cost0, cost1, grad_norm, f = zip(*columns)
    lengths = [len(i) for i in ids]

    def samples(costs):  # a suite returns one sample count for all rows or one per row
        if all(isinstance(c, int) for c in costs):
            return np.repeat(np.array(costs, dtype=object), lengths)
        return np.concatenate(
            [np.full(m, c, dtype=object) if isinstance(c, int) else c for c, m in zip(costs, lengths)]
        )

    flat = np.concatenate
    return flat(ids), flat(state), flat(success), samples(cost0), samples(cost1), flat(grad_norm), flat(f)


def _traces(chunks, ends, sizes, min_value, config, epsilon, mode) -> list[RunTrace]:
    """One RunTrace per row: a stable sort on the row ids puts each row's iterations together, in order."""
    columns = {name: np.empty(0, dtype=dtype) for name, dtype in _COLUMN_DTYPES.items()}
    if chunks:
        ids, *parts = zip(*chunks)
        order = np.argsort(np.concatenate(ids), kind="stable")
        state, success, cost0, cost1, grad_norm, gap = (np.concatenate(p)[order] for p in parts)
        gap -= min_value
        columns = dict(zip(TRACE_COLUMNS, (
            sizes.alpha[state], success, cost0, cost1, grad_norm, gap,
            sizes.base[state], sizes.exp[state],
        )))
    bounds = np.cumsum([end.iterations for end in ends]).tolist()
    traces = []
    for end, lo, hi in zip(ends, [0] + bounds, bounds):
        traces.append(RunTrace._from_columns(
            {name: col[lo:hi] for name, col in columns.items()},
            stopping_iteration=end.stopping_iteration, config=config, epsilon=epsilon, mode=mode,
            final_grad_norm=end.final_grad_norm, final_gap=end.final_gap, final_x=end.final_x,
        ))
    return traces


class _StepSizes:
    """update_step_size as a transition table over step-size states.

    A state is (anchor, exp): alpha = base * gamma**exp with base alpha0
    (anchor 0) or alpha_max (anchor 1, after a re-anchoring).  Rows hold
    the state's slot 4 * z(exp) + 2 * anchor, z the zigzag map 0, -1, 1,
    -2, ... -> 0, 1, 2, 3, ..., so slots stay valid as the table grows in
    either direction.  alpha[slot] is base * gamma**exp as Python computes
    it (numpy's power differs in the last bit for some exponents), and
    next[slot + success] is the slot after one update: a row's update is
    one addition and two lookups.  The table is filled for exponents
    lo..hi; other entries hold alpha = nan.
    """

    SLACK = 16  # exponents kept filled beyond the live ones, on each side

    def __init__(self, config: AlgoConfig):
        self.gamma = config.gamma
        self.alpha_max = config.alpha_max
        self.bases = (float(config.alpha0), float(config.alpha_max))
        # anchor 1 is reached by a re-anchoring that changes the base
        changes = math.isfinite(config.alpha_max) and config.alpha0 != config.alpha_max
        self.anchors = (0, 1) if changes else (0,)
        self.floor = self._lowest_exp(config)
        self.lo, self.hi = 0, -1
        self.alpha = np.empty(0)
        self.next = np.empty(0, dtype=np.intp)
        self.base = np.empty(0)
        self.exp = np.empty(0, dtype=np.int64)
        self.may_vanish = False
        self.valid_until = 0  # the first iteration that needs cover() again

    @staticmethod
    def slot(anchor: int, exp: int) -> int:
        return 4 * (2 * exp if exp >= 0 else -2 * exp - 1) + 2 * anchor

    def cover(self, state: np.ndarray, k: int) -> None:
        """Fill the states the rows can reach from iteration k on, and say until when.

        An update moves an exponent by at most one, so the table stays
        valid for as many iterations as the live exponents are from the
        edges of its filled range.
        """
        exps = self.exp[state] if self.hi >= self.lo else np.zeros(1, dtype=np.int64)
        lo, hi = int(exps.min()), int(exps.max())
        if max(lo - self.SLACK, self.floor) < self.lo or hi + self.SLACK > self.hi:
            margin = max(2 * self.SLACK, self.hi - self.lo)
            self._fill(max(min(lo - margin, self.lo), self.floor), max(hi + margin, self.hi))
        below = lo - self.lo if self.lo > self.floor else math.inf
        self.valid_until = k + min(self.hi - hi, below)

    @staticmethod
    def _lowest_exp(config: AlgoConfig):
        """The lowest exponent a row can reach: alpha0 * gamma**exp stays <= alpha_max."""
        if math.isinf(config.alpha_max):
            return -math.inf
        exp = 0
        while config.alpha0 * _power(config.gamma, exp - 1) <= config.alpha_max:
            exp -= 1
        return exp

    def _fill(self, lo: int, hi: int) -> None:
        size = 4 * (max(2 * hi, -2 * lo - 1) + 1)
        grow = size - len(self.alpha)
        self.alpha = np.concatenate([self.alpha, np.full(grow, np.nan)])
        self.next = np.concatenate([self.next, np.full(grow, -1, dtype=np.intp)])
        self.base = np.concatenate([self.base, np.full(grow, np.nan)])
        self.exp = np.concatenate([self.exp, np.zeros(grow, dtype=np.int64)])
        new = [(a, e) for e in range(lo, hi + 1) if not self.lo <= e <= self.hi for a in self.anchors]
        slots = np.array([self.slot(a, e) for a, e in new], dtype=np.intp)
        self.alpha[slots] = [self.bases[a] * _power(self.gamma, e) for a, e in new]
        self.base[slots] = [self.bases[a] for a, _ in new]
        self.exp[slots] = [e for _, e in new]
        self.next[slots] = [self._after(a, e, False) for a, e in new]
        self.next[slots + 1] = [self._after(a, e, True) for a, e in new]
        self.lo, self.hi = lo, hi
        # bases are at least alpha0 > 0, so only an underflowed gamma**exp gives alpha = 0
        self.may_vanish = self.bases[0] * _power(self.gamma, hi) == 0.0

    def _after(self, anchor: int, exp: int, success: bool) -> int:
        base = self.bases[anchor]
        try:
            new_base, new_exp = update_step_size(base, exp, success, self.gamma, self.alpha_max)
        except (InvalidParameterError, OverflowError):
            return -1  # a state no run updates from: alpha is 0 there, or above alpha_max
        return self.slot(anchor if new_base == base else 1, new_exp)


def _power(gamma: float, e: int) -> float:
    try:
        return gamma**e
    except OverflowError:  # gamma**e beyond the float range: alpha = inf, which no run survives
        return math.inf


def _start(problem: Problem, method, oracle_suite, epsilon: float, mode: str, x0) -> np.ndarray:
    """Check a run's configuration before anything is drawn; return its start point."""
    _check_rows(oracle_suite, ("gradient", "values"))
    _check_rows(method, ("propose", "accepts"))
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
    x = np.array(problem.x0 if x0 is None else x0, dtype=float)
    if x.shape != (problem.dim,):
        raise InvalidParameterError(f"x0 must have shape ({problem.dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("x0 must be finite")
    return x


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
    if alpha_bar <= 0.0:
        raise InvalidParameterError("alpha_bar must be positive")
    successes = count = 0
    for trace in traces:
        below = trace.alpha <= alpha_bar * (1.0 + 1e-12)
        count += int(np.count_nonzero(below))
        successes += int(np.count_nonzero(trace.success[below]))
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
