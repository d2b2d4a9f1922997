"""Stochastic zeroth/first-order oracles and their per-call cost models.

Oracles deliver value and gradient estimates whose accuracy requirement
tightens as the step size parameter alpha shrinks; in the expected-risk
setting they are minibatch averages, and the minibatch size needed to meet
the accuracy contract at reliability 1 - delta is the per-call cost.  Two
families are implemented:

* trust-region style: |f - phi| <= kappa_ef * alpha**2 and
  ||g - grad|| <= kappa_eg * alpha, Chebyshev-sized batches;
* step-search style: |f - phi| < eps_f + t with subexponential tail, and
  ||g - grad|| <= max(eps_g, min(tau, kappa * alpha) * ||g||), batches sized
  by the target tolerance epsilon with an explicit constant multiplier.

Each algorithm iteration makes two value estimates (current and trial
point) and one gradient estimate, so the per-iteration value cost is twice
the per-call batch.  The runtime suites take their batch sizes from the same
CostModel objects the complexity bounds evaluate, so the samples a run is
charged and the samples a bound counts agree by construction.  A call is
charged its b samples, but the b-sample mean is drawn once from its exact
law (`minibatch_value`, `minibatch_grad`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError, InvalidParameterError
from .problems import NoiseSpec, Problem
from .rows import RowStreams, row_dot

__all__ = [
    "SassOracleSpec",
    "StormOracleSpec",
    "CostModel",
    "SummedCost",
    "minibatch_value",
    "minibatch_grad",
    "storm_cost_models",
    "sass_cost_models",
    "empirical_oracle_failure_rate",
    "ExactOracles",
    "StormMinibatchOracles",
    "SassMinibatchOracles",
    "PairCorruptionOracles",
    "cost_table_rows",
]


@dataclass(frozen=True)
class SassOracleSpec:
    """Accuracy/reliability parameters of the step-search oracle pair.

    eps_f and lam describe the value estimate: errors beyond eps_f have a
    subexponential tail exp(-lam * t).  The gradient contract is
    ||g - grad|| <= max(eps_g, min(tau, kappa * alpha) * ||g||) with failure
    probability at most delta1.  Cost formulas assume tau >= kappa * alpha_bar.
    """

    eps_f: float = 0.0
    lam: float = 1.0
    eps_g: float = 0.0
    kappa: float = 1.0
    tau: float = math.inf
    delta1: float = 0.1

    def __post_init__(self):
        if self.eps_f < 0.0 or self.eps_g < 0.0:
            raise InvalidParameterError("eps_f and eps_g must be nonnegative")
        if self.lam <= 0.0 or self.kappa <= 0.0 or self.tau <= 0.0:
            raise InvalidParameterError("lam, kappa and tau must be positive")
        if not (0.0 <= self.delta1 < 1.0):
            raise InvalidParameterError("delta1 must lie in [0,1)")

    def recommended_r(self) -> float:
        """Default noise-compensation offset 2*eps_f + (2/lam)*log(4)."""
        return 2.0 * self.eps_f + 2.0 / self.lam * math.log(4.0)


@dataclass(frozen=True)
class StormOracleSpec:
    """Accuracy/reliability parameters of the trust-region oracle pair."""

    kappa_ef: float = 1.0
    delta0: float = 0.1
    kappa_eg: float = 1.0
    delta1: float = 0.1
    sigma_f: float = 0.0
    sigma_g: float = 0.0

    def __post_init__(self):
        if self.kappa_ef < 0.0 or self.kappa_eg < 0.0:
            raise InvalidParameterError("kappa_ef and kappa_eg must be nonnegative")
        if self.sigma_f < 0.0 or self.sigma_g < 0.0:
            raise InvalidParameterError("sigma_f and sigma_g must be nonnegative")
        for name in ("delta0", "delta1"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise InvalidParameterError(f"{name} must lie in [0,1)")
        if self.delta0 + self.delta1 >= 0.5:
            raise InvalidParameterError(
                "delta0 + delta1 must stay below 1/2 so the success probability exceeds 1/2"
            )

    @property
    def p(self) -> float:
        """Per-iteration reliability 1 - delta0 - delta1."""
        return 1.0 - self.delta0 - self.delta1


@dataclass(frozen=True)
class CostModel:
    """Per-iteration oracle cost as a function of the step size parameter.

    raw(alpha) is the smooth batch-size formula; one call costs
    max(1, ceil(raw)) samples and an iteration makes calls_per_iteration of
    them.  Costs must be non-increasing in alpha and grow at most like
    alpha**-power as alpha shrinks; the expected-cost bound's tail and the
    reports' growth exponents read power.  Values too large for an integer
    are returned as math.inf by cost() (the bounds treat that as an honest
    divergence); batch() raises instead.
    """

    raw: Callable[[float], float]
    calls_per_iteration: int = 1
    label: str = ""
    power: float = 4.0
    # batch sizes already computed, by alpha: a run revisits the few step
    # sizes of its walk, so most lookups skip the float formula
    _batches: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def per_call(self, alpha: float) -> float:
        if alpha <= 0.0:
            raise InvalidParameterError("alpha must be positive")
        with np.errstate(divide="ignore", over="ignore"):
            v = float(self.raw(alpha))
        if math.isnan(v):
            raise InvalidParameterError(f"cost model {self.label!r} produced nan at {alpha}")
        if math.isinf(v):
            return math.inf
        # float-domain ceiling: exact below 2**53, graceful inf beyond float range
        return max(1.0, float(np.ceil(v)))

    def cost(self, alpha: float) -> float:
        return self.calls_per_iteration * self.per_call(alpha)

    def batch(self, alpha):
        """Samples per call: an int for one alpha, an object array of ints for an array of alphas.

        Counts are exact Python ints, above 2**63 too.  Each element equals
        the batch of that alpha alone; the first alpha whose cost overflows
        raises InvalidParameterError.
        """
        if np.ndim(alpha) == 0:
            return self._batch(alpha)
        return np.array([self._batch(a) for a in np.asarray(alpha).tolist()], dtype=object)

    def _batch(self, alpha: float) -> int:
        b = self._batches.get(alpha)
        if b is None:
            c = self.per_call(alpha)
            if math.isinf(c):
                raise InvalidParameterError(
                    f"cost model {self.label!r} overflows at alpha={alpha}"
                )
            b = int(c)
            if len(self._batches) < _BATCH_CACHE:
                self._batches[alpha] = b
        return b


_BATCH_CACHE = 4096  # step sizes remembered per cost model


@dataclass(frozen=True)
class SummedCost:
    """Sum of component cost models, for total-cost bounds."""

    components: tuple[CostModel, ...]
    label: str = "total"

    @property
    def power(self) -> float:
        return max(c.power for c in self.components)

    def cost(self, alpha: float) -> float:
        return sum(c.cost(alpha) for c in self.components)


# -- minibatch averaging ----------------------------------------------------
#
# The mean of `batch` i.i.d. Gaussian samples is Gaussian, so it is drawn
# once from that law: time, memory and random draws per call do not depend
# on the batch, and an iteration consumes a fixed block of the stream.  At
# batch 1 the draw equals Problem.sample_*_batch(x, 1, rng)[0] bit for bit
# (a gradient whose noise std is 0 still takes its dim normals here).
# The row functions add that noise to ground truth the caller already holds,
# for R rows at once; N(0, s**2) noise is formed from a standard normal z as
# 0.0 + s * z, which is how rng.normal(0.0, s) forms it.


def _check_call(x, batch: int) -> None:
    if batch < 1:
        raise InvalidParameterError("batch must be at least 1")
    try:
        float(batch)
    except OverflowError:
        raise InvalidParameterError("batch is beyond the float range") from None
    if not np.all(np.isfinite(x)):
        raise InvalidParameterError("x must be finite")


def minibatch_value(problem: Problem, x: np.ndarray, batch: int, rng: np.random.Generator) -> float:
    """Mean of `batch` i.i.d. stochastic value samples at x: one N(f(x), sigma_f**2/batch) draw."""
    _check_call(x, batch)
    (f,) = _minibatch_value_rows(
        problem, (np.array([problem.value(x)]),), [batch], RowStreams([rng], "standard_normal", 0)
    )
    return float(f[0])


def minibatch_grad(
    problem: Problem, x: np.ndarray, batch: int, rng: np.random.Generator
) -> np.ndarray:
    """Mean of `batch` i.i.d. stochastic gradient samples at x: grad + N(0, std**2/batch * I).

    std is the per-component sample noise `problem.grad_noise_std(grad)`;
    one call draws dim normals.
    """
    _check_call(x, batch)
    g = problem.grad(x)[None]
    return _minibatch_grad_rows(problem, g, [batch], RowStreams([rng], "standard_normal", 0))[0]


def _minibatch_value_rows(problem: Problem, values: tuple, batch, streams) -> tuple:
    """Each (R,) array of true values in `values` plus its row's N(0, sigma_f**2/batch) noise.

    Row r draws one normal per array, in the order given.
    """
    sigma_f = problem.noise.sigma_f
    if sigma_f == 0.0:
        return values
    scale = sigma_f / np.sqrt(np.asarray(batch, dtype=float))
    noise = 0.0 + scale[:, None] * streams.take(len(values))
    return tuple(v + noise[:, i] for i, v in enumerate(values))


def _minibatch_grad_rows(problem: Problem, g: np.ndarray, batch, streams) -> np.ndarray:
    """True gradients g (R, dim) plus N(0, std**2/batch * I) noise; every row draws dim normals.

    A row whose std is 0 gets 0 * z added.  Only noise-free gradients
    (m_c = m_v = 0) draw nothing.
    """
    if problem.noise.m_v == 0.0:
        # grad_noise_std without its m_v * ||g||**2 term: the same for every row
        std = math.sqrt(problem.noise.m_c / problem.dim)
        if std == 0.0:
            return g
    else:
        std = problem.grad_noise_std(g)
    z = streams.take(problem.dim)
    return g + (0.0 + (std / np.sqrt(np.asarray(batch, dtype=float)))[:, None] * z)


# -- batch-size formulas ----------------------------------------------------
#
# These models are the only batch formulas: the runtime suites draw
# value.batch(alpha) and grad.batch(alpha) samples per call, and the
# complexity reports bound the same per-iteration costs.  Each raw formula
# is evaluated in np.float64 so that its tails overflow to inf instead of
# raising.


def storm_cost_models(spec: StormOracleSpec) -> tuple[CostModel, CostModel]:
    """Chebyshev batch models meeting the trust-region oracle contracts.

    Per call: sigma_f**2 / (delta0 * kappa_ef**2 * alpha**4) value samples
    and sigma_g**2 / (delta1 * kappa_eg**2 * alpha**2) gradient samples,
    each at least one.
    """
    if spec.sigma_f > 0.0 and (spec.delta0 == 0.0 or spec.kappa_ef == 0.0):
        raise InvalidParameterError("delta0 and kappa_ef must be positive when sigma_f > 0")
    if spec.sigma_g > 0.0 and (spec.delta1 == 0.0 or spec.kappa_eg == 0.0):
        raise InvalidParameterError("delta1 and kappa_eg must be positive when sigma_g > 0")
    sigma_f, delta0, kappa_ef, sigma_g, delta1, kappa_eg = map(
        np.float64,
        (spec.sigma_f, spec.delta0, spec.kappa_ef, spec.sigma_g, spec.delta1, spec.kappa_eg),
    )

    def value_raw(a: float) -> float:
        return sigma_f**2 / (delta0 * kappa_ef**2 * np.float64(a) ** 4) if sigma_f > 0.0 else 0.0

    def grad_raw(a: float) -> float:
        return sigma_g**2 / (delta1 * kappa_eg**2 * np.float64(a) ** 2) if sigma_g > 0.0 else 0.0

    value = CostModel(raw=value_raw, calls_per_iteration=2, label="tr_value", power=4.0)
    grad = CostModel(raw=grad_raw, calls_per_iteration=1, label="tr_grad", power=2.0)
    return value, grad


def sass_cost_models(
    spec: SassOracleSpec,
    noise: NoiseSpec,
    epsilon: float,
    case: str,
    c: float = 1.0,
) -> tuple[CostModel, CostModel]:
    """Batch models meeting the step-search oracle contracts at tolerance epsilon.

    Zeroth order: c * sigma_f**2 / epsilon**4 (nonconvex) or / epsilon**2
    (strongly convex), independent of alpha.  First order:
    c * (m_c / epsilon**2 + m_v / min(tau, kappa * alpha)**2) in the
    nonconvex case, with m_c / epsilon in the strongly convex one.  The
    multiplier c makes the hidden constant explicit; scaling exponents are
    what matters.
    """
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    if case not in ("nonconvex", "strongly_convex"):
        raise InvalidParameterError(f"unknown case {case!r}")
    if c <= 0.0:
        raise InvalidParameterError("the batch multiplier must be positive")
    c, eps, sigma_f, m_c, m_v = map(np.float64, (c, epsilon, noise.sigma_f, noise.m_c, noise.m_v))
    value_order, grad_order = (4, 2) if case == "nonconvex" else (2, 1)
    kappa, tau = spec.kappa, spec.tau

    def value_raw(a: float) -> float:
        return c * sigma_f**2 / eps**value_order

    def grad_raw(a: float) -> float:
        if m_v == 0.0:
            return c * (m_c / eps**grad_order)
        return c * (m_c / eps**grad_order + m_v / np.float64(min(tau, kappa * a)) ** 2)

    value = CostModel(raw=value_raw, calls_per_iteration=2, label="ss_value", power=0.0)
    grad = CostModel(
        raw=grad_raw, calls_per_iteration=1, label="ss_grad", power=2.0 if m_v > 0.0 else 0.0
    )
    return value, grad


def cost_table_rows(
    alphas: Sequence[float], value_model: CostModel, grad_model: CostModel
) -> list[tuple[float, int, int]]:
    """Rows (alpha, oc0, oc1) of per-call batch sizes, for CSV export."""
    return [(float(a), value_model.batch(a), grad_model.batch(a)) for a in alphas]


def empirical_oracle_failure_rate(
    suite,
    problem: Problem,
    x: np.ndarray,
    alpha: float,
    trials: int,
    master_seed: int,
) -> tuple[float, float]:
    """Fractions (value, gradient) of independent trials violating the suite's contract.

    Each trial is one row of one row call: it draws what an iteration
    draws, the gradient and then the values, with the trial point equal to
    x, from its own generator, a child spawned from SeedSequence(master_seed).
    """
    if trials < 1:
        raise InvalidParameterError("trials must be at least 1")
    children = np.random.SeedSequence(master_seed).spawn(trials)
    streams = RowStreams([np.random.default_rng(c) for c in children], suite.draws, 0)
    x = np.repeat(np.asarray(x, dtype=float)[None], trials, axis=0)
    alpha = np.full(trials, float(alpha))
    f = problem.value(x)
    g, _ = suite.gradient_rows(problem, x, problem.grad(x), alpha, streams)
    f0, f_plus, _ = suite.values_rows(problem, x, x, f, f, alpha, streams)
    value_failed, grad_failed = suite.violated(problem, x, x, alpha, g, f0, f_plus)
    return int(np.count_nonzero(value_failed)) / trials, int(np.count_nonzero(grad_failed)) / trials


# -- runtime oracle suites ---------------------------------------------------
#
# A suite turns ground truth into the three estimates an iteration needs and
# reports how many samples they cost.  The adaptive loop evaluates f and
# grad f once per distinct iterate and calls only the row methods, for a
# stack of R rows at a time:
#
#   gradient_rows(problem, x, g, alpha, streams) -> (g_hat, cost1)
#   values_rows(problem, x, x_plus, f, f_plus, alpha, streams)
#       -> (f0_hat, f_plus_hat, cost0)
#
# x and x_plus are the (R, dim) iterates and trial points, g, f and f_plus
# the truth there, alpha the (R,) step sizes, and streams a RowStreams of
# the suite's `draws` kind (None: the suite draws nothing); a call takes the
# same block of draws for every row.  A cost is an int shared by every row
# or an object array of ints.  gradient is drawn first (the step depends on
# it), then the values of x and x_plus.
#
#   violated(problem, x, x_plus, alpha, g, f0, f_plus)
#       -> (value_failed, grad_failed)
#
# checks R rows of estimates against the suite's accuracy contract and
# returns two (R,) bool arrays.  gradient() and values() are the one-point
# calls: R = 1 row calls that evaluate the truth and draw from rng through
# a RowStreams with no read-ahead, so rng ends where scalar draws leave it.
# Each suite defines its own methods (no shared base) so each can be
# instrumented separately.
# Minibatch suites look their cost models up on every call (the step-search
# models depend on the problem's noise); the caches make that a dict lookup.

_storm_models = functools.lru_cache(maxsize=16)(storm_cost_models)
_sass_models = functools.lru_cache(maxsize=16)(sass_cost_models)


def _one_gradient(suite, problem: Problem, x, alpha: float, rng):
    x = np.asarray(x, dtype=float)[None]
    streams = RowStreams([rng], suite.draws, 0)
    g, cost = suite.gradient_rows(
        problem, x, problem.grad(x), np.array([alpha], dtype=float), streams
    )
    return g[0], _first(cost)


def _one_values(suite, problem: Problem, x, x_plus, alpha: float, rng):
    x = np.asarray(x, dtype=float)[None]
    x_plus = np.asarray(x_plus, dtype=float)[None]
    f0, f_plus, cost = suite.values_rows(
        problem, x, x_plus, problem.value(x), problem.value(x_plus),
        np.array([alpha], dtype=float), RowStreams([rng], suite.draws, 0),
    )
    return float(f0[0]), float(f_plus[0]), _first(cost)


def _first(cost):
    return cost if isinstance(cost, int) else cost[0]


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(v, v))


class ExactOracles:
    """Noise-free oracles: estimates equal the ground truth, one sample per call."""

    family = "any"
    draws = None

    def validate(self, problem: Problem) -> None:
        pass

    def gradient_rows(self, problem, x, g, alpha, streams):
        return g, 1

    def values_rows(self, problem, x, x_plus, f, f_plus, alpha, streams):
        return f, f_plus, 2

    def gradient(self, problem: Problem, x, alpha: float, rng) -> tuple[np.ndarray, int]:
        return _one_gradient(self, problem, x, alpha, rng)

    def values(self, problem: Problem, x, x_plus, alpha: float, rng) -> tuple[float, float, int]:
        return _one_values(self, problem, x, x_plus, alpha, rng)

    def violated(self, problem, x, x_plus, alpha, g, f0, f_plus):
        none = np.zeros(len(x), dtype=bool)
        return none, none


@dataclass(frozen=True)
class StormMinibatchOracles:
    """Chebyshev-sized minibatch oracles for the trust-region method.

    Contract: |f - phi| <= kappa_ef * alpha**2 for both estimates of the
    value pair and ||g - grad|| <= kappa_eg * alpha.
    """

    spec: StormOracleSpec

    family = "storm"
    draws = "standard_normal"

    def __post_init__(self):
        _storm_models(self.spec)  # a degenerate spec fails here, not mid-run

    def validate(self, problem: Problem) -> None:
        if problem.noise.m_v != 0.0:
            raise ConfigurationError(
                "trust-region oracles need a uniform gradient noise bound (m_v = 0)"
            )

    def gradient_rows(self, problem, x, g, alpha, streams):
        batch = _storm_models(self.spec)[1].batch(alpha)
        return _minibatch_grad_rows(problem, g, batch, streams), batch

    def values_rows(self, problem, x, x_plus, f, f_plus, alpha, streams):
        batch = _storm_models(self.spec)[0].batch(alpha)
        f0, f_plus = _minibatch_value_rows(problem, (f, f_plus), batch, streams)
        return f0, f_plus, 2 * batch

    def gradient(self, problem, x, alpha, rng):
        return _one_gradient(self, problem, x, alpha, rng)

    def values(self, problem, x, x_plus, alpha, rng):
        return _one_values(self, problem, x, x_plus, alpha, rng)

    def violated(self, problem, x, x_plus, alpha, g, f0, f_plus):
        tol = self.spec.kappa_ef * alpha**2
        value_failed = np.abs(f0 - problem.value(x)) > tol
        value_failed |= np.abs(f_plus - problem.value(x_plus)) > tol
        return value_failed, _norms(g - problem.grad(x)) > self.spec.kappa_eg * alpha


@dataclass(frozen=True)
class SassMinibatchOracles:
    """Tolerance-sized minibatch oracles for the step-search method.

    Gradient contract: ||g - grad|| <= max(eps_g, min(tau, kappa * alpha) * ||g||).
    The value oracle has a tail condition rather than a pass/fail contract,
    so its side never reports a violation.
    """

    spec: SassOracleSpec
    epsilon: float
    case: str = "nonconvex"
    batch_scale: float = 1.0

    family = "sass"
    draws = "standard_normal"

    def validate(self, problem: Problem) -> None:
        pass

    def _models(self, problem: Problem) -> tuple[CostModel, CostModel]:
        return _sass_models(self.spec, problem.noise, self.epsilon, self.case, self.batch_scale)

    def gradient_rows(self, problem, x, g, alpha, streams):
        batch = self._models(problem)[1].batch(alpha)
        return _minibatch_grad_rows(problem, g, batch, streams), batch

    def values_rows(self, problem, x, x_plus, f, f_plus, alpha, streams):
        batch = self._models(problem)[0].batch(alpha)
        f0, f_plus = _minibatch_value_rows(problem, (f, f_plus), batch, streams)
        return f0, f_plus, 2 * batch

    def gradient(self, problem, x, alpha, rng):
        return _one_gradient(self, problem, x, alpha, rng)

    def values(self, problem, x, x_plus, alpha, rng):
        return _one_values(self, problem, x, x_plus, alpha, rng)

    def violated(self, problem, x, x_plus, alpha, g, f0, f_plus):
        rel = np.minimum(self.spec.tau, self.spec.kappa * alpha) * _norms(g)
        grad_failed = _norms(g - problem.grad(x)) > np.maximum(self.spec.eps_g, rel)
        return np.zeros(len(x), dtype=bool), grad_failed


@dataclass(frozen=True)
class PairCorruptionOracles:
    """Exact oracles corrupted by independent per-iteration Bernoulli events.

    One delta0 coin covers the iteration's value pair and one delta1 coin
    the gradient, so an iteration is clean with probability exactly
    (1 - delta0) * (1 - delta1) >= 1 - delta0 - delta1.  Corruptions are
    adversarial: the trial value is shifted up (forcing rejection) and the
    gradient is negated (an ascent direction, rejected on any convex
    objective when r = 0).  The contract fails exactly on a corrupted
    estimate.
    """

    delta0: float
    delta1: float
    value_shift: float = 1.0e6

    family = "any"
    draws = "random"

    def __post_init__(self):
        for name in ("delta0", "delta1"):
            if not (0.0 <= getattr(self, name) < 0.5):
                raise InvalidParameterError(f"{name} must lie in [0, 1/2)")

    def validate(self, problem: Problem) -> None:
        pass

    def gradient_rows(self, problem, x, g, alpha, streams):
        flip = streams.take(1)[:, 0] < self.delta1
        return (np.where(flip[:, None], -g, g) if np.count_nonzero(flip) else g), 1

    def values_rows(self, problem, x, x_plus, f, f_plus, alpha, streams):
        shift = streams.take(1)[:, 0] < self.delta0
        if np.count_nonzero(shift):
            f_plus = np.where(shift, f_plus + self.value_shift, f_plus)
        return f, f_plus, 2

    def gradient(self, problem, x, alpha, rng):
        return _one_gradient(self, problem, x, alpha, rng)

    def values(self, problem, x, x_plus, alpha, rng):
        return _one_values(self, problem, x, x_plus, alpha, rng)

    def violated(self, problem, x, x_plus, alpha, g, f0, f_plus):
        return f_plus != problem.value(x_plus), np.any(g != problem.grad(x), axis=1)
