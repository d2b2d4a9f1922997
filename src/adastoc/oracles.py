"""Stochastic zeroth/first-order oracles and their per-call cost models.

Oracles deliver value and gradient estimates whose accuracy requirement
tightens as the step size parameter alpha shrinks; in the expected-risk
setting they are minibatch averages, and the minibatch size needed to meet
the accuracy contract at reliability 1 - delta is the per-call cost.  Two
families are implemented:

* trust-region style: |f - phi| <= kappa_ef * alpha**2 and
  ||g - grad|| <= kappa_eg * alpha, Chebyshev-sized batches;
* step-search style: value estimates with a subexponential error tail, and
  ||g - grad|| <= min(tau, kappa * alpha) * ||g||, batches sized by the
  target tolerance epsilon with an explicit constant multiplier (the CLI's
  --batch-c); the reliability p the step-search bounds assume is an input
  of the reports (the CLI's --reliability-p), not a field of the spec.

Each algorithm iteration makes two value estimates (current and trial
point) and one gradient estimate, so the per-iteration value cost is twice
the per-call batch.  Every suite names what an iteration pays in
`cost_models(problem) -> (value, grad)`, and only there: the adaptive loop
charges each iteration from those CostModel objects and hands the suite the
per-call batches, the exact and corruption suites' constant models count
one sample per call, and the bounds of a sweep evaluate the same models, so
for every suite the samples a run is charged and the samples a bound counts
agree by construction.  A call is charged its b samples, but the b-sample
mean is drawn once from its exact law (`minibatch_value`, `minibatch_grad`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidParameterError
from .problems import NoiseSpec, Problem
from .rows import RowStreams, row_dot

__all__ = [
    "SassOracleSpec",
    "StormOracleSpec",
    "CostModel",
    "minibatch_value",
    "minibatch_grad",
    "storm_cost_models",
    "sass_cost_models",
    "empirical_oracle_failure_rate",
    "ExactOracles",
    "StormMinibatchOracles",
    "SassMinibatchOracles",
    "PairCorruptionOracles",
]


@dataclass(frozen=True)
class SassOracleSpec:
    """Accuracy parameters of the step-search gradient oracle.

    The gradient contract is ||g - grad|| <= min(tau, kappa * alpha) * ||g||.
    Cost formulas assume tau >= kappa * alpha_bar.
    """

    kappa: float = 1.0
    tau: float = math.inf

    def __post_init__(self):
        if not (self.kappa > 0.0 and self.tau > 0.0):
            raise InvalidParameterError("kappa and tau must be positive")


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
        if not (self.kappa_ef >= 0.0 and self.kappa_eg >= 0.0):
            raise InvalidParameterError("kappa_ef and kappa_eg must be nonnegative")
        if not (self.sigma_f >= 0.0 and self.sigma_g >= 0.0):
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

    The batch-size formula raw(alpha) = sum_i c_i / min(alpha, a_i)**P_i has
    one (c_i, a_i, P_i) term per entry of terms: c_i > 0, a cap a_i > 0
    (math.inf for none) and a power P_i (0 for a constant).  One call costs
    max(1, ceil(raw)) samples and an iteration makes calls_per_iteration of
    them.  power = max P_i (0 with no term) is the reports' growth rate.
    raw, log_raw, per_call and cost take a float or an array of step sizes;
    costs beyond the double range are inf there, and batch() raises.
    """

    terms: tuple[tuple[float, float, float], ...] = ()
    calls_per_iteration: int = 1
    label: str = ""

    def __post_init__(self):
        for c, a, power in self.terms:
            if not (c > 0.0 and a > 0.0 and math.isfinite(power)):
                raise InvalidParameterError(f"cost model {self.label!r}: a term needs c, a > 0, finite P")

    @property
    def power(self) -> float:
        return max((power for _, _, power in self.terms), default=0.0)

    def raw(self, alpha):
        """The batch-size formula at each alpha; inf where it overflows a double."""
        alpha = np.asarray(alpha, dtype=float)
        total = np.zeros_like(alpha)
        with np.errstate(divide="ignore", over="ignore"):
            for c, a, power in self.terms:
                # float_power is the C library's pow, as scalar ** is; array ** differs in the last bit
                total = total + c / np.float_power(np.minimum(alpha, a), power)
        return total

    def log_raw(self, log_alpha):
        """log raw(alpha) from log alpha: finite wherever raw overflows or alpha underflows."""
        log_alpha = np.asarray(log_alpha, dtype=float)
        logs = [math.log(c) - power * np.minimum(log_alpha, math.log(a)) for c, a, power in self.terms]
        return np.logaddexp.reduce([np.full_like(log_alpha, -math.inf), *logs])

    def per_call(self, alpha):
        """Samples per call, max(1, ceil(raw)), as floats; inf beyond the float range."""
        return np.maximum(1.0, np.ceil(self.raw(alpha)))[()]

    def cost(self, alpha):
        return self.calls_per_iteration * self.per_call(alpha)

    def batch(self, alpha):
        """Samples per call: an int for one alpha, an object array of ints for an array of alphas.

        Counts are exact Python ints, above 2**63 too, from one evaluation
        of `per_call`.  The first alpha that is not positive, or whose cost
        overflows, raises InvalidParameterError.
        """
        alphas = np.asarray(alpha, dtype=float)
        batches = []
        for a, b in zip(alphas.ravel().tolist(), np.ravel(self.per_call(alphas)).tolist()):
            if not a > 0.0:
                raise InvalidParameterError("alpha must be positive")
            if math.isinf(b):
                raise InvalidParameterError(f"cost model {self.label!r} overflows at alpha={a}")
            batches.append(int(b))
        return batches[0] if alphas.ndim == 0 else np.array(batches, dtype=object)


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
# These models are the only batch formulas: the adaptive loop charges
# value.batch(alpha) and grad.batch(alpha) samples per call and hands the
# runtime suites those batches, and the complexity reports bound the same
# per-iteration costs.  A noise source that is 0 adds no term.


def _model(terms, calls_per_iteration: int, label: str) -> CostModel:
    """The model of the terms (noise, coefficient, cap, power) whose coefficient is positive.

    A coefficient is computed in doubles, so it is inf past the double range
    and 0 where a constant's square is inf.  A zero noise adds no term, even
    where its coefficient is 0/0 = nan; a positive noise whose coefficient
    is nan (inf/inf) has no batch and is refused.
    """
    if any(noise > 0.0 and math.isnan(coef) for noise, coef, _, _ in terms):
        raise InvalidParameterError(f"cost model {label!r} has an undefined coefficient (inf/inf)")
    return CostModel(tuple(term[1:] for term in terms if term[1] > 0.0), calls_per_iteration, label)


def storm_cost_models(spec: StormOracleSpec) -> tuple[CostModel, CostModel]:
    """Chebyshev batch models meeting the trust-region oracle contracts.

    Per call: sigma_f**2 / (delta0 * kappa_ef**2) / alpha**4 value samples
    and sigma_g**2 / (delta1 * kappa_eg**2) / alpha**2 gradient samples,
    each at least one.
    """
    if spec.sigma_f > 0.0 and (spec.delta0 == 0.0 or spec.kappa_ef == 0.0):
        raise InvalidParameterError("delta0 and kappa_ef must be positive when sigma_f > 0")
    if spec.sigma_g > 0.0 and (spec.delta1 == 0.0 or spec.kappa_eg == 0.0):
        raise InvalidParameterError("delta1 and kappa_eg must be positive when sigma_g > 0")
    # np.float64: a square beyond the double range is inf (every batch overflows), not an error
    sigma_f, sigma_g = np.float64(spec.sigma_f), np.float64(spec.sigma_g)
    kappa_ef, kappa_eg = np.float64(spec.kappa_ef), np.float64(spec.kappa_eg)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = (sigma_f, sigma_f**2 / (spec.delta0 * kappa_ef**2) if sigma_f else 0.0, math.inf, 4.0)
        grad = (sigma_g, sigma_g**2 / (spec.delta1 * kappa_eg**2) if sigma_g else 0.0, math.inf, 2.0)
    return _model([value], 2, "tr_value"), _model([grad], 1, "tr_grad")


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
    if not epsilon > 0.0:
        raise InvalidParameterError("epsilon must be positive")
    if case not in ("nonconvex", "strongly_convex"):
        raise InvalidParameterError(f"unknown case {case!r}")
    if not c > 0.0:
        raise InvalidParameterError("the batch multiplier must be positive")
    value_order, grad_order = (4, 2) if case == "nonconvex" else (2, 1)
    c, eps = np.float64(c), np.float64(epsilon)  # as in storm_cost_models
    sigma_f, kappa = np.float64(noise.sigma_f), np.float64(spec.kappa)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = (sigma_f, c * sigma_f**2 / eps**value_order, math.inf, 0.0)
        grad = [
            (noise.m_c, c * (noise.m_c / eps**grad_order), math.inf, 0.0),
            (noise.m_v, c * noise.m_v / kappa**2, spec.tau / spec.kappa, 2.0),
        ]
    return _model([value], 2, "ss_value"), _model(grad, 1, "ss_grad")


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
    value, grad = suite.cost_models(problem)
    grad_batch = np.full(trials, float(grad.batch(alpha)))
    value_batch = np.full(trials, float(value.batch(alpha)))
    alpha = np.full(trials, float(alpha))
    f = problem.value(x)
    g = suite.gradient_rows(problem, x, problem.grad(x), grad_batch, streams)
    f0, f_plus = suite.values_rows(problem, x, x, f, f, value_batch, streams)
    value_failed, grad_failed = suite.violated(problem, x, x, alpha, g, f0, f_plus)
    return int(np.count_nonzero(value_failed)) / trials, int(np.count_nonzero(grad_failed)) / trials


# -- runtime oracle suites ---------------------------------------------------
#
# A suite turns ground truth into the three estimates an iteration needs.
# The loop reads `draws`, cost_models and the row methods; `family` is
# optional (none: any method).  What estimates cost is not the suite's to
# say: cost_models(problem) -> (value, grad) are the CostModels the loop
# charges every iteration from, read once per run (`framework._start`), and
# where a suite refuses a problem it cannot serve, so every path that
# charges it refuses alike.  The loop evaluates f and grad f once per
# distinct iterate and calls only the row methods, R rows at a time:
#
#   gradient_rows(problem, x, g, batch, streams) -> g_hat
#   values_rows(problem, x, x_plus, f, f_plus, batch, streams)
#       -> (f0_hat, f_plus_hat)
#
# x and x_plus are the (R, dim) iterates and trial points, g, f and f_plus
# the truth there, batch the (R,) per-call batches of the gradient or value
# model at each row's step size, as floats, and streams a RowStreams of the
# suite's `draws` kind (None: the suite draws nothing); a call takes the
# same block of draws for every row.  gradient is drawn first (the step
# depends on it), then the values of x and x_plus.
#
#   violated(problem, x, x_plus, alpha, g, f0, f_plus)
#       -> (value_failed, grad_failed)
#
# checks R rows of estimates against the suite's accuracy contract at the
# (R,) step sizes alpha and returns two (R,) bool arrays.  gradient() and
# values() are the one-point calls: R = 1 row calls that evaluate the truth,
# charge the models' batches at alpha and draw from rng through a
# RowStreams with no read-ahead, so rng ends where scalar draws leave it.
# Each suite binds them in its own class (no shared base) so each can be
# instrumented separately.

# one sample per call: what the exact and corruption suites charge
_UNIT_MODELS = (CostModel((), 2, "value"), CostModel((), 1, "grad"))


def _one_gradient(self, problem: Problem, x, alpha: float, rng) -> tuple[np.ndarray, int]:
    """One gradient estimate at x and the samples it is charged."""
    grad = self.cost_models(problem)[1]
    batch = grad.batch(alpha)
    x = np.asarray(x, dtype=float)[None]
    streams = RowStreams([rng], self.draws, 0)
    g = self.gradient_rows(problem, x, problem.grad(x), np.array([float(batch)]), streams)
    return g[0], grad.calls_per_iteration * batch


def _one_values(self, problem: Problem, x, x_plus, alpha: float, rng) -> tuple[float, float, int]:
    """Value estimates at x and x_plus and the samples the pair is charged."""
    value = self.cost_models(problem)[0]
    batch = value.batch(alpha)
    x = np.asarray(x, dtype=float)[None]
    x_plus = np.asarray(x_plus, dtype=float)[None]
    f0, f_plus = self.values_rows(
        problem, x, x_plus, problem.value(x), problem.value(x_plus),
        np.array([float(batch)]), RowStreams([rng], self.draws, 0),
    )
    return float(f0[0]), float(f_plus[0]), value.calls_per_iteration * batch


def _norms(v: np.ndarray) -> np.ndarray:
    return np.sqrt(row_dot(v, v))


@dataclass(frozen=True)
class ExactOracles:
    """Noise-free oracles: estimates equal the ground truth, one sample per call."""

    draws = None

    def cost_models(self, problem: Problem) -> tuple[CostModel, CostModel]:
        return _UNIT_MODELS

    def gradient_rows(self, problem, x, g, batch, streams):
        return g

    def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
        return f, f_plus

    gradient = _one_gradient
    values = _one_values

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
        storm_cost_models(self.spec)  # a degenerate spec fails here, not mid-run

    def cost_models(self, problem: Problem) -> tuple[CostModel, CostModel]:
        if problem.noise.m_v != 0.0:
            raise ConfigurationError("trust-region oracles need a uniform gradient noise bound (m_v = 0)")
        return storm_cost_models(self.spec)

    def gradient_rows(self, problem, x, g, batch, streams):
        return _minibatch_grad_rows(problem, g, batch, streams)

    def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
        return _minibatch_value_rows(problem, (f, f_plus), batch, streams)

    gradient = _one_gradient
    values = _one_values

    def violated(self, problem, x, x_plus, alpha, g, f0, f_plus):
        tol = self.spec.kappa_ef * alpha**2
        value_failed = np.abs(f0 - problem.value(x)) > tol
        value_failed |= np.abs(f_plus - problem.value(x_plus)) > tol
        return value_failed, _norms(g - problem.grad(x)) > self.spec.kappa_eg * alpha


@dataclass(frozen=True)
class SassMinibatchOracles:
    """Tolerance-sized minibatch oracles for the step-search method.

    Gradient contract: ||g - grad|| <= min(tau, kappa * alpha) * ||g||.
    The value oracle has a tail condition rather than a pass/fail contract,
    so its side never reports a violation.  batch_scale is the batch
    constant c of `sass_cost_models` (the CLI's --batch-c).
    """

    spec: SassOracleSpec
    epsilon: float
    case: str = "nonconvex"
    batch_scale: float = 1.0

    family = "sass"
    draws = "standard_normal"

    def cost_models(self, problem: Problem) -> tuple[CostModel, CostModel]:
        return sass_cost_models(self.spec, problem.noise, self.epsilon, self.case, self.batch_scale)

    def gradient_rows(self, problem, x, g, batch, streams):
        return _minibatch_grad_rows(problem, g, batch, streams)

    def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
        return _minibatch_value_rows(problem, (f, f_plus), batch, streams)

    gradient = _one_gradient
    values = _one_values

    def violated(self, problem, x, x_plus, alpha, g, f0, f_plus):
        tol = np.minimum(self.spec.tau, self.spec.kappa * alpha) * _norms(g)
        grad_failed = _norms(g - problem.grad(x)) > tol
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

    draws = "random"

    def __post_init__(self):
        for name in ("delta0", "delta1"):
            if not (0.0 <= getattr(self, name) < 0.5):
                raise InvalidParameterError(f"{name} must lie in [0, 1/2)")
        if not (0.0 < self.value_shift < math.inf):  # shifted up, so a corrupted trial is rejected
            raise InvalidParameterError(f"value_shift must be positive and finite, got {self.value_shift}")

    def cost_models(self, problem: Problem) -> tuple[CostModel, CostModel]:
        return _UNIT_MODELS

    def gradient_rows(self, problem, x, g, batch, streams):
        flip = streams.take(1)[:, 0] < self.delta1
        return np.where(flip[:, None], -g, g) if np.count_nonzero(flip) else g

    def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
        shift = streams.take(1)[:, 0] < self.delta0
        if np.count_nonzero(shift):
            f_plus = np.where(shift, f_plus + self.value_shift, f_plus)
        return f, f_plus

    gradient = _one_gradient
    values = _one_values

    def violated(self, problem, x, x_plus, alpha, g, f0, f_plus):
        return f_plus != problem.value(x_plus), np.any(g != problem.grad(x), axis=1)
