"""One-sided random walk analysis for adaptive step-size processes.

The step size of an adaptive stochastic method moves on a geometric grid
alpha = alpha_bar * gamma**Y with the exponent Y going down by one on each
successful iteration and up by one on each unsuccessful one.  While the
exponent is nonnegative (step size at or below the reliability threshold
alpha_bar), a success happens with probability at least p > 1/2.  That
exponent process is stochastically dominated by the one-sided random walk

    Z_0 = 0,   Z_{k+1} = Z_k + 1 w.p. q := 1 - p,
               Z_{k+1} = max(Z_k - 1, 0) w.p. p,

so high-probability upper bounds on max_k Z_k translate into lower bounds
on the realized step size.  This module provides the walk simulator, the
explicit pathwise coupling, exact and closed-form hitting/transition
probabilities for the walk restricted to {0..l}, and the resulting
step-size floor alpha_star(n) with its failure probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CouplingInfeasibleError, InvalidParameterError
from .framework import update_step_size

__all__ = [
    "WalkParams",
    "WalkPath",
    "simulate_walk",
    "walk_ensemble_stats",
    "couple_with_trace",
    "trace_exponents",
    "transition_matrix",
    "feller_transition_prob",
    "hitting_prob_exact",
    "hitting_prob_union_sum",
    "hitting_prob_bound",
    "stepsize_lower_bound",
    "gamma_threshold",
    "overshoot_constant",
]


def _check_reliability(p: float) -> None:
    """The dominance and bound results need p strictly above 1/2."""
    if not (0.5 < p <= 1.0):
        raise InvalidParameterError(f"reliability p must lie in (1/2, 1], got {p}")


def overshoot_constant(p: float) -> float:
    """The constant c = 2 sqrt(pq) / (1 - 2 sqrt(pq))**2 entering the tail bounds."""
    _check_reliability(p)
    q = 1.0 - p
    s = 2.0 * math.sqrt(p * q)
    return s / (1.0 - s) ** 2


@dataclass(frozen=True)
class WalkParams:
    """Parameters of the dominating walk and the induced step-size bound.

    p is the per-step down probability (success reliability), gamma the
    step-size contraction factor, alpha_bar the reliability threshold, and
    omega controls how fast the failure probability of the bound decays.
    Simulation works for any p in [0,1]; the bounds (properties q, c and
    the stepsize floor) additionally require p > 1/2.
    """

    p: float
    gamma: float
    alpha_bar: float
    omega: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.p <= 1.0):
            raise InvalidParameterError(f"p must be a probability, got {self.p}")
        if not (0.0 < self.gamma < 1.0):
            raise InvalidParameterError(f"gamma must lie in (0,1), got {self.gamma}")
        if self.alpha_bar <= 0.0:
            raise InvalidParameterError("alpha_bar must be positive")
        if self.omega <= 0.0:
            raise InvalidParameterError("omega must be positive")

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def c(self) -> float:
        return overshoot_constant(self.p)


@dataclass(frozen=True)
class WalkPath:
    """A realized trajectory Z_0..Z_n of the one-sided walk."""

    states: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "states", np.asarray(self.states, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.states)

    @property
    def max_level(self) -> int:
        return int(self.states.max())

    def hits(self, level: int) -> bool:
        return bool((self.states >= level).any())


def _reflected_walks(q: float, m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """Z_1..Z_n of m independent walks from Z_0 = 0, one row each.

    Uses the reflection identity Z_k = S_k - min_{j<=k} S_j (S_0 = 0) for
    the unrestricted +-1 walk S (up w.p. q), which reproduces the
    hold-at-zero dynamics exactly and vectorizes.  Draws rng.random((m, n)).
    """
    steps = np.where(rng.random((m, n)) < q, 1, -1).astype(np.int32)
    s = np.cumsum(steps, axis=1)
    return s - np.minimum(np.minimum.accumulate(s, axis=1), 0)


def simulate_walk(params: WalkParams, n: int, rng: np.random.Generator) -> WalkPath:
    """Simulate n steps of the walk from Z_0 = 0 (n uniform draws)."""
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    return WalkPath(states=np.concatenate(([0], _reflected_walks(params.q, 1, n, rng)[0])))


def walk_ensemble_stats(
    p: float,
    n: int,
    reps: int,
    rng: np.random.Generator,
    chunk: int = 100_000,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (max level, final state) over `reps` independent n-step walks.

    Memory-bounded: paths are generated in chunks and never stored whole.
    """
    if not (0.0 <= p <= 1.0):
        raise InvalidParameterError("p must be a probability")
    if n < 1 or reps < 1:
        raise InvalidParameterError("n and reps must be positive")
    max_levels = np.empty(reps, dtype=np.int64)
    finals = np.empty(reps, dtype=np.int64)
    done = 0
    while done < reps:
        m = min(chunk, reps - done)
        z = _reflected_walks(1.0 - p, m, n, rng)
        max_levels[done : done + m] = z.max(axis=1)
        finals[done : done + m] = z[:, -1]
        done += m
    return max_levels, finals


def trace_exponents(trace, alpha_bar: float) -> np.ndarray:
    """Exponent sequence Y_0..Y_T with alpha_k = alpha_bar * gamma**Y_k.

    Requires every recorded step size to sit on the geometric grid anchored
    at alpha_bar, which holds whenever alpha_bar is alpha0 times an integer
    power of gamma and the run never hit the alpha_max cap.
    """
    gamma = trace.config.gamma
    log_gamma = math.log(gamma)
    y = np.empty(len(trace.records) + 1, dtype=np.int64)
    for i, rec in enumerate(trace.records):
        shift = math.log(rec.alpha_base / alpha_bar) / log_gamma
        shift_int = round(shift)
        if abs(shift - shift_int) > 1e-9:
            raise InvalidParameterError(
                "trace step sizes do not sit on the geometric grid anchored at alpha_bar"
            )
        y[i] = rec.alpha_exp + shift_int
    if trace.records:
        last = trace.records[-1]
        base, exp = update_step_size(
            last.alpha_base, last.alpha_exp, last.success, gamma, trace.config.alpha_max
        )
        if not last.success:
            y[-1] = y[-2] + 1
        else:  # a success that the alpha_max cap re-anchors keeps the exponent
            capped = (base, exp) != (last.alpha_base, last.alpha_exp - 1)
            y[-1] = y[-2] if capped else y[-2] - 1
    else:
        y[-1] = 0
    return y


def couple_with_trace(
    y: np.ndarray,
    p: float,
    rng: np.random.Generator,
    p_prime: float | np.ndarray,
    t_eps: int | None = None,
) -> WalkPath:
    """Construct the dominating walk Z pathwise from an exponent sequence Y.

    y is the realized exponent sequence Y_0..Y_n (Y_0 <= 0).  For indices
    before the stopping time with Y_k >= 0 the construction consumes the
    known per-iteration success probability p_prime (scalar or per-step
    array), thinning successes down to probability exactly p; elsewhere Z
    advances independently or mirrors Y's extension moves.  The returned Z
    has the marginal law of the one-sided walk and satisfies Z_k >= Y_k at
    every index.
    """
    _check_reliability(p)
    y = np.asarray(y, dtype=np.int64)
    n = len(y) - 1
    if n < 1:
        raise InvalidParameterError("exponent sequence must contain at least two entries")
    if y[0] > 0:
        raise InvalidParameterError("exponent sequence must start at or below zero")
    pp = np.broadcast_to(np.asarray(p_prime, dtype=float), (n,))
    horizon = n if t_eps is None else t_eps
    q = 1.0 - p
    z = np.empty(n + 1, dtype=np.int64)
    z[0] = 0
    for k in range(n):
        moved_up = y[k + 1] == y[k] + 1
        if k >= horizon:
            # beyond the stopping time Y itself moves down w.p. exactly p
            z[k + 1] = z[k] + 1 if moved_up else max(z[k] - 1, 0)
        elif y[k] <= -1:
            z[k + 1] = z[k] + 1 if rng.random() < q else max(z[k] - 1, 0)
        else:
            pk = pp[k]
            if pk < p:
                raise CouplingInfeasibleError(
                    f"success probability {pk} at step {k} is below the assumed level {p}"
                )
            if moved_up:
                z[k + 1] = z[k] + 1
            else:
                # success (down move, or hold at the cap): thin to rate p
                if rng.random() < p / pk:
                    z[k + 1] = max(z[k] - 1, 0)
                else:
                    z[k + 1] = z[k] + 1
    return WalkPath(states=z)


def transition_matrix(p: float, l: int) -> np.ndarray:
    """Transition matrix of the walk restricted to {0..l}, holding at l.

    From 0 the chain stays w.p. p and moves up w.p. q; from interior states
    it moves down w.p. p and up w.p. q; from l it moves down w.p. p and
    holds w.p. q.
    """
    if l < 1:
        raise InvalidParameterError("l must be at least 1")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0,1]")
    q = 1.0 - p
    size = l + 1
    mat = np.zeros((size, size))
    mat[0, 0] = p
    mat[0, 1] = q
    for i in range(1, l):
        mat[i, i - 1] = p
        mat[i, i + 1] = q
    mat[l, l - 1] = p
    mat[l, l] = q
    return mat


def feller_transition_prob(p: float, l: int, m: int) -> float:
    """Closed-form m-step probability of being at l for the {0..l} chain started at 0.

    Spectral formula for the birth-death chain of `transition_matrix`; the
    stationary part is the geometric term and the transient part is a sum
    over the l interior eigenvalues 2 sqrt(pq) cos(pi r / (l+1)).  Powers of
    q/p are taken in log space so levels up to a few hundred stay finite.
    """
    if l < 1:
        raise InvalidParameterError("l must be at least 1")
    if m < 0:
        raise InvalidParameterError("m must be nonnegative")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0,1]")
    q = 1.0 - p
    if q == 0.0:
        return 0.0
    log_r = math.log(q) - math.log(p)
    r_pow_l = math.exp(l * log_r)
    if p == q:
        stationary = r_pow_l / (l + 1)
    else:
        stationary = (1.0 - math.exp(log_r)) / (1.0 - math.exp((l + 1) * log_r)) * r_pow_l

    s = 2.0 * math.sqrt(p * q)
    rr = np.arange(1, l + 1)
    theta = np.pi * rr / (l + 1)
    eigvals = s * np.cos(theta)
    series = np.sum(np.sin(theta) * np.sin(theta * l) * eigvals**m / (1.0 - eigvals))
    transient = (2.0 * q / (l + 1)) * math.exp(0.5 * (l - 1) * log_r) * series
    return float(stationary - transient)


def hitting_prob_exact(p: float, l: int, n: int) -> float:
    """Exact probability that the walk reaches level l within n steps.

    Iterates the distribution vector of the {0..l} chain with l made
    absorbing; the absorbed mass after n steps is the first-passage
    probability.  O(n*l) time.
    """
    if l < 0:
        raise InvalidParameterError("l must be nonnegative")
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0,1]")
    if l == 0:
        return 1.0
    q = 1.0 - p
    v = np.zeros(l + 1)
    v[0] = 1.0
    for _ in range(n):
        nxt = np.zeros_like(v)
        nxt[0] = p * v[0] + (p * v[1] if l >= 2 else 0.0)
        if l >= 2:
            nxt[1 : l - 1] = q * v[0 : l - 2] + p * v[2:l]
            nxt[l - 1] = q * v[l - 2]
        nxt[l] = v[l] + q * v[l - 1]
        v = nxt
    return float(v[l])


def hitting_prob_union_sum(p: float, l: int, n: int) -> float:
    """Union-style upper bound sum_{m=l..n} P^m_{0,l} over the hold-at-l chain."""
    if l < 1:
        raise InvalidParameterError("l must be at least 1")
    if n < l:
        return 0.0
    return float(sum(feller_transition_prob(p, l, m) for m in range(l, n + 1)))


def hitting_prob_bound(p: float, l: int, n: int) -> float:
    """Closed-form upper bound on the probability of reaching level l in n steps.

    (n-l+1) * (1-(q/p)) / (1-(q/p)^{l+1}) * (q/p)^l + c * (2q)^l with
    c = 2 sqrt(pq) / (1-2 sqrt(pq))^2.  The value is a bound, not a
    probability, and may exceed 1.
    """
    if l < 1:
        raise InvalidParameterError("l must be at least 1")
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    _check_reliability(p)
    q = 1.0 - p
    if q == 0.0:
        return 0.0
    log_r = math.log(q) - math.log(p)
    r_pow_l = math.exp(l * log_r)
    first = (n - l + 1) * (1.0 - math.exp(log_r)) / (1.0 - math.exp((l + 1) * log_r)) * r_pow_l
    second = overshoot_constant(p) * math.exp(l * math.log(2.0 * q))
    return first + second


def stepsize_lower_bound(params: WalkParams, n: int) -> tuple[float, float, int]:
    """High-probability floor on the step size over the first n iterations.

    Returns (alpha_star, success_prob, level): unless the run stops earlier,
    min_{1<=k<=n} alpha_k >= alpha_star with probability at least
    success_prob, where

        alpha_star = alpha_bar * gamma * n**(-(1+omega) * log_{1/2q}(1/gamma))

    and level = ceil((1+omega) * log_{1/2q} n) is the walk level whose
    hitting within n steps is the failure event.
    """
    if n < 2:
        raise InvalidParameterError("n must be at least 2")
    _check_reliability(params.p)
    q = params.q
    if q == 0.0:
        # perfectly reliable oracles: the walk never leaves 0
        return params.alpha_bar * params.gamma, min(1.0, max(0.0, 1.0 - n**-params.omega)), 0
    log_base = math.log(1.0 / (2.0 * q))
    exponent = (1.0 + params.omega) * math.log(1.0 / params.gamma) / log_base
    alpha_star = params.alpha_bar * params.gamma * math.exp(-exponent * math.log(n))
    failure = n ** (-params.omega) + params.c * n ** (-(1.0 + params.omega))
    success_prob = min(1.0, max(0.0, 1.0 - failure))
    level = math.ceil((1.0 + params.omega) * math.log(n) / log_base)
    return alpha_star, success_prob, level


def gamma_threshold(p: float, n: int, omega: float, beta: float) -> float:
    """Smallest contraction factor guaranteeing a step-size floor of beta * alpha_bar.

    Any gamma at or above max{1/2, (1/2q)^{log(2 beta) / ((1+omega) log n)}}
    makes alpha_star(n) >= beta * alpha_bar.
    """
    if not (0.0 < beta < 0.5):
        raise InvalidParameterError(f"beta must lie in (0, 1/2), got {beta}")
    if n < 2:
        raise InvalidParameterError("n must be at least 2")
    if omega <= 0.0:
        raise InvalidParameterError("omega must be positive")
    _check_reliability(p)
    q = 1.0 - p
    if q == 0.0:
        return 0.5
    expo = math.log(2.0 * beta) / ((1.0 + omega) * math.log(n))
    return max(0.5, (1.0 / (2.0 * q)) ** expo)
