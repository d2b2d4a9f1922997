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

No Python loop runs per walk step or per level.  Simulated paths, the
ensemble statistics and the coupling are one reflected cumulative sum over
a boolean mask of up-moves (`_reflected_walks`); ensembles are generated in
blocks of bounded size.  Exact hitting probabilities for any set of levels
come from one O(n * sum(l)) recursion over all their chains at once.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
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


_BLOCK = 2**16  # walk steps per ensemble block: 512 KiB of uniform draws, cache-resident


def _reflected_walks(up: np.ndarray, z0: int | np.ndarray = 0) -> np.ndarray:
    """Z_1..Z_n of the walk from Z_0 = z0 along each row of the up-move mask `up`.

    Uses the reflection identity Z_k = S_k - min(min_{j<=k} S_j, -z0)
    (S_0 = 0) for the unrestricted +-1 walk S, which reproduces the
    hold-at-zero dynamics exactly and vectorizes; S_k = 2 U_k - k with U_k
    the count of up-moves.  z0 is a scalar or an (m, 1) column of
    nonnegative starts.  The result is int32 whenever every value fits,
    else int64.
    """
    n = up.shape[-1]
    peak = n + int(np.max(z0))
    s = np.cumsum(up, axis=-1, dtype=np.int32 if peak < 2**30 else np.int64)
    s *= 2
    s -= np.arange(1, n + 1, dtype=s.dtype)
    floor = np.minimum.accumulate(s, axis=-1)
    np.minimum(floor, -np.asarray(z0, dtype=s.dtype), out=floor)
    s -= floor
    return s


def simulate_walk(params: WalkParams, n: int, rng: np.random.Generator) -> WalkPath:
    """Simulate n steps of the walk from Z_0 = 0 (n uniform draws)."""
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    return WalkPath(states=np.concatenate(([0], _reflected_walks(rng.random(n) < params.q))))


def walk_ensemble_stats(
    p: float, n: int, reps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (max level, final state) over `reps` independent n-step walks.

    Memory-bounded in n and reps: walks are generated in blocks of at most
    2**16 steps and never stored whole.  A block holds whole rows when a
    row fits, else one row continued segment by segment from its last
    state; either way the draws are those of rng.random((reps, n)).
    """
    if not (0.0 <= p <= 1.0):
        raise InvalidParameterError("p must be a probability")
    if n < 1 or reps < 1:
        raise InvalidParameterError("n and reps must be positive")
    rows, width = max(1, _BLOCK // n), min(n, _BLOCK)
    max_levels = np.zeros(reps, dtype=np.int64)
    finals = np.zeros(reps, dtype=np.int64)
    for start in range(0, reps, rows):
        block = slice(start, min(start + rows, reps))
        top, last = max_levels[block], finals[block]  # views, filled in place
        for done in range(0, n, width):
            up = rng.random((len(last), min(width, n - done))) < 1.0 - p
            z = _reflected_walks(up, last[:, None])
            np.maximum(top, z.max(axis=1), out=top)
            last[:] = z[:, -1]
    return max_levels, finals


def trace_exponents(trace, alpha_bar: float) -> np.ndarray:
    """Exponent sequence Y_0..Y_T with alpha_k = alpha_bar * gamma**Y_k.

    Requires every recorded step size to sit on the geometric grid anchored
    at alpha_bar, which holds whenever alpha_bar is alpha0 times an integer
    power of gamma and the run never hit the alpha_max cap.
    """
    gamma = trace.config.gamma
    log_gamma = math.log(gamma)
    bases, which = np.unique(trace.alpha_base, return_inverse=True)
    shifts = np.empty(len(bases), dtype=np.int64)
    for j, base in enumerate(bases.tolist()):  # alpha0, and alpha_max once the cap re-anchors
        shift = math.log(base / alpha_bar) / log_gamma
        shifts[j] = round(shift)
        if abs(shift - shifts[j]) > 1e-9:
            raise InvalidParameterError(
                "trace step sizes do not sit on the geometric grid anchored at alpha_bar"
            )
    y = np.empty(len(trace.alpha_exp) + 1, dtype=np.int64)
    y[:-1] = trace.alpha_exp + shifts[which]
    if len(trace.alpha_exp):
        last_base, last_exp = trace.alpha_base[-1].item(), trace.alpha_exp[-1].item()
        success = trace.success[-1].item()
        base, exp = update_step_size(last_base, last_exp, success, gamma, trace.config.alpha_max)
        if not success:
            y[-1] = y[-2] + 1
        else:  # a success that the alpha_max cap re-anchors keeps the exponent
            capped = (base, exp) != (last_base, last_exp - 1)
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
    every index.  A step that needs thinning with p_prime below p raises
    CouplingInfeasibleError before anything is drawn; otherwise one
    rng.random call draws, in step order, for every step that needs a draw.
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
    moved_up = y[1:] == y[:-1] + 1
    live = np.arange(n) < horizon  # beyond the stopping time Z mirrors Y
    below = live & (y[:-1] <= -1)  # Z advances on its own draw
    thinned = live & ~below  # Z thins Y's successes at rate p / p'_k
    infeasible = np.flatnonzero(thinned & (pp < p))
    if len(infeasible):
        k = infeasible[0]
        raise CouplingInfeasibleError(
            f"success probability {pp[k]} at step {k} is below the assumed level {p}"
        )
    thinned &= ~moved_up
    drawn = below | thinned
    u = rng.random(int(np.count_nonzero(drawn)))
    up = moved_up.copy()
    up[below] = u[below[drawn]] < 1.0 - p
    up[thinned] = ~(u[thinned[drawn]] < p / pp[thinned])
    return WalkPath(states=np.concatenate(([0], _reflected_walks(up))))


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


def hitting_prob_exact(p: float, l: int | Sequence[int], n: int) -> float | np.ndarray:
    """Exact probability that the walk reaches level l within n steps.

    Iterates the distribution over the transient states 0..l-1 of the
    {0..l} chain with l made absorbing; the absorbed mass after n steps is
    the first-passage probability.  l may be one level (a float is
    returned) or a sequence of levels (an array in the same order): the
    chains of all distinct levels lie end to end in one vector and advance
    together, so one O(n * sum(l)) recursion serves every level.
    """
    levels = np.asarray(l)
    if levels.ndim > 1 or (levels.size and levels.dtype.kind not in "iu"):
        raise InvalidParameterError("l must be an integer level or a sequence of them")
    levels = levels.astype(np.int64)  # an empty sequence arrives as floats
    if np.any(levels < 0):
        raise InvalidParameterError("l must be nonnegative")
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0,1]")
    q = 1.0 - p
    distinct, where = np.unique(levels, return_inverse=True)
    chains = distinct[distinct > 0]
    ends = np.cumsum(chains)  # chain j holds states ends[j] - chains[j] .. ends[j] - 1
    size = int(chains.sum())
    first, last = ends - chains, ends - 1
    # state i takes coef[i] * v[below[i]] + p * v[above[i]]: q from the state
    # below, or p from itself at a chain's state 0; index `size` is a zero
    below = np.arange(-1, size - 1)
    below[first] = first
    coef = np.full(size, q)
    coef[first] = p
    above = np.arange(1, size + 1)
    above[last] = size
    v, nxt = np.zeros(size + 1), np.zeros(size + 1)
    v[first] = 1.0
    absorbed = np.zeros(len(chains))
    step, gained = np.empty(size), np.empty(len(chains))
    for _ in range(n if size else 0):
        np.multiply(q, v[last], out=gained)
        absorbed += gained
        np.multiply(coef, v[below], out=nxt[:size])
        np.multiply(p, v[above], out=step)
        nxt[:size] += step
        v, nxt = nxt, v
    probs = np.ones(len(distinct))
    probs[distinct > 0] = absorbed
    out = probs[where].reshape(levels.shape)
    return float(out) if levels.ndim == 0 else out


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
