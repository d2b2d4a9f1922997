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

No Python loop runs per walk step or per level.  Simulated paths and the
coupling are one reflected cumulative sum over a boolean mask of up-moves
(`_reflected_walks`).  Ensembles are generated in blocks of bounded size,
draw each up-move from one byte of the generator's raw output with the
exact law of rng.random() < q (`_byte_moves`), and read each row's mask 16
steps at a time from a lookup table built on first use (`_walk_stats`), so
their running sums take one entry per 16 steps.  An exact hitting
probability comes from binary powering of its level's absorbing chain at
every level, its products summed over tiles of at most 64 x 64 that
OpenBLAS multiplies on one thread, so no value depends on the BLAS thread
count: O(ceil((l+1)/64)**3 * 64**3 * log n).  The union sum over steps is
the spectral formula summed in closed form.

Every power of gamma or of an eigenvalue is np.float_power, the C pow that
Python's float ** takes (numpy's array ** may run a SIMD loop that differs
in the last bit), and `_first_level` is the one monotone level search.
"""

from __future__ import annotations

import functools
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
    """The constant c = 2 sqrt(pq) / (1 - 2 sqrt(pq))**2 entering the tail bounds.

    c grows without bound as p -> 1/2; it is inf where 2 sqrt(pq) rounds to 1.
    """
    _check_reliability(p)
    q = 1.0 - p
    s = 2.0 * math.sqrt(p * q)
    return math.inf if s == 1.0 else s / (1.0 - s) ** 2


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
        if not (0.0 < self.alpha_bar < math.inf):
            raise InvalidParameterError(f"alpha_bar must be positive and finite, got {self.alpha_bar}")
        if not (0.0 < self.omega < math.inf):
            raise InvalidParameterError(f"omega must be positive and finite, got {self.omega}")

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


_BLOCK = 2**16  # walk steps per ensemble block: 64 KiB of byte draws, cache-resident


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


_CHUNK = 16  # walk steps per table lookup: one uint16 of a row's packed up-move mask


def _prefix_stats(bits: np.ndarray) -> np.ndarray:
    """(net, max prefix, min prefix, max drawup) of the +-1 walk along each row of `bits`.

    Prefixes are S_1..S_m of S_i = sum_{j<=i} (2 bits_j - 1); the drawup is
    max_{1<=j<=i<=m} S_i - S_j.  Returns an (len(bits), 4) int8 array.
    """
    s = np.cumsum(2 * bits.astype(np.int8) - 1, axis=1, dtype=np.int8)
    drawup = (s - np.minimum.accumulate(s, axis=1)).max(axis=1)
    return np.stack([s[:, -1], s.max(axis=1), s.min(axis=1), drawup], axis=1)


@functools.cache
def _chunk_table() -> np.ndarray:
    """`_prefix_stats` of every 16-step up-move mask, a (65536, 4) int8 table.

    Entry (a << 8) | b is the mask whose first 8 steps are byte a and last 8
    byte b, first step in the high bit, as np.packbits(...).view(">u2")
    reads a row.  It is composed from the 256 bytes' statistics: the
    second byte's prefixes are shifted by the first byte's net, and a
    drawup either stays inside one byte or rises from the first byte's
    lowest prefix to the second byte's highest.  Built on first use.
    """
    byte = _prefix_stats((np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1)
    (net_a, high_a, low_a, up_a), (net_b, high_b, low_b, up_b) = byte.T[:, :, None], byte.T[:, None, :]
    table = np.stack([
        net_a + net_b,
        np.maximum(high_a, net_a + high_b),
        np.minimum(low_a, net_a + low_b),
        np.maximum(np.maximum(up_a, up_b), net_a + high_b - low_a),
    ], axis=-1).reshape(-1, 4)
    table.flags.writeable = False  # shared by every later call
    return table


def _walk_stats(up: np.ndarray, z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max of Z_1..Z_n, Z_n) of the walk along each row of `up` from the (m, 1) column z0.

    The walk is that of `_reflected_walks`, Z_k = S_k - F_k with F_k the
    running minimum of -z0, S_1, .., S_k, read 16 steps at a time from
    `_chunk_table`.  Over a chunk starting from S = start after the floor
    F, the highest level is max(start + max prefix - F, max drawup) and the
    floor after it is min(F, start + min prefix), so one cumulative sum of
    the chunks' nets and one running minimum give every chunk's start and
    floor.  The last n % 16 steps go through `_reflected_walks`.  The sums
    are int32 whenever n + max(z0) < 2**30, else int64.
    """
    n = up.shape[-1]
    full = n - n % _CHUNK
    if not full:
        z = _reflected_walks(up, z0)
        return z.max(axis=1), z[:, -1]
    dtype = np.int32 if n + int(np.max(z0)) < 2**30 else np.int64
    masks = np.packbits(up[:, :full], axis=-1).view(">u2").astype(np.intp)
    net, high, low, drawup = np.moveaxis(_chunk_table().take(masks, axis=0), -1, 0)
    ends = np.cumsum(net, axis=1, dtype=dtype)
    starts = ends - net
    floor = np.empty((len(up), masks.shape[1] + 1), dtype=dtype)  # before each chunk, and after the last
    floor[:, :1] = -z0
    np.add(starts, low, out=floor[:, 1:])
    np.minimum.accumulate(floor, axis=1, out=floor)
    peaks = starts + high
    peaks -= floor[:, :-1]
    top = np.maximum(peaks.max(axis=1), drawup.max(axis=1))
    last = ends[:, -1] - floor[:, -1]
    if full < n:
        z = _reflected_walks(up[:, full:], last[:, None])
        top = np.maximum(top, z.max(axis=1))
        last = z[:, -1]
    return top, last


def simulate_walk(params: WalkParams, n: int, rng: np.random.Generator) -> WalkPath:
    """Simulate n steps of the walk from Z_0 = 0 (n uniform draws)."""
    if n < 1:
        raise InvalidParameterError("n must be a positive integer")
    return WalkPath(states=np.concatenate(([0], _reflected_walks(rng.random(n) < params.q))))


def _byte_moves(q: float, rng: np.random.Generator):
    """A function (rows, width) -> the next rows x width up-moves of probability q, one byte each.

    rng.random() < q is U < T for the top 53 bits U of one raw word and
    T = ceil(q * 2**53).  Here a uniform byte B meets T's top byte
    h = T >> 45, kept at most 255 (at q = 1 the tie takes the rest): B < h
    is up, B > h down, and a tie, with probability 1/256, compares the top
    45 bits of one raw word with r = T - h * 2**45.  So P(up) = (h * 2**45
    + r) / 2**53 = T / 2**53, the law of rng.random() < q.  Bytes are read
    in little-endian order from rng.bit_generator.random_raw and fill each
    mask in row order; leftover bytes carry to the next call, so the moves
    do not depend on how the calls cut them, and rng has advanced
    ceil(steps / 8) raw words after `steps` moves.  Tie words come from a
    second stream, rng's bit generator jumped once, which leaves rng as it
    is.
    """
    t = math.ceil(q * 2.0**53)
    head = min(t >> 45, 255)
    rest = t - (head << 45)
    bits, ties = rng.bit_generator, rng.bit_generator.jumped()
    carry = np.empty(0, dtype=np.uint8)

    def draw(rows: int, width: int) -> np.ndarray:
        nonlocal carry
        steps = rows * width
        words = bits.random_raw(-(-(steps - len(carry)) // 8))
        fresh = words.astype("<u8", copy=False).view(np.uint8)
        stream = np.concatenate((carry, fresh)) if len(carry) else fresh
        carry = stream[steps:].copy()
        moves = stream[:steps].reshape(rows, width)
        up = np.equal(moves, head)  # the tie mask's buffer then holds the moves: one temporary fewer
        tied = np.flatnonzero(up)
        np.less(moves, head, out=up)
        up.reshape(-1)[tied] = (ties.random_raw(len(tied)) >> 19) < rest
        return up

    return draw


def walk_ensemble_stats(
    p: float, n: int, reps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-path (max level, final state) over `reps` independent n-step walks.

    Memory-bounded in n and reps: walks are generated in blocks of at most
    2**16 steps and never stored whole.  A block holds whole rows when a
    row fits, else one row continued segment by segment from its last
    state.  Each step's up-move takes one byte of rng's raw output
    (`_byte_moves`), with P(up) exactly that of rng.random() < 1 - p; the
    moves fill the rows in order whatever the blocks, so the first R rows
    are the same for any reps >= R, and rng advances ceil(reps * n / 8) raw
    words; rng's bit generator must have jumped() (numpy's SFC64 has not).
    Each block's rows are read 16 steps at a time from a table built on
    the first call (`_walk_stats`), with the same maxima and finals as the
    step-by-step walk.
    """
    if not (0.0 <= p <= 1.0):
        raise InvalidParameterError("p must be a probability")
    if n < 1 or reps < 1:
        raise InvalidParameterError("n and reps must be positive")
    if not hasattr(rng.bit_generator, "jumped"):
        raise InvalidParameterError("walk ensembles need a bit generator with jumped(), such as PCG64")
    rows, width = max(1, _BLOCK // n), min(n, _BLOCK)
    max_levels = np.zeros(reps, dtype=np.int64)
    finals = np.zeros(reps, dtype=np.int64)
    moves = _byte_moves(1.0 - p, rng)
    for start in range(0, reps, rows):
        block = slice(start, min(start + rows, reps))
        top, last = max_levels[block], finals[block]  # views, filled in place
        for done in range(0, n, width):
            up = moves(len(last), min(width, n - done))
            block_top, last[:] = _walk_stats(up, last[:, None])
            np.maximum(top, block_top, out=top)
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


def _spectrum(p: float, l: int) -> tuple[float, np.ndarray, np.ndarray, float]:
    """(stationary, theta, eigvals, scale) of the {0..l} chain's spectral formula.

    P^m_{0,l} = stationary - scale * sum_r sin(theta_r) sin(l theta_r)
    eigvals_r**m / (1 - eigvals_r) over the l interior eigenvalues
    eigvals_r = 2 sqrt(pq) cos(theta_r), theta_r = pi r / (l+1).  Powers of
    q/p are taken in log space so levels up to a few hundred stay finite.
    Needs 0 < q < 1.
    """
    q = 1.0 - p
    log_r = math.log(q) - math.log(p)
    r_pow_l = math.exp(l * log_r)
    if p == q:
        stationary = r_pow_l / (l + 1)
    else:
        stationary = (1.0 - math.exp(log_r)) / (1.0 - math.exp((l + 1) * log_r)) * r_pow_l
    theta = np.pi * np.arange(1, l + 1) / (l + 1)
    eigvals = 2.0 * math.sqrt(p * q) * np.cos(theta)
    return stationary, theta, eigvals, (2.0 * q / (l + 1)) * math.exp(0.5 * (l - 1) * log_r)


def feller_transition_prob(p: float, l: int, m: int) -> float:
    """Closed-form m-step probability of being at l for the {0..l} chain started at 0.

    Spectral formula for the birth-death chain of `transition_matrix`
    (`_spectrum`): the stationary part is the geometric term and the
    transient part is a sum over the l interior eigenvalues.  The walk
    climbs at most one level per step, so for m < l the value is exactly 0.0
    rather than the formula's rounding noise.
    """
    if l < 1:
        raise InvalidParameterError("l must be at least 1")
    if m < 0:
        raise InvalidParameterError("m must be nonnegative")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0,1]")
    if p == 1.0 or m < l:
        return 0.0
    stationary, theta, eigvals, scale = _spectrum(p, l)
    series = np.sum(np.sin(theta) * np.sin(theta * l) * np.float_power(eigvals, m) / (1.0 - eigvals))
    return float(stationary - scale * series)


_TILE = 64  # the largest square side OpenBLAS multiplies on one thread (a 32 KiB matrix)


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a vector or square matrix a and a square matrix b, in tiles of at most 64 x 64.

    OpenBLAS splits a product larger than 64 x 64 x 64 over its threads,
    and the split can change the last bits with the thread count.  So a
    chain of at most 64 states takes one a @ b, and a larger one sums the
    products of its tiles in a fixed order, each small enough to run on one
    thread: no value depends on the BLAS thread count, at any size.
    """
    size = len(b)
    if size <= _TILE:
        return a @ b
    rows = a.reshape(-1, size)  # a vector is one row
    out = np.zeros(rows.shape)
    tiles = [slice(start, start + _TILE) for start in range(0, size, _TILE)]
    for i in tiles if a.ndim == 2 else tiles[:1]:
        for j in tiles:
            for k in tiles:
                out[i, j] += rows[i, k] @ b[k, j]
    return out.reshape(a.shape)


def _hitting_by_powering(p: float, l: int, n: int) -> float:
    """e_0 P**n at l for the {0..l} chain with l absorbing, by squaring over the bits of n.

    log2(n) squarings and one vector product per set bit, each a `_product`;
    every entry is nonnegative, so nothing cancels and a small probability
    keeps its relative accuracy.  The mass at l is divided by the vector's
    total, which rounding moves off 1 by a few ulps per squaring, so a
    level reached almost surely reads at most 1.0.
    """
    mat = transition_matrix(p, l)
    mat[l, l - 1], mat[l, l] = 0.0, 1.0  # l absorbing
    v = np.zeros(l + 1)
    v[0] = 1.0
    while True:
        if n & 1:
            v = _product(v, mat)
        n >>= 1
        if not n:
            return float(v[l] / v.sum())
        mat = _product(mat, mat)


def hitting_prob_exact(p: float, l: int | Sequence[int], n: int) -> float | np.ndarray:
    """Exact probability that the walk reaches level l within n steps.

    The first-passage probability is the mass absorbed at l after n steps
    of the {0..l} chain with l made absorbing.  l may be one level (a float
    is returned) or a sequence of levels (an array in the same order).  Every
    level takes one path: binary powering of its own chain, with products
    over tiles of at most 64 x 64 that OpenBLAS runs on one thread
    (`_product`), so O(ceil((l+1)/64)**3 * 64**3 * log n).  A level's value
    is the same float whichever other levels share the call, and whatever
    the BLAS thread count.  The walk moves one level per step, so a level
    above n has probability 0.0 and builds no chain.
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
    distinct, where = np.unique(levels, return_inverse=True)
    probs = (distinct == 0).astype(float)
    reachable = (distinct > 0) & (distinct <= n)
    probs[reachable] = [_hitting_by_powering(p, level, n) for level in distinct[reachable].tolist()]
    out = probs[where].reshape(levels.shape)
    return float(out) if levels.ndim == 0 else out


def hitting_prob_union_sum(p: float, l: int, n: int) -> float:
    """Union-style upper bound sum_{m=l..n} P^m_{0,l} over the hold-at-l chain, in closed form.

    The spectral formula of `feller_transition_prob` summed over m: n - l + 1
    times the stationary part, less one geometric sum over m for each of
    the l eigenvalues.
    """
    if l < 1:
        raise InvalidParameterError("l must be at least 1")
    if not (0.0 < p <= 1.0):
        raise InvalidParameterError("p must lie in (0,1]")
    if p == 1.0 or n < l:
        return 0.0
    stationary, theta, eigvals, scale = _spectrum(p, l)
    steps = n - l + 1
    sums = np.float_power(eigvals, l) * (1.0 - np.float_power(eigvals, steps)) / (1.0 - eigvals)
    series = np.sum(np.sin(theta) * np.sin(theta * l) * sums / (1.0 - eigvals))
    return float(steps * stationary - scale * series)


def hitting_prob_bound(p: float, l: int, n: int) -> float:
    """Closed-form upper bound on the probability of reaching level l in n steps.

    max(0, n-l+1) * (1-(q/p)) / (1-(q/p)^{l+1}) * (q/p)^l + c * (2q)^l with
    c = 2 sqrt(pq) / (1-2 sqrt(pq))^2; the first factor counts the steps
    m = l..n of the union sum.  The value is a bound, not a probability,
    and may exceed 1.
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
    first = max(0, n - l + 1) * (1.0 - math.exp(log_r)) / (1.0 - math.exp((l + 1) * log_r)) * r_pow_l
    second = overshoot_constant(p) * math.exp(l * math.log(2.0 * q))
    return first + second


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
    success_prob = min(1.0, max(0.0, 1.0 - _walk_failure(params, n)))
    if q == 0.0:  # perfectly reliable oracles: the walk never leaves 0
        return params.alpha_bar * params.gamma, success_prob, 0
    log_base = math.log(1.0 / (2.0 * q))
    exponent = (1.0 + params.omega) * math.log(1.0 / params.gamma) / log_base
    alpha_star = params.alpha_bar * params.gamma * math.exp(-exponent * math.log(n))
    level = math.ceil((1.0 + params.omega) * math.log(n) / log_base)
    return alpha_star, success_prob, level


def _walk_failure(params: WalkParams, n: int) -> float:
    """n^-omega + c n^-(1+omega): the chance the step-size floor fails over n iterations (c = 0 at q = 0)."""
    return n ** (-params.omega) + params.c * n ** (-(1.0 + params.omega))


def gamma_threshold(p: float, n: int, omega: float, beta: float) -> float:
    """Smallest contraction factor guaranteeing a step-size floor of beta * alpha_bar.

    Any gamma at or above max{1/2, (1/2q)^{log(2 beta) / ((1+omega) log n)}}
    makes alpha_star(n) >= beta * alpha_bar.
    """
    if not (0.0 < beta < 0.5):
        raise InvalidParameterError(f"beta must lie in (0, 1/2), got {beta}")
    if n < 2:
        raise InvalidParameterError("n must be at least 2")
    if not (0.0 < omega < math.inf):
        raise InvalidParameterError(f"omega must be positive and finite, got {omega}")
    _check_reliability(p)
    q = 1.0 - p
    if q == 0.0:
        return 0.5
    expo = math.log(2.0 * beta) / ((1.0 + omega) * math.log(n))
    return max(0.5, (1.0 / (2.0 * q)) ** expo)
