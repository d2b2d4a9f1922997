import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from adastoc import walk
from adastoc.errors import CouplingInfeasibleError, InvalidParameterError
from adastoc.framework import (
    TRACE_COLUMNS,
    AlgoConfig,
    IterationRecord,
    RunTrace,
    empirical_success_probability,
    run_adaptive,
    stopping_time,
    update_step_size,
)
from adastoc.methods import SassMethod
from adastoc.oracles import PairCorruptionOracles
from adastoc.problems import NoiseSpec, make_problem
from adastoc.walk import (
    WalkParams,
    couple_with_trace,
    feller_transition_prob,
    gamma_threshold,
    hitting_prob_bound,
    hitting_prob_exact,
    hitting_prob_union_sum,
    overshoot_constant,
    simulate_walk,
    stepsize_lower_bound,
    trace_exponents,
    transition_matrix,
    walk_ensemble_stats,
)


def test_params_validation():
    with pytest.raises(InvalidParameterError):
        WalkParams(p=1.2, gamma=0.5, alpha_bar=1.0)
    with pytest.raises(InvalidParameterError):
        WalkParams(p=0.8, gamma=1.0, alpha_bar=1.0)
    with pytest.raises(InvalidParameterError):
        WalkParams(p=0.8, gamma=0.5, alpha_bar=0.0)
    # bounds need p > 1/2 even though simulation does not
    with pytest.raises(InvalidParameterError):
        WalkParams(p=0.4, gamma=0.5, alpha_bar=1.0).c


def test_overshoot_constant_figure_value():
    # p = 0.8: sqrt(pq) = 0.4, c = 0.8 / 0.04 = 20
    assert overshoot_constant(0.8) == pytest.approx(20.0, rel=1e-12)


def test_overshoot_constant_is_inf_where_its_denominator_rounds_to_zero():
    # c -> inf as p -> 1/2; at p = 1/2 + 1e-10, 2 sqrt(pq) rounds to 1
    assert overshoot_constant(0.5000000001) == math.inf
    assert hitting_prob_bound(0.5000000001, 1, 10) == math.inf
    _, success_prob, _ = stepsize_lower_bound(WalkParams(p=0.5000000001, gamma=0.5, alpha_bar=1.0), 10)
    assert success_prob == 0.0
    # just above that, c is finite and grows as p falls toward 1/2
    assert math.isfinite(overshoot_constant(0.50000001))
    assert overshoot_constant(0.50000001) > overshoot_constant(0.5000001) > overshoot_constant(0.8)


def test_simulate_walk_degenerate_p():
    rng = np.random.default_rng(0)
    allzero = simulate_walk(WalkParams(p=1.0, gamma=0.5, alpha_bar=1.0), 50, rng)
    assert np.all(allzero.states == 0)
    ascending = simulate_walk(WalkParams(p=0.0, gamma=0.5, alpha_bar=1.0), 50, rng)
    assert np.array_equal(ascending.states, np.arange(51))


@settings(max_examples=40, deadline=None)
@given(p=st.floats(0.05, 0.95), seed=st.integers(0, 2**31), n=st.integers(1, 200))
def test_simulate_walk_path_validity(p, seed, n):
    path = simulate_walk(WalkParams(p=p, gamma=0.5, alpha_bar=1.0), n, np.random.default_rng(seed))
    z = path.states
    assert z[0] == 0
    assert (z >= 0).all()
    diffs = np.diff(z)
    assert np.isin(diffs, (-1, 0, 1)).all()
    # holds only happen at the floor
    assert (z[:-1][diffs == 0] == 0).all()


def test_walk_stationary_occupancy():
    # long-run occupancy of the reflected walk follows pi_l ~ (q/p)^l
    p = 0.8
    path = simulate_walk(WalkParams(p=p, gamma=0.5, alpha_bar=1.0), 10**6, np.random.default_rng(42))
    r = (1 - p) / p
    levels = np.arange(path.max_level + 1)
    pi = (1 - r) * r**levels
    emp = np.bincount(path.states) / len(path.states)
    tv = 0.5 * (np.abs(emp - pi).sum() + (1 - pi.sum()))
    assert tv <= 0.01


def test_walk_ensemble_matches_single_path_law():
    # fraction of paths hitting level l agrees with the exact first-passage probability
    p, n, reps = 0.8, 60, 40_000
    max_levels, finals = walk_ensemble_stats(p, n, reps, np.random.default_rng(11))
    assert max_levels.shape == (reps,) and finals.shape == (reps,)
    for level in (1, 3, 5):
        exact = hitting_prob_exact(p, level, n)
        est = np.mean(max_levels >= level)
        assert abs(est - exact) <= 4 * math.sqrt(exact * (1 - exact) / reps)


# -- coupling -----------------------------------------------------------------


def test_coupling_below_zero_runs_independently():
    # exponent sequence pinned below zero: Z consumes its own randomness and
    # reproduces simulate_walk draw for draw
    n = 300
    y = -5 + np.concatenate(([0], np.cumsum(np.resize([1, -1], n))))
    assert (y <= -1).all()
    z = couple_with_trace(y, 0.8, np.random.default_rng(123), p_prime=1.0)
    ref = simulate_walk(WalkParams(p=0.8, gamma=0.5, alpha_bar=1.0), n, np.random.default_rng(123))
    assert np.array_equal(z.states, ref.states)


def test_coupling_dominates_and_thins():
    rng = np.random.default_rng(7)
    gen = np.random.default_rng(99)
    p, p_prime = 0.8, 0.9
    for _ in range(200):
        # synthetic exponent path with per-step success probability p' >= p
        n = 80
        y = np.zeros(n + 1, dtype=np.int64)
        for k in range(n):
            y[k + 1] = y[k] - 1 if gen.random() < p_prime else y[k] + 1
        z = couple_with_trace(y, p, rng, p_prime=p_prime)
        assert (z.states >= y).all()


def test_coupling_rejects_infeasible_success_probability():
    y = np.array([0, 1, 0, 1, 2])
    with pytest.raises(CouplingInfeasibleError):
        couple_with_trace(y, 0.9, np.random.default_rng(0), p_prime=0.6)


def test_coupling_beyond_stopping_mirrors_extension():
    # after t_eps the exponent path moves with probability exactly p and Z mirrors it
    gen = np.random.default_rng(3)
    n, t_eps, p = 50, 10, 0.8
    y = np.zeros(n + 1, dtype=np.int64)
    for k in range(n):
        y[k + 1] = y[k] - 1 if gen.random() < p else y[k] + 1
    z = couple_with_trace(y, p, np.random.default_rng(1), p_prime=1.0, t_eps=t_eps)
    assert (z.states >= y).all()
    # beyond the horizon, Z moves are a deterministic function of Y moves
    for k in range(t_eps, n):
        if y[k + 1] == y[k] + 1:
            assert z.states[k + 1] == z.states[k] + 1
        else:
            assert z.states[k + 1] == max(z.states[k] - 1, 0)


# -- closed forms -------------------------------------------------------------


def test_feller_two_state_equals_q():
    for p in (0.55, 0.7, 0.8, 0.95):
        assert feller_transition_prob(p, 1, 1) == pytest.approx(1 - p, abs=1e-12)


def test_feller_unreachable_level():
    # the walk climbs one level per step: fewer steps than levels give exactly 0
    for p in (0.6, 0.8, 0.999):
        for l in range(1, 8):
            for m in range(l):
                assert feller_transition_prob(p, l, m) == 0.0


def test_feller_matches_matrix_powers_spot():
    p, l = 0.8, 5
    mat = transition_matrix(p, l)
    v = np.zeros(l + 1)
    v[0] = 1.0
    for m in range(51):
        if m >= 1:
            v = v @ mat
        if m >= 5:
            assert feller_transition_prob(p, l, m) == pytest.approx(v[l], abs=1e-12)


def test_transition_matrix_is_stochastic():
    mat = transition_matrix(0.7, 6)
    assert np.allclose(mat.sum(axis=1), 1.0)
    assert mat[6, 6] == pytest.approx(0.3)


def test_hitting_exact_edges():
    assert hitting_prob_exact(0.8, 0, 10) == 1.0
    assert hitting_prob_exact(0.8, 7, 5) == 0.0
    assert hitting_prob_exact(1.0, 3, 100) == 0.0


def test_hitting_exact_below_union_sum():
    # the first-passage probability is bounded by the occupation-sum argument
    for p in (0.6, 0.8):
        for l in (2, 4, 8):
            exact = hitting_prob_exact(p, l, 200)
            union = hitting_prob_union_sum(p, l, 200)
            assert exact <= union + 1e-12


def test_hitting_bound_worked_value():
    # p=0.8, l=10, n=100: both terms recomputed literally
    q = 0.2
    first = 91 * (1 - q / 0.8) / (1 - (q / 0.8) ** 11) * (q / 0.8) ** 10
    second = 20.0 * (2 * q) ** 10
    assert hitting_prob_bound(0.8, 10, 100) == pytest.approx(first + second, rel=1e-12)
    assert hitting_prob_bound(0.8, 10, 100) == pytest.approx(2.16e-3, rel=2e-2)


def test_hitting_bound_dominates_exact_level_one():
    for n in (1, 10, 100):
        assert hitting_prob_bound(0.8, 1, n) >= hitting_prob_exact(0.8, 1, n)


def test_hitting_bound_dominates_exact_past_the_horizon():
    # the union sum has max(0, n - l + 1) steps: no negative bound at l >= n + 2
    for p in (0.99, 0.999, 0.9999):
        for n in (1, 2, 5):
            for l in range(1, n + 6):
                assert hitting_prob_bound(p, l, n) >= hitting_prob_exact(p, l, n)


def test_hitting_bound_vanishes_as_p_to_one():
    assert hitting_prob_bound(1.0, 3, 100) == 0.0
    assert hitting_prob_bound(0.999, 5, 100) < 1e-10


def test_geometric_lower_bound():
    # reaching level l costs at least q^l (straight up immediately)
    for p in (0.6, 0.8, 0.9):
        for l in (1, 3, 7):
            assert hitting_prob_exact(p, l, 50) >= (1 - p) ** l - 1e-15


# -- step-size floor -----------------------------------------------------------


def test_stepsize_lower_bound_worked_example():
    params = WalkParams(p=0.8, gamma=0.5, alpha_bar=1.0, omega=1.0)
    alpha_star, prob, level = stepsize_lower_bound(params, 100)
    expo = 2.0 * math.log(2.0) / math.log(2.5)
    assert alpha_star == pytest.approx(0.5 * 100**-expo, rel=1e-12)
    assert alpha_star == pytest.approx(4.7e-4, rel=2e-2)
    assert prob == pytest.approx(1 - 0.01 - 20e-4, rel=1e-12)
    assert level == 11


def test_stepsize_lower_bound_perfect_reliability():
    params = WalkParams(p=1.0, gamma=0.5, alpha_bar=2.0, omega=1.0)
    alpha_star, prob, level = stepsize_lower_bound(params, 1000)
    assert alpha_star == pytest.approx(1.0)
    assert level == 0
    assert prob == pytest.approx(1 - 1e-3)


def test_stepsize_lower_bound_sqrt_n_choice():
    # gamma = (1/2q)^(-1/4) with omega = 1 gives the n^{-1/2} schedule
    g = (1 / 0.4) ** -0.25
    params = WalkParams(p=0.8, gamma=g, alpha_bar=1.0, omega=1.0)
    alpha_star, _, _ = stepsize_lower_bound(params, 100)
    assert alpha_star == pytest.approx(g / 10.0, rel=1e-12)


def test_gamma_threshold_worked_example():
    got = gamma_threshold(0.8, 10**4, 1.0, 0.25)
    expected = 2.5 ** (math.log(0.5) / (2 * math.log(10**4)))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(0.966, abs=1e-3)


def test_gamma_threshold_clamps_at_half():
    assert gamma_threshold(0.8, 100, 1.0, 1e-9) == 0.5
    with pytest.raises(InvalidParameterError):
        gamma_threshold(0.8, 100, 1.0, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    p=st.floats(0.55, 0.95),
    n=st.integers(10, 10**5),
    omega=st.floats(0.3, 2.0),
    beta=st.floats(1e-3, 0.499),
)
def test_gamma_threshold_self_consistency(p, n, omega, beta):
    gamma = gamma_threshold(p, n, omega, beta)
    params = WalkParams(p=p, gamma=gamma, alpha_bar=1.0, omega=omega)
    alpha_star, _, _ = stepsize_lower_bound(params, n)
    assert alpha_star >= beta - 1e-12


def test_floor_level_reached_within_failure_budget():
    # the fraction of walks reaching the level backing the step-size floor
    # stays below n^-omega + c*n^-(1+omega) up to Monte Carlo slack
    for p, n in ((0.7, 50), (0.8, 100), (0.9, 200)):
        params = WalkParams(p=p, gamma=0.5, alpha_bar=1.0, omega=1.0)
        _, success_prob, level = stepsize_lower_bound(params, n)
        budget = 1.0 - success_prob
        reps = 50_000
        max_levels, _ = walk_ensemble_stats(p, n, reps, np.random.default_rng(1000 + n))
        frac = float(np.mean(max_levels >= level))
        assert frac <= budget + 2.5758 * math.sqrt(budget * (1 - budget) / reps)


def _hand_trace(alpha0, alpha_max, steps):
    """A RunTrace whose records are (alpha_base, alpha_exp, success) triples, gamma = 1/2."""
    config = AlgoConfig(theta=0.1, gamma=0.5, alpha0=alpha0, alpha_max=alpha_max)
    records = [
        IterationRecord(
            k=k, alpha=base * 0.5**exp, success=success, cost0=2, cost1=1,
            true_grad_norm=1.0, true_gap=math.nan, alpha_base=base, alpha_exp=exp,
        )
        for k, (base, exp, success) in enumerate(steps)
    ]
    return RunTrace(
        records=records, stopping_iteration=None, config=config, epsilon=1e-3,
        mode="nonconvex", final_grad_norm=1.0, final_gap=math.nan, final_x=np.zeros(1),
    )


@pytest.mark.parametrize(
    "alpha0, alpha_max, steps, expected",
    [
        # capped success at alpha_max: the exponent stays
        (1.0, 1.0, [(1.0, 0, False), (1.0, 1, True), (1.0, 0, True)], [0, 1, 0, 0]),
        # capped success after a re-anchoring from alpha0 = alpha_max / 4
        (0.25, 1.0, [(0.25, 0, True), (0.25, -1, True), (1.0, 0, True)], [0, -1, -2, -2]),
        # uncapped success below a finite alpha_max
        (1.0, 1.0, [(1.0, 0, False), (1.0, 1, True)], [0, 1, 0]),
        # failure with a finite alpha_max
        (1.0, 1.0, [(1.0, 0, False), (1.0, 1, False)], [0, 1, 2]),
        # without a cap: success and failure
        (1.0, math.inf, [(1.0, 0, True), (1.0, -1, True)], [0, -1, -2]),
        (1.0, math.inf, [(1.0, 0, True), (1.0, -1, False)], [0, -1, 0]),
        (1.0, math.inf, [], [0]),
    ],
)
def test_trace_exponents_final_step_follows_the_step_size_law(alpha0, alpha_max, steps, expected):
    y = trace_exponents(_hand_trace(alpha0, alpha_max, steps), alpha0)
    assert y.tolist() == expected


# -- the vectorised kernels against the loops they replaced --------------------


def _loop_hitting_prob_exact(p, l, n):
    """Per-level recursion: the distribution of the {0..l} chain, l absorbing."""
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


def _loop_walks(up):
    """Z_0..Z_n of each row's walk along the up-move mask `up`, one step at a time."""
    m, n = up.shape
    z = np.zeros((m, n + 1), dtype=np.int64)
    for i in range(m):
        for k in range(n):
            z[i, k + 1] = z[i, k] + 1 if up[i, k] else max(z[i, k] - 1, 0)
    return z


def _loop_couple(y, p, rng, p_prime, t_eps=None):
    """Step-by-step coupling: one draw per step that needs one, in step order."""
    y = np.asarray(y, dtype=np.int64)
    n = len(y) - 1
    pp = np.broadcast_to(np.asarray(p_prime, dtype=float), (n,))
    horizon = n if t_eps is None else t_eps
    q = 1.0 - p
    z = np.zeros(n + 1, dtype=np.int64)
    for k in range(n):
        moved_up = y[k + 1] == y[k] + 1
        if k >= horizon:
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
            elif rng.random() < p / pk:
                z[k + 1] = max(z[k] - 1, 0)
            else:
                z[k + 1] = z[k] + 1
    return z


def _loop_trace_exponents(trace, alpha_bar):
    """One log per record for the grid shift, then the final step by the law."""
    gamma = trace.config.gamma
    y = np.empty(len(trace.records) + 1, dtype=np.int64)
    for i, rec in enumerate(trace.records):
        shift = math.log(rec.alpha_base / alpha_bar) / math.log(gamma)
        if abs(shift - round(shift)) > 1e-9:
            raise InvalidParameterError("off grid")
        y[i] = rec.alpha_exp + round(shift)
    if not trace.records:
        y[-1] = 0
        return y
    last = trace.records[-1]
    base, exp = update_step_size(last.alpha_base, last.alpha_exp, last.success, gamma, trace.config.alpha_max)
    if not last.success:
        y[-1] = y[-2] + 1
    else:
        y[-1] = y[-2] if (base, exp) != (last.alpha_base, last.alpha_exp - 1) else y[-2] - 1
    return y


_reliability = st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_min=True))


def _assert_is_the_loop(p, l, n, value):
    """Level 0 and a level above n are the per-level loop bit for bit; a powered level is within 1e-12."""
    loop = _loop_hitting_prob_exact(p, l, n)
    if l == 0 or l > n:
        assert value == loop
    else:
        assert value == pytest.approx(loop, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(p=_reliability, n=st.integers(1, 120), top=st.integers(0, 25), data=st.data())
def test_hitting_exact_levels_equal_the_per_level_loop(p, n, top, data):
    # every level of one call equals its own one-level call bit for bit, for
    # the full range 0..top and for shuffled subsets with repeats, and each
    # level is its per-level recursion (`_assert_is_the_loop`)
    reference = [hitting_prob_exact(p, l, n) for l in range(top + 1)]
    assert hitting_prob_exact(p, range(top + 1), n).tolist() == reference
    for l, value in enumerate(reference):
        _assert_is_the_loop(p, l, n, value)
    subset = data.draw(st.lists(st.integers(0, top), max_size=8))
    got = hitting_prob_exact(p, subset, n)
    assert got.shape == (len(subset),)
    assert got.tolist() == [reference[l] for l in subset]
    level = data.draw(st.integers(0, top))
    single = hitting_prob_exact(p, level, n)
    assert type(single) is float and single == reference[level]


@pytest.mark.parametrize("p, n", [(0.8, 1), (0.6, 7), (1.0, 4), (0.5 + 1e-9, 30)])
def test_hitting_exact_levels_above_n_are_zero_without_a_chain(p, n):
    # the walk moves one level per step: levels n+1..n+3 are 0.0, as the
    # per-level recursion gives them, and level n keeps its own value
    above = list(range(n + 1, n + 4))
    assert [hitting_prob_exact(p, l, n) for l in above] == [0.0] * 3
    assert [_loop_hitting_prob_exact(p, l, n) for l in above] == [0.0] * 3
    got = hitting_prob_exact(p, [n, *above], n)
    assert got.tolist() == [hitting_prob_exact(p, n, n), 0.0, 0.0, 0.0]
    _assert_is_the_loop(p, n, n, got[0])


def test_hitting_exact_unreachable_level_costs_nothing():
    # a chain of 10**12 states would never be allocated, let alone iterated
    got = hitting_prob_exact(0.6, [0, 3, 10**12], 5)
    assert got.tolist() == [1.0, hitting_prob_exact(0.6, 3, 5), 0.0]
    _assert_is_the_loop(0.6, 3, 5, got[1])


_PS = (0.55, 0.7, 0.8, 0.95)


def _mp_hitting(p, l, n):
    """The first-passage probability at 40 digits: the recursion of the {0..l} chain, l absorbing."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        q = 1 - p
        v = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (l - 1)  # the transient states 0..l-1
        absorbed = mpmath.mpf(0)
        for _ in range(n):
            absorbed += q * v[l - 1]
            v = [p * (v[0] + (v[1] if l > 1 else 0))] + [
                q * v[i - 1] + (p * v[i + 1] if i + 1 < l else 0) for i in range(1, l)
            ]
        return absorbed


@pytest.mark.parametrize("p", [0.55, 0.8])
@pytest.mark.parametrize("n, levels", [(40, (3, 40)), (257, (7, 23)), (300, (65, 129)), (2000, (1, 40))])
def test_hitting_paths_equal_a_40_digit_recursion(p, n, levels):
    # levels 65 and 129 are chains of two and three tiles
    for l in levels:
        ref = _mp_hitting(p, l, n)
        assert abs(hitting_prob_exact(p, l, n) - ref) <= 1e-12 * ref


def test_hitting_level_is_the_same_float_alone_and_in_a_list_across_tile_boundaries():
    # levels 60..70 and 127..130 at n = 2000 straddle the one-tile chain
    # (up to 64 states) and the two- and three-tile ones, and each is its
    # own one-level call bit for bit, in any company
    n = 2000
    levels = [*range(60, 71), *range(127, 131)]
    alone = {l: hitting_prob_exact(0.6, l, n) for l in (1, 2, *levels)}
    assert hitting_prob_exact(0.6, levels, n).tolist() == [alone[l] for l in levels]
    mixed = [70, 1, 63, 128, 64, 2, 63, 130, 127]
    assert hitting_prob_exact(0.6, mixed, n).tolist() == [alone[l] for l in mixed]


def test_hitting_at_a_long_horizon_takes_no_step_loop():
    # the 31 levels of a walk at n = 10**6 and p = 0.8, and the dip depths
    # of one near p = 1/2, are all powered
    start = time.perf_counter()
    got = hitting_prob_exact(0.8, range(1, 32), 10**6)
    deep = hitting_prob_exact(0.55, [64, 100, 263], 10**6)
    assert time.perf_counter() - start < 0.5
    for values in (got, deep):  # non-increasing in l, within rounding
        assert np.all(np.diff(values) <= 1e-12) and 0.0 < values[-1] < values[0] <= 1.0


def test_hitting_values_do_not_depend_on_the_blas_thread_count():
    # every product of a chain over 64 states is summed over tiles that
    # OpenBLAS multiplies on one thread (`_product`); levels 64-70 and 120
    # are such chains (untiled, level 120's 121 x 121 products differ in
    # the last bits between one thread and two).  Two children, one BLAS
    # thread and two, each print every value's bytes
    src = str(Path(walk.__file__).resolve().parents[1])
    code = (
        "from adastoc.walk import hitting_prob_exact\n"
        "for p, n in ((0.8, 2000), (0.55, 100003), (0.6, 12345)):\n"
        "    print(hitting_prob_exact(p, [*range(1, 71), 120], n).tobytes().hex())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], env=dict(env, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for threads in ("1", "2")
    ]
    assert len(outs[0].split()) == 3 and outs[0] == outs[1]


def test_product_is_matmul_up_to_one_tile_and_within_rounding_above():
    # on random row-stochastic matrices: up to 64 states a product is a @ b
    # itself, bit for bit; above, its tile sums move only the last bits
    rng = np.random.default_rng(31)
    for size in range(1, 201):
        a, b = (m / m.sum(axis=1, keepdims=True) for m in rng.random((2, size, size)))
        for left in (a, a[0]):
            got, ref = walk._product(left, b), left @ b
            assert got.shape == ref.shape
            if size <= 64:
                assert got.tobytes() == ref.tobytes()
            else:
                assert np.all(np.abs(got - ref) <= 1e-13 * ref)


def test_tiled_hitting_values_do_not_depend_on_the_blas_thread_count():
    # chains of three to five tiles, under one BLAS thread and four; untiled,
    # level 129 at (0.6, 12345) differs in its last bits between the two
    # (2 vCPU, OpenBLAS 0.3.31)
    src = str(Path(walk.__file__).resolve().parents[1])
    code = (
        "from adastoc.walk import hitting_prob_exact\n"
        "for p in (0.55, 0.6):\n"
        "    print(hitting_prob_exact(p, [129, 200, 263], 12345).tobytes().hex())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outs = [
        subprocess.run(
            [sys.executable, "-c", code], env=dict(env, OPENBLAS_NUM_THREADS=threads),
            capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        for threads in ("1", "4")
    ]
    assert len(outs[0].split()) == 2 and outs[0] == outs[1]


def test_union_sum_closed_form_equals_the_per_step_sum():
    # 1e-12 relative, or 1e-15 absolute where n is within a few dozen steps
    # of l: there the spectral formula's stationary and transient parts
    # cancel, and both forms lose digits (the per-step sum is 2.5e-8 off a
    # 40-digit value at p = 0.95, l = n = 30)
    for p in _PS:
        for l in (1, 2, 5, 13, 30):
            for n in sorted({l, l + 1, l + 6, 3 * l + 5, 200, *((2000,) if l in (1, 30) else ())}):
                per_step = sum(feller_transition_prob(p, l, m) for m in range(l, n + 1))
                assert hitting_prob_union_sum(p, l, n) == pytest.approx(per_step, rel=1e-12, abs=1e-15)
    assert hitting_prob_union_sum(0.8, 5, 4) == 0.0
    assert hitting_prob_union_sum(1.0, 5, 40) == 0.0


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(0.55, 0.99),
    gamma=st.floats(0.05, 0.95),
    omega=st.floats(0.05, 3.0),
    n=st.integers(2, 300),
    alpha_bar=st.floats(1e-3, 1e3),
)
def test_dip_is_passing_one_level_above_the_floor_level(p, gamma, omega, n, alpha_bar):
    # alpha_bar * gamma**M < alpha_star exactly when M >= level + 1: with
    # x = (1+omega) log n / log(1/2q), alpha_star = alpha_bar * gamma**(1+x)
    # and level = ceil(x).  Where x lies within 1e-9 of an integer the two
    # sides sit a rounding error apart (a dip needs M >= x + 2 at integer
    # x), so those parameters are skipped.  alpha_star must stay a normal
    # double, or the float comparison underflows to 0 < 0.
    params = WalkParams(p=p, gamma=gamma, alpha_bar=alpha_bar, omega=omega)
    alpha_star, _, level = stepsize_lower_bound(params, n)
    x = (1.0 + omega) * math.log(n) / math.log(1.0 / (2.0 * (1.0 - p)))
    assume(abs(x - round(x)) > 1e-9)
    assume(alpha_star > 1e-300)
    depths = np.arange(n + 2)
    dips = alpha_bar * np.float_power(gamma, depths) < alpha_star
    assert np.array_equal(dips, depths >= level + 1)


def test_hitting_exact_rejects_bad_levels():
    for bad in (-1, [3, -2], [1.5], [[1, 2]]):
        with pytest.raises(InvalidParameterError):
            hitting_prob_exact(0.8, bad, 10)


@settings(max_examples=100, deadline=None)
@given(
    q=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    m=st.integers(1, 5),
    n=st.one_of(  # below 16, and one step either side of a multiple of 16
        st.integers(1, 40), st.builds(lambda j, d: 16 * j + d, st.integers(1, 8), st.integers(-1, 1))
    ),
    block=st.sampled_from([1, 2, 3, 7, 15, 16, 17, 33, 48, 64, 2**16]),
    seed=st.integers(0, 2**31),
)
def test_walk_kernel_equals_the_step_loop(q, m, n, block, seed):
    # ensemble maxima and finals match a step-by-step walk on the byte moves
    # of m x n steps, however the ensemble is cut into blocks and the blocks
    # into 16-step chunks and a tail; the generator ends ceil(m * n / 8) raw
    # words on, and the m rows are the first of a larger ensemble.  Paths
    # match the step-by-step walk on the draws rng.random(n).
    p = 1.0 - q
    z = _loop_walks(walk._byte_moves(1.0 - p, np.random.default_rng(seed))(m, n))
    rng = np.random.default_rng(seed)
    with mock.patch.object(walk, "_BLOCK", block):
        max_levels, finals = walk_ensemble_stats(p, n, m, rng)
        more_levels, more_finals = walk_ensemble_stats(p, n, m + 3, np.random.default_rng(seed))
    assert max_levels.tolist() == z.max(axis=1).tolist()
    assert finals.tolist() == z[:, -1].tolist()
    ref = np.random.default_rng(seed)
    ref.bit_generator.random_raw(-(-m * n // 8))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert more_levels[:m].tolist() == max_levels.tolist()
    assert more_finals[:m].tolist() == finals.tolist()
    rng = np.random.default_rng(seed)
    path = simulate_walk(WalkParams(p=p, gamma=0.5, alpha_bar=1.0), n, rng)
    assert path.states.tolist() == _loop_walks(np.random.default_rng(seed).random((1, n)) < q)[0].tolist()
    assert rng.random() == np.random.default_rng(seed).random(n + 1)[-1]


def test_byte_moves_have_the_law_of_a_uniform_below_q():
    # P(up) = ceil(q * 2**53) / 2**53, the law of rng.random() < q, by
    # two-sided exact binomial tests at a family-wise level of 1e-6
    # (Bonferroni over the five tests); 2**22 steps per q
    steps, level = 2**22, 1e-6 / 5
    assert not walk._byte_moves(0.0, np.random.default_rng(0))(1, steps).any()
    assert walk._byte_moves(1.0, np.random.default_rng(0))(1, steps).all()
    q_low_bits = 0.3  # T's low 45 bits are nonzero, so the ties decide some steps
    assert math.ceil(q_low_bits * 2.0**53) % 2**45
    q_half = (77 + 0.5) / 256  # T = 77 * 2**45 + 2**44: a tie byte 77 is up with probability 1/2
    for seed, q in enumerate((0.2, 0.45, q_low_bits, q_half)):
        up = walk._byte_moves(q, np.random.default_rng(seed))(1, steps)[0]
        law = math.ceil(q * 2.0**53) / 2.0**53
        assert stats.binomtest(int(up.sum()), steps, law).pvalue >= level
    # at the loop's last q, q_half, a byte below or above 77 decides; among the ties, half go up
    moves = np.random.default_rng(seed).bit_generator.random_raw(steps // 8).astype("<u8").view(np.uint8)
    tied = moves == 77
    assert np.array_equal(up[~tied], moves[~tied] < 77)
    assert stats.binomtest(int(up[tied].sum()), int(tied.sum()), 0.5).pvalue >= level


@settings(max_examples=80, deadline=None)
@given(
    p=_reliability,
    y0=st.integers(-3, 0),
    moves=st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=60),
    p_prime=st.one_of(st.floats(0.4, 1.0), st.lists(st.floats(0.4, 1.0), min_size=60, max_size=60)),
    t_eps=st.one_of(st.none(), st.integers(-1, 62)),
    seed=st.integers(0, 2**31),
)
def test_coupling_equals_the_step_loop(p, y0, moves, p_prime, t_eps, seed):
    # same path and same generator state afterwards; an infeasible step is
    # refused with the same message
    y = y0 + np.concatenate(([0], np.cumsum(moves)))
    pp = p_prime if isinstance(p_prime, float) else np.array(p_prime[: len(moves)])
    ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    try:
        expected = _loop_couple(y, p, ref_rng, pp, t_eps)
    except CouplingInfeasibleError as exc:
        with pytest.raises(CouplingInfeasibleError) as got:
            couple_with_trace(y, p, rng, pp, t_eps)
        assert str(got.value) == str(exc)
        return
    assert couple_with_trace(y, p, rng, pp, t_eps).states.tolist() == expected.tolist()
    assert rng.random() == ref_rng.random()


@settings(max_examples=60, deadline=None)
@given(
    lift=st.integers(0, 3),
    alpha_max=st.sampled_from([1.0, math.inf]),
    outcomes=st.lists(st.booleans(), max_size=40),
    anchor=st.sampled_from([0, 1, -2]),
)
def test_trace_exponents_equal_the_record_loop(lift, alpha_max, outcomes, anchor):
    # records follow the step-size law from alpha0 = 2**-lift, so the cap can
    # re-anchor them at alpha_max; the exponents of both anchors agree
    alpha0, steps, base, exp = 0.5**lift, [], 0.5**lift, 0
    for success in outcomes:
        steps.append((base, exp, success))
        base, exp = update_step_size(base, exp, success, 0.5, alpha_max)
    trace = _hand_trace(alpha0, alpha_max, steps)
    alpha_bar = alpha0 * 0.5**anchor
    assert trace_exponents(trace, alpha_bar).tolist() == _loop_trace_exponents(trace, alpha_bar).tolist()
    if steps:
        with pytest.raises(InvalidParameterError):
            trace_exponents(trace, alpha0 * 0.7)


def _brute_prefix_stats(bits):
    """(net, max prefix, min prefix, max drawup) of each row's walk, by an int64 double loop."""
    s = np.cumsum(2 * bits.astype(np.int64) - 1, axis=1)
    drawup = np.zeros(len(s), dtype=np.int64)
    for i in range(s.shape[1]):
        for j in range(i + 1):
            np.maximum(drawup, s[:, i] - s[:, j], out=drawup)
    return np.stack([s[:, -1], s.max(axis=1), s.min(axis=1), drawup], axis=1)


def _mask_bits(width):
    """Every width-bit mask as a row of bits, first step in the high bit."""
    return (np.arange(2**width)[:, None] >> np.arange(width - 1, -1, -1)) & 1


def test_chunk_table_holds_the_prefix_statistics_of_every_16_step_mask():
    # the table composed from bytes equals the statistics of all 65,536
    # masks taken whole, in the order packbits(...).view(">u2") indexes it
    bits = _mask_bits(16)
    table = walk._chunk_table()
    assert table.dtype == np.int8 and table.shape == (2**16, 4)
    assert np.array_equal(table, _brute_prefix_stats(bits))
    assert np.array_equal(walk._prefix_stats(_mask_bits(8)), _brute_prefix_stats(_mask_bits(8)))
    rows = np.packbits(bits.astype(bool), axis=-1).view(">u2")[:, 0]
    assert np.array_equal(rows, np.arange(2**16))
    assert not table.flags.writeable


def test_chunk_table_is_not_built_at_import():
    src = str(Path(walk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import adastoc, adastoc.cli, adastoc.walk as w; print(w._chunk_table.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("start", [0, 5, 2**30 - 40, 2**31])
def test_chunked_walk_stats_equal_the_reflected_walk(start):
    # maxima and finals from the table equal the reflected walk's, from
    # starts that keep the sums int32 and from starts that need int64
    rng = np.random.default_rng(start % 1000)
    for n in (1, 15, 16, 17, 40, 48, 1000):
        up = rng.random((6, n)) < np.array([0.0, 1.0, 0.5, 0.3, 0.7, 0.5])[:, None]
        z0 = start + rng.integers(0, 4, (6, 1))
        top, last = walk._walk_stats(up, z0)
        z = walk._reflected_walks(up, z0)
        assert top.tolist() == z.max(axis=1).tolist()
        assert last.tolist() == z[:, -1].tolist()


def test_walk_ensemble_refuses_a_bit_generator_without_a_second_stream():
    with pytest.raises(InvalidParameterError, match="jumped"):
        walk_ensemble_stats(0.8, 10, 10, np.random.Generator(np.random.SFC64(0)))


def test_walk_ensemble_memory_is_bounded_in_n_and_reps():
    # 5000 x 1000 steps would be 40 MB of uniform draws at once
    tracemalloc.start()
    try:
        walk_ensemble_stats(0.8, 5000, 1000, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# -- trace columns against the per-record definitions they replaced ------------


def _record_toc(trace):
    records = trace.records
    return sum(rec.cost0 for rec in records), sum(rec.cost1 for rec in records), len(records)


def _record_stopping_time(trace, epsilon, mode):
    if mode == "nonconvex":
        measures, final = [rec.true_grad_norm for rec in trace.records], trace.final_grad_norm
    else:
        measures, final = [rec.true_gap for rec in trace.records], trace.final_gap
    for k, m in enumerate(measures):
        if m <= epsilon:
            return k
    return len(measures) if final <= epsilon else None


def _record_success_probability(traces, alpha_bar):
    successes = count = 0
    for trace in traces:
        for rec in trace.records:
            if rec.alpha <= alpha_bar * (1.0 + 1e-12):
                count += 1
                successes += rec.success
    return (None, 0) if count == 0 else (successes / count, count)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    headroom=st.sampled_from([1.0, 8.0, 3.0, math.inf]),
    iterations=st.integers(1, 150),
    epsilon=st.sampled_from([1e-12, 0.3]),
    start=st.sampled_from([(2.0, 0.0), (0.0, 0.0), (0.4, -0.2)]),
)
def test_trace_columns_round_trip_and_match_the_record_loops(
    seed, headroom, iterations, epsilon, start
):
    # headroom 8 re-anchors on the grid of alpha0 (gamma = 1/2), 3 off it
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    cfg = AlgoConfig(theta=0.1, gamma=0.5, alpha0=0.05, alpha_max=0.05 * headroom, max_iterations=iterations)
    trace = run_adaptive(
        prob, SassMethod(), PairCorruptionOracles(0.2, 0.2), cfg, epsilon, x0=np.array(start), seed=seed
    )
    records = trace.records
    rebuilt = RunTrace(
        records=records, stopping_iteration=trace.stopping_iteration, config=cfg, epsilon=epsilon,
        mode="nonconvex", final_grad_norm=trace.final_grad_norm, final_gap=trace.final_gap,
        final_x=trace.final_x,
    )
    assert rebuilt.records == records
    for name in TRACE_COLUMNS:
        a, b = getattr(trace, name), getattr(rebuilt, name)
        assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
    assert all(type(c) is int for c in trace.cost0.tolist() + trace.cost1.tolist())
    for t in (trace, rebuilt):
        assert (sum(t.cost0.tolist()), sum(t.cost1.tolist()), len(t.cost0)) == _record_toc(t)
        for mode in ("nonconvex", "strongly_convex"):
            for eps in {epsilon, 0.05, 1.0, *t.true_grad_norm[:3].tolist()} - {0.0}:
                assert stopping_time(t, eps, mode) == _record_stopping_time(t, eps, mode)
        for alpha_bar in (0.05, 0.025, 0.4):
            assert empirical_success_probability([t, t], alpha_bar) == _record_success_probability([t, t], alpha_bar)
        for alpha_bar in (0.05, 0.2):
            try:
                expected = _loop_trace_exponents(t, alpha_bar)
            except InvalidParameterError:
                with pytest.raises(InvalidParameterError):
                    trace_exponents(t, alpha_bar)
                continue
            assert trace_exponents(t, alpha_bar).tolist() == expected.tolist()
