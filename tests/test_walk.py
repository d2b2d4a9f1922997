import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adastoc import walk
from adastoc.complexity import TocRecord, accumulate_toc
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
    assert feller_transition_prob(0.8, 3, 2) == pytest.approx(0.0, abs=1e-12)


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


def _loop_walks(q, m, n, rng):
    """Z_0..Z_n of m walks, one step at a time, on the draws rng.random((m, n))."""
    u = rng.random((m, n))
    z = np.zeros((m, n + 1), dtype=np.int64)
    for i in range(m):
        for k in range(n):
            z[i, k + 1] = z[i, k] + 1 if u[i, k] < q else max(z[i, k] - 1, 0)
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


@settings(max_examples=60, deadline=None)
@given(p=_reliability, n=st.integers(1, 120), top=st.integers(0, 25), data=st.data())
def test_hitting_exact_levels_equal_the_per_level_loop(p, n, top, data):
    # every level of one call equals its own per-level recursion bit for bit,
    # for the full range 0..top and for shuffled subsets with repeats
    reference = [_loop_hitting_prob_exact(p, l, n) for l in range(top + 1)]
    assert hitting_prob_exact(p, range(top + 1), n).tolist() == reference
    subset = data.draw(st.lists(st.integers(0, top), max_size=8))
    got = hitting_prob_exact(p, subset, n)
    assert got.shape == (len(subset),)
    assert got.tolist() == [reference[l] for l in subset]
    level = data.draw(st.integers(0, top))
    single = hitting_prob_exact(p, level, n)
    assert type(single) is float and single == reference[level]


def test_hitting_exact_rejects_bad_levels():
    for bad in (-1, [3, -2], [1.5], [[1, 2]]):
        with pytest.raises(InvalidParameterError):
            hitting_prob_exact(0.8, bad, 10)


@settings(max_examples=60, deadline=None)
@given(
    q=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
    m=st.integers(1, 5),
    n=st.integers(1, 40),
    block=st.sampled_from([1, 2, 3, 7, 64, 2**16]),
    seed=st.integers(0, 2**31),
)
def test_walk_kernel_equals_the_step_loop(q, m, n, block, seed):
    # paths, ensemble maxima and finals match a step-by-step walk on the same
    # draws, however the ensemble is cut into blocks, and leave the generator
    # where rng.random((m, n)) leaves it
    ref_rng = np.random.default_rng(seed)
    z = _loop_walks(q, m, n, ref_rng)
    after = ref_rng.random()
    rng = np.random.default_rng(seed)
    with mock.patch.object(walk, "_BLOCK", block):
        max_levels, finals = walk_ensemble_stats(1.0 - q, n, m, rng)
    assert max_levels.tolist() == z.max(axis=1).tolist()
    assert finals.tolist() == z[:, -1].tolist()
    assert rng.random() == after
    rng = np.random.default_rng(seed)
    path = simulate_walk(WalkParams(p=1.0 - q, gamma=0.5, alpha_bar=1.0), n, rng)
    assert path.states.tolist() == _loop_walks(q, 1, n, np.random.default_rng(seed))[0].tolist()
    assert rng.random() == np.random.default_rng(seed).random(n + 1)[-1]


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


def _record_toc(trace, horizon=None):
    records = trace.records if horizon is None else trace.records[:horizon]
    toc0 = sum(rec.cost0 for rec in records)
    toc1 = sum(rec.cost1 for rec in records)
    stopped = trace.stopping_iteration is not None and (
        horizon is None or trace.stopping_iteration <= horizon
    )
    return TocRecord(toc0=toc0, toc1=toc1, toc=toc0 + toc1, iterations_used=len(records), stopped=stopped)


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
    horizon=st.integers(0, 200),
)
def test_trace_columns_round_trip_and_match_the_record_loops(
    seed, headroom, iterations, epsilon, start, horizon
):
    # headroom 8 re-anchors on the grid of alpha0 (gamma = 1/2), 3 off it
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    cfg = AlgoConfig(theta=0.1, gamma=0.5, alpha0=0.05, alpha_max=0.05 * headroom,
                     seed=seed, max_iterations=iterations)
    trace = run_adaptive(prob, SassMethod(), PairCorruptionOracles(0.2, 0.2), cfg, epsilon, x0=np.array(start))
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
        for h in (None, 0, horizon):
            assert accumulate_toc(t, h) == _record_toc(t, h)
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
