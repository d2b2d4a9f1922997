import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adastoc.complexity import accumulate_toc, monte_carlo_toc
from adastoc.errors import (
    ConfigurationError,
    InvalidParameterError,
    MissingGroundTruthError,
    NumericError,
)
from adastoc.framework import (
    TRACE_CSV_HEADER,
    _StepSizes,
    AlgoConfig,
    IterationRecord,
    RunTrace,
    derive_seeds,
    empirical_success_probability,
    run_adaptive,
    run_lockstep,
    stopping_time,
    update_step_size,
)
from adastoc.methods import SassMethod, StormMethod
from adastoc.oracles import (
    ExactOracles,
    PairCorruptionOracles,
    StormMinibatchOracles,
    StormOracleSpec,
    storm_cost_models,
)
from adastoc.problems import NoiseSpec, make_problem
from adastoc.tableio import format_row


def _config(**kw):
    base = dict(theta=0.1, gamma=0.5, alpha0=1.0, alpha_max=1.0, r=0.0)
    base.update(kw)
    return AlgoConfig(**base)


def _trace_from_measures(grad_norms, gaps=None, final_grad=math.inf, final_gap=math.inf):
    gaps = gaps if gaps is not None else [math.nan] * len(grad_norms)
    records = [
        IterationRecord(
            k=k, alpha=1.0, success=True, cost0=1, cost1=1,
            true_grad_norm=gn, true_gap=gp, alpha_base=1.0, alpha_exp=0,
        )
        for k, (gn, gp) in enumerate(zip(grad_norms, gaps))
    ]
    return RunTrace(
        records=records, stopping_iteration=None, config=_config(), epsilon=1e-9,
        mode="nonconvex", final_grad_norm=final_grad, final_gap=final_gap,
        final_x=np.zeros(1),
    )


def test_config_validation():
    for bad in (
        dict(theta=0.0), dict(theta=1.0), dict(gamma=0.0), dict(gamma=1.0),
        dict(alpha0=2.0, alpha_max=1.0), dict(alpha0=0.0), dict(r=-1.0),
        dict(theta2=-0.1), dict(max_iterations=0),
    ):
        with pytest.raises(InvalidParameterError):
            _config(**bad)


def test_update_step_size_worked_values():
    assert update_step_size(1.0, 0, True, 0.5, 10.0) == (1.0, -1)  # alpha 1 -> 2
    assert update_step_size(8.0, 0, True, 0.5, 10.0) == (10.0, 0)  # 16 would overshoot
    assert update_step_size(1.0, 0, False, 0.5, 10.0) == (1.0, 1)  # alpha 1 -> 0.5


def test_update_step_size_validation():
    with pytest.raises(InvalidParameterError):
        update_step_size(0.0, 0, True, 0.5, 1.0)
    with pytest.raises(InvalidParameterError):
        update_step_size(1.0, 0, True, 1.5, 10.0)
    with pytest.raises(InvalidParameterError):
        update_step_size(2.0, 0, True, 0.5, 1.0)


@settings(max_examples=150, deadline=None)
@given(
    base=st.floats(1e-8, 1e3),
    exp=st.integers(-20, 20),
    success=st.booleans(),
    gamma=st.floats(0.01, 0.99),
    headroom=st.floats(1.0, 1e3),
)
def test_update_step_size_two_outcome_law(base, exp, success, gamma, headroom):
    alpha = base * gamma**exp
    alpha_max = alpha * headroom
    new_base, new_exp = update_step_size(base, exp, success, gamma, alpha_max)
    if not success:
        assert (new_base, new_exp) == (base, exp + 1)
    elif base * gamma ** (exp - 1) > alpha_max:
        assert (new_base, new_exp) == (alpha_max, 0)
    else:
        assert (new_base, new_exp) == (base, exp - 1)
    assert new_base * gamma**new_exp <= alpha_max


def _python_law(base, exp, success, gamma, alpha_max):
    """The two-outcome law in Python floats alone: a reference independent of the array form."""
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


@settings(max_examples=300, deadline=None)
@given(
    base=st.floats(1e-12, 1e12),
    exp=st.integers(-200, 200),  # gamma**(exp - 1) stays finite for gamma >= 0.05
    success=st.booleans(),
    gamma=st.floats(0.05, 0.9999),
    alpha_max=st.sampled_from([1.0, 3.7, 1e3, math.inf]),
)
def test_update_step_size_is_the_python_float_law(base, exp, success, gamma, alpha_max):
    try:
        expected = _python_law(base, exp, success, gamma, alpha_max)
    except InvalidParameterError:
        with pytest.raises(InvalidParameterError):
            update_step_size(base, exp, success, gamma, alpha_max)
        return
    new_base, new_exp = update_step_size(base, exp, success, gamma, alpha_max)
    assert (new_base, new_exp) == expected
    assert (type(new_base), type(new_exp)) == (float, int)


@settings(max_examples=200, deadline=None)
@given(
    gamma=st.floats(0.05, 0.9999),
    alpha_max=st.sampled_from([1.0, 3.7, 1e3, math.inf]),
    ratio=st.floats(1.0, 1e20),
    on_grid=st.booleans(),
    outcomes=st.lists(st.booleans(), max_size=200),  # 200 successes from 1e-20 stay finite
)
@example(gamma=0.5, alpha_max=1e3, ratio=1e20, on_grid=False, outcomes=[True] * 80 + [False, True] * 3)
def test_step_size_table_walks_the_python_float_law(gamma, alpha_max, ratio, on_grid, outcomes):
    # alpha_max / alpha0 = ratio off alpha_max's grid, or the nearest grid
    # point below it; every slot a row visits holds the reference's state
    top = alpha_max if math.isfinite(alpha_max) else 1.0
    alpha0 = top * gamma ** math.floor(math.log(ratio) / -math.log(gamma)) if on_grid else top / ratio
    config = _config(gamma=gamma, alpha0=alpha0, alpha_max=alpha_max)
    sizes = _StepSizes(config, ExactOracles().cost_models(None))
    state = np.zeros(1, dtype=np.intp)
    base, exp = alpha0, 0
    for k, success in enumerate([*outcomes, None]):
        if k >= sizes.valid_until:
            sizes.cover(state, k)
        slot = state[0]
        assert (sizes.alpha[slot], sizes.base[slot], sizes.exp[slot]) == (base * gamma**exp, base, exp)
        if success is not None:
            base, exp = _python_law(base, exp, success, gamma, alpha_max)
            state = sizes.next[state + success]


def test_a_wide_step_size_range_costs_nothing_up_front():
    # about 4.6e7 exponents lie between alpha0 and alpha_max here; the table
    # fills only those near the live rows
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    cfg = AlgoConfig(theta=0.1, gamma=1 - 1e-6, alpha0=1e-10, alpha_max=1e10, max_iterations=3)
    start = time.perf_counter()
    trace = run_adaptive(prob, SassMethod(), ExactOracles(), cfg, 1e-3)
    assert time.perf_counter() - start < 2.0
    assert len(trace.alpha) == 3


def test_hand_run_lands_on_minimizer():
    # exact oracles on the identity quadratic from (2,0): one accepted step
    # of -alpha*g with alpha=1 reaches the origin, so the run stops at 1
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    trace = run_adaptive(
        prob, SassMethod(), ExactOracles(), _config(), 1e-3, x0=np.array([2.0, 0.0])
    )
    assert trace.stopping_iteration == 1
    assert len(trace.records) == 1
    rec = trace.records[0]
    assert rec.success and rec.alpha == 1.0
    assert rec.true_grad_norm == pytest.approx(2.0)
    assert rec.true_gap == pytest.approx(2.0)
    assert trace.final_grad_norm == 0.0
    # realized decrease 2 beats theta*alpha*|g|^2 = 0.4 comfortably
    assert stopping_time(trace, 1e-3, "nonconvex") == 1


def test_run_from_minimizer_is_empty():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    trace = run_adaptive(prob, SassMethod(), ExactOracles(), _config(), 1e-3, x0=np.zeros(2))
    assert trace.stopping_iteration == 0
    assert trace.records == []
    assert stopping_time(trace, 1e-3, "nonconvex") == 0


def test_identical_seeds_give_bit_identical_traces(tmp_path):
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    suite = PairCorruptionOracles(delta0=0.15, delta1=0.1)
    cfg = _config(alpha0=0.25, alpha_max=0.25, max_iterations=150)
    a = run_adaptive(prob, SassMethod(), suite, cfg, 1e-12, seed=31)
    b = run_adaptive(prob, SassMethod(), suite, cfg, 1e-12, seed=31)
    assert a.records == b.records
    assert a.stopping_iteration == b.stopping_iteration
    pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(pa)
    b.write_csv(pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_trace_csv_schema(tmp_path):
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    trace = run_adaptive(prob, SassMethod(), ExactOracles(), _config(), 1e-3, x0=np.array([2.0, 0.0]))
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,alpha,success,cost0,cost1,true_grad_norm,true_gap"
    cells = lines[1].split(",")
    assert cells[0] == "0" and cells[2] == "1"
    assert float(cells[1]) == 1.0 and "e" in cells[1]


def test_trace_csv_formats_every_cell_as_format_cell_does(tmp_path):
    # one format string per row gives the bytes of format_row, edge values included
    cells = [
        (math.nan, True, 2**70, 0, -0.0, math.inf),
        (5e-324, False, 3, 2**63, math.inf, -math.inf),
        (1.0 / 3.0, True, 1, 1, 5e-324, -0.0),
        (1e308, False, 0, 2**70 + 1, -1e-300, math.nan),
    ]
    records = [
        IterationRecord(
            k=k, alpha=a, success=s, cost0=c0, cost1=c1, true_grad_norm=gn, true_gap=gp,
            alpha_base=1.0, alpha_exp=0,
        )
        for k, (a, s, c0, c1, gn, gp) in enumerate(cells)
    ]
    trace = RunTrace(
        records=records, stopping_iteration=None, config=_config(), epsilon=1e-9,
        mode="nonconvex", final_grad_norm=1.0, final_gap=math.nan, final_x=np.zeros(1),
    )
    path = tmp_path / "t.csv"
    trace.write_csv(path)
    lines = [",".join(TRACE_CSV_HEADER)] + [format_row((k, *row)) for k, row in enumerate(cells)]
    assert path.read_text() == "\n".join(lines) + "\n"


def test_stopping_time_examples():
    trace = _trace_from_measures([3.0, 2.0, 0.5])
    assert stopping_time(trace, 1.0, "nonconvex") == 2
    trace2 = _trace_from_measures([3.0, 2.0], gaps=[5.0, 0.9], final_gap=0.9)
    assert stopping_time(trace2, 1.0, "strongly_convex") == 1
    never = _trace_from_measures([3.0, 2.0, 1.5])
    assert stopping_time(never, 1.0, "nonconvex") is None


def test_stopping_time_missing_ground_truth():
    trace = _trace_from_measures([3.0, 2.0])  # gaps are nan
    with pytest.raises(MissingGroundTruthError):
        stopping_time(trace, 1.0, "strongly_convex")
    with pytest.raises(InvalidParameterError):
        stopping_time(trace, 1.0, "convex-ish")


def test_step_size_law_holds_exactly_over_noisy_run():
    # gamma = 0.5 and dyadic alpha0 keep every update exactly representable
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    suite = PairCorruptionOracles(delta0=0.2, delta1=0.2)
    cfg = _config(alpha0=0.125, alpha_max=0.125, max_iterations=150)
    trace = run_adaptive(prob, SassMethod(), suite, cfg, 1e-12, x0=np.array([2.0, 0.0]), seed=5)
    recs = trace.records
    assert len(recs) == 150
    for prev, nxt in zip(recs, recs[1:]):
        assert prev.alpha == prev.alpha_base * cfg.gamma**prev.alpha_exp
        if prev.success:
            assert nxt.alpha == min(cfg.alpha_max, prev.alpha / cfg.gamma)
        else:
            assert nxt.alpha == cfg.gamma * prev.alpha
    assert any(not r.success for r in recs) and any(r.success for r in recs)


def test_alpha_cap_reanchors_exponent():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    # alpha_max not a power of gamma times alpha0: the cap re-anchors the base
    cfg = _config(alpha0=0.3, alpha_max=0.7, theta=0.5, max_iterations=6)
    trace = run_adaptive(prob, SassMethod(), ExactOracles(), cfg, 1e-12, x0=np.array([1e-3, 0.0]))
    alphas = [r.alpha for r in trace.records]
    assert alphas[0] == 0.3 and alphas[1] == 0.6 and alphas[2] == 0.7
    assert all(a <= 0.7 for a in alphas)
    rec = trace.records[2]
    assert rec.alpha_base == 0.7 and rec.alpha_exp == 0


@settings(max_examples=60, deadline=None)
@given(
    gamma=st.floats(0.3, 0.95),
    headroom=st.sampled_from([1.0, 3.7, 1e3, math.inf]),
    seed=st.integers(0, 2**32 - 1),
)
def test_recorded_step_sizes_replay_update_step_size(gamma, headroom, seed):
    # the loop's step sizes, bases and exponents are update_step_size
    # replayed on the recorded outcomes, re-anchorings and alpha_max = inf included
    prob = make_problem("quadratic", 2, 4.0, NoiseSpec.none(), seed=0)
    cfg = _config(gamma=gamma, alpha0=0.05, alpha_max=0.05 * headroom, max_iterations=300)
    trace = run_adaptive(prob, SassMethod(), PairCorruptionOracles(0.3, 0.3), cfg, 1e-12, seed=seed)
    base, exp = cfg.alpha0, 0
    for rec in trace.records:
        assert (rec.alpha, rec.alpha_base, rec.alpha_exp) == (base * gamma**exp, base, exp)
        base, exp = update_step_size(base, exp, rec.success, gamma, cfg.alpha_max)


def test_cost_accounting_totals():
    noise = NoiseSpec.gaussian(sigma_f=0.01, m_c=0.01)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(sigma_f=0.01, sigma_g=0.1, delta0=0.1, delta1=0.1)
    cfg = _config(alpha0=0.05, alpha_max=0.05, max_iterations=50)
    trace = run_adaptive(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 1e-6, seed=3)
    toc = accumulate_toc(trace)
    assert toc.toc0 == sum(r.cost0 for r in trace.records)
    assert toc.toc1 == sum(r.cost1 for r in trace.records)
    value, grad = storm_cost_models(spec)
    for rec in trace.records:
        assert rec.cost0 == 2 * value.batch(rec.alpha)
        assert rec.cost1 == grad.batch(rec.alpha)


def test_sample_counts_beyond_int64_stay_exact():
    # about 1e21 value samples per call: sampling is O(1) whatever the batch,
    # and the counts stay Python ints (no int64 wrap above 2**63)
    noise = NoiseSpec.gaussian(sigma_f=0.01, m_c=0.01)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(sigma_f=0.01, sigma_g=0.1, delta0=0.1, delta1=0.1)
    cfg = _config(alpha0=1e-6, alpha_max=1e-6, max_iterations=20)
    start = time.perf_counter()
    trace = run_adaptive(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 1e-6, seed=3)
    assert time.perf_counter() - start < 1.0
    toc0 = accumulate_toc(trace).toc0
    value, _ = storm_cost_models(spec)
    assert len(trace.records) == 20
    assert type(toc0) is int and toc0 > 2**63
    assert toc0 == sum(2 * value.batch(rec.alpha) for rec in trace.records)


def test_an_overflowing_cost_raises_only_when_a_row_reaches_it():
    # theta2 = 1e9 fails every trust-region iteration, so alpha = 0.1**k; the
    # value batch overflows a double from alpha = 1e-7 on, a state the
    # step-size table holds from the start
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.gaussian(sigma_f=1e140), seed=0)
    suite = StormMinibatchOracles(StormOracleSpec(sigma_f=1e140))
    cfg = _config(gamma=0.1, alpha0=1.0, alpha_max=1.0, theta2=1e9, max_iterations=3)
    traces = run_lockstep(prob, StormMethod(), suite, cfg, 1e-6, [0, 1, 2, 3])
    assert [len(t.alpha) for t in traces] == [3] * 4
    message = r"^cost model 'tr_value' overflows at alpha=1.0000000000000004e-07$"
    with pytest.raises(InvalidParameterError, match=message):
        run_lockstep(prob, StormMethod(), suite, replace(cfg, max_iterations=60), 1e-6, [0, 1, 2, 3])


def test_the_loop_asks_for_the_cost_models_once_per_run():
    class Counting(StormMinibatchOracles):
        calls = 0

        def cost_models(self, problem):
            type(self).calls += 1
            return super().cost_models(problem)

    noise = NoiseSpec.gaussian(sigma_f=0.01, m_c=0.01)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    suite = Counting(StormOracleSpec(sigma_f=0.01, sigma_g=0.1))
    cfg = _config(alpha0=0.5, alpha_max=0.5, max_iterations=60)
    traces = run_lockstep(prob, StormMethod(), suite, cfg, 1e-9, [0, 1, 2, 3])
    assert min(len(t.alpha) for t in traces) >= 50
    assert Counting.calls == 1


def test_zero_gradient_iteration_is_recorded_literally():
    # a zero gradient estimate yields a zero step; the decrease test is then
    # applied verbatim (0 >= -r accepts) and the iteration is recorded
    class ZeroGradOracles(ExactOracles):
        def gradient_rows(self, problem, x, g, batch, streams):
            return np.zeros_like(g)

    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    cfg = _config(max_iterations=3)
    trace = run_adaptive(prob, SassMethod(), ZeroGradOracles(), cfg, 1e-6, x0=np.array([1.0, 0.0]))
    assert trace.stopping_iteration is None
    assert all(rec.success for rec in trace.records)
    assert trace.final_grad_norm == pytest.approx(1.0)


def test_method_oracle_mismatch():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.gaussian(sigma_f=0.1, m_c=0.1), seed=0)
    suite = StormMinibatchOracles(StormOracleSpec(sigma_f=0.1, sigma_g=0.3))
    with pytest.raises(ConfigurationError):
        run_adaptive(prob, SassMethod(), suite, _config(), 0.1)


def test_strongly_convex_requires_known_minimum():
    prob = replace(make_problem("quadratic", 2, 1.0), min_value=None)
    with pytest.raises(MissingGroundTruthError):
        run_adaptive(prob, SassMethod(), ExactOracles(), _config(), 0.1, mode="strongly_convex")


def test_storm_method_rejects_gap_stopping():
    prob = make_problem("quadratic", 2, 1.0)
    with pytest.raises(ConfigurationError):
        run_adaptive(prob, StormMethod(), ExactOracles(), _config(), 0.1, mode="strongly_convex")


def test_non_finite_oracle_output_raises_with_context():
    class BrokenOracles(ExactOracles):
        def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
            return np.full_like(f, math.nan), np.ones_like(f_plus)

    prob = make_problem("quadratic", 2, 1.0)
    with pytest.raises(NumericError, match="iteration 0"):
        run_adaptive(prob, SassMethod(), BrokenOracles(), _config(), 1e-6)


class _OnlyGradient(ExactOracles):
    def gradient(self, problem, x, alpha, rng):
        return super().gradient(problem, x, alpha, rng)


class _OnlyValues(ExactOracles):
    def values(self, problem, x, x_plus, alpha, rng):
        return super().values(problem, x, x_plus, alpha, rng)


class _OnlyPropose(SassMethod):
    def propose(self, g, alpha):
        return super().propose(g, alpha)


class _OnlyAccepts(StormMethod):
    def accepts(self, f0, f_plus, g, proposal, alpha, config):
        return super().accepts(f0, f_plus, g, proposal, alpha, config)


class _OneCallSuite:
    """A suite with the one-point calls only, no row methods."""

    family = "any"
    draws = None

    def validate(self, problem):
        pass

    def gradient(self, problem, x, alpha, rng):
        return problem.grad(x), 1

    def values(self, problem, x, x_plus, alpha, rng):
        return problem.value(x), problem.value(x_plus), 2


@pytest.mark.parametrize(
    "method, suite, named",
    [
        (SassMethod(), _OnlyGradient(), "_OnlyGradient.gradient"),
        (SassMethod(), _OnlyValues(), "_OnlyValues.values"),
        (_OnlyPropose(), ExactOracles(), "_OnlyPropose.propose"),
        (_OnlyAccepts(), ExactOracles(), "_OnlyAccepts.accepts"),
        (SassMethod(), _OneCallSuite(), "_OneCallSuite defines no gradient_rows"),
    ],
)
def test_plug_ins_the_loop_would_ignore_are_refused(method, suite, named):
    # the loop calls only row methods: a one-point override below them, or
    # a plug-in without them, is a configuration error naming the method
    prob = make_problem("quadratic", 2, 1.0)
    with pytest.raises(ConfigurationError, match=named):
        run_adaptive(prob, method, suite, _config(max_iterations=3), 1e-6)


def test_row_override_reaches_the_one_point_call():
    # overriding only a row method is accepted, and the inherited one-point
    # call goes through it
    class HalfGradient(ExactOracles):
        def gradient_rows(self, problem, x, g, batch, streams):
            return 0.5 * g

    prob = make_problem("quadratic", 2, 1.0)
    x = np.array([1.0, -2.0])
    g, cost = HalfGradient().gradient(prob, x, 1.0, np.random.default_rng(0))
    assert np.array_equal(g, 0.5 * prob.grad(x)) and cost == 1
    trace = run_adaptive(prob, SassMethod(), HalfGradient(), _config(max_iterations=3), 1e-6, x0=x)
    assert len(trace.records) == 3


def test_empirical_success_probability_exact_oracles():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    cfg = _config(theta=0.3, alpha0=0.5, alpha_max=0.5, max_iterations=60)
    traces = [run_adaptive(prob, SassMethod(), ExactOracles(), cfg, 1e-30)]
    # every step below the deterministic threshold succeeds
    p_hat, count = empirical_success_probability(traces, 0.5)
    assert p_hat == 1.0 and count == 60


def test_empirical_success_probability_empty():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    trace = run_adaptive(prob, SassMethod(), ExactOracles(), _config(), 1e-3, x0=np.zeros(2))
    assert empirical_success_probability([trace], 1.0) == (None, 0)


def test_empirical_success_probability_corruption_bound():
    # success frequency under pair corruption stays above 1 - delta0 - delta1
    delta0, delta1 = 0.1, 0.1
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    suite = PairCorruptionOracles(delta0=delta0, delta1=delta1)
    cfg = _config(alpha0=0.1, alpha_max=0.1, max_iterations=100)
    traces = [
        run_adaptive(prob, SassMethod(), suite, cfg, 1e-9, x0=np.array([2.0, 0.0]), seed=s)
        for s in derive_seeds(77, 120)
    ]
    p_hat, count = empirical_success_probability(traces, 0.1)
    assert count >= 10_000
    ci = 2.5758 * math.sqrt(p_hat * (1 - p_hat) / count)
    assert p_hat >= (1 - delta0 - delta1) - ci


def test_derive_seeds_are_deterministic_and_distinct():
    a = derive_seeds(5, 8)
    assert a == derive_seeds(5, 8)
    assert len(set(a)) == 8
    # one uint64 from each child of SeedSequence(master).spawn(R), in order
    assert a[:3] == [15658875773272509128, 6924645418555453511, 1725439304048894018]
    assert derive_seeds(5, 3) == a[:3]


@pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
def test_a_bad_seed_is_refused_before_anything_is_drawn(seed):
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    with pytest.raises(InvalidParameterError, match="seed must be a nonnegative integer"):
        run_adaptive(prob, SassMethod(), ExactOracles(), _config(), 1e-3, seed=seed)
    with pytest.raises(InvalidParameterError, match="seed must be a nonnegative integer"):
        run_lockstep(prob, SassMethod(), ExactOracles(), _config(), 1e-3, [0, seed])
    if isinstance(seed, int):
        with pytest.raises(InvalidParameterError, match="seed must be a nonnegative integer"):
            derive_seeds(seed, 2)


@pytest.mark.parametrize("x0", [np.zeros(3), np.zeros(1), np.zeros((1, 2)), np.float64(1.0)])
def test_start_point_of_the_wrong_shape_is_refused(x0):
    # refused by name before any draw, in a single run, a lockstep run and
    # the Monte Carlo harness alike
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    calls = (
        lambda: run_adaptive(prob, SassMethod(), ExactOracles(), _config(), 1e-3, x0=x0),
        lambda: run_lockstep(prob, SassMethod(), ExactOracles(), _config(), 1e-3, [1, 2], x0=x0),
        lambda: monte_carlo_toc(prob, SassMethod(), ExactOracles(), _config(), 1e-3, 3, 0, x0=x0),
    )
    for call in calls:
        with pytest.raises(InvalidParameterError, match=r"^x0 must have shape \(2,\), got "):
            call()


def test_gap_column_is_measured_from_the_minimum_value():
    # a logistic minimum is not 0, so a gap taken from 0 would show
    prob = make_problem("logistic_synthetic", 3, 10.0, NoiseSpec.none(), seed=0)
    assert prob.min_value > 0.0
    x0 = np.ones(3)
    cfg = _config(alpha0=0.1, alpha_max=0.1, max_iterations=5)
    for trace in run_lockstep(prob, SassMethod(), ExactOracles(), cfg, 1e-9, [0, 1], x0=x0):
        assert trace.true_gap[0] == prob.value(x0) - prob.min_value
        assert trace.final_gap == prob.value(trace.final_x) - prob.min_value
