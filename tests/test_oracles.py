import math
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from adastoc.complexity import _level_costs, monte_carlo_toc
from adastoc.errors import ConfigurationError, InvalidParameterError
from adastoc.framework import AlgoConfig, derive_seeds, run_lockstep
from adastoc.methods import SassMethod, StormMethod
from adastoc.oracles import (
    CostModel,
    ExactOracles,
    PairCorruptionOracles,
    SassMinibatchOracles,
    SassOracleSpec,
    StormOracleSpec,
    StormMinibatchOracles,
    empirical_oracle_failure_rate,
    minibatch_grad,
    minibatch_value,
    sass_cost_models,
    storm_cost_models,
)
from adastoc.problems import NoiseSpec, make_problem
from adastoc.rows import RowStreams
from adastoc.walk import WalkParams


def test_minibatch_value_law_matches_sample_mean():
    # one N(f, sigma_f^2/b) draw has the law of the mean of b per-sample draws
    prob = make_problem("quadratic", 3, 2.0, NoiseSpec.gaussian(sigma_f=0.5), seed=0)
    x = np.array([1.0, -1.0, 0.5])
    for b in (2, 37, 1000):
        rng_a, rng_b = np.random.default_rng(100 + b), np.random.default_rng(200 + b)
        draws = [minibatch_value(prob, x, b, rng_a) for _ in range(2000)]
        ref = [prob.sample_loss_batch(x, b, rng_b).mean() for _ in range(2000)]
        p = stats.ks_2samp(draws, ref).pvalue
        assert p > 1e-4, (b, p)


def test_minibatch_grad_law_matches_sample_mean():
    # per component against the per-sample reference, and the squared error's
    # mean (m_c + m_v ||grad||^2)/b within a 99.9% CI
    x = np.array([1.0, -1.0, 0.5])
    n = 2000
    for m_c, m_v in ((1.0, 0.0), (0.2, 0.5)):
        prob = make_problem("quadratic", 3, 2.0, NoiseSpec.gaussian(m_c=m_c, m_v=m_v), seed=0)
        g = prob.grad(x)
        for b in (2, 37, 1000):
            rng_a, rng_b = np.random.default_rng(300 + b), np.random.default_rng(400 + b)
            draws = np.array([minibatch_grad(prob, x, b, rng_a) for _ in range(n)])
            ref = np.array([prob.sample_grad_batch(x, b, rng_b).mean(axis=0) for _ in range(n)])
            for j in range(prob.dim):
                p = stats.ks_2samp(draws[:, j], ref[:, j]).pvalue
                assert p > 1e-4, (m_v, b, j, p)
            sq = ((draws - g) ** 2).sum(axis=1)
            target = (m_c + m_v * float(g @ g)) / b
            assert abs(sq.mean() - target) <= 3.2905 * sq.std(ddof=1) / math.sqrt(n)


def test_minibatch_zero_noise_exact():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    x = np.array([1.0, 2.0])
    assert minibatch_value(prob, x, 17, np.random.default_rng(0)) == prob.value(x)
    assert np.array_equal(minibatch_grad(prob, x, 17, np.random.default_rng(0)), prob.grad(x))


def test_minibatch_batch_one_matches_single_draw():
    prob = make_problem("quadratic", 3, 2.0, NoiseSpec.gaussian(sigma_f=0.3, m_c=1.0), seed=0)
    x = np.array([1.0, -1.0, 0.0])
    assert np.array_equal(
        minibatch_grad(prob, x, 1, np.random.default_rng(4)),
        prob.sample_grad_batch(x, 1, np.random.default_rng(4))[0],
    )
    assert (
        minibatch_value(prob, x, 1, np.random.default_rng(4))
        == prob.sample_loss_batch(x, 1, np.random.default_rng(4))[0]
    )


def test_minibatch_variance_law():
    # variance of a size-100 minibatch mean is sigma^2/100
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.gaussian(sigma_f=1.0), seed=0)
    x = np.array([0.5, 0.5])
    rng = np.random.default_rng(21)
    means = np.array([minibatch_value(prob, x, 100, rng) for _ in range(10_000)])
    assert means.var(ddof=1) == pytest.approx(0.01, rel=0.2)


def test_minibatch_rejects_zero_batch():
    prob = make_problem("quadratic", 2, 1.0)
    with pytest.raises(InvalidParameterError):
        minibatch_value(prob, prob.x0, 0, np.random.default_rng(0))


def test_minibatch_batch_beyond_float_range_is_validation_error():
    # the noise scale divides by sqrt(batch), which no float holds past ~1.8e308
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.gaussian(sigma_f=0.1, m_c=0.1))
    for fn in (minibatch_value, minibatch_grad):
        with pytest.raises(InvalidParameterError, match="float range"):
            fn(prob, prob.x0, 10**400, np.random.default_rng(0))


def test_minibatch_grad_memory_does_not_depend_on_batch():
    prob = make_problem("quadratic", 3, 2.0, NoiseSpec.gaussian(m_c=1.0, m_v=0.5), seed=0)
    x, rng = np.array([1.0, -1.0, 0.5]), np.random.default_rng(0)
    tracemalloc.start()
    try:
        minibatch_grad(prob, x, 10**30, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


@pytest.mark.parametrize("m_c", [0.0, 0.2])
def test_minibatch_grad_takes_dim_normals_whatever_the_gradient(m_c):
    # with m_v > 0 every gradient estimate takes dim normals, also where the
    # noise std is 0 (g = 0 with m_c = 0), one point or R rows at a time
    prob = make_problem("quadratic", 3, 2.0, NoiseSpec.gaussian(m_c=m_c, m_v=0.3), seed=0)
    zero, x = np.zeros(3), np.array([1.0, -1.0, 0.5])
    for point in (zero, x):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        g = minibatch_grad(prob, point, 4, rng)
        ref.standard_normal(3)
        assert rng.bit_generator.state == ref.bit_generator.state
        if m_c == 0.0 and point is zero:
            assert np.array_equal(g, zero)
    suite = SassMinibatchOracles(SassOracleSpec(), epsilon=0.1)
    X = np.stack([zero, x, zero])
    seeds = [7, 8, 9]
    streams = RowStreams([np.random.default_rng(s) for s in seeds], suite.draws, 1)
    suite.gradient_rows(prob, X, prob.grad(X), np.full(3, 4.0), streams)
    after = streams.take(1)[:, 0].tolist()
    refs = [np.random.default_rng(s) for s in seeds]
    assert after == [r.standard_normal(4)[3] for r in refs]


@settings(max_examples=100, deadline=None)
@given(alpha=st.floats(1e-6, 0.3))
def test_random_draws_per_iteration_do_not_depend_on_batch(alpha):
    # an iteration draws a fixed block (dim normals, then one per value
    # estimate), so replications advanced together stay in lockstep
    noise = NoiseSpec.gaussian(sigma_f=0.1, m_c=0.01)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    small = StormOracleSpec(sigma_f=0.1, sigma_g=0.1, kappa_ef=1.0, kappa_eg=1.0)
    large = replace(small, kappa_ef=1e-4, kappa_eg=1e-4)
    for a, b in zip(storm_cost_models(small), storm_cost_models(large)):
        assert b.batch(alpha) >= a.batch(alpha) + 10**6
    states = []
    for spec in (small, large):
        rng = np.random.default_rng(11)
        suite = StormMinibatchOracles(spec)
        suite.gradient(prob, prob.x0, alpha, rng)
        suite.values(prob, prob.x0, 0.5 * prob.x0, alpha, rng)
        states.append(rng.bit_generator.state)
    assert states[0] == states[1]


def test_storm_models_batch_worked_values():
    spec = StormOracleSpec(kappa_ef=1.0, delta0=0.1, kappa_eg=1.0, delta1=0.1, sigma_f=1.0, sigma_g=1.0)
    value, grad = storm_cost_models(spec)
    assert (value.batch(0.5), grad.batch(0.5)) == (160, 40)


def test_storm_models_noiseless_floor():
    value, grad = storm_cost_models(StormOracleSpec(sigma_f=0.0, sigma_g=0.0))
    assert (value.batch(0.5), grad.batch(0.5)) == (1, 1)


def test_storm_models_reject_degenerate():
    for spec in (
        StormOracleSpec(sigma_f=1.0, delta0=0.0),
        StormOracleSpec(sigma_f=1.0, kappa_ef=0.0),
        StormOracleSpec(sigma_g=1.0, delta1=0.0),
        StormOracleSpec(sigma_g=1.0, kappa_eg=0.0),
    ):
        with pytest.raises(InvalidParameterError):
            storm_cost_models(spec)
        with pytest.raises(InvalidParameterError):
            StormMinibatchOracles(spec)  # at construction, before any run
    with pytest.raises(InvalidParameterError):
        storm_cost_models(StormOracleSpec())[0].batch(0.0)


def test_storm_spec_requires_reliable_pair():
    with pytest.raises(InvalidParameterError):
        StormOracleSpec(delta0=0.3, delta1=0.2)


def test_sass_models_batch_worked_values():
    spec = SassOracleSpec(kappa=1.0, tau=10.0)
    noise = NoiseSpec.gaussian(sigma_f=1.0)
    value, _ = sass_cost_models(spec, noise, 0.1, "nonconvex")
    assert value.batch(0.5) == 10**4
    noise2 = NoiseSpec.gaussian(m_c=0.0, m_v=1.0)
    _, grad = sass_cost_models(spec, noise2, 0.1, "nonconvex")
    assert grad.batch(0.5) == 4


def test_sass_models_tau_saturation():
    spec = SassOracleSpec(kappa=1.0, tau=2.0)
    noise = NoiseSpec.gaussian(m_c=0.0, m_v=1.0)
    _, grad = sass_cost_models(spec, noise, 0.1, "nonconvex")
    assert grad.batch(2.0) == grad.batch(100.0)


def test_sass_models_strongly_convex_scaling():
    spec = SassOracleSpec()
    noise = NoiseSpec.gaussian(sigma_f=1.0, m_c=1.0)
    value, grad = sass_cost_models(spec, noise, 0.01, "strongly_convex")
    assert value.batch(1.0) == math.ceil(1.0 / 0.01**2)
    assert grad.batch(1.0) >= math.ceil(1.0 / 0.01)


def test_sass_models_reject_zero_epsilon():
    with pytest.raises(InvalidParameterError):
        sass_cost_models(SassOracleSpec(), NoiseSpec.none(), 0.0, "nonconvex")
    with pytest.raises(InvalidParameterError):
        sass_cost_models(SassOracleSpec(), NoiseSpec.none(), 0.1, "nonconvex", c=0.0)


def _charged(suite, noise, alpha):
    problem = make_problem("quadratic", 2, 1.0, noise, seed=0)
    rng = np.random.default_rng(0)
    _, cost1 = suite.gradient(problem, problem.x0, alpha, rng)
    _, _, cost0 = suite.values(problem, problem.x0, problem.x0, alpha, rng)
    return cost0 // 2, cost1


_alphas = st.builds(
    lambda a0, gamma, j: a0 * gamma**j,
    st.floats(1e-3, 1.0), st.floats(0.3, 0.95), st.integers(0, 40),
)


@settings(max_examples=200, deadline=None)
@given(
    alpha=_alphas,
    sigma_f=st.floats(1e-4, 10.0),
    sigma_g=st.floats(1e-4, 10.0),
    delta=st.floats(0.01, 0.24),
    kappa=st.floats(0.01, 10.0),
)
def test_storm_suite_charges_the_bound_models_batches(alpha, sigma_f, sigma_g, delta, kappa):
    spec = StormOracleSpec(
        kappa_ef=kappa, delta0=delta, kappa_eg=kappa, delta1=delta, sigma_f=sigma_f, sigma_g=sigma_g
    )
    value, grad = storm_cost_models(spec)
    noise = NoiseSpec.gaussian(sigma_f=sigma_f, m_c=sigma_g**2)
    charged = _charged(StormMinibatchOracles(spec), noise, alpha)
    assert charged == (value.batch(alpha), grad.batch(alpha))


@settings(max_examples=200, deadline=None)
@given(
    alpha=_alphas,
    epsilon=st.floats(0.01, 0.5),
    batch_c=st.one_of(st.integers(1, 100).map(float), st.floats(0.1, 100.0)),
    m_c=st.floats(1e-5, 1.0),
    m_v=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    case=st.sampled_from(["nonconvex", "strongly_convex"]),
)
@example(alpha=0.5, epsilon=0.03, batch_c=9.0, m_c=1e-3, m_v=0.0, case="nonconvex")
def test_sass_suite_charges_the_bound_models_batches(alpha, epsilon, batch_c, m_c, m_v, case):
    # at batch_c=9, m_c=1e-3, epsilon=0.03 two separate formulas once drew 10
    # gradient samples per call and charged 11 in the bound
    spec = SassOracleSpec(kappa=1.0, tau=10.0)
    noise = NoiseSpec.gaussian(sigma_f=1e-4, m_c=m_c, m_v=m_v)
    value, grad = sass_cost_models(spec, noise, epsilon, case, batch_c)
    suite = SassMinibatchOracles(spec, epsilon=epsilon, case=case, batch_scale=batch_c)
    assert _charged(suite, noise, alpha) == (value.batch(alpha), grad.batch(alpha))


@pytest.mark.parametrize(
    "suite",
    [
        ExactOracles(),
        PairCorruptionOracles(0.1, 0.1),
        StormMinibatchOracles(StormOracleSpec(sigma_f=0.01, sigma_g=0.1)),
        SassMinibatchOracles(SassOracleSpec(), epsilon=0.1),
    ],
    ids=type,
)
def test_each_suite_charges_exactly_its_cost_models(suite):
    # the loop charges every iteration from the models a sweep bounds, in the
    # trace and in the Monte Carlo totals alike
    problem = make_problem("quadratic", 2, 1.0, NoiseSpec.gaussian(sigma_f=0.01, m_c=0.01), seed=0)
    method = StormMethod() if suite.family == "storm" else SassMethod()
    config = AlgoConfig(theta=0.1, gamma=0.5, alpha0=0.5, alpha_max=0.5, max_iterations=40)
    value, grad = suite.cost_models(problem)
    traces = run_lockstep(problem, method, suite, config, 1e-6, derive_seeds(0, 3))
    for trace in traces:
        for charged, model in ((trace.cost0.tolist(), value), (trace.cost1.tolist(), grad)):
            assert all(type(c) is int for c in charged)
            assert charged == (model.calls_per_iteration * model.batch(trace.alpha)).tolist(), model.label
    summary = monte_carlo_toc(problem, method, suite, config, 1e-6, 3, 0)
    assert summary.toc0.tolist() == [sum(t.cost0.tolist()) for t in traces]
    assert summary.toc1.tolist() == [sum(t.cost1.tolist()) for t in traces]


def test_cost_model_powers():
    value, grad = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    assert (value.power, grad.power) == (4.0, 2.0)
    value, grad = storm_cost_models(StormOracleSpec(sigma_f=0.0, sigma_g=1.0))
    assert (value.power, grad.power) == (0.0, 2.0)  # no noise, no term
    for m_v, grad_power in ((0.0, 0.0), (1.0, 2.0)):
        noise = NoiseSpec.gaussian(sigma_f=1.0, m_c=1.0, m_v=m_v)
        value, grad = sass_cost_models(SassOracleSpec(), noise, 0.1, "nonconvex")
        assert (value.power, grad.power) == (0.0, grad_power)
    assert CostModel().power == 0.0


def _exact_batch(raw: Fraction) -> int | None:
    """max(1, ceil(raw)), or None where raw is within a relative 1e-14 of an integer."""
    if abs(raw - round(raw)) <= Fraction(1, 10**14) * raw:
        return None
    return max(1, math.ceil(raw))


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(1e-3, 10.0),
    sigma_f=st.floats(1e-4, 10.0),
    sigma_g=st.floats(1e-4, 10.0),
    delta=st.floats(0.01, 0.24),
    kappa=st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
)
@example(alpha=0.01, sigma_f=0.001, sigma_g=0.1, delta=0.1, kappa=1.0)  # exact raws 1000 and 1000
def test_storm_batches_are_the_ceiling_of_the_exact_formula(alpha, sigma_f, sigma_g, delta, kappa):
    # the float inputs taken as exact rationals: the term formula may round
    # in any order, but its ceiling must be the exact one
    spec = StormOracleSpec(
        kappa_ef=kappa, delta0=delta, kappa_eg=kappa, delta1=delta, sigma_f=sigma_f, sigma_g=sigma_g
    )
    value, grad = storm_cost_models(spec)
    a, k, d = Fraction(alpha), Fraction(kappa), Fraction(delta)
    for model, exact in (
        (value, Fraction(sigma_f) ** 2 / (d * k**2 * a**4)),
        (grad, Fraction(sigma_g) ** 2 / (d * k**2 * a**2)),
    ):
        expected = _exact_batch(exact)
        if expected is not None:
            assert model.batch(alpha) == expected


@settings(max_examples=300, deadline=None)
@given(
    alpha=st.floats(1e-3, 10.0),
    epsilon=st.floats(0.01, 0.5),
    batch_c=st.one_of(st.just(1.0), st.integers(2, 100).map(float), st.floats(0.1, 100.0)),
    sigma_f=st.floats(1e-4, 1.0),
    m_c=st.one_of(st.just(0.0), st.floats(1e-5, 1.0)),
    m_v=st.one_of(st.just(0.0), st.floats(1e-4, 1.0)),
    kappa=st.one_of(st.just(1.0), st.floats(0.1, 10.0)),
    tau=st.one_of(st.just(math.inf), st.floats(0.01, 10.0)),
    case=st.sampled_from(["nonconvex", "strongly_convex"]),
)
@example(
    alpha=0.5, epsilon=0.03, batch_c=9.0, sigma_f=1e-3, m_c=1e-3, m_v=0.0, kappa=1.0, tau=math.inf,
    case="nonconvex",
)
def test_sass_batches_are_the_ceiling_of_the_exact_formula(
    alpha, epsilon, batch_c, sigma_f, m_c, m_v, kappa, tau, case
):
    spec = SassOracleSpec(kappa=kappa, tau=tau)
    noise = NoiseSpec.gaussian(sigma_f=sigma_f, m_c=m_c, m_v=m_v)
    value, grad = sass_cost_models(spec, noise, epsilon, case, batch_c)
    value_order, grad_order = (4, 2) if case == "nonconvex" else (2, 1)
    c, eps = Fraction(batch_c), Fraction(epsilon)
    scale = Fraction(kappa) * Fraction(alpha)
    if tau < math.inf:
        scale = min(Fraction(tau), scale)
    for model, exact in (
        (value, c * Fraction(sigma_f) ** 2 / eps**value_order),
        (grad, c * (Fraction(m_c) / eps**grad_order + Fraction(m_v) / scale**2)),
    ):
        expected = _exact_batch(exact)
        if expected is not None:
            assert model.batch(alpha) == expected


def test_cost_models_monotone_on_log_grid():
    storm = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    sass = sass_cost_models(
        SassOracleSpec(kappa=1.0, tau=5.0), NoiseSpec.gaussian(sigma_f=1.0, m_c=1.0, m_v=1.0),
        0.1, "nonconvex",
    )
    grid = np.logspace(-3, 1, 40)
    for model in (*storm, *sass):
        costs = [model.cost(a) for a in grid]
        assert all(c1 >= c2 for c1, c2 in zip(costs, costs[1:]))


_ALPHAS = st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99), st.integers(-80, 0))


@settings(max_examples=200, deadline=None)
@given(alphas=st.lists(_ALPHAS, min_size=1, max_size=8), model=st.integers(0, 3))
@example(alphas=[0.5, 1e-5, 2e-77, 1e-78], model=0)  # 2**63 < batch, then the overflow edge
def test_cost_model_batch_of_an_array_equals_scalar_batches(alphas, model):
    def models():
        noise = NoiseSpec.gaussian(sigma_f=0.3, m_c=0.2, m_v=0.5)
        return storm_cost_models(StormOracleSpec(sigma_f=0.3, sigma_g=0.2)) + sass_cost_models(
            SassOracleSpec(), noise, 0.01, "nonconvex", 3.0
        )

    scalar_model, array_model = models()[model], models()[model]
    expected, failed_at = [], None
    for a in alphas:
        try:
            expected.append(scalar_model.batch(a))
        except InvalidParameterError:
            failed_at = a
            break
    if failed_at is not None:
        with pytest.raises(InvalidParameterError, match=f"alpha={failed_at!r}$"):
            array_model.batch(np.array(alphas))
        return
    got = array_model.batch(np.array(alphas))
    assert got.dtype == object and all(type(b) is int for b in got)
    assert list(got) == expected
    assert [array_model.batch(a) for a in alphas] == expected


def test_cost_model_batch_counts_above_int64_stay_exact():
    value, _ = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    alphas = np.array([1e-6, 1e-40, 3e-77])
    batches = value.batch(alphas)
    assert all(b > 2**63 for b in batches)
    assert list(batches) == [int(value.per_call(a)) for a in alphas]


def test_cost_model_underflow_is_inf_not_error():
    value, _ = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    assert value.cost(1e-200) == math.inf
    with pytest.raises(InvalidParameterError):
        value.batch(1e-200)


def test_summed_cost_adds_components():
    # the bounds charge each level the sum of the models' per-iteration costs
    value, grad = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    params = WalkParams(p=0.8, gamma=0.5, alpha_bar=0.5)
    levels = np.arange(4.0)
    cost, log_cost = _level_costs((value, grad), params, levels)
    alphas = [0.5 * 0.5**l for l in range(4)]
    assert cost.tolist() == [value.cost(a) + grad.cost(a) for a in alphas]
    assert np.allclose(log_cost, np.log(cost), rtol=1e-14, atol=0.0)
    # per-iteration value cost counts both function estimates
    assert value.cost(0.5) == 2 * value.per_call(0.5)


def test_corruption_oracle_failure_rate():
    # the contract fails exactly on the suite's coins: delta0 per value pair,
    # delta1 per gradient
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    x = np.array([1.0, 1.0])
    suite = PairCorruptionOracles(delta0=0.2, delta1=0.1)
    rate_v, rate_g = empirical_oracle_failure_rate(suite, prob, x, 1.0, 4000, 5)
    assert abs(rate_v - 0.2) <= 2.5758 * math.sqrt(0.2 * 0.8 / 4000) + 1e-9
    assert abs(rate_g - 0.1) <= 2.5758 * math.sqrt(0.1 * 0.9 / 4000) + 1e-9


def test_storm_oracle_contract_failure_below_delta():
    noise = NoiseSpec.gaussian(sigma_f=0.2, m_c=0.04)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(kappa_ef=1.0, delta0=0.1, kappa_eg=1.0, delta1=0.1, sigma_f=0.2, sigma_g=0.2)
    x = np.array([1.0, -0.5])
    for alpha in (0.5, 1.0):
        rate_v, rate_g = empirical_oracle_failure_rate(StormMinibatchOracles(spec), prob, x, alpha, 2000, 7)
        ci = 2.5758 * math.sqrt(0.1 * 0.9 / 2000)
        assert rate_v <= 0.1 + ci
        assert rate_g <= 0.1 + ci


def test_sass_grad_oracle_relative_contract():
    # interpolation-style noise: batch C/(kappa*alpha)^2 keeps the relative
    # error below min(tau, kappa*alpha) with failure rate well under delta1
    noise = NoiseSpec.gaussian(m_c=0.0, m_v=1.0)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = SassOracleSpec(kappa=1.0, tau=10.0)
    suite = SassMinibatchOracles(spec, epsilon=0.1, case="nonconvex", batch_scale=9.0)
    x = np.array([1.0, -0.5])
    for alpha in (0.3, 1.0):
        rate_v, rate_g = empirical_oracle_failure_rate(suite, prob, x, alpha, 2000, 44)
        assert rate_v == 0.0  # a tail condition, not a pass/fail contract
        assert rate_g <= 0.1 + 2.5758 * math.sqrt(0.1 * 0.9 / 2000)


def test_zero_noise_oracle_never_fails():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    spec = StormOracleSpec(sigma_f=0.0, sigma_g=0.0)
    for suite in (StormMinibatchOracles(spec), ExactOracles()):
        assert empirical_oracle_failure_rate(suite, prob, prob.x0, 0.5, 100, 0) == (0.0, 0.0)



def _failure_rate_trial_by_trial(suite, problem, x, alpha, trials, master_seed):
    # one-point calls on each trial's own spawned generator, checked one row at a time
    value_failures = grad_failures = 0
    for child in np.random.SeedSequence(master_seed).spawn(trials):
        rng = np.random.default_rng(child)
        g, _ = suite.gradient(problem, x, alpha, rng)
        f0, f_plus, _ = suite.values(problem, x, x, alpha, rng)
        value_failed, grad_failed = suite.violated(
            problem, x[None], x[None], np.array([alpha]), g[None], np.array([f0]), np.array([f_plus])
        )
        assert value_failed.shape == grad_failed.shape == (1,)
        value_failures += int(value_failed[0])
        grad_failures += int(grad_failed[0])
    return value_failures / trials, grad_failures / trials


_NOISY = NoiseSpec.gaussian(sigma_f=0.5, m_c=0.25)


@pytest.mark.parametrize(
    "suite, noise",
    [
        (ExactOracles(), _NOISY),
        # batches sized for far less noise than the problem has: contracts fail often
        (StormMinibatchOracles(StormOracleSpec(sigma_f=0.01, sigma_g=0.01)), _NOISY),
        (
            SassMinibatchOracles(SassOracleSpec(tau=10.0), epsilon=0.1, batch_scale=0.01),
            NoiseSpec.gaussian(m_c=0.0, m_v=1.0),
        ),
        (PairCorruptionOracles(delta0=0.3, delta1=0.2), NoiseSpec.none()),
    ],
    ids=["exact", "storm", "sass", "corruption"],
)
def test_failure_rate_row_call_equals_trial_by_trial(suite, noise):
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    x = np.array([1.0, -0.5])
    rates = empirical_oracle_failure_rate(suite, prob, x, 0.5, 300, 17)
    assert rates == _failure_rate_trial_by_trial(suite, prob, x, 0.5, 300, 17)
    if not isinstance(suite, ExactOracles):
        assert 0.0 < max(rates) < 1.0


def test_minibatch_suite_rejects_unbounded_gradient_noise():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.gaussian(m_c=1.0, m_v=1.0), seed=0)
    suite = StormMinibatchOracles(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    with pytest.raises(ConfigurationError):
        suite.validate(prob)


_ALPHAS = np.geomspace(1e-3, 10.0, 9)
_NOISE = NoiseSpec(sigma_f=0.1, m_c=0.01, m_v=0.01)


def _violations(suite):
    """The suite's (value, gradient) verdicts over a grid of step sizes and estimate errors.

    Errors are spaced by less than a factor 2, so halving or doubling a
    tolerance anywhere in their range flips some verdict.
    """
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    alpha, err = (a.ravel() for a in np.meshgrid(_ALPHAS, np.geomspace(1e-8, 1e3, 45)))
    x = np.repeat(prob.x0[None], len(alpha), axis=0)
    f = prob.value(x) + err
    return suite.violated(prob, x, x, alpha, prob.grad(x) + err[:, None], f, f)


def _storm_outputs(spec):
    return [m.raw(_ALPHAS) for m in storm_cost_models(spec)] + list(_violations(StormMinibatchOracles(spec)))


def _sass_outputs(spec, noise=_NOISE):
    models = sass_cost_models(spec, noise, 0.1, "nonconvex")
    return [m.raw(_ALPHAS) for m in models] + list(_violations(SassMinibatchOracles(spec, epsilon=0.1)))


@pytest.mark.parametrize(
    "spec, outputs",
    [
        (StormOracleSpec(sigma_f=0.1, sigma_g=0.1), _storm_outputs),
        (SassOracleSpec(), _sass_outputs),
        (_NOISE, lambda noise: _sass_outputs(SassOracleSpec(), noise)),
    ],
    ids=["storm", "sass", "noise"],
)
def test_every_spec_field_changes_a_cost_or_a_verdict(spec, outputs):
    # a contract field that changes no batch and no verdict states nothing
    base = outputs(spec)
    for field in fields(spec):
        value = getattr(spec, field.name)
        moved = replace(spec, **{field.name: value / 2 if value and math.isfinite(value) else 1.0})
        assert any(not np.array_equal(a, b) for a, b in zip(base, outputs(moved))), field.name
