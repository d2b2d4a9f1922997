import math
import tempfile
import time
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adastoc import complexity, framework
from adastoc.complexity import (
    expected_toc_bound,
    growth_exponent,
    highprob_toc_bound,
    monte_carlo_sweep,
    monte_carlo_toc,
    sass_complexity_report,
    storm_complexity_report,
)
from adastoc.errors import AssumptionViolationError, InvalidParameterError, NumericError
from adastoc.framework import (
    TRACE_COLUMNS,
    AlgoConfig,
    IterationRecord,
    RunTrace,
    derive_seeds,
    run_adaptive,
    run_lockstep,
)
from adastoc.methods import SassMethod, StormMethod
from adastoc.oracles import (
    CostModel,
    ExactOracles,
    PairCorruptionOracles,
    SassMinibatchOracles,
    SassOracleSpec,
    StormMinibatchOracles,
    StormOracleSpec,
    sass_cost_models,
    storm_cost_models,
)
from adastoc.problems import NoiseSpec, make_problem
from adastoc.walk import WalkParams, gamma_threshold, stepsize_lower_bound


def _config(**kw):
    base = dict(theta=0.1, gamma=0.5, alpha0=1.0, alpha_max=1.0)
    base.update(kw)
    return AlgoConfig(**base)


def _trace_with_costs(costs):
    records = [
        IterationRecord(
            k=k, alpha=1.0, success=True, cost0=c0, cost1=c1,
            true_grad_norm=1.0, true_gap=1.0, alpha_base=1.0, alpha_exp=0,
        )
        for k, (c0, c1) in enumerate(costs)
    ]
    return RunTrace(
        records=records, stopping_iteration=len(records), config=_config(),
        epsilon=1e-3, mode="nonconvex", final_grad_norm=0.0, final_gap=0.0,
        final_x=np.zeros(1),
    )


def _totals(trace):
    """A run's (toc0, toc1, iterations, stopped): its cost column sums, length and stop."""
    return (
        sum(trace.cost0.tolist()), sum(trace.cost1.tolist()), len(trace.cost0),
        trace.stopping_iteration is not None,
    )


def test_cost_columns_sum_to_hand_values():
    assert _totals(_trace_with_costs([(2, 3), (5, 7), (11, 13)])) == (18, 23, 3, True)


def test_cost_columns_constant_costs_and_empty():
    assert _totals(_trace_with_costs([(4, 9)] * 10)) == (40, 90, 10, True)
    assert _totals(_trace_with_costs([])) == (0, 0, 0, True)


def _total_cost(models, alpha):
    return sum(m.cost(alpha) for m in models)


def test_expected_bound_constant_cost_identity():
    params = WalkParams(p=0.9, gamma=0.8, alpha_bar=0.1, omega=1.0)
    const = CostModel(((7.0, math.inf, 0.0),))
    got = expected_toc_bound((const,), params, 50).bound_value
    q, c = params.q, params.c
    manual = 7 * 50 * (1 + sum(min(1.0, 50 * (q / 0.9) ** l + c * (2 * q) ** l) for l in range(1, 51)))
    assert got == pytest.approx(manual, rel=1e-12)


def test_expected_bound_matches_high_precision_resummation():
    # same per-level costs, accumulated at 50 significant digits
    spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=0.05, delta1=0.05, kappa_ef=1.0, kappa_eg=1.0)
    params = WalkParams(p=0.9, gamma=0.8, alpha_bar=0.1, omega=1.0)
    models = storm_cost_models(spec)
    got = expected_toc_bound(models, params, 100).bound_value
    with mpmath.workdps(50):
        q = mpmath.mpf(1) - mpmath.mpf("0.9")
        c = 2 * mpmath.sqrt(mpmath.mpf("0.9") * q) / (1 - 2 * mpmath.sqrt(mpmath.mpf("0.9") * q)) ** 2
        acc = mpmath.mpf(100) * _total_cost(models, 0.1)
        for l in range(1, 101):
            w = min(mpmath.mpf(1), 100 * (q / mpmath.mpf("0.9")) ** l + c * (2 * q) ** l)
            acc += 100 * w * _total_cost(models, 0.1 * 0.8**l)
        ref = float(acc)
    assert got == pytest.approx(ref, rel=1e-10)


def test_expected_bound_nondecreasing_in_n():
    spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=0.05, delta1=0.05)
    params = WalkParams(p=0.9, gamma=0.85, alpha_bar=0.1, omega=1.0)
    models = storm_cost_models(spec)
    values = [expected_toc_bound(models, params, n).bound_value for n in (10, 20, 40, 80, 160)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_expected_bound_rejects_increasing_cost():
    params = WalkParams(p=0.9, gamma=0.8, alpha_bar=1.0, omega=1.0)
    increasing = CostModel(((100.0, math.inf, -1.0),))  # 100 * alpha
    with pytest.raises(AssumptionViolationError, match="near level 1;"):
        expected_toc_bound((increasing,), params, 20)


def test_expected_bound_divergent_regime_is_inf():
    # contraction faster than the tail decay: gamma < (2q)^(1/4)
    spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=0.1, delta1=0.1)
    params = WalkParams(p=0.8, gamma=0.5, alpha_bar=0.1, omega=1.0)
    assert expected_toc_bound(storm_cost_models(spec), params, 2000).bound_value == math.inf


_GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9)
_PS = (0.6, 0.7, 0.8, 0.9)


def test_storm_expected_bound_is_inf_only_in_the_divergent_regime():
    # the storm total grows like alpha**-4: past the levels of weight 1 the
    # terms shrink geometrically when gamma**4 > 2q, so the sum is finite there
    infinite = set()
    for gamma in _GAMMAS:
        for p in _PS:
            spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=(1 - p) / 2, delta1=(1 - p) / 2)
            params = WalkParams(p=spec.p, gamma=gamma, alpha_bar=0.1, omega=1.0)
            if math.isinf(expected_toc_bound(storm_cost_models(spec), params, 2000).bound_value):
                infinite.add((gamma, p))
                assert gamma**4 < 2 * params.q
    assert (0.5, 0.8) in infinite and (0.9, 0.9) not in infinite


def test_sass_expected_bound_finite_for_alpha_independent_cost():
    # three samples per iteration whatever alpha: the tail ratio is 2q < 1
    report = sass_complexity_report(
        SassOracleSpec(), NoiseSpec.none(), 0.1, 2000, 0.6, 1.0, "nonconvex", p=0.8, alpha_bar=0.5
    )
    assert math.isfinite(report.expected.bound_value)
    assert report.expected.bound_value >= 2000 * 3
    assert report.high_probability.bound_value == 2000 * 3


def _exponents(models, p, gamma):
    """(value, gradient) growth exponents of a report's models on the walk (p, gamma)."""
    params = WalkParams(p=p, gamma=gamma, alpha_bar=0.5, omega=1.0)
    return tuple(growth_exponent(model, params) for model in models)


def test_report_growth_exponents_on_grid():
    for gamma in _GAMMAS:
        for p in _PS:
            log_qp = math.log((1 - p) / p)
            spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=(1 - p) / 2, delta1=(1 - p) / 2)
            toc0_exponent, toc1_exponent = _exponents(storm_cost_models(spec), spec.p, gamma)
            storm_log_qp = math.log((1 - spec.p) / spec.p)
            assert toc0_exponent == 4.0 * math.log(gamma) / storm_log_qp
            assert toc1_exponent == 2.0 * math.log(gamma) / storm_log_qp
            for m_v in (0.0, 1e-3):
                noise = NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2, m_v=m_v)
                models = sass_cost_models(SassOracleSpec(), noise, 0.1, "nonconvex")
                toc0_exponent, toc1_exponent = _exponents(models, p, gamma)
                assert toc0_exponent == 0.0
                assert toc1_exponent == (2.0 * math.log(gamma) / log_qp if m_v > 0 else 0.0)


def test_highprob_bound_constant_cost():
    params = WalkParams(p=0.8, gamma=0.7, alpha_bar=1.0, omega=1.0)
    const = CostModel(((5.0, math.inf, 0.0),))
    report = highprob_toc_bound((const,), params, 100, prob_t_exceeds_n=0.2)
    assert report.bound_value == 500.0
    walk_failure = 100**-1.0 + params.c * 100**-2.0
    assert report.failure_prob == pytest.approx(min(1.0, 0.2 + walk_failure))


def test_highprob_bound_at_corollary_gamma():
    # with gamma at the threshold, n * oc(beta * alpha_bar) dominates the bound
    p, n, omega, beta = 0.8, 10**4, 1.0, 0.25
    gamma = gamma_threshold(p, n, omega, beta)
    params = WalkParams(p=p, gamma=gamma, alpha_bar=1.0, omega=omega)
    models = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    report = highprob_toc_bound(models, params, n, prob_t_exceeds_n=0.0)
    assert report.bound_value <= n * _total_cost(models, beta * 1.0)
    alpha_star, _, _ = stepsize_lower_bound(params, n)
    assert alpha_star >= beta


def test_highprob_bound_independent_formula():
    # recompute n * oc(alpha_star) by direct formula arithmetic
    spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=0.05, delta1=0.05)
    eps, zeta, n, gamma, omega = 0.1, 10.0, 10**4, 0.9, 1.0
    p = 1 - 0.05 - 0.05
    q = 1 - p
    alpha_bar = eps / zeta
    expo = (1 + omega) * math.log(1 / gamma) / math.log(1 / (2 * q))
    alpha_star = alpha_bar * gamma * n**-expo
    oc0 = 2 * math.ceil(1.0 / (0.05 * alpha_star**4))
    oc1 = math.ceil(1.0 / (0.05 * alpha_star**2))
    report = storm_complexity_report(spec, eps, zeta, n, gamma, omega, prob_t_exceeds_n=0.1)
    assert report.high_probability.bound_value == pytest.approx(n * (oc0 + oc1), rel=1e-12)


def test_expected_bound_epsilon_scaling():
    # with a conforming gamma the value-sample bound scales like epsilon^-4
    zeta, n, gamma, omega = 10.0, 100, 0.9, 1.0

    def bound(eps):
        spec = StormOracleSpec(sigma_f=1.0, sigma_g=0.0, delta0=0.05, delta1=0.05)
        return storm_complexity_report(spec, eps, zeta, n, gamma, omega).expected.bound_value

    assert bound(0.1) / bound(0.2) == pytest.approx(16.0, rel=0.05)


def test_storm_report_growth_exponents_and_p():
    spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=0.1, delta1=0.1)
    assert spec.p == pytest.approx(0.8)
    toc0_exponent, toc1_exponent = _exponents(storm_cost_models(spec), spec.p, 0.9)
    assert toc1_exponent == pytest.approx(2 * math.log(0.9) / math.log(0.25), rel=1e-12)
    assert toc1_exponent == pytest.approx(0.152, abs=2e-3)
    assert toc0_exponent == pytest.approx(2 * toc1_exponent, rel=1e-12)


def test_reports_accept_a_perfectly_reliable_walk():
    # p = 1 (q = 0): the walk never climbs a level, so both growth exponents are 0
    storm_spec = StormOracleSpec(delta0=0.0, delta1=0.0)
    storm = storm_complexity_report(storm_spec, 0.1, 10.0, 100, 0.9, 1.0)
    noise = NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2, m_v=1e-3)
    sass = sass_complexity_report(
        SassOracleSpec(), noise, 0.1, 100, 0.9, 1.0, "nonconvex", p=1.0, alpha_bar=0.5
    )
    storm_models = storm_cost_models(storm_spec)
    sass_models = sass_cost_models(SassOracleSpec(), noise, 0.1, "nonconvex")
    assert storm_spec.p == 1.0
    for report, models in ((storm, storm_models), (sass, sass_models)):
        assert _exponents(models, 1.0, 0.9) == (0.0, 0.0)
        assert math.isfinite(report.expected.bound_value)
        assert math.isfinite(report.high_probability.bound_value)


def test_sass_report_interpolation_case():
    # m_c = 0 leaves only the m_v / min(tau, kappa*alpha)^2 gradient cost
    spec = SassOracleSpec(kappa=1.0, tau=10.0)
    noise = NoiseSpec.gaussian(sigma_f=0.0, m_c=0.0, m_v=1.0)
    report = sass_complexity_report(
        spec, noise, 0.1, 100, 0.8, 1.0, "nonconvex", p=0.8, alpha_bar=0.5
    )
    toc0_exponent, toc1_exponent = _exponents(sass_cost_models(spec, noise, 0.1, "nonconvex"), 0.8, 0.8)
    assert toc0_exponent == 0.0
    assert toc1_exponent != 0.0
    assert math.isfinite(report.high_probability.bound_value)


def test_sass_report_strongly_convex_value_cost():
    spec = SassOracleSpec()
    noise = NoiseSpec.gaussian(sigma_f=1.0)
    nc = sass_complexity_report(spec, noise, 0.01, 50, 0.8, 1.0, "nonconvex", p=0.8, alpha_bar=0.5)
    sc = sass_complexity_report(spec, noise, 0.01, 50, 0.8, 1.0, "strongly_convex", p=0.8, alpha_bar=0.5)
    # value-sample cost per iteration: 2*ceil(sigma_f^2/eps^4) vs 2*ceil(sigma_f^2/eps^2)
    assert nc.high_probability.bound_value == pytest.approx(50 * (2 * 10**8 + 1), rel=1e-12)
    assert sc.high_probability.bound_value == pytest.approx(50 * (2 * 10**4 + 1), rel=1e-12)


def _tocs(summary):
    return (summary.toc0 + summary.toc1).tolist()


def _records(summary):
    """The summary's columns as one (toc0, toc1, iterations, stopped) row per replication."""
    columns = (summary.toc0, summary.toc1, summary.iterations, summary.stopped)
    return list(zip(*(c.tolist() for c in columns)))


def test_monte_carlo_zero_noise_has_zero_variance():
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    cfg = _config(alpha0=0.25, alpha_max=0.25, max_iterations=200)
    summary = monte_carlo_toc(prob, SassMethod(), ExactOracles(), cfg, 1e-6, 8, 11)
    tocs = set(_tocs(summary))
    assert len(tocs) == 1
    assert summary.mean_toc == tocs.pop()


def test_monte_carlo_deterministic_and_worker_independent():
    noise = NoiseSpec.gaussian(sigma_f=0.01, m_c=0.01)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(sigma_f=0.01, sigma_g=0.1, delta0=0.1, delta1=0.1)
    cfg = _config(alpha0=0.02, alpha_max=0.02)
    kw = dict(mode="nonconvex")
    a = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.1, 6, 99, **kw)
    b = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.1, 6, 99, **kw)
    c = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.1, 9, 99, **kw)
    assert _tocs(a) == _tocs(b) == _tocs(c)[:6]


def test_monte_carlo_exceedance_against_highprob_bound():
    noise = NoiseSpec.gaussian(sigma_f=0.001, m_c=0.001)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(sigma_f=0.001, sigma_g=math.sqrt(0.001), delta0=0.1, delta1=0.1)
    eps, zeta, gamma, omega = 0.1, 10.0, 0.8, 1.0
    n = 2000
    report = storm_complexity_report(spec, eps, zeta, n, gamma, omega, prob_t_exceeds_n=0.1)
    cfg = _config(gamma=gamma, alpha0=eps / zeta, alpha_max=eps / zeta)
    summary = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, eps, 100, 123)
    assert summary.stopped_fraction == 1.0
    assert summary.exceed_fraction(report.high_probability) <= report.high_probability.failure_prob


def test_monte_carlo_standard_error_scaling():
    # doubling the replication count shrinks the standard error like 1/sqrt(N)
    noise = NoiseSpec.gaussian(sigma_f=0.02, m_c=0.02)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(sigma_f=0.02, sigma_g=0.2, delta0=0.15, delta1=0.15)
    cfg = _config(gamma=0.6, alpha0=0.05, alpha_max=0.05)
    small = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.2, 150, 7)
    big = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.2, 300, 7)
    se_small = np.std(_tocs(small), ddof=1) / math.sqrt(150)
    se_big = np.std(_tocs(big), ddof=1) / math.sqrt(300)
    assert se_big == pytest.approx(se_small / math.sqrt(2), rel=0.3)


def _lockstep_case(name, alpha0, mode):
    """(problem, method, suite, config, epsilon, mode) over all suite x method pairs."""
    quiet = make_problem("quadratic", 3, 10.0, NoiseSpec.none(), seed=0)
    cfg = dict(theta=0.2, gamma=0.6, alpha0=alpha0, alpha_max=0.3, max_iterations=120)
    if name == "storm-minibatch":
        noise = NoiseSpec.gaussian(sigma_f=0.01, m_c=0.01)
        spec = StormOracleSpec(sigma_f=0.01, sigma_g=0.1, delta0=0.1, delta1=0.1)
        prob = make_problem("quadratic", 3, 10.0, noise, seed=0)
        return prob, StormMethod(), StormMinibatchOracles(spec), AlgoConfig(**cfg), 0.05, "nonconvex"
    if name == "sass-minibatch":
        # m_v > 0: each row's gradient noise scale depends on its own gradient
        noise = NoiseSpec.gaussian(sigma_f=0.01, m_c=0.01, m_v=0.3)
        prob = make_problem("quadratic", 3, 10.0, noise, seed=0)
        suite = SassMinibatchOracles(SassOracleSpec(), 0.05, batch_scale=3.0)
        return prob, SassMethod(), suite, AlgoConfig(r=0.01, **cfg), 0.05, mode
    if name == "sass-corrupt-logistic":
        # rows accept at different iterations, so grad f is built from the trial point's
        # margins for a subset of rows
        prob = make_problem("logistic_synthetic", 3, 10.0, NoiseSpec.none(), seed=1)
        return prob, SassMethod(), PairCorruptionOracles(0.2, 0.15), AlgoConfig(**cfg), 2e-3, mode
    method, suite = name.split("-")
    method = SassMethod() if method == "sass" else StormMethod()
    suite = ExactOracles() if suite == "exact" else PairCorruptionOracles(0.2, 0.15)
    mode = mode if isinstance(method, SassMethod) else "nonconvex"
    return quiet, method, suite, AlgoConfig(**cfg), 2e-3, mode


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(
        ["sass-exact", "storm-exact", "sass-corrupt", "storm-corrupt", "storm-minibatch", "sass-minibatch",
         "sass-corrupt-logistic"]
    ),
    alpha0=st.sampled_from([0.3, 0.05]),
    mode=st.sampled_from(["nonconvex", "strongly_convex"]),
    k=st.integers(1, 6),
    j=st.integers(1, 6),
    master=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 5, 1024]),
)
@example(name="sass-corrupt-logistic", alpha0=0.3, mode="nonconvex", k=5, j=2, master=7, chunk=5)
@example(name="sass-corrupt-logistic", alpha0=0.05, mode="strongly_convex", k=4, j=3, master=8, chunk=1024)
def test_lockstep_replications_equal_separate_runs(name, alpha0, mode, k, j, master, chunk):
    # R replications advanced together give each one's run_adaptive trace,
    # column by column and in CSV bytes, however the trace is packed, and
    # its totals; the first j rows of R = k are the R = j run
    prob, method, suite, cfg, eps, mode = _lockstep_case(name, alpha0, mode)
    seeds = derive_seeds(master, k)
    separate = [run_adaptive(prob, method, suite, cfg, eps, mode=mode, seed=s) for s in seeds]
    with mock.patch.object(framework, "_CHUNK", chunk):
        together = run_lockstep(prob, method, suite, cfg, eps, seeds, mode=mode)
    assert len(together) == k
    with tempfile.TemporaryDirectory() as tmp:
        for i, (a, b) in enumerate(zip(together, separate)):
            for column in TRACE_COLUMNS:
                ca, cb = getattr(a, column), getattr(b, column)
                assert ca.dtype == cb.dtype and ca.tolist() == cb.tolist(), column
            assert (a.stopping_iteration, a.final_grad_norm, a.final_gap) == (
                b.stopping_iteration, b.final_grad_norm, b.final_gap
            )
            assert a.final_x.tolist() == b.final_x.tolist()
            paths = Path(tmp) / f"a{i}.csv", Path(tmp) / f"b{i}.csv"
            a.write_csv(paths[0])
            b.write_csv(paths[1])
            assert paths[0].read_bytes() == paths[1].read_bytes()
    summary = monte_carlo_toc(prob, method, suite, cfg, eps, k, master, mode=mode)
    assert _records(summary) == [_totals(t) for t in separate]
    # the other per-seed columns are each run's ends; the measures at the
    # last iterate are recomputed from the problem itself, bit for bit (nan included)
    stops = [t.stopping_iteration for t in separate]
    assert summary.stopped_at.tolist() == [-1 if stop is None else stop for stop in stops]
    assert summary.final_x.tolist() == [t.final_x.tolist() for t in separate]
    min_value = math.nan if prob.min_value is None else prob.min_value
    gaps = [prob.value(x) - min_value for x in summary.final_x]
    norms = [float(np.sqrt(np.dot(g, g))) for g in map(prob.grad, summary.final_x)]
    assert [v.hex() for v in summary.final_gap.tolist()] == [v.hex() for v in gaps]
    assert [v.hex() for v in summary.final_grad_norm.tolist()] == [v.hex() for v in norms]
    j = min(j, k)
    assert _records(monte_carlo_toc(prob, method, suite, cfg, eps, j, master, mode=mode)) == _records(summary)[:j]


@pytest.mark.parametrize(
    "gamma, sigma_f, kappa_ef, max_iterations",
    [
        (0.5, 1e-11, 10.0, 60),  # later charges leave the int64 range altogether
        (0.99, 1e8, math.sqrt(10.0), 100),  # every charge a row reaches fits int64, the totals do not
    ],
)
def test_totals_stay_exact_when_charges_pass_the_int64_share_mid_run(gamma, sigma_f, kappa_ef, max_iterations):
    # theta2 = 1e30 fails every trust-region iteration, so alpha = gamma**k and
    # the value batch grows as alpha**-4: the charges of the step sizes the
    # first table fill holds (exponents up to 32) are at most the int64 share
    # (2**63 - 1) // max_iterations, later ones exceed it, and every total
    # passes 2**63; the totals are still the Python-int sums of the traces
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    spec = StormOracleSpec(sigma_f=sigma_f, kappa_ef=kappa_ef)
    suite = StormMinibatchOracles(spec)
    cfg = _config(gamma=gamma, theta2=1e30, max_iterations=max_iterations)
    value, _ = storm_cost_models(spec)
    charges = [2 * value.batch(gamma**k) for k in range(max_iterations)]
    share = (2**63 - 1) // max_iterations
    assert max(charges[:33]) <= share < max(charges) and sum(charges) > 2**63
    summary = monte_carlo_toc(prob, StormMethod(), suite, cfg, 1e-9, 3, 7)
    separate = [run_adaptive(prob, StormMethod(), suite, cfg, 1e-9, seed=s) for s in derive_seeds(7, 3)]
    assert [t.cost0.tolist() for t in separate] == [charges] * 3
    assert _records(summary) == [_totals(t) for t in separate]
    assert all(type(total) is int for total in [*summary.toc0, *summary.toc1])


def _sweep_runs(name, mode, draws):
    """(problem, method, runs, mode): one run per drawn (epsilon, gamma, alpha_max, alpha0 share, r, suite).

    The runs differ in epsilon, gamma, alpha_max, alpha0 and r; sass
    minibatch runs take the CLI's unset r at each tolerance's batch, and
    corruption runs switch between two suites, so that some neighbouring
    runs share a loop and some do not.
    """
    prob, method, suite, cfg, _, mode = _lockstep_case(name, 0.3, mode)
    runs = []
    for master, (epsilon, gamma, alpha_max, share, r, other) in enumerate(draws):
        if name == "sass-minibatch":
            suite = SassMinibatchOracles(SassOracleSpec(), epsilon, batch_scale=3.0)
            r = 2.0 * prob.noise.sigma_f / math.sqrt(suite.cost_models(prob)[0].batch(1.0))
        elif "corrupt" in name:
            suite = PairCorruptionOracles(0.2, 0.15) if other else PairCorruptionOracles(0.1, 0.1)
        alpha_max = min(alpha_max, 10.0 * epsilon)  # storm's epsilon / zeta at zeta = 0.1
        config = AlgoConfig(
            theta=cfg.theta, gamma=gamma, alpha0=alpha_max * share, alpha_max=alpha_max,
            r=0.0 if isinstance(method, StormMethod) else r, max_iterations=cfg.max_iterations,
        )
        runs.append((suite, config, epsilon, master))
    return prob, method, runs, mode


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(
        ["sass-exact", "storm-exact", "sass-corrupt", "storm-corrupt", "storm-minibatch", "sass-minibatch",
         "sass-corrupt-logistic"]
    ),
    mode=st.sampled_from(["nonconvex", "strongly_convex"]),
    draws=st.lists(
        st.tuples(
            st.sampled_from([2e-3, 5e-3, 0.05]),
            st.sampled_from([0.5, 0.6, 0.8]),
            st.sampled_from([0.3, 0.1]),
            st.sampled_from([1.0, 0.25]),
            st.sampled_from([0.0, 0.01]),
            st.booleans(),
        ),
        min_size=1, max_size=4,
    ),
    k=st.integers(1, 4),
)
@example(
    name="sass-minibatch", mode="nonconvex", k=3,
    draws=[(0.05, 0.6, 0.3, 1.0, 0.0, False), (5e-3, 0.8, 0.3, 0.25, 0.0, False)],
)
def test_a_sweep_gives_each_run_its_own_monte_carlo_columns(name, mode, draws, k):
    # runs advanced in one lockstep loop give each run what monte_carlo_toc
    # gives it alone, column by column, floats bit for bit
    prob, method, runs, mode = _sweep_runs(name, mode, draws)
    together = monte_carlo_sweep(prob, method, runs, k, mode)
    assert len(together) == len(runs)
    for summary, (suite, config, epsilon, master) in zip(together, runs):
        alone = monte_carlo_toc(prob, method, suite, config, epsilon, k, master, mode=mode)
        for name in ("stopped_at", "iterations", "toc0", "toc1", "final_x"):
            a, b = getattr(summary, name), getattr(alone, name)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), name
        for name in ("final_grad_norm", "final_gap"):
            assert [v.hex() for v in getattr(summary, name).tolist()] == [
                v.hex() for v in getattr(alone, name).tolist()
            ], name


@pytest.mark.parametrize("method", [StormMethod(), SassMethod()], ids=["storm", "sass"])
def test_a_sweep_of_exact_runs_gives_the_same_columns_at_one_replication_and_seven(method):
    # exact oracles draw nothing, so every replication repeats one run: a
    # draw-free CLI sweep runs one.  The last tolerance does not stop
    prob = make_problem("quadratic", 4, 10.0, NoiseSpec.none(), seed=0)
    config = AlgoConfig(theta=0.1, gamma=0.6, alpha0=0.09, alpha_max=0.09, max_iterations=100)
    epsilons = (0.1, 0.01, 1e-6)
    runs = [(ExactOracles(), config, epsilon, seed) for epsilon, seed in zip(epsilons, derive_seeds(0, 3))]
    one, seven = (monte_carlo_sweep(prob, method, runs, replications) for replications in (1, 7))
    assert [summary.stopped_fraction for summary in one] == [1.0, 1.0, 0.0]
    for a, b in zip(one, seven):
        assert (a.replications, b.replications) == (1, 7)
        for name in ("mean_iterations", "mean_toc0", "mean_toc1", "stopped_fraction"):
            assert getattr(a, name).hex() == getattr(b, name).hex(), name
        total = a.mean_toc0 + a.mean_toc1
        for value in (0.0, total - 1.0, total, math.inf):
            bound = complexity.BoundReport(value, 0.5, "expected")
            assert a.exceed_fraction(bound) == b.exceed_fraction(bound), value


def test_a_sweep_refuses_runs_whose_loops_differ_before_running():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    runs = [(ExactOracles(), _config(theta=theta), 1e-6, 0) for theta in (0.1, 0.2)]
    with mock.patch("adastoc.complexity._lockstep", side_effect=AssertionError("a replication ran")):
        with pytest.raises(InvalidParameterError, match="share theta, theta2 and max_iterations"):
            monte_carlo_sweep(prob, SassMethod(), runs, 2)
        with pytest.raises(InvalidParameterError, match="at least one run"):
            monte_carlo_sweep(prob, SassMethod(), [], 2)


class _FlakyValues(PairCorruptionOracles):
    """Pair corruption whose trial value is nan on a rare coin, drawn row by row."""

    coin = 0.004

    def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
        f0, fp = super().values_rows(problem, x, x_plus, f, f_plus, batch, streams)
        return f0, np.where(streams.take(1)[:, 0] < self.coin, np.nan, fp)


class _RareFlakyValues(_FlakyValues):
    coin = 2e-5


def _count_loops(monkeypatch) -> list:
    """Count the harness's calls of the lockstep loop: the list grows by one per call."""
    calls, loop = [], complexity._lockstep

    def counting(*args, **kwargs):
        calls.append(1)
        return loop(*args, **kwargs)

    monkeypatch.setattr(complexity, "_lockstep", counting)
    return calls


def test_monte_carlo_names_the_first_failing_replication_as_one_at_a_time_runs_do():
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    cfg = _config(alpha0=0.1, alpha_max=0.1, max_iterations=400)
    suite = _FlakyValues(0.1, 0.1)
    first = None
    for i, seed in enumerate(derive_seeds(3, 12)):
        try:
            run_adaptive(prob, SassMethod(), suite, cfg, 1e-9, seed=seed)
        except NumericError as exc:
            first = f"replication {i}: {exc}"
            break
    assert first is not None and "iteration" in first
    with pytest.raises(NumericError) as raised:
        monte_carlo_toc(prob, SassMethod(), suite, cfg, 1e-9, 12, 3)
    assert str(raised.value) == first


def test_a_failing_replication_costs_one_loop(monkeypatch):
    # replication 19 of 200 fails; the other rows run on beside it, so the
    # error comes out of the one loop, with the message one-at-a-time runs give
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    cfg = _config(alpha0=0.1, alpha_max=0.1, max_iterations=400)
    calls = _count_loops(monkeypatch)
    with pytest.raises(NumericError) as raised:
        monte_carlo_toc(prob, SassMethod(), _RareFlakyValues(0.1, 0.1), cfg, 1e-9, 200, 3)
    assert str(raised.value) == "replication 19: non-finite value estimate at iteration 47"
    assert len(calls) == 1


def test_a_failing_stretch_of_a_sweep_costs_one_loop(monkeypatch):
    # three tolerances share a suite and so a loop.  Alone, the first run
    # passes, the second fails at iteration 56 and the third at 10; the
    # error is the second's, as monte_carlo_toc calls in order raise it
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    suite = _FlakyValues(0.1, 0.1)
    runs = [(suite, _config(alpha0=0.1, alpha_max=0.1, max_iterations=400), eps, seed)
            for eps, seed in ((0.5, 3), (0.01, 0), (0.1, 2))]
    alone = []
    for run in runs:
        try:
            monte_carlo_toc(prob, SassMethod(), *run[:3], 12, run[3])
            alone.append(None)
        except NumericError as exc:
            alone.append(str(exc))
    first = "replication 1: non-finite value estimate at iteration 56"
    assert alone == [None, first, "replication 3: non-finite value estimate at iteration 10"]
    calls = _count_loops(monkeypatch)
    with pytest.raises(NumericError) as raised:
        monte_carlo_sweep(prob, SassMethod(), runs, 12)
    assert str(raised.value) == first
    assert len(calls) == 1


def test_run_lockstep_raises_the_lowest_failing_seeds_error():
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    cfg = _config(alpha0=0.1, alpha_max=0.1, max_iterations=400)
    suite, seeds = _FlakyValues(0.1, 0.1), derive_seeds(3, 12)
    errors = []
    for seed in seeds:
        try:
            run_adaptive(prob, SassMethod(), suite, cfg, 1e-9, seed=seed)
        except NumericError as exc:
            errors.append(str(exc))
    # the lowest failing seed fails at iteration 161, after others fail at 58, 41 and 36
    assert errors[0] == "non-finite value estimate at iteration 161"
    with pytest.raises(NumericError) as raised:
        run_lockstep(prob, SassMethod(), suite, cfg, 1e-9, seeds)
    assert str(raised.value) == errors[0]


def test_a_plug_in_error_propagates_unchanged(monkeypatch):
    # an exception inside a plug-in's row method cannot be pinned to a row:
    # it leaves the one loop as it was raised, with no replication index
    class Boom(ExactOracles):
        def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
            raise ValueError("boom")

    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    calls = _count_loops(monkeypatch)
    with pytest.raises(ValueError) as raised:
        monte_carlo_toc(prob, SassMethod(), Boom(), _config(), 1e-6, 3, 0)
    assert type(raised.value) is ValueError and str(raised.value) == "boom"
    assert len(calls) == 1


def test_a_cost_that_overflows_at_alpha0_is_refused_before_any_loop(monkeypatch):
    # a batch beyond the double range at the start step size is the
    # configuration's error: run_adaptive's message, with no replication index
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.gaussian(sigma_f=1e200), seed=0)
    suite, cfg = StormMinibatchOracles(StormOracleSpec(sigma_f=1e200)), _config(alpha0=0.01, alpha_max=0.01)
    with pytest.raises(InvalidParameterError) as alone:
        run_adaptive(prob, StormMethod(), suite, cfg, 0.1)
    calls = _count_loops(monkeypatch)
    with pytest.raises(InvalidParameterError) as raised:
        monte_carlo_toc(prob, StormMethod(), suite, cfg, 0.1, 5, 0)
    assert str(raised.value) == str(alone.value) == "cost model 'tr_value' overflows at alpha=0.01"
    assert calls == []


@pytest.mark.parametrize("master_seed", [-1, 1.5])
def test_monte_carlo_refuses_a_bad_master_seed(master_seed):
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    with pytest.raises(InvalidParameterError, match="seed"):
        monte_carlo_toc(prob, SassMethod(), ExactOracles(), _config(), 1e-6, 3, master_seed)


def test_monte_carlo_propagates_errors_with_replication_index():
    from adastoc.errors import NumericError
    from adastoc.oracles import ExactOracles as _Exact

    class Broken(_Exact):
        def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
            return np.full_like(f, math.nan), np.ones_like(f_plus)

    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    with pytest.raises(NumericError, match="replication 0"):
        monte_carlo_toc(prob, SassMethod(), Broken(), _config(), 1e-6, 3, 0)


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_equal_infinite_value_estimates_fail_their_row_without_a_warning(value):
    # inf - inf is nan with a RuntimeWarning: the check masks each estimate, never their difference
    class Infinite(ExactOracles):
        def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
            return np.full_like(f, value), np.full_like(f_plus, value)

    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError) as raised:
            monte_carlo_toc(prob, SassMethod(), Infinite(), _config(), 1e-6, 3, 0)
    assert str(raised.value) == "replication 0: non-finite value estimate at iteration 0"


def _nan_gradient_suite(nan_at: dict) -> PairCorruptionOracles:
    """Pair corruption whose gradient estimate is nan on stack row nan_at[k] at iteration k."""
    calls = []

    class NanGradients(PairCorruptionOracles):
        def gradient_rows(self, problem, x, g, batch, streams):
            g_hat = np.array(super().gradient_rows(problem, x, g, batch, streams))  # a copy: it may be g
            if len(calls) in nan_at:
                g_hat[nan_at[len(calls)]] = np.nan
            calls.append(1)
            return g_hat

    return NanGradients(0.1, 0.1)


def test_a_non_finite_gradient_fails_its_row_and_leaves_the_others_alone(monkeypatch):
    # replication 3's gradient is nan at iteration 2 and replication 2's at
    # iteration 5: the lowest failing replication, 2, is named, and rows 0
    # and 1 end as their lone runs do.  A failing row steps from a zero
    # stand-in gradient: a nan step would put nan into the logistic loss,
    # whose logaddexp warns
    prob = make_problem("logistic_synthetic", 3, 4.0, NoiseSpec.none(), seed=1)
    cfg = _config(max_iterations=40)
    alone = monte_carlo_toc(prob, SassMethod(), PairCorruptionOracles(0.1, 0.1), cfg, 1e-9, 4, 7)
    ends, summary = [], framework.McTocSummary  # the loop fills its McTocSummary row by row before it raises
    monkeypatch.setattr(framework, "McTocSummary", lambda *columns: ends.append(summary(*columns)) or ends[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError) as raised:
            monte_carlo_toc(prob, SassMethod(), _nan_gradient_suite({2: 3, 5: 2}), cfg, 1e-9, 4, 7)
    assert str(raised.value) == "replication 2: non-finite gradient estimate at iteration 5"
    assert alone.iterations.tolist() == [40] * 4
    for column in fields(summary):
        assert getattr(ends[0], column.name)[:2].tolist() == getattr(alone, column.name)[:2].tolist(), column.name


def test_storm_report_is_inf_when_the_step_size_floor_underflows():
    # alpha_star(10**6) = 0.0 in a double at level 677: a cost growing as
    # alpha shrinks is beyond the double range there, not a parameter error
    spec = StormOracleSpec(sigma_f=1e-3, sigma_g=0.1, delta0=0.24, delta1=0.24)
    report = storm_complexity_report(spec, 0.1, 10.0, 10**6, 0.1, 1.0)
    alpha_star, _, level = stepsize_lower_bound(WalkParams(p=spec.p, gamma=0.1, alpha_bar=0.01, omega=1.0), 10**6)
    assert (alpha_star, level) == (0.0, 677)
    assert report.high_probability.bound_value == math.inf
    assert report.expected.bound_value == math.inf


# The theory grid of the benchmark's `theory` workload: storm and sass
# reports over gammas x tolerances, horizon ceil(20 / epsilon**2).
_GRID_GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9)
_GRID_EPSILONS = (0.2, 0.1, 0.05)
_GRID_STORM = StormOracleSpec(sigma_f=1e-3, sigma_g=0.1)
_GRID_NOISE = NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2, m_v=1e-3)


def _grid_n(eps):
    return math.ceil(20.0 / eps**2)


def _grid_report(kind, gamma, eps):
    n = _grid_n(eps)
    if kind == "storm":
        return storm_complexity_report(_GRID_STORM, eps, 10.0, n, gamma, 1.0, prob_t_exceeds_n=0.1)
    return sass_complexity_report(
        SassOracleSpec(), _GRID_NOISE, eps, n, gamma, 1.0, "nonconvex", p=0.8, alpha_bar=0.45,
        prob_t_exceeds_n=0.1,
    )


def test_theory_grid_expected_bounds_are_inf_exactly_where_the_sum_overflows():
    infinite = {
        (kind, gamma, eps)
        for gamma in _GRID_GAMMAS
        for eps in _GRID_EPSILONS
        for kind in ("storm", "sass")
        if math.isinf(_grid_report(kind, gamma, eps).expected.bound_value)
    }
    assert infinite == {
        ("storm", 0.5, 0.2), ("storm", 0.5, 0.1), ("storm", 0.5, 0.05),
        ("sass", 0.5, 0.1), ("sass", 0.5, 0.05),
        ("storm", 0.6, 0.1), ("storm", 0.6, 0.05), ("sass", 0.6, 0.05),
        ("storm", 0.7, 0.1), ("storm", 0.7, 0.05),
    }


def _mp_expected_bound(models, params, n):
    """n * sum_{l=0..n} w_l * oc(alpha_bar gamma**l) at 40 digits, from the same float inputs.

    The level powers advance by one product per level, which costs about
    n * 1e-40 of relative accuracy.
    """
    with mpmath.workdps(40):
        p, q = mpmath.mpf(params.p), mpmath.mpf(params.q)
        c = 2 * mpmath.sqrt(p * q) / (1 - 2 * mpmath.sqrt(p * q)) ** 2
        terms = [
            (model.calls_per_iteration, [(mpmath.mpf(ci), mpmath.mpf(ai), int(pi) if pi == int(pi) else pi)
                                         for ci, ai, pi in model.terms])
            for model in models
        ]
        gamma, total = mpmath.mpf(params.gamma), mpmath.mpf(0)
        alpha, qp_l, two_q_l = mpmath.mpf(params.alpha_bar), mpmath.mpf(1), mpmath.mpf(1)
        for _ in range(n + 1):
            weight = min(1, n * qp_l + c * two_q_l)
            cost = 0
            for calls, model_terms in terms:
                raw = sum(ci / min(alpha, ai) ** pi for ci, ai, pi in model_terms)
                cost += calls * max(1, mpmath.ceil(raw))
            total += n * weight * cost
            alpha, qp_l, two_q_l = alpha * gamma, qp_l * (q / p), two_q_l * (2 * q)
        return total


@pytest.mark.parametrize(
    "kind, gamma, eps",
    [
        # dominant terms where the cost or the weight leaves the double range
        ("sass", 0.5, 0.2), ("sass", 0.6, 0.2), ("sass", 0.6, 0.1), ("storm", 0.6, 0.2), ("storm", 0.7, 0.2),
        # convergent sums
        ("storm", 0.8, 0.1), ("sass", 0.8, 0.2), ("storm", 0.9, 0.2),
        # the grid's other finite bounds
        ("storm", 0.8, 0.2), ("storm", 0.8, 0.05), ("storm", 0.9, 0.1), ("storm", 0.9, 0.05),
        ("sass", 0.7, 0.2), ("sass", 0.7, 0.1), ("sass", 0.7, 0.05), ("sass", 0.8, 0.1),
        ("sass", 0.8, 0.05), ("sass", 0.9, 0.2), ("sass", 0.9, 0.1), ("sass", 0.9, 0.05),
    ],
)
def test_expected_bound_matches_mpmath_summation(kind, gamma, eps):
    report = _grid_report(kind, gamma, eps)
    n = _grid_n(eps)
    if kind == "storm":
        params = WalkParams(p=_GRID_STORM.p, gamma=gamma, alpha_bar=eps / 10.0, omega=1.0)
        models = storm_cost_models(_GRID_STORM)
    else:
        params = WalkParams(p=0.8, gamma=gamma, alpha_bar=0.45, omega=1.0)
        models = sass_cost_models(SassOracleSpec(), _GRID_NOISE, eps, "nonconvex")
    got = report.expected.bound_value
    assert math.isfinite(got)
    assert complexity._head_end(models, params, n) <= n  # the closed-form tail carries levels H..n
    ref = _mp_expected_bound(models, params, n)
    assert abs(got - ref) <= 1e-12 * ref


@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_expected_bound_work_does_not_grow_with_n(gamma):
    # the levels end where every later term is 0 in a double, or where the
    # sum overflows, not at level n
    models = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    params = WalkParams(p=0.8, gamma=gamma, alpha_bar=0.1, omega=1.0)
    start = time.perf_counter()
    value = expected_toc_bound(models, params, 10**9).bound_value
    assert time.perf_counter() - start < 0.5
    assert math.isinf(value) == (gamma**4 < 2 * params.q)


@pytest.mark.parametrize("gamma, n", [(0.4**0.25 * (1 + 1e-9), 20_000), (0.4**0.25 * (1 - 1e-6), 2000)])
def test_expected_bound_near_the_storm_threshold_matches_mpmath(gamma, n):
    # 2q gamma**-4 within 1e-6 of 1: the tail's terms neither grow nor decay
    # over n levels.  At gamma = 0.4**0.25 itself the raw costs 1e5 * 2.5**k
    # of levels 4k sit within rounding of integers, so ceil of the double raw
    # (what a run pays, and the head's charge) and ceil of the exact raw (the
    # reference) differ by one sample at some levels, 5e-9 at n = 100
    models = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    params = WalkParams(p=0.8, gamma=gamma, alpha_bar=0.1, omega=1.0)
    got = expected_toc_bound(models, params, n).bound_value
    ref = _mp_expected_bound(models, params, n)
    assert abs(got - ref) <= 1e-12 * ref


def test_expected_bound_at_the_storm_threshold_is_fast_at_any_horizon():
    # 2q gamma**-4 = 1: every level up to n counts, and none is evaluated past the head
    models = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    params = WalkParams(p=0.8, gamma=0.4**0.25, alpha_bar=0.1, omega=1.0)
    start = time.perf_counter()
    value = expected_toc_bound(models, params, 10**9).bound_value
    assert time.perf_counter() - start < 0.5
    assert math.isfinite(value) and value > expected_toc_bound(models, params, 10**8).bound_value


def test_expected_bound_near_one_half_is_fast_at_any_horizon():
    # at p = 1/2 + 1e-6 the weight is 1 at every level up to 10**7, so a
    # constant cost of 7 gives n * 7 * (n + 1) exactly
    const = CostModel(((7.0, math.inf, 0.0),))
    params = WalkParams(p=0.5 + 1e-6, gamma=0.8, alpha_bar=0.1, omega=1.0)
    start = time.perf_counter()
    value = expected_toc_bound((const,), params, 10**7).bound_value
    assert time.perf_counter() - start < 0.5
    assert value == 7 * 10**7 * (10**7 + 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300) | st.floats(-1e-300, 1e-300), max_size=60), st.integers(1, 7))
def test_exact_sum_never_rounds_a_running_total(values, block):
    # accumulated block by block, the partials' sum is still the correctly rounded sum of all values
    parts = []
    for start in range(0, len(values), block):
        parts = complexity._exact_sum([*parts, *values[start : start + block]])
    assert math.fsum(parts) == math.fsum(values)
