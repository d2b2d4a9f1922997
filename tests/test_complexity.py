import math
import tempfile
import time
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adastoc import framework
from adastoc.complexity import (
    TocRecord,
    accumulate_toc,
    expected_toc_bound,
    highprob_toc_bound,
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


def test_accumulate_toc_hand_values():
    rec = accumulate_toc(_trace_with_costs([(2, 3), (5, 7), (11, 13)]))
    assert (rec.toc0, rec.toc1, rec.toc) == (18, 23, 41)
    assert rec.iterations_used == 3 and rec.stopped


def test_accumulate_toc_constant_costs_and_empty():
    rec = accumulate_toc(_trace_with_costs([(4, 9)] * 10))
    assert (rec.toc0, rec.toc1) == (40, 90)
    empty = accumulate_toc(_trace_with_costs([]))
    assert (empty.toc0, empty.toc1, empty.toc) == (0, 0, 0)


def test_accumulate_toc_horizon_cap():
    rec = accumulate_toc(_trace_with_costs([(1, 1)] * 8), horizon=3)
    assert rec.toc == 6 and rec.iterations_used == 3


@pytest.mark.parametrize("horizon", [-1, -11])
def test_accumulate_toc_refuses_a_negative_horizon(horizon):
    # a negative slice bound would count from the end of the trace
    with pytest.raises(InvalidParameterError, match="horizon"):
        accumulate_toc(_trace_with_costs([(1, 1)] * 11), horizon=horizon)


def test_toc_record_sum_invariant():
    # the total is toc0 + toc1 by construction; it cannot be given separately
    assert TocRecord(toc0=1, toc1=2, iterations_used=1, stopped=True).toc == 3
    with pytest.raises(TypeError):
        TocRecord(toc0=1, toc1=1, toc=3, iterations_used=1, stopped=True)


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


def test_report_growth_exponents_on_grid():
    for gamma in _GAMMAS:
        for p in _PS:
            log_qp = math.log((1 - p) / p)
            spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=(1 - p) / 2, delta1=(1 - p) / 2)
            storm = storm_complexity_report(spec, 0.1, 10.0, 50, gamma, 1.0)
            storm_log_qp = math.log((1 - spec.p) / spec.p)
            assert storm.toc0_exponent == 4.0 * math.log(gamma) / storm_log_qp
            assert storm.toc1_exponent == 2.0 * math.log(gamma) / storm_log_qp
            for m_v in (0.0, 1e-3):
                noise = NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2, m_v=m_v)
                sass = sass_complexity_report(
                    SassOracleSpec(), noise, 0.1, 50, gamma, 1.0, "nonconvex", p=p, alpha_bar=0.5
                )
                assert sass.toc0_exponent == 0.0
                assert sass.toc1_exponent == (2.0 * math.log(gamma) / log_qp if m_v > 0 else 0.0)


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
    report = storm_complexity_report(spec, 0.1, 10.0, 100, 0.9, 1.0)
    assert report.p == pytest.approx(0.8)
    assert report.toc1_exponent == pytest.approx(2 * math.log(0.9) / math.log(0.25), rel=1e-12)
    assert report.toc1_exponent == pytest.approx(0.152, abs=2e-3)
    assert report.toc0_exponent == pytest.approx(2 * report.toc1_exponent, rel=1e-12)


def test_reports_accept_a_perfectly_reliable_walk():
    # p = 1 (q = 0): the walk never climbs a level, so both growth exponents are 0
    storm_spec = StormOracleSpec(delta0=0.0, delta1=0.0)
    storm = storm_complexity_report(storm_spec, 0.1, 10.0, 100, 0.9, 1.0)
    noise = NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2, m_v=1e-3)
    sass = sass_complexity_report(
        SassOracleSpec(), noise, 0.1, 100, 0.9, 1.0, "nonconvex", p=1.0, alpha_bar=0.5
    )
    for report in (storm, sass):
        assert report.p == 1.0
        assert (report.toc0_exponent, report.toc1_exponent) == (0.0, 0.0)
        assert math.isfinite(report.expected.bound_value)
        assert math.isfinite(report.high_probability.bound_value)


def test_sass_report_interpolation_case():
    # m_c = 0 leaves only the m_v / min(tau, kappa*alpha)^2 gradient cost
    spec = SassOracleSpec(kappa=1.0, tau=10.0)
    noise = NoiseSpec.gaussian(sigma_f=0.0, m_c=0.0, m_v=1.0)
    report = sass_complexity_report(
        spec, noise, 0.1, 100, 0.8, 1.0, "nonconvex", p=0.8, alpha_bar=0.5
    )
    assert report.toc0_exponent == 0.0
    assert report.toc1_exponent != 0.0
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
    """The summary's columns as one TocRecord per replication."""
    columns = (summary.toc0, summary.toc1, summary.iterations, summary.stopped)
    return [TocRecord(*row) for row in zip(*(c.tolist() for c in columns))]


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
    assert _records(summary) == [accumulate_toc(t) for t in separate]
    j = min(j, k)
    assert _records(monte_carlo_toc(prob, method, suite, cfg, eps, j, master, mode=mode)) == _records(summary)[:j]


class _FlakyValues(PairCorruptionOracles):
    """Pair corruption whose trial value is nan on a rare coin, drawn row by row."""

    def values_rows(self, problem, x, x_plus, f, f_plus, batch, streams):
        f0, fp = super().values_rows(problem, x, x_plus, f, f_plus, batch, streams)
        return f0, np.where(streams.take(1)[:, 0] < 0.004, np.nan, fp)


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


def test_storm_report_is_inf_when_the_step_size_floor_underflows():
    # alpha_star(10**6) = 0.0 in a double at level 677: a cost growing as
    # alpha shrinks is beyond the double range there, not a parameter error
    spec = StormOracleSpec(sigma_f=1e-3, sigma_g=0.1, delta0=0.24, delta1=0.24)
    report = storm_complexity_report(spec, 0.1, 10.0, 10**6, 0.1, 1.0)
    assert report.high_probability.inputs["alpha_star"] == 0.0
    assert report.high_probability.inputs["level"] == 677
    assert report.high_probability.bound_value == math.inf
    assert report.expected.bound_value == math.inf


# The theory grid of the benchmark's `theory` workload: storm and sass
# reports over gammas x tolerances, horizon ceil(20 / epsilon**2).
_GRID_GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9)
_GRID_EPSILONS = (0.2, 0.1, 0.05)
_GRID_STORM = StormOracleSpec(sigma_f=1e-3, sigma_g=0.1)
_GRID_NOISE = NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2, m_v=1e-3)


def _grid_report(kind, gamma, eps):
    n = math.ceil(20.0 / eps**2)
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
    """n * sum_{l=0..n} w_l * oc(alpha_bar gamma**l) at 40 digits, from the same float inputs."""
    with mpmath.workdps(40):
        p, q = mpmath.mpf(params.p), mpmath.mpf(params.q)
        c = 2 * mpmath.sqrt(p * q) / (1 - 2 * mpmath.sqrt(p * q)) ** 2
        total = mpmath.mpf(0)
        for l in range(n + 1):
            weight = min(1, n * (q / p) ** l + c * (2 * q) ** l)
            alpha = mpmath.mpf(params.alpha_bar) * mpmath.mpf(params.gamma) ** l
            cost = 0
            for model in models:
                raw = sum(mpmath.mpf(ci) / min(alpha, mpmath.mpf(ai)) ** pi for ci, ai, pi in model.terms)
                cost += model.calls_per_iteration * max(1, mpmath.ceil(raw))
            total += n * weight * cost
        return total


@pytest.mark.parametrize(
    "kind, gamma, eps",
    [
        # dominant terms where the cost or the weight leaves the double range
        ("sass", 0.5, 0.2), ("sass", 0.6, 0.2), ("sass", 0.6, 0.1), ("storm", 0.6, 0.2), ("storm", 0.7, 0.2),
        # convergent sums
        ("storm", 0.8, 0.1), ("sass", 0.8, 0.2), ("storm", 0.9, 0.2),
    ],
)
def test_expected_bound_matches_mpmath_summation(kind, gamma, eps):
    report = _grid_report(kind, gamma, eps)
    n = report.expected.inputs["n"]
    params = WalkParams(p=report.p, gamma=gamma, alpha_bar=report.alpha_bar, omega=1.0)
    if kind == "storm":
        models = storm_cost_models(_GRID_STORM)
    else:
        models = sass_cost_models(SassOracleSpec(), _GRID_NOISE, eps, "nonconvex")
    got = report.expected.bound_value
    assert math.isfinite(got)
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
