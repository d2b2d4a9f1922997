import math
import tempfile
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
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
    derive_configs,
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
    SummedCost,
    storm_cost_models,
)
from adastoc.problems import NoiseSpec, make_problem
from adastoc.walk import WalkParams, gamma_threshold, stepsize_lower_bound


def _config(**kw):
    base = dict(theta=0.1, gamma=0.5, alpha0=1.0, alpha_max=1.0, seed=0)
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


def test_toc_record_sum_invariant():
    with pytest.raises(InvalidParameterError):
        TocRecord(toc0=1, toc1=1, toc=3, iterations_used=1, stopped=True)


def test_expected_bound_constant_cost_identity():
    params = WalkParams(p=0.9, gamma=0.8, alpha_bar=0.1, omega=1.0)
    const = CostModel(raw=lambda a: 7.0)
    got = expected_toc_bound(const, params, 50).bound_value
    q, c = params.q, params.c
    manual = 7 * 50 * (1 + sum(min(1.0, 50 * (q / 0.9) ** l + c * (2 * q) ** l) for l in range(1, 51)))
    assert got == pytest.approx(manual, rel=1e-12)


def test_expected_bound_matches_high_precision_resummation():
    # same per-level costs, accumulated at 50 significant digits
    spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=0.05, delta1=0.05, kappa_ef=1.0, kappa_eg=1.0)
    params = WalkParams(p=0.9, gamma=0.8, alpha_bar=0.1, omega=1.0)
    total = SummedCost(components=storm_cost_models(spec))
    got = expected_toc_bound(total, params, 100).bound_value
    with mpmath.workdps(50):
        q = mpmath.mpf(1) - mpmath.mpf("0.9")
        c = 2 * mpmath.sqrt(mpmath.mpf("0.9") * q) / (1 - 2 * mpmath.sqrt(mpmath.mpf("0.9") * q)) ** 2
        acc = mpmath.mpf(100) * total.cost(0.1)
        for l in range(1, 101):
            w = min(mpmath.mpf(1), 100 * (q / mpmath.mpf("0.9")) ** l + c * (2 * q) ** l)
            acc += 100 * w * total.cost(0.1 * 0.8**l)
        ref = float(acc)
    assert got == pytest.approx(ref, rel=1e-10)


def test_expected_bound_nondecreasing_in_n():
    spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=0.05, delta1=0.05)
    params = WalkParams(p=0.9, gamma=0.85, alpha_bar=0.1, omega=1.0)
    total = SummedCost(components=storm_cost_models(spec))
    values = [expected_toc_bound(total, params, n).bound_value for n in (10, 20, 40, 80, 160)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_expected_bound_rejects_increasing_cost():
    params = WalkParams(p=0.9, gamma=0.8, alpha_bar=1.0, omega=1.0)
    increasing = CostModel(raw=lambda a: 100.0 * a)
    with pytest.raises(AssumptionViolationError):
        expected_toc_bound(increasing, params, 20)


def test_expected_bound_divergent_regime_is_inf():
    # contraction faster than the tail decay: gamma < (2q)^(1/4)
    spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=0.1, delta1=0.1)
    params = WalkParams(p=0.8, gamma=0.5, alpha_bar=0.1, omega=1.0)
    total = SummedCost(components=storm_cost_models(spec))
    assert expected_toc_bound(total, params, 2000).bound_value == math.inf


_GAMMAS = (0.5, 0.6, 0.7, 0.8, 0.9)
_PS = (0.6, 0.7, 0.8, 0.9)


class _QuarticTail:
    """A cost whose bound tail uses the quartic ratio (2q)/gamma**4 whatever its models."""

    power = 4.0

    def __init__(self, total):
        self.cost = total.cost


def test_storm_expected_bound_divergence_set_unchanged():
    # the storm total grows like alpha**-4, so its tail is the quartic one
    infinite = set()
    for gamma in _GAMMAS:
        for p in _PS:
            spec = StormOracleSpec(sigma_f=1.0, sigma_g=1.0, delta0=(1 - p) / 2, delta1=(1 - p) / 2)
            params = WalkParams(p=spec.p, gamma=gamma, alpha_bar=0.1, omega=1.0)
            total = SummedCost(components=storm_cost_models(spec))
            got = expected_toc_bound(total, params, 2000).bound_value
            assert got == expected_toc_bound(_QuarticTail(total), params, 2000).bound_value
            if math.isinf(got):
                infinite.add((gamma, p))
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
    const = CostModel(raw=lambda a: 5.0)
    report = highprob_toc_bound(const, params, 100, prob_t_exceeds_n=0.2)
    assert report.bound_value == 500.0
    walk_failure = 100**-1.0 + params.c * 100**-2.0
    assert report.failure_prob == pytest.approx(min(1.0, 0.2 + walk_failure))


def test_highprob_bound_at_corollary_gamma():
    # with gamma at the threshold, n * oc(beta * alpha_bar) dominates the bound
    p, n, omega, beta = 0.8, 10**4, 1.0, 0.25
    gamma = gamma_threshold(p, n, omega, beta)
    params = WalkParams(p=p, gamma=gamma, alpha_bar=1.0, omega=omega)
    value, grad = storm_cost_models(StormOracleSpec(sigma_f=1.0, sigma_g=1.0))
    total = SummedCost(components=(value, grad))
    report = highprob_toc_bound(total, params, n, prob_t_exceeds_n=0.0)
    assert report.bound_value <= n * total.cost(beta * 1.0)
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


def test_sass_report_interpolation_case():
    # m_c = 0 leaves only the m_v / min(tau, kappa*alpha)^2 gradient cost
    spec = SassOracleSpec(kappa=1.0, tau=10.0, delta1=0.1)
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


def test_monte_carlo_zero_noise_has_zero_variance():
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    cfg = _config(alpha0=0.25, alpha_max=0.25, max_iterations=200)
    summary = monte_carlo_toc(prob, SassMethod(), ExactOracles(), cfg, 1e-6, 8, 11)
    tocs = {rec.toc for rec in summary.records}
    assert len(tocs) == 1
    assert summary.p50_toc == summary.mean_toc
    assert math.isnan(summary.exceed_fraction)


def test_monte_carlo_deterministic_and_worker_independent():
    noise = NoiseSpec.gaussian(sigma_f=0.01, m_c=0.01)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(sigma_f=0.01, sigma_g=0.1, delta0=0.1, delta1=0.1)
    cfg = _config(alpha0=0.02, alpha_max=0.02)
    kw = dict(mode="nonconvex")
    a = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.1, 6, 99, **kw)
    b = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.1, 6, 99, **kw)
    c = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.1, 9, 99, **kw)
    assert [r.toc for r in a.records] == [r.toc for r in b.records] == [r.toc for r in c.records[:6]]


def test_monte_carlo_exceedance_against_highprob_bound():
    noise = NoiseSpec.gaussian(sigma_f=0.001, m_c=0.001)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(sigma_f=0.001, sigma_g=math.sqrt(0.001), delta0=0.1, delta1=0.1)
    eps, zeta, gamma, omega = 0.1, 10.0, 0.8, 1.0
    n = 2000
    report = storm_complexity_report(spec, eps, zeta, n, gamma, omega, prob_t_exceeds_n=0.1)
    cfg = _config(gamma=gamma, alpha0=eps / zeta, alpha_max=eps / zeta)
    summary = monte_carlo_toc(
        prob, StormMethod(), StormMinibatchOracles(spec), cfg, eps, 100, 123,
        bound=report.high_probability,
    )
    assert summary.stopped_fraction == 1.0
    assert summary.exceed_fraction <= report.high_probability.failure_prob


def test_monte_carlo_standard_error_scaling():
    # doubling the replication count shrinks the standard error like 1/sqrt(N)
    noise = NoiseSpec.gaussian(sigma_f=0.02, m_c=0.02)
    prob = make_problem("quadratic", 2, 1.0, noise, seed=0)
    spec = StormOracleSpec(sigma_f=0.02, sigma_g=0.2, delta0=0.15, delta1=0.15)
    cfg = _config(gamma=0.6, alpha0=0.05, alpha_max=0.05)
    small = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.2, 150, 7)
    big = monte_carlo_toc(prob, StormMethod(), StormMinibatchOracles(spec), cfg, 0.2, 300, 7)
    se_small = np.std([r.toc for r in small.records], ddof=1) / math.sqrt(150)
    se_big = np.std([r.toc for r in big.records], ddof=1) / math.sqrt(300)
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
    method, suite = name.split("-")
    method = SassMethod() if method == "sass" else StormMethod()
    suite = ExactOracles() if suite == "exact" else PairCorruptionOracles(0.2, 0.15)
    mode = mode if isinstance(method, SassMethod) else "nonconvex"
    return quiet, method, suite, AlgoConfig(**cfg), 2e-3, mode


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(
        ["sass-exact", "storm-exact", "sass-corrupt", "storm-corrupt", "storm-minibatch", "sass-minibatch"]
    ),
    alpha0=st.sampled_from([0.3, 0.05]),
    mode=st.sampled_from(["nonconvex", "strongly_convex"]),
    k=st.integers(1, 6),
    j=st.integers(1, 6),
    master=st.integers(0, 2**32 - 1),
    chunk=st.sampled_from([1, 5, 1024]),
)
def test_lockstep_replications_equal_separate_runs(name, alpha0, mode, k, j, master, chunk):
    # R replications advanced together give each one's run_adaptive trace,
    # column by column and in CSV bytes, however the trace is packed, and
    # its totals; the first j rows of R = k are the R = j run
    prob, method, suite, cfg, eps, mode = _lockstep_case(name, alpha0, mode)
    configs = derive_configs(cfg, master, k)
    separate = [run_adaptive(prob, method, suite, c, eps, mode=mode) for c in configs]
    with mock.patch.object(framework, "_CHUNK", chunk):
        together = run_lockstep(prob, method, suite, cfg, eps, [c.seed for c in configs], mode=mode)
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
    assert list(summary.records) == [accumulate_toc(t) for t in separate]
    j = min(j, k)
    assert monte_carlo_toc(prob, method, suite, cfg, eps, j, master, mode=mode).records == summary.records[:j]


class _FlakyValues(PairCorruptionOracles):
    """Pair corruption whose trial value is nan on a rare coin, drawn row by row."""

    def values_rows(self, problem, x, x_plus, f, f_plus, alpha, streams):
        f0, fp, cost = super().values_rows(problem, x, x_plus, f, f_plus, alpha, streams)
        return f0, np.where(streams.take(1)[:, 0] < 0.004, np.nan, fp), cost


def test_monte_carlo_names_the_first_failing_replication_as_one_at_a_time_runs_do():
    prob = make_problem("quadratic", 2, 2.0, NoiseSpec.none(), seed=0)
    cfg = _config(alpha0=0.1, alpha_max=0.1, max_iterations=400)
    suite = _FlakyValues(0.1, 0.1)
    first = None
    for i, c in enumerate(derive_configs(cfg, 3, 12)):
        try:
            run_adaptive(prob, SassMethod(), suite, c, 1e-9)
        except NumericError as exc:
            first = f"replication {i}: {exc}"
            break
    assert first is not None and "iteration" in first
    with pytest.raises(NumericError) as raised:
        monte_carlo_toc(prob, SassMethod(), suite, cfg, 1e-9, 12, 3)
    assert str(raised.value) == first


def test_monte_carlo_propagates_errors_with_replication_index():
    from adastoc.errors import NumericError
    from adastoc.oracles import ExactOracles as _Exact

    class Broken(_Exact):
        def values_rows(self, problem, x, x_plus, f, f_plus, alpha, streams):
            return np.full_like(f, math.nan), np.ones_like(f_plus), 2

    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    with pytest.raises(NumericError, match="replication 0"):
        monte_carlo_toc(prob, SassMethod(), Broken(), _config(), 1e-6, 3, 0)
