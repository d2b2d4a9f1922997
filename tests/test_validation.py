"""Every validation of the public API, and the edge branches next to them, run once.

Each case is a public call with its exception type and message, or with
the value the branch returns.
"""

import math

import numpy as np
import pytest

from adastoc import complexity, framework, oracles, walk
from adastoc.errors import InvalidParameterError
from adastoc.methods import SassMethod
from adastoc.oracles import CostModel, ExactOracles, SassOracleSpec, StormOracleSpec
from adastoc.problems import NoiseSpec, make_problem

_PROBLEM = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
_CONFIG = framework.AlgoConfig(theta=0.1, gamma=0.5, alpha0=0.5, alpha_max=0.5, max_iterations=5)
_PARAMS = walk.WalkParams(p=0.8, gamma=0.5, alpha_bar=1.0, omega=1.0)
_MODELS = (CostModel(terms=((1.0, math.inf, 1.0),)),)
_NAN_X = np.array([math.nan, 0.0])


def _rng():
    return np.random.default_rng(0)


def _run(**kwargs):
    return framework.run_adaptive(_PROBLEM, SassMethod(), ExactOracles(), _CONFIG, 1e-3, **kwargs)


def _overflow_bound(constant, powered, p, gamma):
    """expected_toc_bound of a constant cost plus a powered one, at n = 1000."""
    models = (CostModel(terms=((constant, math.inf, 0.0),)), CostModel(terms=((powered, math.inf, 1.0),)))
    return complexity.expected_toc_bound(models, walk.WalkParams(p=p, gamma=gamma, alpha_bar=1.0), 1000).bound_value


_RAISES = {
    # complexity
    "expected-n": (lambda: complexity.expected_toc_bound(_MODELS, _PARAMS, 0), "n must be a positive integer"),
    "highprob-prob": (lambda: complexity.highprob_toc_bound(_MODELS, _PARAMS, 10, 1.5),
                      "prob_t_exceeds_n must lie in [0,1]"),
    "storm-report-epsilon": (lambda: complexity.storm_complexity_report(StormOracleSpec(), 0.0, 10.0, 100, 0.5, 1.0),
                             "epsilon and zeta must be positive"),
    "report-failure-prob": (lambda: complexity.BoundReport(1.0, 1.5, "expected"), "failure_prob must lie in [0,1]"),
    "report-kind": (lambda: complexity.BoundReport(1.0, 0.5, "median"), "unknown bound kind 'median'"),
    # framework
    "stopping-time-epsilon": (lambda: framework.stopping_time(None, 0.0, "nonconvex"), "epsilon must be positive"),
    "run-mode": (lambda: _run(mode="convex"), "unknown stopping mode 'convex'"),
    "run-x0": (lambda: _run(x0=_NAN_X), "x0 must be finite"),
    "success-alpha-bar": (lambda: framework.empirical_success_probability([], 0.0), "alpha_bar must be positive"),
    "derive-seeds": (lambda: framework.derive_seeds(0, 0), "replications must be positive"),
    "config-alpha-max": (lambda: framework.AlgoConfig(theta=0.1, gamma=0.5, alpha0=1.0, alpha_max=0.0),
                         "alpha_max must be positive"),
    "lockstep-seeds": (lambda: framework.run_lockstep(_PROBLEM, SassMethod(), ExactOracles(), _CONFIG, 1e-3, []),
                       "at least one seed is needed"),
    # a range is stated as what is admitted, so nan fails it
    "config-alpha-max-nan": (lambda: framework.AlgoConfig(theta=0.1, gamma=0.5, alpha0=1.0, alpha_max=math.nan),
                             "alpha_max must be positive"),
    "config-r-nan": (lambda: framework.AlgoConfig(theta=0.1, gamma=0.5, alpha0=1.0, r=math.nan),
                     "r must be nonnegative"),
    "config-theta2-nan": (lambda: framework.AlgoConfig(theta=0.1, gamma=0.5, alpha0=1.0, theta2=math.nan),
                          "theta2 must be nonnegative"),
    "step-alpha-nan": (lambda: framework.update_step_size(math.nan, 0, True, 0.5, 1.0), "alpha must be positive"),
    "step-alpha-max-nan": (lambda: framework.update_step_size(0.5, 0, True, 0.5, math.nan),
                           "alpha must not exceed alpha_max"),
    "stopping-time-epsilon-nan": (lambda: framework.stopping_time(None, math.nan, "nonconvex"),
                                  "epsilon must be positive"),
    "success-alpha-bar-nan": (lambda: framework.empirical_success_probability([], math.nan),
                              "alpha_bar must be positive"),
    # oracles
    "minibatch-x": (lambda: oracles.minibatch_value(_PROBLEM, _NAN_X, 1, _rng()), "x must be finite"),
    "sass-case": (lambda: oracles.sass_cost_models(SassOracleSpec(), NoiseSpec.none(), 0.1, "convex"),
                  "unknown case 'convex'"),
    "failure-rate-trials": (lambda: oracles.empirical_oracle_failure_rate(ExactOracles(), _PROBLEM, np.zeros(2),
                                                                           0.1, 0, 0),
                            "trials must be at least 1"),
    "sass-spec": (lambda: SassOracleSpec(kappa=0.0), "kappa and tau must be positive"),
    "sass-spec-kappa-nan": (lambda: SassOracleSpec(kappa=math.nan), "kappa and tau must be positive"),
    "sass-spec-tau-nan": (lambda: SassOracleSpec(tau=math.nan), "kappa and tau must be positive"),
    "sass-models-epsilon-nan": (lambda: oracles.sass_cost_models(SassOracleSpec(), NoiseSpec.none(), math.nan,
                                                                 "nonconvex"),
                                "epsilon must be positive"),
    "sass-models-c-nan": (lambda: oracles.sass_cost_models(SassOracleSpec(), NoiseSpec.none(), 0.1, "nonconvex",
                                                           c=math.nan),
                          "the batch multiplier must be positive"),
    "storm-spec-kappa": (lambda: StormOracleSpec(kappa_eg=-1.0), "kappa_ef and kappa_eg must be nonnegative"),
    "storm-spec-kappa-nan": (lambda: StormOracleSpec(kappa_ef=math.nan), "kappa_ef and kappa_eg must be nonnegative"),
    "storm-spec-sigma": (lambda: StormOracleSpec(sigma_g=-1.0), "sigma_f and sigma_g must be nonnegative"),
    "storm-spec-sigma-nan": (lambda: StormOracleSpec(sigma_f=math.nan), "sigma_f and sigma_g must be nonnegative"),
    "storm-report-zeta-nan": (lambda: complexity.storm_complexity_report(StormOracleSpec(), 0.1, math.nan, 100, 0.5,
                                                                         1.0),
                              "epsilon and zeta must be positive"),
    "storm-spec-delta": (lambda: StormOracleSpec(delta1=1.0), "delta1 must lie in [0,1)"),
    "cost-model-term": (lambda: CostModel(terms=((0.0, 1.0, 1.0),), label="v"),
                        "cost model 'v': a term needs c, a > 0, finite P"),
    "corruption-delta": (lambda: oracles.PairCorruptionOracles(delta0=0.5, delta1=0.1), "delta0 must lie in [0, 1/2)"),
    # a corrupted trial value is shifted up, so that it is rejected
    **{f"corruption-shift-{shift}": (lambda shift=shift: oracles.PairCorruptionOracles(0.1, 0.1, value_shift=shift),
                                     f"value_shift must be positive and finite, got {shift}")
       for shift in (math.nan, math.inf, -1.0, 0.0)},
    # problems
    **{f"noise-{name}-nan": (lambda name=name: NoiseSpec(**{name: math.nan}), f"{name} must be nonnegative")
       for name in ("sigma_f", "m_c", "m_v")},
    **{f"problem-conditioning-{value}": (lambda value=value: make_problem("quadratic", 2, value),
                                         f"conditioning must be finite and at least 1, got {value}")
       for value in (math.nan, math.inf, 0.5)},
    "loss-batch": (lambda: _PROBLEM.sample_loss_batch(np.zeros(2), 0, _rng()), "batch must be at least 1"),
    "loss-x": (lambda: _PROBLEM.sample_loss_batch(_NAN_X, 1, _rng()), "x must be finite"),
    "grad-batch": (lambda: _PROBLEM.sample_grad_batch(np.zeros(2), 0, _rng()), "batch must be at least 1"),
    "grad-x": (lambda: _PROBLEM.sample_grad_batch(_NAN_X, 1, _rng()), "x must be finite"),
    # walk
    "simulate-n": (lambda: walk.simulate_walk(_PARAMS, 0, _rng()), "n must be a positive integer"),
    "ensemble-p": (lambda: walk.walk_ensemble_stats(1.5, 10, 10, _rng()), "p must be a probability"),
    "ensemble-reps": (lambda: walk.walk_ensemble_stats(0.8, 10, 0, _rng()), "n and reps must be positive"),
    "couple-length": (lambda: walk.couple_with_trace([0], 0.8, _rng(), 0.9),
                      "exponent sequence must contain at least two entries"),
    "couple-start": (lambda: walk.couple_with_trace([1, 0], 0.8, _rng(), 0.9),
                     "exponent sequence must start at or below zero"),
    "matrix-l": (lambda: walk.transition_matrix(0.8, 0), "l must be at least 1"),
    "matrix-p": (lambda: walk.transition_matrix(0.0, 2), "p must lie in (0,1]"),
    "feller-l": (lambda: walk.feller_transition_prob(0.8, 0, 5), "l must be at least 1"),
    "feller-m": (lambda: walk.feller_transition_prob(0.8, 2, -1), "m must be nonnegative"),
    "feller-p": (lambda: walk.feller_transition_prob(0.0, 2, 5), "p must lie in (0,1]"),
    "exact-n": (lambda: walk.hitting_prob_exact(0.8, 3, 0), "n must be a positive integer"),
    "exact-p": (lambda: walk.hitting_prob_exact(0.0, 3, 10), "p must lie in (0,1]"),
    "union-l": (lambda: walk.hitting_prob_union_sum(0.8, 0, 10), "l must be at least 1"),
    "union-p": (lambda: walk.hitting_prob_union_sum(1.5, 2, 10), "p must lie in (0,1]"),
    "union-p-short-horizon": (lambda: walk.hitting_prob_union_sum(1.5, 2, 1), "p must lie in (0,1]"),
    "bound-l": (lambda: walk.hitting_prob_bound(0.8, 0, 10), "l must be at least 1"),
    "bound-n": (lambda: walk.hitting_prob_bound(0.8, 2, 0), "n must be a positive integer"),
    "threshold-n": (lambda: walk.gamma_threshold(0.8, 1, 1.0, 0.25), "n must be at least 2"),
    "threshold-omega": (lambda: walk.gamma_threshold(0.8, 10, 0.0, 0.25), "omega must be positive and finite, got 0.0"),
    "threshold-omega-inf": (lambda: walk.gamma_threshold(0.8, 10, math.inf, 0.25),
                            "omega must be positive and finite, got inf"),
    "params-omega": (lambda: walk.WalkParams(p=0.8, gamma=0.5, alpha_bar=1.0, omega=0.0),
                     "omega must be positive and finite, got 0.0"),
    "params-omega-inf": (lambda: walk.WalkParams(p=0.8, gamma=0.5, alpha_bar=1.0, omega=math.inf),
                         "omega must be positive and finite, got inf"),
    "params-omega-nan": (lambda: walk.WalkParams(p=0.8, gamma=0.5, alpha_bar=1.0, omega=math.nan),
                         "omega must be positive and finite, got nan"),
    "params-alpha-bar-inf": (lambda: walk.WalkParams(p=0.8, gamma=0.5, alpha_bar=math.inf),
                             "alpha_bar must be positive and finite, got inf"),
    "params-alpha-bar-nan": (lambda: walk.WalkParams(p=0.8, gamma=0.5, alpha_bar=math.nan),
                             "alpha_bar must be positive and finite, got nan"),
}

_VALUES = {
    # q = 0: any gamma above 1/2 keeps the floor
    "threshold-at-p-1": (lambda: walk.gamma_threshold(1.0, 100, 1.0, 0.25), 0.5),
    # the spectral formula's p = q stationary part, against the matrix power
    "feller-at-p-half": (lambda: walk.feller_transition_prob(0.5, 3, 10),
                         pytest.approx(np.linalg.matrix_power(walk.transition_matrix(0.5, 3), 10)[0, 3], rel=1e-12)),
    # head terms n * 1e305 are finite, their sum is not
    "head-sum-overflows": (lambda: _overflow_bound(1e305, 1e-30, 0.8, 0.5), math.inf),
    # a finite head (levels 0..20) and a finite tail whose sum is not
    "head-plus-tail-overflows": (lambda: _overflow_bound(6e303, 1e15, 0.6, 0.9), math.inf),
}


@pytest.mark.parametrize("case", [*_RAISES, *_VALUES])
def test_a_public_call_raises_its_message_or_returns_its_edge_value(case):
    if case in _RAISES:
        call, message = _RAISES[case]
        with pytest.raises(InvalidParameterError) as info:
            call()
        assert str(info.value) == message
    else:
        call, value = _VALUES[case]
        assert call() == value
