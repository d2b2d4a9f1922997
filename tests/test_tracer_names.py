"""The names the benchmark tracer (`perfbench/tracer.py`) patches stay where it looks.

The tracer replaces each target in its owner's own `__dict__`, a module or
a class, so a method inherited instead of defined there, or a renamed
function, breaks only a traced benchmark run (`perfbench/run.py --trace 1`),
which the test suite does not run.
"""

import inspect
import math

import numpy as np
import pytest

from adastoc import framework

_SUITES = ("ExactOracles", "StormMinibatchOracles", "SassMinibatchOracles", "PairCorruptionOracles")

_PATCHED = {
    "cli": ["main"],
    "tableio": ["write_csv"],
    "framework": ["run_adaptive", "RunTrace.write_csv"],
    "methods": [f"{c}.{m}" for c in ("SassMethod", "StormMethod") for m in ("propose", "accepts")],
    "oracles": ["minibatch_value", "minibatch_grad"]
    + [f"{s}.{m}" for s in _SUITES for m in ("gradient", "values")],
    "problems": [
        "make_problem",
        "Problem.value",
        "Problem.grad",
        "Problem.gap",
        "Problem.sample_loss_batch",
        "Problem.sample_grad_batch",
    ],
    "complexity": ["monte_carlo_toc", "storm_complexity_report", "sass_complexity_report"],
    "walk": [
        "walk_ensemble_stats",
        "simulate_walk",
        "hitting_prob_exact",
        "couple_with_trace",
        "trace_exponents",
        "hitting_prob_bound",
        "feller_transition_prob",
        "stepsize_lower_bound",
        "gamma_threshold",
    ],
}


@pytest.mark.parametrize(
    "module, path", [(m, p) for m, paths in _PATCHED.items() for p in paths]
)
def test_patched_name_is_defined_in_its_owner(module, path):
    owner = __import__(f"adastoc.{module}", fromlist=["_"])
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner), f"{module}.{path} is not defined in its owner's own __dict__"
    assert callable(vars(owner)[attr])


def test_hooked_arguments_keep_their_names():
    # the tracer's counting hooks bind these calls' arguments by name
    from adastoc import tableio, walk

    assert "rows" in inspect.signature(tableio.write_csv).parameters
    assert {"n", "reps"} <= set(inspect.signature(walk.walk_ensemble_stats).parameters)


def test_trace_builds_from_records_by_keyword():
    # the benchmark's theory workload builds traces from IterationRecords by keyword
    config = framework.AlgoConfig(theta=0.1, gamma=0.5, alpha0=1.0, alpha_max=1.0)
    record = framework.IterationRecord(
        k=0, alpha=1.0, success=True, cost0=2, cost1=1,
        true_grad_norm=1.0, true_gap=math.nan, alpha_base=1.0, alpha_exp=0,
    )
    trace = framework.RunTrace(
        records=[record], stopping_iteration=None, config=config, epsilon=1e-3,
        mode="nonconvex", final_grad_norm=1.0, final_gap=math.nan, final_x=np.zeros(1),
    )
    assert len(trace.records) == 1 and trace.stopping_iteration is None


def test_hooked_results_keep_their_attributes():
    # the tracer's counting hooks read these attributes of monte_carlo_toc and run_adaptive results
    from adastoc import complexity
    from adastoc.methods import SassMethod
    from adastoc.oracles import ExactOracles
    from adastoc.problems import NoiseSpec, make_problem

    problem = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    config = framework.AlgoConfig(theta=0.1, gamma=0.5, alpha0=0.5, alpha_max=0.5, max_iterations=20)
    summary = complexity.monte_carlo_toc(problem, SassMethod(), ExactOracles(), config, 1e-3, 3, 0)
    assert summary.replications == 3
    trace = framework.run_adaptive(problem, SassMethod(), ExactOracles(), config, 1e-3, seed=0)
    assert len(trace.records) == len(trace.alpha)
    assert trace.stopping_iteration is None or trace.stopping_iteration == len(trace.alpha)
