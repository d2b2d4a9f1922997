"""The names the benchmark tracer (`perfbench/tracer.py`) patches stay where it looks.

The tracer replaces each target in its owner's own `__dict__`, a module or
a class, so a method inherited instead of defined there, or a renamed
function, would break only a traced benchmark run
(`perfbench/run.py --trace 1`); the last test here runs the tracer's own
install and uninstall.
"""

import importlib.util
import inspect
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

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


def _owner(module, path):
    """(owner, attribute name) of a patched path: a module, or a class in it."""
    owner = __import__(f"adastoc.{module}", fromlist=["_"])
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


@pytest.mark.parametrize(
    "module, path", [(m, p) for m, paths in _PATCHED.items() for p in paths]
)
def test_patched_name_is_defined_in_its_owner(module, path):
    owner, attr = _owner(module, path)
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


def test_bound_reports_keep_the_fields_the_benchmark_reads():
    # the theory workload reads bound_value, failure_prob and kind of both bounds, and the
    # benchmark's smoke test blanks a bound with dataclasses.replace
    from adastoc import complexity
    from adastoc.oracles import SassOracleSpec, StormOracleSpec
    from adastoc.problems import NoiseSpec

    storm = complexity.storm_complexity_report(
        StormOracleSpec(sigma_f=1e-3, sigma_g=0.1), 0.1, 10.0, 2000, 0.8, 1.0, prob_t_exceeds_n=0.1
    )
    sass = complexity.sass_complexity_report(
        SassOracleSpec(), NoiseSpec.gaussian(sigma_f=1e-3, m_c=1e-2, m_v=1e-3), 0.1, 2000, 0.8, 1.0,
        "nonconvex", p=0.8, alpha_bar=0.45, prob_t_exceeds_n=0.1,
    )
    for report in (storm, sass):
        assert [f.name for f in fields(report)] == ["expected", "high_probability"]
        for kind in ("expected", "high_probability"):
            bound = getattr(report, kind)
            assert isinstance(bound, complexity.BoundReport) and bound.kind == kind
            assert isinstance(bound.bound_value, float) and isinstance(bound.failure_prob, float)
        blanked = replace(report, expected=replace(report.expected, bound_value=math.nan))
        assert math.isnan(blanked.expected.bound_value)
        assert blanked.high_probability == report.high_probability


def _label(owner) -> str:
    return f"{owner.__module__}.{owner.__qualname__}" if isinstance(owner, type) else owner.__name__


def _namespaces() -> dict:
    """Every attribute of every adastoc module and of the classes they hold, by (owner, name)."""
    modules = [m for n, m in sys.modules.items() if n == "adastoc" or n.startswith("adastoc.")]
    owners = modules + [v for m in modules for v in vars(m).values() if isinstance(v, type)]
    return {(_label(owner), key): value for owner in owners for key, value in vars(owner).items()}


def test_the_tracer_patches_every_name_and_restores_it():
    import adastoc.cli  # noqa: F401  the tracer looks up every module it patches in sys.modules

    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    before = _namespaces()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        patched = {key for key, value in _namespaces().items() if before.get(key) is not value}
    finally:
        tracer.uninstall()
    for module, paths in _PATCHED.items():
        for p in paths:
            owner, attr = _owner(module, p)
            assert (_label(owner), attr) in patched, f"the tracer did not patch {module}.{p}"
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
