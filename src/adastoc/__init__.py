"""Adaptive stochastic step-size optimization and its oracle-cost theory.

The package has three layers:

* an adaptive optimization loop (`framework`) with two concrete methods
  (`methods`): step search and first-order trust region, driven by
  stochastic oracles (`oracles`) over synthetic objectives (`problems`);
* the one-sided random-walk machinery (`walk`) that lower-bounds the
  realized step size with high probability;
* total oracle cost accounting and bounds (`complexity`) comparing theory
  against Monte Carlo runs.

The `adastoc` command line runs the standard experiments and writes
deterministic CSV output; see the README.
"""

from .complexity import (
    BoundReport,
    MethodComplexityReport,
    expected_toc_bound,
    highprob_toc_bound,
    monte_carlo_toc,
    sass_complexity_report,
    storm_complexity_report,
)
from .errors import (
    AdastocError,
    AssumptionViolationError,
    ConfigurationError,
    CouplingInfeasibleError,
    InvalidParameterError,
    MissingGroundTruthError,
    NumericError,
    TheoryViolationError,
)
from .framework import (
    AlgoConfig,
    IterationRecord,
    McTocSummary,
    RunTrace,
    empirical_success_probability,
    run_adaptive,
    stopping_time,
    update_step_size,
)
from .methods import SassMethod, StormMethod
from .oracles import (
    CostModel,
    ExactOracles,
    PairCorruptionOracles,
    SassMinibatchOracles,
    SassOracleSpec,
    StormMinibatchOracles,
    StormOracleSpec,
    empirical_oracle_failure_rate,
    minibatch_grad,
    minibatch_value,
)
from .problems import NoiseSpec, Problem, make_problem
from .walk import (
    WalkParams,
    WalkPath,
    couple_with_trace,
    feller_transition_prob,
    gamma_threshold,
    hitting_prob_bound,
    hitting_prob_exact,
    simulate_walk,
    stepsize_lower_bound,
    trace_exponents,
)

__version__ = "0.1.0"
