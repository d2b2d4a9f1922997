import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adastoc.errors import InvalidParameterError, NumericError
from adastoc.framework import AlgoConfig
from adastoc.methods import SassMethod, StormMethod
from adastoc.rows import row_dot

# exactly representable grids keep the accept tests bit-deterministic
_grid = st.integers(-64, 64).map(lambda k: k / 64.0)


def _config(theta, r, theta2=1.0):
    return AlgoConfig(theta=theta, gamma=0.5, alpha0=1.0, r=r, theta2=theta2)


def _sass_accepts(f0, f_plus, g, step, theta, r):
    ok = SassMethod().accepts_rows(
        np.array([f0]), np.array([f_plus]), g[None], step[None], None, np.ones(1), np.array([float(r)]),
        _config(theta, r),
    )
    return bool(ok[0])


def _storm_accepts(f0, f_plus, grad_norm, alpha, theta, theta2, r):
    # the row protocol's model reduction is alpha * grad_norm
    ok = StormMethod().accepts_rows(
        np.array([f0]), np.array([f_plus]), np.zeros((1, 1)), np.zeros((1, 1)),
        np.array([grad_norm]), np.array([alpha]), np.array([float(r)]), _config(theta, r, theta2),
    )
    return bool(ok[0])


def test_sass_step_identity_scaling():
    steps, aux = SassMethod().propose_rows(np.array([[2.0, 0.0]]), np.array([0.5]))
    assert np.allclose(steps, [[-1.0, 0.0]])
    assert aux is None


def test_sass_step_zero_gradient():
    steps, _ = SassMethod().propose_rows(np.zeros((1, 3)), np.ones(1))
    assert np.all(steps == 0.0)


def test_sass_accept_worked_values():
    g, step = np.array([1.0]), np.array([-1.0])  # g.step = -1
    assert _sass_accepts(1.0, 0.5, g, step, theta=0.1, r=0.05)
    # exact boundary accepts: decrease equals theta*alpha*|g|^2 - r exactly
    assert _sass_accepts(0.05, 0.0, g, step, theta=0.1, r=0.05)
    assert _sass_accepts(1.0, 1.0, np.zeros(1), np.zeros(1), theta=0.5, r=0.0)


def test_sass_accept_rejects_insufficient():
    g, step = np.array([1.0]), np.array([-1.0])
    assert not _sass_accepts(1.0, 0.999, g, step, theta=0.5, r=0.0)  # decrease 0.001 < 0.5
    assert not _sass_accepts(1.0, 0.9, g, step, theta=0.5, r=0.0)


def test_storm_step_unit_ball_minimizer():
    steps, norm = StormMethod().propose_rows(np.array([[3.0, 4.0], [3.0, 4.0]]), np.array([1.0, 0.1]))
    assert np.allclose(steps, [[-0.6, -0.8], [-0.06, -0.08]])
    assert norm.tolist() == [5.0, 5.0]
    # model reduction alpha * ||g||
    assert np.allclose(np.array([1.0, 0.1]) * norm, [5.0, 0.5])


def test_storm_step_zero_gradient():
    steps, norm = StormMethod().propose_rows(np.zeros((1, 2)), np.ones(1))
    assert np.all(steps == 0.0)
    assert norm.tolist() == [0.0]


def test_storm_accept_worked_values():
    # model reduction 0.2 * 5 = 1: decrease 0.9 >= 0.5
    assert _storm_accepts(0.9, 0.0, grad_norm=5.0, alpha=0.2, theta=0.5, theta2=1.0, r=0.0)
    # radius condition fails despite a huge ratio
    assert not _storm_accepts(100.0, 0.0, grad_norm=0.5, alpha=1.0, theta=0.5, theta2=1.0, r=0.0)
    # zero model reduction rejects without dividing, though decrease >= theta * 0 and ||g|| >= 0
    assert not _storm_accepts(1.0, 0.0, grad_norm=0.0, alpha=1.0, theta=0.5, theta2=0.0, r=0.0)


def _two_branch_storm_rows(g, alpha):
    """The trust-region step as once written, a zero row on its own branch: the reference for nonzero rows."""
    scale = np.maximum.reduce(np.abs(g), axis=1)
    zero = scale == 0.0
    unit = g / np.where(zero, 1.0, scale)[:, None]
    unit_norm = np.sqrt(row_dot(unit, unit))
    step = (-alpha / np.where(zero, 1.0, unit_norm))[:, None] * unit
    return np.where(zero[:, None], 0.0, step), scale * unit_norm


def test_storm_step_on_awkward_rows_is_the_two_branch_formula():
    # zero, signed-zero, subnormal and near-overflow rows among ordinary ones,
    # and random magnitudes 1e-330..1e300 with zeroed entries and rows
    tiny = 5e-324
    fixed = np.array([
        [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [3.0, -4.0, 0.0], [tiny, 0.0, -tiny], [-tiny, 2 * tiny, 0.0],
        [1e-310, -3e-312, 0.0], [1.7e308, -1.7e308, 1.7e308], [1e300, 1e-300, -0.0], [0.0, -2.5, 0.0],
    ])
    rng = np.random.default_rng(2019)
    signs = rng.choice([-1.0, 1.0], size=(4000, 3))
    random = np.where(rng.random((4000, 3)) < 0.2, signs * 0.0, signs * 10.0 ** rng.uniform(-330, 300, (4000, 3)))
    random[rng.random(4000) < 0.05] = 0.0
    g = np.vstack([fixed, random])
    alpha = 10.0 ** rng.uniform(-8, 2, len(g))
    with np.errstate(over="ignore"):  # a near-overflow row's norm is inf in both
        steps, norm = StormMethod().propose_rows(g, alpha)
        ref_steps, ref_norm = _two_branch_storm_rows(g, alpha)
    zero = ~np.any(g != 0.0, axis=1)
    assert zero[:2].all() and zero.sum() > 100
    assert steps[~zero].tobytes() == ref_steps[~zero].tobytes()
    assert norm[~zero].tobytes() == ref_norm[~zero].tobytes()
    assert (steps[zero] == 0.0).all() and norm[zero].tolist() == [0.0] * zero.sum()
    # a zero row's model reduction alpha * 0.0 fails `> 0`, whatever the decrease
    rows = int(zero.sum())
    accepted = StormMethod().accepts_rows(
        np.full(rows, 1e9), np.zeros(rows), g[zero], steps[zero], norm[zero], alpha[zero], np.ones(rows),
        _config(0.5, 1.0, theta2=0.0),
    )
    assert not accepted.any()


@settings(max_examples=200, deadline=None)
@given(f0=_grid, fplus=_grid, gs=_grid, shift=st.integers(-8, 8).map(float))
def test_sass_accept_shift_invariance(f0, fplus, gs, shift):
    g, step = np.array([1.0]), np.array([gs])
    base = _sass_accepts(f0, fplus, g, step, theta=0.5, r=0.25)
    assert _sass_accepts(f0 + shift, fplus + shift, g, step, theta=0.5, r=0.25) == base


@settings(max_examples=200, deadline=None)
@given(f0=_grid, fplus=_grid, alpha=st.integers(1, 64).map(lambda k: k / 16.0), shift=st.integers(-8, 8).map(float))
def test_storm_accept_shift_invariance(f0, fplus, alpha, shift):
    base = _storm_accepts(f0, fplus, 5.0, alpha, 0.5, 1.0, 0.0)
    assert _storm_accepts(f0 + shift, fplus + shift, 5.0, alpha, 0.5, 1.0, 0.0) == base


@settings(max_examples=200, deadline=None)
@given(
    g=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=5).map(np.array),
    alpha=st.floats(1e-6, 1e3),
)
def test_storm_step_stays_in_ball(g, alpha):
    steps, _ = StormMethod().propose_rows(g[None], np.array([alpha]))
    norm = np.linalg.norm(steps[0])
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
        alpha = threshold * 0.999 ** np.arange(0, 40, 7)
        x = rng.standard_normal((len(alpha), 4))  # one start point per alpha, as rows
        g = prob.grad(x)
        steps, aux = SassMethod().propose_rows(g, alpha)
        f0, fplus = prob.value(x), prob.value(x + steps)
        r = np.zeros(len(alpha))
        assert SassMethod().accepts_rows(f0, fplus, g, steps, aux, alpha, r, _config(theta, 0.0)).all()


def test_step_rejects_bad_alpha():
    with pytest.raises(InvalidParameterError):
        SassMethod().propose(np.ones(2), 0.0)
    with pytest.raises(InvalidParameterError):
        StormMethod().propose(np.ones(2), -1.0)


def test_accept_rejects_non_finite_values():
    g = np.ones(1)
    for method in (SassMethod(), StormMethod()):
        step, aux = method.propose(g, 1.0)
        with pytest.raises(NumericError):
            method.accepts(np.nan, 0.0, g, step, aux, 1.0, _config(0.5, 0.0))
        with pytest.raises(NumericError):
            method.accepts(0.0, np.inf, g, step, aux, 1.0, _config(0.5, 0.0))


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 5),
    rows=st.integers(1, 3),
    r=st.sampled_from([0.0, 0.25]),
    family=st.sampled_from(["sass", "storm"]),
)
def test_one_point_calls_are_their_row_in_a_row_call(data, dim, rows, r, family):
    # propose/accepts of one row equal that row of a stacked call, bit for bit
    method = SassMethod() if family == "sass" else StormMethod()
    g = np.array(data.draw(st.lists(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim),
                                    min_size=rows, max_size=rows)))
    alpha = np.array(data.draw(st.lists(st.floats(1e-6, 1e3), min_size=rows, max_size=rows)))
    f0, f_plus = (np.array(data.draw(st.lists(st.floats(-1e3, 1e3), min_size=rows, max_size=rows)))
                  for _ in range(2))
    config = _config(0.5, r, theta2=1e-3)
    steps, aux = method.propose_rows(g, alpha)
    accepted = method.accepts_rows(f0, f_plus, g, steps, aux, alpha, np.full(rows, r), config)
    for i in range(rows):
        step, one_aux = method.propose(g[i], float(alpha[i]))
        assert step.tobytes() == steps[i].tobytes()
        assert one_aux is None if aux is None else one_aux == aux[i]
        ok = method.accepts(float(f0[i]), float(f_plus[i]), g[i], step, one_aux, float(alpha[i]), config)
        assert type(ok) is bool and ok == accepted[i]
