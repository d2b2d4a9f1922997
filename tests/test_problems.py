import math

import numpy as np
import pytest

from adastoc.errors import InvalidParameterError, MissingGroundTruthError
from adastoc.oracles import PairCorruptionOracles
from adastoc.problems import NoiseSpec, make_problem
from adastoc.rows import row_dot


def test_identity_quadratic():
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    assert prob.lipschitz == 1.0
    assert prob.min_value == 0.0
    x = np.array([2.0, 0.0])
    assert prob.value(x) == pytest.approx(2.0)
    assert np.allclose(prob.grad(x), [2.0, 0.0])
    assert prob.gap(x) == pytest.approx(2.0)


def test_quadratic_spectrum_spans_conditioning():
    prob = make_problem("quadratic", 5, 100.0, NoiseSpec.none(), seed=0)
    assert prob.lipschitz == 100.0
    e1, e5 = np.eye(5)[0], np.eye(5)[4]
    assert prob.value(e1) == pytest.approx(0.5)
    assert prob.value(e5) == pytest.approx(50.0)


def test_make_problem_validation():
    with pytest.raises(InvalidParameterError):
        make_problem("quadratic", 0, 1.0)
    with pytest.raises(InvalidParameterError):
        make_problem("quadratic", 2, 0.5)
    with pytest.raises(InvalidParameterError):
        make_problem("banana", 2, 1.0)


def test_noise_spec_validation():
    with pytest.raises(InvalidParameterError):
        NoiseSpec(sigma_f=-1.0)
    with pytest.raises(InvalidParameterError):
        NoiseSpec(m_v=-1.0)


def test_zero_noise_samples_are_exact():
    prob = make_problem("quadratic", 3, 2.0, NoiseSpec.none(), seed=0)
    rng = np.random.default_rng(0)
    x = np.array([1.0, -1.0, 0.5])
    assert prob.sample_loss_batch(x, 1, rng)[0] == prob.value(x)
    assert np.array_equal(prob.sample_grad_batch(x, 1, rng)[0], prob.grad(x))


def test_value_noise_variance_bound():
    # declared sigma_f is an upper bound on the per-sample standard deviation
    prob = make_problem("quadratic", 10, 100.0, NoiseSpec.gaussian(sigma_f=1.0), seed=3)
    rng = np.random.default_rng(17)
    x = np.full(10, 0.3)
    draws = prob.sample_loss_batch(x, 100_000, rng)
    var = draws.var(ddof=1)
    se = math.sqrt(2.0 / (len(draws) - 1))  # sd of a unit-variance variance estimate
    assert var <= 1.0 + 4 * se
    assert abs(draws.mean() - prob.value(x)) <= 4 / math.sqrt(len(draws))


def test_gradient_noise_second_moment_is_tight():
    # mean ||g_sample - grad||^2 matches m_c + m_v * ||grad||^2 across points
    m_c, m_v = 1.0, 0.5
    prob = make_problem("quadratic", 4, 2.0, NoiseSpec.gaussian(m_c=m_c, m_v=m_v), seed=1)
    rng = np.random.default_rng(5)
    for x in (
        np.array([1.0, 0.0, -2.0, 0.5]),
        np.zeros(4),
        np.full(4, 3.0),
    ):
        g = prob.grad(x)
        target = m_c + m_v * float(g @ g)
        draws = prob.sample_grad_batch(x, 100_000, rng)
        sq = ((draws - g) ** 2).sum(axis=1)
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - target) <= 4 * se + 1e-12


def test_interpolation_noise_vanishes_at_stationary_point():
    prob = make_problem("quadratic", 3, 1.0, NoiseSpec.gaussian(m_c=0.0, m_v=1.0), seed=0)
    rng = np.random.default_rng(0)
    x = np.zeros(3)
    assert np.array_equal(prob.sample_grad_batch(x, 1, rng)[0], prob.grad(x))


def test_bernoulli_corruption_rates_and_shift():
    # Bernoulli corruption lives in PairCorruptionOracles: delta0 shifts the
    # trial value by value_shift, delta1 negates the gradient
    suite = PairCorruptionOracles(delta0=0.2, delta1=0.1, value_shift=50.0)
    prob = make_problem("quadratic", 2, 1.0, NoiseSpec.none(), seed=0)
    rng = np.random.default_rng(8)
    x = np.array([1.0, 1.0])
    vals = np.array([suite.values(prob, x, x, 1.0, rng)[1] for _ in range(50_000)])
    corrupted = vals != prob.value(x)
    assert np.unique(vals[corrupted]) == pytest.approx(prob.value(x) + 50.0)
    assert abs(corrupted.mean() - 0.2) <= 0.01
    grads = np.array([suite.gradient(prob, x, 1.0, rng)[0] for _ in range(50_000)])
    flipped = (grads == -prob.grad(x)).all(axis=1)
    assert abs(flipped.mean() - 0.1) <= 0.01


def test_logistic_gradient_matches_finite_differences():
    prob = make_problem("logistic_synthetic", 5, 1.0, NoiseSpec.gaussian(), seed=4)
    rng = np.random.default_rng(12)
    h = 1e-6
    for _ in range(10):
        x = rng.standard_normal(5)
        g = prob.grad(x)
        fd = np.empty(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (prob.value(x + e) - prob.value(x - e)) / (2 * h)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_logistic_minimum_is_a_minimum():
    prob = make_problem("logistic_synthetic", 4, 2.0, NoiseSpec.none(), seed=9)
    assert prob.min_value is not None
    rng = np.random.default_rng(2)
    for _ in range(20):
        assert prob.value(rng.standard_normal(4)) >= prob.min_value - 1e-10


def test_unknown_minimum_raises_on_gap():
    from dataclasses import replace

    prob = replace(make_problem("quadratic", 2, 1.0), min_value=None)
    with pytest.raises(MissingGroundTruthError):
        prob.gap(np.zeros(2))


def test_descriptor_block():
    prob = make_problem("quadratic", 2, 4.0, NoiseSpec.gaussian(sigma_f=0.5), seed=7)
    text = prob.descriptor()
    assert "kind=quadratic" in text
    assert "conditioning=4.0" in text
    assert "sigma_f=0.5" in text
    assert all("=" in line for line in text.splitlines())


def test_unbiasedness_monte_carlo_rate():
    # empirical means converge at the 1/sqrt(N) rate
    prob = make_problem("quadratic", 3, 3.0, NoiseSpec.gaussian(sigma_f=1.0, m_c=1.0), seed=0)
    x = np.array([0.5, -0.5, 1.0])
    errs = []
    for n in (1000, 4000, 16000):
        rng = np.random.default_rng(100 + n)
        errs.append(abs(prob.sample_loss_batch(x, n, rng).mean() - prob.value(x)))
    # each quadrupling of N should roughly halve the error; allow wide slack
    assert errs[2] <= errs[0]


def _reference_value(prob, rows):
    # the formulas as first written: margins, mean loss and gradient computed afresh
    if prob.kind == "quadratic":
        return 0.5 * row_dot(rows, prob._diag * rows)
    labels = -prob._neg_labels
    margins = -labels * np.matmul(prob._features, rows[:, :, None])[:, :, 0]
    return np.mean(np.logaddexp(0.0, margins), axis=1) + 0.5 * prob._reg * row_dot(rows, rows)


def _reference_grad(prob, rows):
    if prob.kind == "quadratic":
        return prob._diag * rows
    labels = -prob._neg_labels
    margins = -labels * np.matmul(prob._features, rows[:, :, None])[:, :, 0]
    sig = 1.0 / (1.0 + np.exp(-margins))
    coeff = -labels * sig / len(labels)
    return np.matmul(prob._features.T, coeff[:, :, None])[:, :, 0] + prob._reg * rows


@pytest.mark.parametrize("kind, dim", [("quadratic", 7), ("logistic_synthetic", 50), ("logistic_synthetic", 3)])
def test_value_and_grad_keep_the_reference_bits(kind, dim):
    # value/grad, and grad built from the partial result _value_rows returns (whole or for a
    # subset of rows, as the adaptive loop builds it), equal the reference formulas bit for bit
    prob = make_problem(kind, dim, 100.0, NoiseSpec.none(), seed=2)
    rng = np.random.default_rng(5)
    point = rng.standard_normal(dim)
    assert prob.value(point) == float(_reference_value(prob, point[None])[0])
    assert prob.grad(point).tolist() == _reference_grad(prob, point[None])[0].tolist()
    for r in (1, 3, 64):
        rows = rng.standard_normal((r, dim)) * rng.uniform(0.1, 2.0, size=(r, 1))
        f, partial = prob._value_rows(rows)
        assert prob.value(rows).tolist() == f.tolist() == _reference_value(prob, rows).tolist()
        reference = _reference_grad(prob, rows)
        assert prob.grad(rows).tolist() == prob._grad_rows(rows, partial).tolist() == reference.tolist()
        subset = rng.random(r) < 0.5
        assert prob._grad_rows(rows[subset], partial[subset]).tolist() == reference[subset].tolist()
        assert prob.grad(rows[subset]).tolist() == _reference_grad(prob, rows[subset]).tolist()
