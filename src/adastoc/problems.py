"""Synthetic expected-risk objectives with exact ground truth and controlled noise.

Each problem exposes the exact objective value and gradient for
instrumentation, together with per-sample stochastic estimates whose second
moments respect the declared noise scales by construction:

* value samples deviate from the truth by N(0, sigma_f**2) noise;
* gradient samples deviate by N(0, s**2 * I) noise with
  s = grad_noise_std(grad), so the squared norm has expectation exactly
  m_c + m_v * ||grad||**2, which makes scaling checks on minibatch sizes
  sharp.

Both laws are Gaussian, so the mean of b samples is Gaussian too, with the
variance divided by b; `oracles.minibatch_value/grad` draw that mean in one
step from the same noise scales.  `sample_loss_batch`/`sample_grad_batch`
materialise b samples and are the per-sample reference for that law.

Oracle corruption (failures realized with an exact probability) is a
property of the oracle suite, not of the problem; see
`oracles.PairCorruptionOracles`.

Gaussian value noise is sub-Gaussian and therefore subexponential, which is
what the step-search value oracle's tail condition needs; this holds by
construction and is not separately enforced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, MissingGroundTruthError
from .rows import row_dot

__all__ = ["NoiseSpec", "Problem", "make_problem"]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise scales for sampled values and gradients.

    sigma_f is the standard deviation of value samples; the gradient noise
    second moment is m_c + m_v * ||grad||**2.  With m_v = 0 the gradient
    noise is uniformly bounded by sqrt(m_c), the sigma_g a trust-region
    oracle spec takes.
    """

    sigma_f: float = 0.0
    m_c: float = 0.0
    m_v: float = 0.0

    def __post_init__(self):
        for name in ("sigma_f", "m_c", "m_v"):
            if not getattr(self, name) >= 0.0:
                raise InvalidParameterError(f"{name} must be nonnegative")

    @classmethod
    def none(cls) -> "NoiseSpec":
        return cls()

    @classmethod
    def gaussian(cls, sigma_f: float = 0.0, m_c: float = 0.0, m_v: float = 0.0) -> "NoiseSpec":
        return cls(sigma_f=sigma_f, m_c=m_c, m_v=m_v)


@dataclass(frozen=True)
class Problem:
    """A synthetic objective with exact value/gradient and noisy sampling."""

    kind: str
    dim: int
    conditioning: float
    noise: NoiseSpec
    lipschitz: float
    min_value: float | None
    seed: int
    x0: np.ndarray = field(repr=False)
    _diag: np.ndarray | None = field(default=None, repr=False)
    _features: np.ndarray | None = field(default=None, repr=False)
    _neg_labels: np.ndarray | None = field(default=None, repr=False)  # -labels, the margins' signs
    _reg: float = 0.0

    # -- exact ground truth -------------------------------------------------
    #
    # value and grad take one point (dim,) or a stack of points (R, dim), one
    # per row.  A stack is evaluated row by row through stacked matmuls, so
    # each row's result is bit-identical to evaluating that point alone.
    # The formulas live in one pair of row functions: `_value_rows` returns
    # f with the partial result grad f is built from (the margins -y * (A x)
    # for logistic, D x for the quadratic), and `_grad_rows` finishes grad f
    # from it, so a caller holding f at a point never computes A x again.

    def value(self, x: np.ndarray):
        """f(x): a float for one point, an (R,) array for a stack of points."""
        x = np.asarray(x, dtype=float)
        f, _ = self._value_rows(x[None] if x.ndim == 1 else x)
        return float(f[0]) if x.ndim == 1 else f

    def grad(self, x: np.ndarray) -> np.ndarray:
        """The gradient of f at x, with the shape of x."""
        x = np.asarray(x, dtype=float)
        rows = x[None] if x.ndim == 1 else x
        g = self._grad_rows(rows, self._value_rows(rows)[1])
        return g[0] if x.ndim == 1 else g

    def gap(self, x: np.ndarray):
        if self.min_value is None:
            raise MissingGroundTruthError(f"{self.kind} problem has no known minimum value")
        return self.value(x) - self.min_value

    def _value_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """f at each row of an (R, dim) stack, and the partial result `_grad_rows` takes."""
        if self.kind == "quadratic":
            dx = self._diag * rows
            return 0.5 * row_dot(rows, dx), dx
        margins = self._neg_labels * np.matmul(self._features, rows[:, :, None])[:, :, 0]
        loss = np.add.reduce(np.logaddexp(0.0, margins), axis=1) / len(self._neg_labels)
        return loss + 0.5 * self._reg * row_dot(rows, rows), margins

    def _grad_rows(self, rows: np.ndarray, partial: np.ndarray) -> np.ndarray:
        """grad f at each row of rows, from `_value_rows(rows)[1]` (or the same rows of it)."""
        if self.kind == "quadratic":
            return partial
        sig = 1.0 / (1.0 + np.exp(-partial))
        coeff = self._neg_labels * sig / len(self._neg_labels)
        return np.matmul(self._features.T, coeff[:, :, None])[:, :, 0] + self._reg * rows

    # -- stochastic sampling ------------------------------------------------

    def grad_noise_std(self, g: np.ndarray):
        """Per-component noise standard deviation of one gradient sample where grad = g.

        The components are i.i.d., so the noise vector's squared norm has
        expectation exactly m_c + m_v * ||g||**2.  A float for one gradient,
        an (R,) array for a stack of gradients.
        """
        g = np.asarray(g, dtype=float)
        rows = g[None] if g.ndim == 1 else g
        std = np.sqrt((self.noise.m_c + self.noise.m_v * row_dot(rows, rows)) / self.dim)
        return float(std[0]) if g.ndim == 1 else std

    def sample_loss_batch(self, x: np.ndarray, batch: int, rng: np.random.Generator) -> np.ndarray:
        """batch i.i.d. stochastic value samples at x."""
        if batch < 1:
            raise InvalidParameterError("batch must be at least 1")
        if not np.all(np.isfinite(x)):
            raise InvalidParameterError("x must be finite")
        true = self.value(x)
        if self.noise.sigma_f == 0.0:
            return np.full(batch, true)
        return true + rng.normal(0.0, self.noise.sigma_f, size=batch)

    def sample_grad_batch(self, x: np.ndarray, batch: int, rng: np.random.Generator) -> np.ndarray:
        """batch i.i.d. stochastic gradient samples at x, shape (batch, dim)."""
        if batch < 1:
            raise InvalidParameterError("batch must be at least 1")
        if not np.all(np.isfinite(x)):
            raise InvalidParameterError("x must be finite")
        g = self.grad(x)
        std = self.grad_noise_std(g)
        if std == 0.0:
            return np.tile(g, (batch, 1))
        return g + rng.normal(0.0, std, size=(batch, self.dim))

    def descriptor(self) -> str:
        """key=value text block for experiment output headers."""
        n = self.noise
        items = [
            ("kind", self.kind),
            ("dim", self.dim),
            ("conditioning", self.conditioning),
            ("lipschitz", self.lipschitz),
            ("min_value", "unknown" if self.min_value is None else self.min_value),
            ("seed", self.seed),
            ("sigma_f", n.sigma_f),
            ("m_c", n.m_c),
            ("m_v", n.m_v),
        ]
        return "\n".join(f"{k}={v}" for k, v in items)


def _logistic_minimum(features: np.ndarray, labels: np.ndarray, reg: float, dim: int) -> float:
    """Minimum of the regularized logistic loss by damped Newton iteration."""
    x = np.zeros(dim)
    n = len(labels)
    for _ in range(200):
        margins = -labels * (features @ x)
        sig = 1.0 / (1.0 + np.exp(-margins))
        grad = features.T @ (-labels * sig / n) + reg * x
        w = sig * (1.0 - sig) / n
        hess = features.T @ (features * w[:, None]) + reg * np.eye(dim)
        step = np.linalg.solve(hess, grad)
        x = x - step
        if np.linalg.norm(grad) < 1e-14:
            break
    margins = -labels * (features @ x)
    return float(np.mean(np.logaddexp(0.0, margins)) + 0.5 * reg * np.dot(x, x))


def make_problem(
    kind: str,
    dim: int,
    conditioning: float = 1.0,
    noise: NoiseSpec | None = None,
    seed: int = 0,
) -> Problem:
    """Construct a synthetic objective.

    quadratic: 0.5 x^T D x with diagonal spectrum spread over
    [1, conditioning]; smoothness constant equals the top eigenvalue and
    the minimum value is 0.

    logistic_synthetic: l2-regularized logistic loss over a generated
    dataset; the smoothness constant is 0.25 * lambda_max(A^T A / N) + reg
    and the minimum value is computed to high precision at construction.
    """
    if dim < 1:
        raise InvalidParameterError("dim must be at least 1")
    if not (1.0 <= conditioning < math.inf):
        raise InvalidParameterError(f"conditioning must be finite and at least 1, got {conditioning}")
    noise = noise if noise is not None else NoiseSpec.none()

    if kind == "quadratic":
        diag = np.linspace(1.0, conditioning, dim) if dim > 1 else np.array([conditioning])
        x0 = np.full(dim, 2.0 / math.sqrt(dim))
        return Problem(
            kind=kind,
            dim=dim,
            conditioning=conditioning,
            noise=noise,
            lipschitz=float(diag.max()),
            min_value=0.0,
            seed=seed,
            x0=x0,
            _diag=diag,
        )
    if kind == "logistic_synthetic":
        rng = np.random.default_rng(seed)
        n_samples = max(50, 10 * dim)
        scales = np.sqrt(np.linspace(1.0, conditioning, dim)) if dim > 1 else np.array([1.0])
        features = rng.standard_normal((n_samples, dim)) * scales
        planted = rng.standard_normal(dim)
        labels = np.where(features @ planted + 0.1 * rng.standard_normal(n_samples) >= 0, 1.0, -1.0)
        reg = 0.1
        second_moment = features.T @ features / n_samples
        lipschitz = 0.25 * float(np.linalg.eigvalsh(second_moment).max()) + reg
        min_value = _logistic_minimum(features, labels, reg, dim)
        return Problem(
            kind=kind,
            dim=dim,
            conditioning=conditioning,
            noise=noise,
            lipschitz=lipschitz,
            min_value=min_value,
            seed=seed,
            x0=np.full(dim, 0.5),
            _features=features,
            _neg_labels=-labels,
            _reg=reg,
        )
    raise InvalidParameterError(f"unknown problem kind {kind!r}")
