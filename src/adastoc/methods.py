"""Step computation and acceptance tests for the two concrete methods.

Step search: the model is phi + g.s + (1/(2 alpha)) ||s||**2, minimized by
the plain gradient step s = -alpha * g; a step is accepted when the
estimated decrease beats -theta * g.s minus the noise compensation r.

Trust region (first order): the model is linear on the ball of radius
alpha, minimized exactly by s = -alpha * g / ||g||; acceptance requires the
decrease-to-model-reduction ratio to reach theta and additionally
||g|| >= theta2 * alpha.

Each formula is written once, in its class's row methods, for a stack of
R gradient estimates g (R, dim) at step sizes alpha (R,).  All acceptance
inequalities are non-strict: ties accept.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, NumericError
from .rows import row_dot

__all__ = ["SassMethod", "StormMethod"]


# Each method has the row protocol the adaptive loop drives:
#
#   propose_rows(g, alpha) -> (steps, aux)
#   accepts_rows(f0, f_plus, g, steps, aux, alpha, r, config) -> bool array
#
# where aux is whatever the method's acceptance test reuses from its step
# (None, or one entry per row), r the rows' noise offsets and config
# supplies theta and theta2.  Row r of a result is bit-identical to the
# result for row r alone: dot products go through `row_dot`.  Both classes
# bind the one-point propose/accepts below, row 0 of an R = 1 row call;
# they take a positive alpha and finite value estimates.


def _one_propose(self, g: np.ndarray, alpha: float):
    """(step, aux) for one gradient estimate: row 0 of propose_rows."""
    if not alpha > 0.0:
        raise InvalidParameterError("alpha must be positive")
    steps, aux = self.propose_rows(np.asarray(g, dtype=float)[None], np.array([alpha], dtype=float))
    return steps[0], None if aux is None else aux[0]


def _one_accepts(self, f0, f_plus, g, step, aux, alpha: float, config) -> bool:
    """The acceptance test for one step: row 0 of accepts_rows."""
    if not (np.isfinite(f0) and np.isfinite(f_plus)):
        raise NumericError("non-finite function estimates in acceptance test")
    ok = self.accepts_rows(
        np.array([f0], dtype=float), np.array([f_plus], dtype=float),
        np.asarray(g, dtype=float)[None], np.asarray(step, dtype=float)[None],
        None if aux is None else np.array([aux], dtype=float), np.array([alpha], dtype=float),
        np.array([config.r], dtype=float), config,
    )
    return bool(ok[0])


class SassMethod:
    """Step-search plug-in: negative gradient steps, decrease test with offset r."""

    family = "sass"
    stopping_modes = ("nonconvex", "strongly_convex")

    def propose_rows(self, g: np.ndarray, alpha: np.ndarray):
        return (-alpha)[:, None] * g, None

    def accepts_rows(self, f0, f_plus, g, steps, aux, alpha, r, config) -> np.ndarray:
        return f0 - f_plus >= -config.theta * row_dot(g, steps) - r  # x - 0.0 == x, bit for bit

    propose = _one_propose
    accepts = _one_accepts


class StormMethod:
    """First-order trust-region plug-in: ball-constrained linear model steps."""

    family = "storm"
    stopping_modes = ("nonconvex",)

    def propose_rows(self, g: np.ndarray, alpha: np.ndarray):
        """(step, ||g||) per row, normalized at unit scale so a subnormal gradient's step stays on the ball.

        A nonzero row's unit vector has a component of exactly +-1.0, so the
        two floors leave it unchanged; a zero row gets a zero step and norm 0.0.
        """
        scale = np.maximum(np.maximum.reduce(np.abs(g), axis=1), math.ulp(0.0))
        unit = g / scale[:, None]
        unit_norm = np.sqrt(row_dot(unit, unit))
        return (-alpha / np.maximum(unit_norm, 1.0))[:, None] * unit, scale * unit_norm

    def accepts_rows(self, f0, f_plus, g, steps, norm, alpha, r, config) -> np.ndarray:
        model_reduction = alpha * norm
        return (
            (model_reduction > 0.0)
            & (norm >= config.theta2 * alpha)
            & (f0 - f_plus + r >= config.theta * model_reduction)  # x + 0.0 compares as x
        )

    propose = _one_propose
    accepts = _one_accepts
