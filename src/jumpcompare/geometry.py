"""Cones and the one pointwise inequality.

Theorems 3.1 and 3.7 state one condition on two closed convex cones: the
generator of dist^2 to the cone, applied to the gap between the two models,
stays below C* dist^2.  ``generator`` evaluates it over a cone that supplies
``asarray`` (an input as an element of its space), ``point(x)`` (the data
at x, computed once per probe: the negative part x^-, the projection
x^+ = x + x^-, dist^2(x), half the Hessian quadratic form of dist^2 and a
``degenerate`` flag where that form does not exist), ``inner``, ``dist2``
at another point, and ``sym`` (a coefficient gap as an element of the
space).  ``Orthant`` is {x >= 0} in R^m (Theorem 3.1); ``psdcone.PsdCone``
is the PSD cone under the trace inner product (Theorem 3.7).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GeneratorValue",
    "Orthant",
    "generator",
]


class _OrthantPoint:
    """The Hessian of dist^2 at x is diag(2 on {x_k < 0}); at x_k = 0, where
    it does not exist, the one-sided value from inside (0) is used."""

    degenerate = False

    def __init__(self, x: np.ndarray):
        self.x = x
        self.minus = np.maximum(-x, 0.0)
        self.plus = x + self.minus
        self.dist2 = float(self.minus @ self.minus)

    def half_hess(self, H: np.ndarray) -> float:
        """Half the Hessian quadratic form, summed over the columns of H."""
        neg = self.x < 0.0
        return float(np.sum(H[neg] ** 2)) if np.any(neg) else 0.0


class Orthant:
    """The nonnegative orthant {x >= 0} of R^m."""

    @staticmethod
    def asarray(v) -> np.ndarray:
        return np.atleast_1d(np.asarray(v, dtype=float))

    @staticmethod
    def point(x) -> _OrthantPoint:
        return _OrthantPoint(Orthant.asarray(x))

    @staticmethod
    def inner(a: np.ndarray, b: np.ndarray) -> float:
        return float(a @ b)

    @staticmethod
    def dist2(y: np.ndarray) -> float:
        neg = np.minimum(y, 0.0)
        return float(neg @ neg)

    @staticmethod
    def sym(g: np.ndarray) -> np.ndarray:
        return g


@dataclass(frozen=True)
class GeneratorValue:
    """The pointwise inequality at one probe: lhs = drift + diffusion + jump
    against rhs.  ``degenerate`` marks a probe where the cone's Hessian form
    does not exist, so the value cannot be judged."""

    drift: float
    diffusion: float
    jump: float
    lhs: float
    rhs: float
    degenerate: bool


def generator(cone, problem, t: float, x, x_prime) -> GeneratorValue:
    """The generator of dist^2 applied to the model gap at (t, x, x').

    The drift gap, taken at x^+ + x', pairs with the gradient -2 x^-; the
    diffusion gap at x + x' enters through half the Hessian quadratic form
    at x; each jump gap dg at x + x' adds its mark weight times
    dist^2(x + dg) - dist^2(x) + 2 <x^-, dg> (exact atom sums).  The
    right-hand side is the problem's C* times dist^2(x).
    """
    c1 = problem.model1.coefficients
    c2 = problem.model2.coefficients
    marks = problem.marks
    pt = cone.point(x)
    x = pt.x
    xp = cone.asarray(x_prime)

    b_gap = np.asarray(c1.b(t, pt.plus + xp), dtype=float) - c2.b(t, xp)
    drift = -2.0 * cone.inner(pt.minus, b_gap)
    s_gap = np.asarray(c1.sigma(t, x + xp), dtype=float) - c2.sigma(t, xp)
    diffusion = pt.half_hess(cone.sym(s_gap))
    jump = 0.0
    for j in range(marks.n_atoms):
        w = float(marks.weights[j])
        if w == 0.0:
            continue
        dg = cone.sym(np.asarray(c1.gamma(t, x + xp, j), dtype=float) - c2.gamma(t, xp, j))
        jump += w * (cone.dist2(x + dg) - pt.dist2 + 2.0 * cone.inner(pt.minus, dg))

    return GeneratorValue(
        drift=drift, diffusion=diffusion, jump=jump, lhs=drift + diffusion + jump,
        rhs=problem.cstar * pt.dist2, degenerate=pt.degenerate,
    )
