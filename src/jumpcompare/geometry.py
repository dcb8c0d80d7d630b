"""Cones and the one pointwise inequality.

Theorems 3.1 and 3.7 state one condition on two closed convex cones: the
generator of dist^2 to the cone, applied to the gap between the two models,
stays below C* dist^2.  ``generator`` evaluates it over a block of probes,
stacked along a leading axis, for a cone that supplies ``asarray`` (a block
of inputs as elements of its space), ``point(x)`` (the data at each x,
computed once per probe: the negative part x^-, the projection
x^+ = x + x^-, dist^2(x), half the Hessian quadratic form of dist^2 and a
``degenerate`` flag where that form does not exist), ``inner``, ``dist2``
at other points, and ``sym`` (coefficient gaps as elements of the space).
Each of these keeps the leading axis.  The model coefficients of a block
come from their ``b_rows``, ``sigma_rows`` and ``gamma_rows``.

``Orthant`` is {x >= 0} in R^m (Theorem 3.1), on whole arrays: every probe
of a block gets the bits it gets alone, because each matrix-vector product
stays one BLAS ``gemv`` and each dot product one ``ddot`` per probe, and
each Hessian sum runs over its probe's negative rows only.
``psdcone.PsdCone`` is the PSD cone under the trace inner product (Theorem
3.7), on whole arrays too: one stacked ``eigh`` per block, which solves each
matrix by its own LAPACK call, and products that stay one BLAS call per
matrix, so every probe of a block gets the bits it gets alone.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

__all__ = [
    "GeneratorValue",
    "Orthant",
    "generator",
]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The dot products of a and b along the last axis, each as one BLAS
    ``ddot``, the bits of ``float(a @ b)`` (``(a * b).sum(-1)`` differs)."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0][()]


class _OrthantPoint:
    """dist^2 data at x of shape (..., m): one point, or a block of them.

    The Hessian of dist^2 at x is diag(2 on {x_k < 0}); at x_k = 0, where
    it does not exist, the one-sided value from inside (0) is used, so no
    point is degenerate."""

    def __init__(self, x: np.ndarray):
        self.x = x
        self.minus = np.maximum(-x, 0.0)
        self.plus = x + self.minus
        self.dist2 = _dot(self.minus, self.minus)
        self.degenerate = np.zeros(x.shape[:-1], dtype=bool)

    def half_hess(self, H: np.ndarray) -> np.ndarray:
        """Half the Hessian quadratic form at each x, summed over the
        columns of H (shape (..., m, d)).

        Each value is the sum of the squares of H's entries on the negative
        rows of its x, in row order and with no other terms, as
        ``np.sum(H[x < 0] ** 2)`` adds them: numpy sums 8 or more terms
        pairwise, so padding with zeros could change the last bit.  The
        probes are therefore summed in groups that share a negative-row
        pattern."""
        m = self.x.shape[-1]
        neg = (self.x < 0.0).reshape(-1, m)
        H = H.reshape(neg.shape[0], m, -1)
        out = np.zeros(neg.shape[0])
        patterns, which = np.unique(neg, axis=0, return_inverse=True)
        for p, rows_neg in enumerate(patterns):
            if rows_neg.any():
                probes = np.flatnonzero(which.ravel() == p)
                sq = H[probes][:, rows_neg] ** 2
                out[probes] = sq.reshape(probes.size, -1).sum(axis=1)
        return out.reshape(self.x.shape[:-1])[()]


class Orthant:
    """The nonnegative orthant {x >= 0} of R^m; vectors on the last axis."""

    @staticmethod
    def asarray(v) -> np.ndarray:
        return np.atleast_1d(np.asarray(v, dtype=float))

    @staticmethod
    def point(x) -> _OrthantPoint:
        return _OrthantPoint(Orthant.asarray(x))

    @staticmethod
    def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _dot(a, b)

    @staticmethod
    def dist2(y: np.ndarray) -> np.ndarray:
        neg = np.minimum(y, 0.0)
        return _dot(neg, neg)

    @staticmethod
    def sym(g: np.ndarray) -> np.ndarray:
        return g


@dataclass(frozen=True)
class GeneratorValue:
    """The pointwise inequality over a block of probes, one entry per probe:
    lhs = drift + diffusion + jump against rhs.  ``degenerate`` marks a
    probe where the cone's Hessian form does not exist, so its value cannot
    be judged.  ``probe(i)`` is one probe's value, as floats and a bool."""

    drift: Union[np.ndarray, float]
    diffusion: Union[np.ndarray, float]
    jump: Union[np.ndarray, float]
    lhs: Union[np.ndarray, float]
    rhs: Union[np.ndarray, float]
    degenerate: Union[np.ndarray, bool]

    def probe(self, i: int) -> "GeneratorValue":
        return GeneratorValue(
            drift=float(self.drift[i]), diffusion=float(self.diffusion[i]),
            jump=float(self.jump[i]), lhs=float(self.lhs[i]), rhs=float(self.rhs[i]),
            degenerate=bool(self.degenerate[i]),
        )

    @classmethod
    def stack(cls, values: Sequence["GeneratorValue"]) -> "GeneratorValue":
        """Single-probe values as one block."""
        return cls(*(np.array([getattr(v, f.name) for v in values]) for f in fields(cls)))


def generator(cone, problem, t, x, x_prime) -> GeneratorValue:
    """The generator of dist^2 applied to the model gap at a block of
    probes (t, x, x'), with t of shape (N,) and x, x' N elements of the
    cone's space stacked along a leading axis.

    The drift gap, taken at x^+ + x', pairs with the gradient -2 x^-; the
    diffusion gap at x + x' enters through half the Hessian quadratic form
    at x; each jump gap dg at x + x' adds its mark weight times
    dist^2(x + dg) - dist^2(x) + 2 <x^-, dg> (exact atom sums).  The
    right-hand side is the problem's C* times dist^2(x).
    """
    c1 = problem.model1.coefficients
    c2 = problem.model2.coefficients
    marks = problem.marks
    t = np.asarray(t, dtype=float)
    pt = cone.point(x)
    x = pt.x
    xp = cone.asarray(x_prime)
    y = x + xp

    b_gap = c1.b_rows(t, pt.plus + xp) - c2.b_rows(t, xp)
    drift = -2.0 * cone.inner(pt.minus, b_gap)
    s_gap = c1.sigma_rows(t, y) - c2.sigma_rows(t, xp)
    diffusion = pt.half_hess(cone.sym(s_gap))
    jump = np.zeros(t.shape)
    for j in range(marks.n_atoms):
        w = float(marks.weights[j])
        if w == 0.0:
            continue
        dg = cone.sym(c1.gamma_rows(t, y, j) - c2.gamma_rows(t, xp, j))
        jump += w * (cone.dist2(x + dg) - pt.dist2 + 2.0 * cone.inner(pt.minus, dg))

    return GeneratorValue(
        drift=drift, diffusion=diffusion, jump=jump, lhs=drift + diffusion + jump,
        rhs=problem.cstar * pt.dist2, degenerate=pt.degenerate,
    )
