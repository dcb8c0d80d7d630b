"""Exact geometry of the orthant-times-free constraint set.

The coupled difference system lives in R^(2m) split as (x1, x2); the
constraint set is K = {x1 >= 0} x R^m.  Projection, squared distance and
its gradient all have closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ConePoint",
    "project_onto_K",
    "dist2_K",
    "grad_dist2_K",
]


@dataclass(frozen=True)
class ConePoint:
    """A point of R^(2m) packed as the pair (x1, x2)."""

    x1: np.ndarray
    x2: np.ndarray

    def __post_init__(self) -> None:
        x1 = np.atleast_1d(np.asarray(self.x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(self.x2, dtype=float))
        if x1.shape != x2.shape or x1.ndim != 1:
            raise ValueError("x1 and x2 must be vectors of the same length")
        if not (np.all(np.isfinite(x1)) and np.all(np.isfinite(x2))):
            raise ValueError("cone points must have finite entries")
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def m(self) -> int:
        return self.x1.shape[0]

    @classmethod
    def from_vector(cls, z) -> "ConePoint":
        z = np.atleast_1d(np.asarray(z, dtype=float))
        if z.shape[0] % 2 != 0:
            raise ValueError("packed cone point must have even length 2m")
        m = z.shape[0] // 2
        return cls(x1=z[:m], x2=z[m:])

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.x1, self.x2])


def project_onto_K(x: ConePoint) -> ConePoint:
    """Nearest point of K: positive part of the first block, second unchanged."""
    return ConePoint(x1=np.maximum(x.x1, 0.0), x2=x.x2.copy())


def dist2_K(x: ConePoint) -> float:
    """Squared Euclidean distance to K: sum over {x1_k < 0} of x1_k^2."""
    neg = np.minimum(x.x1, 0.0)
    return float(np.dot(neg, neg))


def grad_dist2_K(x: ConePoint) -> np.ndarray:
    """Gradient of dist2_K as a packed 2m vector: (2*min(x1,0), 0)."""
    out = np.zeros(2 * x.m)
    out[: x.m] = 2.0 * np.minimum(x.x1, 0.0)
    return out

