"""Domain types for jump-diffusion SDE models and coupled comparison problems.

A model bundles a coefficient triple (drift, diffusion, jump amplitude), a
finite jump-mark measure stored as weighted atoms, and a regularity budget
(Lipschitz/growth constant ``mu`` plus per-atom jump Lipschitz constants
``rho``).  Two models over identical mark measures and noise dimensions form a
:class:`ComparisonProblem`, the unit of work for the condition checkers and
the Monte Carlo engine.

All types are immutable after construction and every operation here is a
pure function.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ModelError",
    "DimensionMismatch",
    "NegativeWeight",
    "ZeroMark",
    "OrderError",
    "MarkMeasure",
    "RegularityBudget",
    "AffineCoefficients",
    "CoefficientTriple",
    "SdeModel",
    "SampleDomain",
    "check_seed",
    "Tolerances",
    "ComparisonProblem",
    "validate_model",
    "lipschitz_certificate",
    "constant_C",
    "constant_Cstar",
    "operator_norm",
]


class ModelError(ValueError):
    """Base class for model construction / validation failures."""


class DimensionMismatch(ModelError):
    """Inconsistent shapes between coefficients, marks, or budget."""


class NegativeWeight(ModelError):
    """A mark atom carries a negative weight."""


class ZeroMark(ModelError):
    """A mark atom equals the zero vector (the mark space excludes 0)."""


class OrderError(ModelError):
    """Initial states violate the required ordering x1 >= x2."""


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


# ---------------------------------------------------------------------------
# Mark measure and regularity budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarkMeasure:
    """Finite jump-mark measure: weighted atoms in R^l minus the origin.

    ``marks`` has shape (n_atoms, dimension) and ``weights`` shape (n_atoms,).
    Total mass is finite by construction, which makes mark integrals exact
    finite sums and jump sampling a compound-Poisson draw.
    """

    dimension: int
    marks: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if int(self.dimension) < 1:
            raise DimensionMismatch("mark dimension must be a positive integer")
        marks = np.asarray(self.marks, dtype=float)
        if marks.size == 0:
            marks = np.zeros((0, self.dimension))
        marks = np.atleast_2d(marks)
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if marks.shape != (weights.shape[0], self.dimension):
            raise DimensionMismatch(
                f"marks shape {marks.shape} inconsistent with "
                f"{weights.shape[0]} weights in dimension {self.dimension}"
            )
        if not (np.all(np.isfinite(marks)) and np.all(np.isfinite(weights))):
            raise ModelError("marks and weights must be finite")
        if np.any(weights < 0.0):
            raise NegativeWeight("mark weights must be nonnegative")
        with np.errstate(over="ignore"):  # the sum that total_mass takes
            if not np.isfinite(np.sum(weights)):
                raise ModelError("the total mark mass must be finite")
        for row in marks:
            if np.all(row == 0.0):
                raise ZeroMark("mark atoms must be nonzero vectors")
        object.__setattr__(self, "marks", _frozen(marks))
        object.__setattr__(self, "weights", _frozen(weights))

    @classmethod
    def from_atoms(
        cls, atoms: Sequence[Tuple[Sequence[float], float]], dimension: Optional[int] = None
    ) -> "MarkMeasure":
        """Build from a list of (mark vector, weight) pairs."""
        if dimension is None:
            if not atoms:
                raise DimensionMismatch("dimension required for an empty atom list")
            dimension = len(np.atleast_1d(np.asarray(atoms[0][0], dtype=float)))
        marks = [np.atleast_1d(np.asarray(e, dtype=float)) for e, _ in atoms]
        weights = [float(w) for _, w in atoms]
        return cls(dimension=int(dimension), marks=np.array(marks).reshape(len(atoms), -1)
                   if atoms else np.zeros((0, dimension)), weights=np.array(weights))

    @property
    def n_atoms(self) -> int:
        return int(self.weights.shape[0])

    @functools.cached_property
    def total_mass(self) -> float:
        """Sum of the weights, computed on first read and kept."""
        return float(np.sum(self.weights))

    @functools.cached_property
    def atom_cdf(self) -> np.ndarray:
        """The cumulative weights over the total mass, computed on first read
        and kept (read-only): a uniform u draws atom ``searchsorted(atom_cdf,
        u, side="right")``.  Only defined for a positive total mass."""
        cdf = np.cumsum(self.weights) / self.total_mass
        cdf.setflags(write=False)
        return cdf

    def same_atoms(self, other: "MarkMeasure") -> bool:
        return (
            self.dimension == other.dimension
            and np.array_equal(self.marks, other.marks)
            and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True)
class RegularityBudget:
    """Lipschitz/growth budget: ``mu`` for drift+diffusion, ``rho`` per atom."""

    mu: float
    rho: np.ndarray

    def __post_init__(self) -> None:
        mu = float(self.mu)
        rho = np.atleast_1d(np.asarray(self.rho, dtype=float))
        if rho.size == 0:
            rho = np.zeros(0)
        if not (math.isfinite(mu) and mu >= 0.0):
            raise ModelError("mu must be finite and nonnegative")
        if rho.size and (not np.all(np.isfinite(rho)) or np.any(rho < 0.0)):
            raise ModelError("rho entries must be finite and nonnegative")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "rho", _frozen(rho))

    def join(self, other: "RegularityBudget") -> "RegularityBudget":
        """Componentwise max of two budgets: one (mu, rho) covering both."""
        return RegularityBudget(
            mu=max(self.mu, other.mu),
            rho=np.maximum(self.rho, other.rho) if self.rho.size else self.rho,
        )

    def jump_second_moment(self, marks: MarkMeasure) -> float:
        """Exact value of the mark integral of rho^2 over the atoms."""
        if self.rho.shape[0] != marks.n_atoms:
            raise DimensionMismatch(
                f"budget has {self.rho.shape[0]} rho entries for {marks.n_atoms} atoms"
            )
        return float(np.sum(marks.weights * self.rho**2))


# ---------------------------------------------------------------------------
# Coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AffineCoefficients:
    """Closed-form affine coefficient family.

    drift(t, x)        = B x + c
    diffusion(t, x)    = einsum('kaj,j->ka', V, x) + U        (m x d matrix)
    jump(t, x, j)      = G[j] x + g[j]                        (per mark atom)

    The family is time-homogeneous; evaluation still accepts t so the
    call signatures match black-box coefficients.
    """

    B: np.ndarray  # (m, m)
    c: np.ndarray  # (m,)
    V: np.ndarray  # (m, d, m)
    U: np.ndarray  # (m, d)
    G: np.ndarray  # (n_atoms, m, m)
    g: np.ndarray  # (n_atoms, m)

    def __post_init__(self) -> None:
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        V = np.asarray(self.V, dtype=float)
        U = np.atleast_2d(np.asarray(self.U, dtype=float))
        G = np.asarray(self.G, dtype=float)
        g = np.asarray(self.g, dtype=float)
        m = B.shape[0]
        if B.shape != (m, m):
            raise DimensionMismatch("B must be square")
        if c.shape != (m,):
            raise DimensionMismatch("c must have shape (m,)")
        if V.ndim != 3 or V.shape[0] != m or V.shape[2] != m:
            raise DimensionMismatch("V must have shape (m, d, m)")
        d = V.shape[1]
        if U.shape != (m, d):
            raise DimensionMismatch("U must have shape (m, d)")
        if G.size == 0:
            G = np.zeros((0, m, m))
        if g.size == 0:
            g = np.zeros((0, m))
        if G.ndim != 3 or G.shape[1:] != (m, m):
            raise DimensionMismatch("G must have shape (n_atoms, m, m)")
        if g.shape != (G.shape[0], m):
            raise DimensionMismatch("g must have shape (n_atoms, m)")
        for name, arr in (("B", B), ("c", c), ("V", V), ("U", U), ("G", G), ("g", g)):
            if not np.all(np.isfinite(arr)):
                raise ModelError(f"affine block {name} contains non-finite entries")
        object.__setattr__(self, "B", _frozen(B))
        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "V", _frozen(V))
        object.__setattr__(self, "U", _frozen(U))
        object.__setattr__(self, "G", _frozen(G))
        object.__setattr__(self, "g", _frozen(g))

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def d(self) -> int:
        return self.V.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.G.shape[0]

    # single-point evaluation
    def drift(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.B @ x + self.c

    def diffusion(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.V @ x + self.U

    def jump(self, t: float, x: np.ndarray, j: int) -> np.ndarray:
        return self.G[j] @ x + self.g[j]

    @functools.cached_property
    def _U_has_negative_zero(self) -> bool:
        return bool(np.any(np.signbit(self.U) & (self.U == 0.0)))

    @functools.cached_property
    def _diffusion_is_U(self) -> bool:
        """V = 0, and U holds no -0.0: then einsum(V, X) + U is U bit for bit
        at every finite row (0 * x + (-0.0) can give +0.0).  A non-finite row
        may get inf where the sum gives NaN."""
        return not self.V.any() and not self._U_has_negative_zero

    @functools.cached_property
    def _diagonal(self) -> Optional[np.ndarray]:
        """V[k, :, k] as a (d, m) array when V is diagonal (V[k, :, j] = 0
        for every j != k) and, at m >= 2, U holds no -0.0; else None."""
        k = np.arange(self.m)
        off = self.V.copy()
        off[k, :, k] = 0.0
        if off.any() or (self.m > 1 and self._U_has_negative_zero):
            return None
        return self.V[k, :, k].T.copy()

    def row_tiles(self, rows: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """The constants ``diffusion_rows`` applies, tiled over ``rows`` rows
        so that a block of at most that many rows takes one flat loop per
        operation: U (plus 0.0 for a diagonal V) as (rows, m, d), and a
        diagonal V's diagonal as (d, rows, m), else None."""
        diag = self._diagonal
        if diag is None:
            return np.tile(self.U, (rows, 1, 1)), None
        return np.tile(self.U + 0.0, (rows, 1, 1)), np.tile(diag[:, None, :], (1, rows, 1))

    # batch evaluation over rows of X, used by the vectorized engine
    def diffusion_rows(
        self,
        t: float,
        X: np.ndarray,
        tiles: Optional[Tuple[np.ndarray, Optional[np.ndarray]]] = None,
    ) -> np.ndarray:
        """einsum("kaj,pj->pka", V, X) + U at every row of X, bit for bit.

        ``tiles`` is ``row_tiles(rows)`` for some rows >= X's (built here
        when None).  A diagonal V (see ``_diagonal``) is taken as a product:
        X times each column of the diagonal, then U + 0.0.  At m = 1 the sum
        has one term, which einsum returns as 0 + V x, so the product plus
        (U + 0.0) is its value at every row, NaN and inf as in the product.
        At m >= 2 the dropped terms are 0 * x_j: on a finite row they are
        zeros, which leave a nonzero product exact, and a zero sum is settled
        by U, which then holds no -0.0 (a nonzero U_k gives U_k, and +0.0
        plus either zero gives +0.0).  On a row that is not finite einsum
        makes 0 * inf = NaN and spreads it to the other coordinates, so a
        block holding such a row takes the einsum.
        """
        if self._diffusion_is_U:
            # a constant diffusion: every row is U, a read-only broadcast
            return np.broadcast_to(self.U, (X.shape[0],) + self.U.shape)
        n = X.shape[0]
        U_rows, diag_rows = self.row_tiles(n) if tiles is None else tiles
        if diag_rows is not None and (self.m == 1 or np.isfinite(X).all()):
            out = np.empty((n,) + self.U.shape)
            for a in range(self.d):
                np.multiply(X, diag_rows[a, :n], out=out[:, :, a])
        else:
            out = np.einsum("kaj,pj->pka", self.V, X)
        out += U_rows[:n]
        return out

    def net_drift_blocks(self, marks: MarkMeasure) -> Tuple[np.ndarray, np.ndarray]:
        """Linear part and constant of the compensator-adjusted drift b - sum(w*gamma)."""
        M = self.B.copy()
        dvec = self.c.copy()
        for j in range(self.n_atoms):
            w = marks.weights[j]
            M -= w * self.G[j]
            dvec -= w * self.g[j]
        return M, dvec


@dataclass(frozen=True)
class CoefficientTriple:
    """Evaluatable coefficients (b, sigma, gamma) of one SDE.

    ``drift(t, x) -> R^m``, ``diffusion(t, x) -> R^(m x d)``,
    ``gamma(t, x, atom_index) -> R^m``.  Evaluation must be pure: the order
    of the calls across rows and terms is unspecified.  When an affine
    parameterization is attached, black-box and affine evaluation must agree
    pointwise (sample-tested, not enforced here).
    """

    m: int
    d: int
    drift: Callable[[float, np.ndarray], np.ndarray]
    diffusion: Callable[[float, np.ndarray], np.ndarray]
    jump: Callable[[float, np.ndarray, int], np.ndarray]
    affine: Optional[AffineCoefficients] = None

    @classmethod
    def from_affine(cls, affine: AffineCoefficients) -> "CoefficientTriple":
        return cls(
            m=affine.m,
            d=affine.d,
            drift=affine.drift,
            diffusion=affine.diffusion,
            jump=affine.jump,
            affine=affine,
        )

    def b(self, t: float, x) -> np.ndarray:
        return np.asarray(self.drift(t, np.asarray(x, dtype=float)), dtype=float).reshape(self.m)

    def sigma(self, t: float, x) -> np.ndarray:
        out = np.asarray(self.diffusion(t, np.asarray(x, dtype=float)), dtype=float)
        return out.reshape(self.m, self.d)

    def gamma(self, t: float, x, j: int) -> np.ndarray:
        return np.asarray(self.jump(t, np.asarray(x, dtype=float), j), dtype=float).reshape(self.m)

    # A block of points: row i of X at time t[i] (or at a scalar t), and for
    # gamma_rows with atom j[i] (or one atom j).  An affine family is
    # evaluated in closed form, one matrix-vector product per row as in the
    # single-point methods, so each row has their bits; black-box
    # coefficients get the single-point methods' calls, one per row, in an
    # unspecified order (evaluation is pure), and each row their values.
    def b_rows(self, t, X: np.ndarray) -> np.ndarray:
        if self.affine is not None:
            return (self.affine.B @ X[..., None])[..., 0] + self.affine.c
        return _per_row("drift", self.drift, (self.m,), t, X)

    def sigma_rows(self, t, X: np.ndarray) -> np.ndarray:
        if self.affine is not None:
            return (self.affine.V @ X[:, None, :, None])[..., 0] + self.affine.U
        return _per_row("diffusion", self.diffusion, (self.m, self.d), t, X)

    def gamma_rows(self, t, X: np.ndarray, j) -> np.ndarray:
        if self.affine is not None:
            return (self.affine.G[j] @ X[..., None])[..., 0] + self.affine.g[j]
        return _per_row("jump", self.jump, (self.m,), t, X, j)


def _per_row(name: str, f, shape: Tuple[int, ...], t, X: np.ndarray, *atoms) -> np.ndarray:
    """f(t_i, x_i[, j_i]) for each row x_i of X, read as arrays of ``shape``
    and stacked; a scalar t or atom applies to every row.  Outputs of mixed
    shapes are read one at a time; an output of a wrong size is a ValueError
    that names the coefficient ``name``, the row's t, x (and atom), and keeps
    numpy's text."""
    X = np.asarray(X, dtype=float)
    cols = [a.tolist() if a.shape == X.shape[:1] else [a.item()] * X.shape[0]
            for a in map(np.asarray, (t, *atoms))]
    outs = list(map(f, cols[0], X, *cols[1:]))
    try:
        return np.asarray(outs, dtype=float).reshape((len(outs),) + shape)
    except ValueError:
        rows = []
        for i, out in enumerate(outs):
            try:
                rows.append(np.asarray(out, dtype=float).reshape(shape))
            except ValueError as exc:
                atom = f" (atom {cols[1][i]})" if atoms else ""
                raise ValueError(f"{name}{atom} at t = {cols[0][i]!r}, "
                                 f"x = {X[i].tolist()}: {exc}") from exc
        return np.stack(rows)


@dataclass(frozen=True)
class SdeModel:
    """One SDE: coefficients plus mark measure plus regularity budget."""

    coefficients: CoefficientTriple
    marks: MarkMeasure
    budget: RegularityBudget

    @property
    def m(self) -> int:
        return self.coefficients.m

    @property
    def d(self) -> int:
        return self.coefficients.d

    @property
    def is_affine(self) -> bool:
        return self.coefficients.affine is not None


# ---------------------------------------------------------------------------
# Sampling domains, tolerances, comparison problems
# ---------------------------------------------------------------------------

DEFAULT_LADDER = (1e-6, 1e-4, 1e-2, 1e-1, 1.0)


def check_seed(seed, name: str = "seed", error: type = ModelError) -> int:
    """``seed`` as an int if it is an integer in [0, 2^64), the range of every
    seed the program takes (a Monte Carlo seed is the one 64-bit word that
    keys each path's Philox stream); else ``error`` naming ``name``."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise error(f"{name}: must be an integer in [0, 2^64), got {seed}")
    return int(seed)


@dataclass(frozen=True)
class SampleDomain:
    """Where the randomized checkers draw their probes.

    ``box`` is the half-width R of the sampling box, ``count`` the random probe
    budget on top of the structured ladder probes, ``ladder`` the mandatory
    magnitude scales for near-boundary probing.
    """

    box: float = 10.0
    count: int = 512
    ladder: Tuple[float, ...] = DEFAULT_LADDER
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.box > 0.0):
            raise ModelError("sample box half-width must be positive")
        if int(self.count) < 1:
            raise ModelError("sample count must be >= 1")
        if not all(s > 0 for s in self.ladder):
            raise ModelError("ladder scales must be positive")
        object.__setattr__(self, "count", int(self.count))
        object.__setattr__(self, "seed", check_seed(self.seed))
        object.__setattr__(self, "ladder", tuple(float(s) for s in self.ladder))

    def scales(self) -> Tuple[float, ...]:
        """Ladder plus the box half-width, deduplicated, ascending."""
        vals = sorted(set(self.ladder) | {float(self.box)})
        return tuple(vals)


@dataclass(frozen=True)
class Tolerances:
    """Numeric slack knobs.

    ``eps_check``: inequality slack for analytic checks (None resolves to
    1e-9 for affine-exact comparisons, 1e-6 for black-box sampling).
    ``eps_path``: pathwise violation threshold (None resolves to the
    step-dependent default 5*sqrt(h)*(1+|x1|+|x2|)).
    """

    eps_check: Optional[float] = None
    eps_path: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("eps_check", "eps_path"):
            v = getattr(self, name)
            if v is not None and not (float(v) > 0.0):
                raise ModelError(f"{name} must be strictly positive when given")

    def resolved_eps_check(self, affine: bool) -> float:
        if self.eps_check is not None:
            return float(self.eps_check)
        return 1e-9 if affine else 1e-6


@dataclass(frozen=True)
class ComparisonProblem:
    """Two models driven by shared noise, with ordered initial states.

    ``ordering="componentwise"`` enforces x1 >= x2 coordinatewise (the vector
    problem).  ``ordering="none"`` skips the check; used internally when a
    matrix problem is embedded on symmetric-matrix coordinates, where order
    means the PSD cone and is validated upstream.
    """

    model1: SdeModel
    model2: SdeModel
    t0: float
    T: float
    x1: np.ndarray
    x2: np.ndarray
    sampling: SampleDomain = field(default_factory=SampleDomain)
    tolerances: Tolerances = field(default_factory=Tolerances)
    ordering: str = "componentwise"

    def __post_init__(self) -> None:
        validate_model(self.model1)
        validate_model(self.model2)
        if self.model1.m != self.model2.m or self.model1.d != self.model2.d:
            raise DimensionMismatch("the two models must share state and noise dimensions")
        if not self.model1.marks.same_atoms(self.model2.marks):
            raise DimensionMismatch(
                "the two models must share the same mark atoms and weights (shared driver)"
            )
        if not (0.0 <= self.t0 < self.T):
            raise ModelError("horizon must satisfy 0 <= t0 < T")
        x1 = np.atleast_1d(np.asarray(self.x1, dtype=float))
        x2 = np.atleast_1d(np.asarray(self.x2, dtype=float))
        if x1.shape != (self.model1.m,) or x2.shape != (self.model1.m,):
            raise DimensionMismatch("initial states must be vectors of length m")
        if self.ordering not in ("componentwise", "none"):
            raise ModelError("ordering must be 'componentwise' or 'none'")
        if self.ordering == "componentwise" and np.any(x1 < x2):
            raise OrderError("initial states must satisfy x1 >= x2 componentwise")
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "x1", _frozen(x1))
        object.__setattr__(self, "x2", _frozen(x2))

    @property
    def m(self) -> int:
        return self.model1.m

    @property
    def d(self) -> int:
        return self.model1.d

    @property
    def marks(self) -> MarkMeasure:
        return self.model1.marks

    @property
    def horizon(self) -> Tuple[float, float]:
        return (self.t0, self.T)

    @property
    def is_affine(self) -> bool:
        return self.model1.is_affine and self.model2.is_affine

    def shared_budget(self) -> RegularityBudget:
        """One (mu, rho) covering both models."""
        return self.model1.budget.join(self.model2.budget)

    @functools.cached_property
    def cstar(self) -> float:
        """C* of the shared budget, computed once per problem."""
        return constant_Cstar(self.shared_budget(), self.marks)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def validate_model(model: SdeModel) -> None:
    """Check dimension consistency and the finite-budget invariants.

    Raises DimensionMismatch / NegativeWeight / ZeroMark.  Idempotent and
    side-effect free; mark-measure internal invariants were already enforced
    at construction and are re-checked here for callers that bypass it.
    """
    coeffs = model.coefficients
    marks = model.marks
    if marks.n_atoms and np.any(marks.weights < 0.0):
        raise NegativeWeight("mark weights must be nonnegative")
    for row in marks.marks:
        if np.all(row == 0.0):
            raise ZeroMark("mark atoms must be nonzero vectors")
    if model.budget.rho.shape[0] != marks.n_atoms:
        raise DimensionMismatch(
            f"budget carries {model.budget.rho.shape[0]} rho entries "
            f"for {marks.n_atoms} mark atoms"
        )
    if not math.isfinite(model.budget.jump_second_moment(marks)):
        raise ModelError("sum of w*rho^2 over atoms must be finite")
    if coeffs.affine is not None:
        aff = coeffs.affine
        if aff.m != coeffs.m or aff.d != coeffs.d:
            raise DimensionMismatch("affine block dimensions disagree with the triple")
        if aff.n_atoms != marks.n_atoms:
            raise DimensionMismatch(
                f"affine jump blocks cover {aff.n_atoms} atoms, marks have {marks.n_atoms}"
            )
    # probe evaluation at a fixed point pins down output shapes
    x0 = np.zeros(coeffs.m)
    b0 = np.asarray(coeffs.drift(0.0, x0), dtype=float)
    if b0.reshape(-1).shape != (coeffs.m,):
        raise DimensionMismatch(f"drift output shape {b0.shape} != ({coeffs.m},)")
    s0 = np.asarray(coeffs.diffusion(0.0, x0), dtype=float)
    if s0.reshape(-1).shape != (coeffs.m * coeffs.d,):
        raise DimensionMismatch(
            f"diffusion output shape {s0.shape} incompatible with ({coeffs.m}, {coeffs.d})"
        )
    for j in range(marks.n_atoms):
        g0 = np.asarray(coeffs.jump(0.0, x0, j), dtype=float)
        if g0.reshape(-1).shape != (coeffs.m,):
            raise DimensionMismatch(f"jump output shape {g0.shape} != ({coeffs.m},) at atom {j}")


def operator_norm(mat) -> float:
    """Largest singular value by LAPACK SVD; exact 0 for an empty matrix."""
    a = np.atleast_2d(np.asarray(mat, dtype=float))
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def lipschitz_certificate(affine: AffineCoefficients, marks: MarkMeasure) -> RegularityBudget:
    """Certified regularity budget for an affine family.

    mu = max( opnorm(B) + opnorm(stacked V),  |c| + fro(U) ): the first arm
    bounds the Lipschitz constant of x -> (b, sigma) jointly, the second the
    constant part of the growth bound.  rho_j = opnorm(G_j).
    """
    if affine.n_atoms != marks.n_atoms:
        raise DimensionMismatch(
            f"affine jump blocks cover {affine.n_atoms} atoms, marks have {marks.n_atoms}"
        )
    lin = operator_norm(affine.B) + operator_norm(
        affine.V.reshape(affine.m * affine.d, affine.m)
    )
    const = float(np.linalg.norm(affine.c)) + float(np.linalg.norm(affine.U))
    rho = np.array([operator_norm(affine.G[j]) for j in range(affine.n_atoms)])
    return RegularityBudget(mu=max(lin, const), rho=rho)


def constant_C(budget: RegularityBudget, marks: MarkMeasure) -> float:
    """1 + 2*mu + mu^2 + sum_j w_j rho_j^2, evaluated exactly over the atoms."""
    mu = budget.mu
    return 1.0 + 2.0 * mu + mu * mu + budget.jump_second_moment(marks)


def constant_Cstar(budget: RegularityBudget, marks: MarkMeasure) -> float:
    """4*mu + mu^2 + sum_j w_j rho_j^2, evaluated exactly over the atoms."""
    mu = budget.mu
    return 4.0 * mu + mu * mu + budget.jump_second_moment(marks)
