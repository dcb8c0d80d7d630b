"""The PSD cone and the matrix-valued comparison condition.

Spectral machinery on one matrix or a stack of them (the LAPACK symmetric
eigensolver; at a point, its positive/negative spectral split, squared
distance to the PSD cone and the divided-difference Hessian quadratic form
of that distance), the cone ``PsdCone`` that ``geometry.generator``
evaluates the pointwise inequality over (Theorem 3.7), the scalar-linear
matrix models, the matrix probe generator judged by
``conditions.judge_probes``, and the svec-embedded Monte Carlo runner.

The Monte Carlo measures a violation as the largest eigenvalue of the
coupled difference at every grid step.  For m = 2 that statistic is the
closed-form arithmetic reference LAPACK applies to a 2 x 2 matrix
(``dsyevd`` runs ``dsterf``'s split test and ``dlae2``), evaluated on whole
arrays of rows, without one LAPACK call per row, in buffers the statistic
keeps from block to block (one statistic per run).  Its bits are those of
``numpy.linalg.eigvalsh`` where numpy links reference LAPACK's ``dsterf``
and ``dlae2`` as compiled in the OpenBLAS 0.3.31 that numpy 2.4's wheels
bundle.  Another LAPACK (MKL, Accelerate, or one compiled with FMA
contraction) may round the last bit differently.  Rows whose largest entry
is below 2^-405 or above 2^485 in size, which LAPACK rescales first, and
zero rows still go through ``eigvalsh``; so does every row for m != 2.

The Hessian quadratic form uses the spectral divided-difference formula for
the separable spectral function lambda -> (negative part)^2 (Lewis,
"Derivatives of spectral functions", 1996).  Near zero eigenvalues, where
the squared distance stops being twice differentiable, the point is flagged
degenerate and the form is NaN; the checker judges no such probe.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Tuple

import numpy as np

from . import engine
from .conditions import Verdict, _rng_for, judge_probes
from .geometry import GeneratorValue, _dot, generator
from .model import (
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    DimensionMismatch,
    MarkMeasure,
    ModelError,
    OrderError,
    RegularityBudget,
    SampleDomain,
    SdeModel,
    Tolerances,
    constant_Cstar,
)

__all__ = [
    "EigDecomp",
    "PsdCone",
    "MatrixLinearMap",
    "MatrixCoefficients",
    "MatrixModel",
    "MatrixComparisonProblem",
    "svec",
    "unsvec",
    "eig_sym",
    "eval_theorem37",
    "check_theorem37",
    "mc_matrix_comparison",
    "matrix_certificate",
    "spectral_violation_stat",
]


# ---------------------------------------------------------------------------
# embeddings
# ---------------------------------------------------------------------------


_SYM_RTOL = 1e-8  # relative asymmetry a matrix input may carry
_ETA_SEP = 1e-8  # an eigenvalue this close to zero makes a PSD point degenerate
_T = functools.partial(np.swapaxes, axis1=-1, axis2=-2)  # each matrix transposed


def _symmetrized(arr) -> np.ndarray:
    """0.5 * (a + a.T) of one square matrix a, or of each matrix of a stack
    on the leading axes; each must be finite and symmetric to _SYM_RTOL of
    its own largest entry."""
    a = np.atleast_2d(np.asarray(arr, dtype=float))
    if a.shape[-1] != a.shape[-2]:
        raise DimensionMismatch("matrix must be square")
    if a.shape[-1] == 0:
        raise DimensionMismatch("matrix must have at least one row")
    scale = np.abs(a).max(axis=(-2, -1), keepdims=True)
    if (np.abs(a - _T(a)) > _SYM_RTOL * (1.0 + scale)).any():
        raise ModelError("matrix is not symmetric")
    sym = 0.5 * (a + _T(a))
    if not np.isfinite(sym).all():
        raise ModelError("symmetric matrix entries must be finite")
    return sym


def _matrix(arr) -> np.ndarray:
    """``_symmetrized`` of an input that must be one matrix (a stack is not
    square), read-only."""
    a = np.asarray(arr, dtype=float)
    if a.ndim > 2:
        raise DimensionMismatch("matrix must be square")
    sym = _symmetrized(a)
    sym.setflags(write=False)
    return sym


def svec(Y) -> np.ndarray:
    """Isometric embedding of a symmetric matrix onto the orthonormal basis
    of diagonal units and scaled off-diagonal pairs (off-diagonals x sqrt2)."""
    Yf = _matrix(Y)
    n = Yf.shape[0]
    iu = np.triu_indices(n, k=1)
    return np.concatenate([np.diag(Yf), math.sqrt(2.0) * Yf[iu]])


def unsvec(v, m: int) -> np.ndarray:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if v.shape != (m * (m + 1) // 2,):
        raise DimensionMismatch(f"svec vector must have length {m * (m + 1) // 2}")
    return _unsvec_rows(v[None], m)[0]


def _unsvec_rows(rows: np.ndarray, m: int) -> np.ndarray:
    """``unsvec`` of every row, filled one entry column at a time (cheaper
    than fancy-index scatters for the short rows of small m)."""
    out = np.empty((rows.shape[0], m, m))
    for i in range(m):
        out[:, i, i] = rows[:, i]
    off = rows[:, m:] / math.sqrt(2.0)
    for k, (i, j) in enumerate(zip(*np.triu_indices(m, k=1))):
        out[:, i, j] = out[:, j, i] = off[:, k]
    return out


# ---------------------------------------------------------------------------
# spectral kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EigDecomp:
    """Orthogonal eigenbasis with ascending eigenvalues of the validated
    symmetric matrix ``y``, or of each matrix of a stack ``y``."""

    Q: np.ndarray
    lam: np.ndarray
    y: np.ndarray


def eig_sym(y) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix, or of each matrix of a stack
    on the leading axes, by LAPACK (one ``numpy.linalg.eigh`` call).

    The input is validated (square, symmetric, finite) and symmetrized once,
    here.  Eigenvalues come back ascending.  numpy solves each matrix of a
    stack by its own LAPACK call, so each gets the bits it gets alone.
    Inside a repeated eigenspace the basis is whatever LAPACK picks; every
    spectral function built on it here is invariant to that choice.
    """
    sym = _symmetrized(y)
    lam, Q = np.linalg.eigh(sym)
    return EigDecomp(Q=Q, lam=lam, y=sym)


def _dist2(lam: np.ndarray) -> np.ndarray:
    """Sum of the squared negative parts of each eigenvalue vector."""
    neg = np.minimum(lam, 0.0)
    return _dot(neg, neg)


class _PsdPoint:
    """The squared distance to the PSD cone at a symmetric x of shape
    (..., m, m): one matrix, or a stack of them.

    One eigendecomposition, which also validates x, gives the negative
    spectral part x^-, the projection x^+ = x + x^-, dist^2 and the Hessian
    quadratic form.  ``degenerate`` flags an x with an eigenvalue within
    _ETA_SEP of zero, where dist^2 stops being twice differentiable; the
    form is NaN there."""

    def __init__(self, x):
        dec = eig_sym(x)
        self.x, self.lam, self.Q = dec.y, dec.lam, dec.Q
        minus = (dec.Q * np.maximum(-dec.lam, 0.0)[..., None, :]) @ _T(dec.Q)
        self.minus = 0.5 * (minus + _T(minus))
        self.plus = self.x + self.minus
        self.dist2 = _dist2(dec.lam)
        self.degenerate = np.min(np.abs(dec.lam), axis=-1) <= _ETA_SEP

    def hess(self, H: np.ndarray) -> np.ndarray:
        """Second-derivative quadratic form of dist^2 at each x applied to
        (H, H), NaN where x is degenerate.

        In the eigenbasis: sum_i phi''(lam_i) Ht_ii^2 plus the off-diagonal
        divided differences of phi'(lam) = -2 lam^-, with phi''(lam_i) used
        for coincident eigenvalues.
        """
        lam = self.lam
        Ht = _T(self.Q) @ H @ self.Q
        phi1 = 2.0 * np.minimum(lam, 0.0)  # derivative of (negative part)^2
        phi2 = np.where(lam < 0.0, 2.0, 0.0)
        den = lam[..., :, None] - lam[..., None, :]
        num = phi1[..., :, None] - phi1[..., None, :]
        scale = 1e-12 * (1.0 + np.max(np.abs(lam), axis=-1))
        with np.errstate(divide="ignore", invalid="ignore"):
            D = np.where(np.abs(den) > scale[..., None, None], num / den, phi2[..., :, None])
        off = ~np.eye(lam.shape[-1], dtype=bool)
        val = (np.sum(phi2 * np.diagonal(Ht, axis1=-2, axis2=-1) ** 2, axis=-1)
               + np.sum((D * Ht**2)[..., off], axis=-1))
        return np.where(self.degenerate, np.nan, val)[()]

    def half_hess(self, H: np.ndarray) -> np.ndarray:
        return 0.5 * self.hess(H)


class PsdCone:
    """The cone of PSD matrices among symmetric matrices, trace inner
    product; matrices on the last two axes, one or a stack."""

    point = _PsdPoint
    asarray = staticmethod(_symmetrized)

    @staticmethod
    def dist2(y: np.ndarray) -> np.ndarray:
        return _dist2(eig_sym(y).lam)

    @staticmethod
    def inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.trace(a @ b, axis1=-2, axis2=-1)

    @staticmethod
    def sym(g: np.ndarray) -> np.ndarray:
        return 0.5 * (g + _T(g))


# ---------------------------------------------------------------------------
# matrix models
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MatrixLinearMap:
    """Scalar-linear symmetric map y -> scale*y + offset."""

    scale: float
    offset: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "offset", _matrix(self.offset))

    def apply(self, y: np.ndarray) -> np.ndarray:
        return self.scale * y + self.offset


@dataclass(frozen=True)
class MatrixCoefficients:
    """Scalar-linear coefficients on symmetric m x m matrices (d = 1): the
    drift, diffusion and per-atom jump maps, evaluated as ``b(t, y)``,
    ``sigma(t, y)`` and ``gamma(t, y, j)``.  Every offset is m x m, for the
    one m the maps share."""

    drift: MatrixLinearMap
    diffusion: MatrixLinearMap
    jumps: Tuple[MatrixLinearMap, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "jumps", tuple(self.jumps))
        shapes = {lm.offset.shape for lm in (self.drift, self.diffusion, *self.jumps)}
        if len(shapes) > 1:
            raise DimensionMismatch(f"offsets of one model differ in shape: {sorted(shapes)}")

    @property
    def m(self) -> int:
        return self.drift.offset.shape[0]

    def b(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.drift.apply(y)

    def sigma(self, t: float, y: np.ndarray) -> np.ndarray:
        return self.diffusion.apply(y)

    def gamma(self, t: float, y: np.ndarray, j: int) -> np.ndarray:
        return self.jumps[j].apply(y)

    # the maps act entrywise, so a block of matrices is evaluated by the
    # same calls
    b_rows = b
    sigma_rows = sigma
    gamma_rows = gamma


@dataclass(frozen=True)
class MatrixModel:
    coefficients: MatrixCoefficients
    marks: MarkMeasure
    budget: RegularityBudget

    @property
    def m(self) -> int:
        return self.coefficients.m


def matrix_certificate(coeffs: MatrixCoefficients, marks: MarkMeasure) -> RegularityBudget:
    """Certified budget for the scalar-linear matrix family (Frobenius norms
    on symmetric matrices match Euclidean norms on svec coordinates)."""
    b, s = coeffs.drift, coeffs.diffusion
    lin = abs(b.scale) + abs(s.scale)
    const = float(np.linalg.norm(b.offset)) + float(np.linalg.norm(s.offset))
    rho = np.array([abs(j.scale) for j in coeffs.jumps])
    if rho.shape[0] != marks.n_atoms:
        raise DimensionMismatch(
            f"{rho.shape[0]} jump blocks for {marks.n_atoms} mark atoms"
        )
    return RegularityBudget(mu=max(lin, const), rho=rho)


@dataclass(frozen=True)
class MatrixComparisonProblem:
    """Two matrix models with PSD-ordered initial states."""

    model1: MatrixModel
    model2: MatrixModel
    t0: float
    T: float
    x1: np.ndarray
    x2: np.ndarray
    sampling: SampleDomain = field(default_factory=SampleDomain)
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __post_init__(self) -> None:
        if self.model1.m != self.model2.m:
            raise DimensionMismatch("matrix models must share the order m")
        if not self.model1.marks.same_atoms(self.model2.marks):
            raise DimensionMismatch("matrix models must share the mark measure")
        if not (0.0 <= self.t0 < self.T):
            raise ModelError("horizon must satisfy 0 <= t0 < T")
        x1 = _matrix(self.x1)
        x2 = _matrix(self.x2)
        if x1.shape != (self.model1.m,) * 2 or x2.shape != (self.model1.m,) * 2:
            raise DimensionMismatch("initial states must be symmetric m x m matrices")
        diff = x1 - x2
        lam_min = float(eig_sym(diff).lam[0])
        if lam_min < -1e-10 * (1.0 + float(np.linalg.norm(diff))):
            raise OrderError("initial states must satisfy x1 >= x2 in the PSD order")
        object.__setattr__(self, "t0", float(self.t0))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)

    @property
    def m(self) -> int:
        return self.model1.m

    @property
    def marks(self) -> MarkMeasure:
        return self.model1.marks

    def shared_budget(self) -> RegularityBudget:
        """One (mu, rho) covering both models."""
        return self.model1.budget.join(self.model2.budget)

    @functools.cached_property
    def cstar(self) -> float:
        """C* of the shared budget, computed once per problem."""
        return constant_Cstar(self.shared_budget(), self.marks)


# ---------------------------------------------------------------------------
# the matrix inequality
# ---------------------------------------------------------------------------


def eval_theorem37(
    problem: MatrixComparisonProblem, t: float, x, x_prime
) -> GeneratorValue:
    """Pointwise matrix inequality at one probe (t, x, x'): the PSD cone's
    generator on a block of one.

    Under the trace inner product it has the convention of the vector
    inequality (``generator`` over the orthant), which it equals at m = 1.
    """
    return generator(PsdCone, problem, [t], [np.atleast_2d(x)],
                     [np.atleast_2d(x_prime)]).probe(0)


def _random_orthogonal(rng: np.random.Generator, m: int) -> np.ndarray:
    A = rng.standard_normal((m, m))
    Q, R = np.linalg.qr(A)
    return Q * np.sign(np.diag(R))


def _theorem37_probes(problem: MatrixComparisonProblem, rng: np.random.Generator):
    """Probe generator over eigenvalue ladders: all sign patterns, plus one
    small negative eigenvalue against an O(1) positive rest, in the standard
    and in random orthogonal bases."""
    m = problem.m
    box = problem.sampling.box
    scales = problem.sampling.scales()
    patterns = [np.array(p, dtype=float) for p in itertools.product((-1.0, 1.0), repeat=m)]
    reps = max(2, problem.sampling.count // max(1, len(patterns) * len(scales) * 2))

    def sym_uniform():
        A = rng.uniform(-box, box, (m, m))
        return 0.5 * (A + A.T)

    def probe(lam, basis_random: bool, xp):
        t = float(rng.uniform(problem.t0, problem.T))
        Q = _random_orthogonal(rng, m) if basis_random else np.eye(m)
        xmat = (Q * lam) @ Q.T
        return t, 0.5 * (xmat + xmat.T), xp

    for pattern in patterns:
        for scale in scales:
            for r in range(reps):
                lam = scale * pattern * rng.uniform(0.5, 1.0, m)
                xp = np.zeros((m, m)) if r == 0 else sym_uniform()
                yield probe(lam, r % 2 == 1, xp)
    for k in range(m):
        for scale in scales:
            for mag in (1.0, box):
                lam = mag * rng.uniform(0.5, 1.0, m)
                lam[k] = -scale
                for use_zero_xp in (True, False):
                    xp = np.zeros((m, m)) if use_zero_xp else sym_uniform()
                    yield probe(lam, use_zero_xp, xp)


def check_theorem37(problem: MatrixComparisonProblem) -> Verdict:
    """Sampled check of the matrix inequality over eigenvalue ladders.
    Near-degenerate samples are excluded from the decision and from
    ``samples_used``, and counted in ``degenerate_skipped``."""
    eps = problem.tolerances.resolved_eps_check(False)
    rng = _rng_for(problem, 0x37)
    t, x, xp = zip(*_theorem37_probes(problem, rng))
    # one eval_theorem37 call per probe, judged as one block
    value = GeneratorValue.stack([eval_theorem37(problem, *probe) for probe in zip(t, x, xp)])
    return judge_probes([(t, x, xp, value)], eps, lambda y: tuple(svec(y)), "theorem37")


# ---------------------------------------------------------------------------
# Monte Carlo on svec coordinates
# ---------------------------------------------------------------------------


def _eigvalsh_max(rows: np.ndarray, m: int) -> np.ndarray:
    """Largest eigenvalue of each un-svec'd row by LAPACK; NaN for a
    non-finite row."""
    fin = engine._finite_rows(rows)
    safe = np.where(fin[:, None], rows, 0.0)
    out = np.linalg.eigvalsh(_unsvec_rows(safe, m))[:, -1].copy()
    out[~fin] = np.nan
    return out


# dsterf rescales a tridiagonal whose largest |entry| is below 2^-405
# (sqrt(safe minimum) / eps^2) and dsyevd a matrix whose largest |entry| is
# above 2^485 (sqrt(eps / safe minimum), eps = 2^-52 there); in between
# neither rescales, and the 2 x 2 eigenvalues are the unscaled arithmetic below
_NO_SCALE_MIN = 2.0**-405
_NO_SCALE_MAX = 2.0**485
_EPS = 2.0**-53  # dsterf's eps (relative machine precision)


class _LambdaMax2x2:
    """Largest eigenvalue of each 2 x 2 un-svec'd row, with the bits of
    ``eigvalsh`` on a reference LAPACK (see the module docstring); NaN for a
    non-finite row.

    ``eigvalsh`` runs LAPACK ``dsyevd``: for n = 2 its tridiagonal reduction
    keeps d = (a, c) and e = b, and ``dsterf`` either splits the matrix
    (|e| <= sqrt|a| sqrt|c| eps, or e^2 <= eps^2 |a c| once e is squared),
    leaving the diagonal, or hands (a, sqrt(e^2), c) to ``dlae2``; the pair
    is then sorted ascending.  Rows with their largest |entry| outside the
    range where neither routine rescales, zero rows included, go through
    ``eigvalsh`` itself.

    The kernel calls this on blocks of thousands of rows, so every
    intermediate array lives in buffers the object keeps, grown to the
    largest block it has seen: a call allocates its result, which the caller
    may keep, and nothing else of the block's size.  One object per run; do
    not share it between threads.
    """

    def __init__(self) -> None:
        self._floats = np.empty((4, 0))
        self._bools = np.empty((4, 0), dtype=bool)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        n = rows.shape[0]
        if self._floats.shape[1] < n:
            self._floats = np.empty((4, n))
            self._bools = np.empty((4, n), dtype=bool)
        t1, t2, t3, e2 = self._floats[:, :n]
        rescaled, split, a_big, mask = self._bools[:, :n]
        a, c = rows[:, 0], rows[:, 1]
        b = np.divide(rows[:, 2], math.sqrt(2.0), out=t3)  # the division _unsvec_rows makes
        abs_a, abs_c = np.abs(a, out=t1), np.abs(c, out=t2)
        anrm = np.abs(b, out=e2)
        np.maximum(abs_a, anrm, out=anrm)
        np.maximum(anrm, abs_c, out=anrm)  # NaN stays NaN
        np.greater_equal(anrm, _NO_SCALE_MIN, out=rescaled)
        np.less_equal(anrm, _NO_SCALE_MAX, out=mask)
        np.bitwise_and(rescaled, mask, out=rescaled)
        np.invert(rescaled, out=rescaled)
        np.greater(abs_a, abs_c, out=a_big)
        with np.errstate(all="ignore"):  # split, zero or non-finite rows are replaced below
            np.multiply(b, b, out=e2)
            # dsterf's split test, which spends b, abs_a and abs_c
            abs_b = np.abs(b, out=t3)
            bound = np.multiply(np.sqrt(abs_a, out=t1), np.sqrt(abs_c, out=t2), out=t1)
            np.less_equal(abs_b, np.multiply(bound, _EPS, out=t1), out=split)
            abs_ac = np.abs(np.multiply(a, c, out=t1), out=t1)
            np.less_equal(e2, np.multiply(_EPS * _EPS, abs_ac, out=t1), out=mask)
            np.bitwise_or(split, mask, out=split)
            if split.all():  # every row keeps its diagonal: no root is read
                out = np.maximum(a, c)
            else:
                # dlae2(a, rte, c): dsterf passes a and c in either order, and the
                # arithmetic is symmetric in them; rt1 is the root of larger
                # magnitude and rt2 the other
                rte = np.sqrt(e2, out=e2)
                adf = np.abs(np.subtract(a, c, out=t1), out=t1)
                ab = np.add(rte, rte, out=t2)
                big = np.maximum(adf, ab, out=t3)
                q = np.minimum(adf, ab, out=t1)
                np.divide(q, big, out=q)
                np.square(q, out=q)  # what ``q ** 2`` runs
                np.add(1.0, q, out=q)
                np.sqrt(q, out=q)
                rt = np.multiply(big, q, out=t3)
                sm = np.add(a, c, out=t1)
                # the selects below are bit masks on uint64 views, which keep
                # every bit, NaN included, and take no branch per row (a masked
                # copy or negate costs two to three times np.where on mixed masks)
                u1, u2, u3 = (t.view(np.uint64) for t in (t1, t2, t3))
                # where(sm < 0, -rt, rt): rt with its sign bit flipped where sm < 0
                np.copyto(u2, np.less(sm, 0.0, out=mask))
                np.left_shift(u2, 63, out=u2)
                np.bitwise_xor(rt.view(np.uint64), u2, out=u2)
                np.add(sm, t2, out=t2)
                rt1 = np.multiply(0.5, t2, out=t2)  # 0.5 * rt when sm = 0
                # rt2 = (where(a_big, a, c) / rt1) * where(a_big, c, a) - (rte / rt1) * rte,
                # with where(a_big, a, c) = c ^ ((a ^ c) & m) for m all ones where a_big
                a_u, c_u = a.view(np.uint64), c.view(np.uint64)
                np.copyto(u3, a_big)
                np.negative(u3, out=u3)  # 1 -> all ones
                np.bitwise_and(np.bitwise_xor(a_u, c_u, out=u1), u3, out=u3)
                np.bitwise_xor(c_u, u3, out=u1)
                np.divide(t1, rt1, out=t1)
                np.bitwise_xor(a_u, u3, out=u3)
                np.multiply(t1, t3, out=t1)
                np.divide(rte, rt1, out=t3)
                np.multiply(t3, rte, out=t3)
                rt2 = np.subtract(t1, t3, out=t1)
                # dlasrt then sorts the pair; two equal values here have equal bits
                # (a zero matrix is among the rescaled rows)
                out = np.maximum(rt1, rt2)
                np.copyto(out, np.maximum(a, c, out=t3), where=split)
        if rescaled.any():
            out[rescaled] = _eigvalsh_max(rows[rescaled], 2)
        return out


def spectral_violation_stat(m: int) -> Callable[[np.ndarray], np.ndarray]:
    """Per-path signed violation measure on svec rows of X2 - X1: the largest
    eigenvalue of the un-embedded difference (equals -lambda_min(X1 - X2)).

    For m = 2 it is computed in closed form with the arithmetic reference
    LAPACK's ``dsyevd`` applies to a 2 x 2 matrix, so on such a LAPACK its
    bits are those of ``numpy.linalg.eigvalsh`` without a LAPACK call per
    row (see ``_LambdaMax2x2``); for any other m it is ``eigvalsh``.  A
    non-finite row gives NaN.

    Each call makes a new statistic.  The m = 2 one keeps its intermediate
    arrays in buffers of its own, reused from call to call, so make one per
    run (as ``mc_matrix_comparison`` does) and do not share it between
    threads; each of its calls returns a new array.
    """
    if m == 2:
        return _LambdaMax2x2()
    return functools.partial(_eigvalsh_max, m=m)


def _svec_affine(coeffs: MatrixCoefficients) -> AffineCoefficients:
    M = coeffs.m * (coeffs.m + 1) // 2
    idx = np.arange(M)
    B = coeffs.drift.scale * np.eye(M)
    c = svec(coeffs.drift.offset)
    V = np.zeros((M, 1, M))
    V[idx, 0, idx] = coeffs.diffusion.scale
    U = svec(coeffs.diffusion.offset).reshape(M, 1)
    if coeffs.jumps:
        G = np.stack([jm.scale * np.eye(M) for jm in coeffs.jumps])
        g = np.stack([svec(jm.offset) for jm in coeffs.jumps])
    else:
        G = np.zeros((0, M, M))
        g = np.zeros((0, M))
    return AffineCoefficients(B=B, c=c, V=V, U=U, G=G, g=g)


def _vector_model(model: MatrixModel) -> SdeModel:
    triple = CoefficientTriple.from_affine(_svec_affine(model.coefficients))
    return SdeModel(coefficients=triple, marks=model.marks, budget=model.budget)


def mc_matrix_comparison(
    problem: MatrixComparisonProblem, paths: int, h: float, seed: int, *,
    keep_paths: bool = False,
) -> engine.McReport:
    """Coupled matrix Monte Carlo: embed on svec coordinates (d = 1), reuse
    the vector engine, and measure violations through the smallest eigenvalue
    of the difference.  Thresholds follow the vector defaults (the svec
    embedding is an isometry, so |x| means the Frobenius norm)."""
    vec_problem = ComparisonProblem(
        model1=_vector_model(problem.model1),
        model2=_vector_model(problem.model2),
        t0=problem.t0,
        T=problem.T,
        x1=svec(problem.x1),
        x2=svec(problem.x2),
        sampling=problem.sampling,
        tolerances=problem.tolerances,
        ordering="none",
    )
    return engine.mc_comparison(
        vec_problem, paths, h, seed,
        stat_fn=spectral_violation_stat(problem.m),
        keep_paths=keep_paths,
    )
