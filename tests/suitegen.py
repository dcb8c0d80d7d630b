"""Seeded factories for random affine model pairs, passing or failing.

A passing pair is built from ingredients that satisfy the full condition
battery by construction: shared diagonal-coupled diffusion, shared jump
linear parts with nonnegative cross entries and own entries >= -1, ordered
jump constants, a shared quasimonotone net drift matrix, and ordered net
drift constants.  Failing pairs mutate exactly one ingredient with a margin
of at least ~0.5 so that both the exact oracle and the sampled checkers have
something decisive to find.
"""

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from jumpcompare.model import (
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    MarkMeasure,
    SampleDomain,
    SdeModel,
    Tolerances,
    lipschitz_certificate,
)

FAIL_KINDS = (
    "sigma-gap",
    "sigma-coupling",   # needs m >= 2
    "jump-row-gap",     # needs an atom
    "jump-own-coef",    # needs an atom
    "jump-cross-coef",  # needs an atom and m >= 2
    "jump-const-gap",   # needs an atom
    "drift-offdiag",    # needs m >= 2
    "drift-row-gap",
    "drift-const-gap",
)


@dataclass
class PairSpec:
    m: int
    d: int
    marks: MarkMeasure
    V: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    G1: np.ndarray
    G2: np.ndarray
    g1: np.ndarray
    g2: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


def random_marks(rng: np.random.Generator, dim: int = 1, max_atoms: int = 3,
                 min_atoms: int = 0) -> MarkMeasure:
    n = int(rng.integers(min_atoms, max_atoms + 1))
    atoms = []
    for _ in range(n):
        e = rng.uniform(-1.0, 1.0, dim)
        while np.all(e == 0.0):
            e = rng.uniform(-1.0, 1.0, dim)
        atoms.append((e, float(rng.uniform(0.1, 1.5))))
    return MarkMeasure.from_atoms(atoms, dimension=dim)


def _passing_ingredients(rng: np.random.Generator, m: int, d: int,
                         marks: MarkMeasure, shared_gamma: bool = False,
                         zero_gamma: bool = False) -> PairSpec:
    n = marks.n_atoms
    V = np.zeros((m, d, m))
    for k in range(m):
        V[k, :, k] = rng.uniform(-0.6, 0.6, d)
    U = rng.uniform(-0.5, 0.5, (m, d))
    if zero_gamma:
        G = np.zeros((n, m, m))
        g1 = np.zeros((n, m))
        g2 = np.zeros((n, m))
    else:
        G = rng.uniform(0.0, 0.5, (n, m, m))
        for j in range(n):
            G[j][np.arange(m), np.arange(m)] = rng.uniform(-0.9, 0.5, m)
        g2 = rng.uniform(-0.5, 0.5, (n, m))
        g1 = g2 if shared_gamma else g2 + rng.uniform(0.0, 0.8, (n, m))
    M = rng.uniform(0.0, 0.6, (m, m))
    M[np.arange(m), np.arange(m)] = rng.uniform(-0.8, 0.5, m)
    d2v = rng.uniform(-0.5, 0.5, m)
    d1v = d2v + rng.uniform(0.0, 0.8, m)
    return PairSpec(m=m, d=d, marks=marks, V=V, U1=U.copy(), U2=U.copy(),
                    G1=G.copy(), G2=G.copy(), g1=g1, g2=g2,
                    M1=M.copy(), M2=M.copy(), d1=d1v, d2=d2v)


def _apply_failure(spec: PairSpec, rng: np.random.Generator, kind: str) -> None:
    m, n = spec.m, spec.marks.n_atoms
    mag = float(rng.uniform(0.6, 1.5))
    k = int(rng.integers(0, m))
    if kind == "sigma-gap":
        a = int(rng.integers(0, spec.U1.shape[1]))
        spec.U1[k, a] += mag
    elif kind == "sigma-coupling":
        j = int(rng.integers(0, m - 1))
        j = j if j < k else j + 1
        a = int(rng.integers(0, spec.V.shape[1]))
        spec.V[k, a, j] = mag  # shared: sigma stays equal, row k couples to j
    elif kind == "jump-row-gap":
        j = int(rng.integers(0, n))
        i = int(rng.integers(0, m))
        spec.G1[j][k, i] += mag
    elif kind == "jump-own-coef":
        j = int(rng.integers(0, n))
        val = -1.0 - mag  # 1 + G_kk <= -0.6
        spec.G1[j][k, k] = val
        spec.G2[j][k, k] = val
    elif kind == "jump-cross-coef":
        j = int(rng.integers(0, n))
        i = int(rng.integers(0, m - 1))
        i = i if i < k else i + 1
        spec.G1[j][k, i] = -mag
        spec.G2[j][k, i] = -mag
    elif kind == "jump-const-gap":
        j = int(rng.integers(0, n))
        spec.g1[j][k] = spec.g2[j][k] - mag
    elif kind == "drift-offdiag":
        i = int(rng.integers(0, m - 1))
        i = i if i < k else i + 1
        spec.M1[k, i] = -mag
        spec.M2[k, i] = -mag
    elif kind == "drift-row-gap":
        i = int(rng.integers(0, m))
        spec.M1[k, i] += mag
    elif kind == "drift-const-gap":
        spec.d1[k] = spec.d2[k] - mag
    else:
        raise ValueError(f"unknown failure kind {kind!r}")


def _assemble(spec: PairSpec, seed: int, count: int = 384) -> ComparisonProblem:
    w = spec.marks.weights
    comp1 = sum(w[j] * spec.G1[j] for j in range(spec.marks.n_atoms)) if w.size else 0.0
    comp2 = sum(w[j] * spec.G2[j] for j in range(spec.marks.n_atoms)) if w.size else 0.0
    gc1 = sum(w[j] * spec.g1[j] for j in range(spec.marks.n_atoms)) if w.size else 0.0
    gc2 = sum(w[j] * spec.g2[j] for j in range(spec.marks.n_atoms)) if w.size else 0.0
    B1 = spec.M1 + comp1
    B2 = spec.M2 + comp2
    c1 = spec.d1 + gc1
    c2 = spec.d2 + gc2
    a1 = AffineCoefficients(B=B1, c=c1, V=spec.V, U=spec.U1, G=spec.G1, g=spec.g1)
    a2 = AffineCoefficients(B=B2, c=c2, V=spec.V, U=spec.U2, G=spec.G2, g=spec.g2)
    rng = np.random.default_rng(seed ^ 0x0FF5E7)
    x2 = rng.uniform(-1.0, 1.0, spec.m)
    x1 = x2 + rng.uniform(0.0, 1.0, spec.m)
    model1 = SdeModel(CoefficientTriple.from_affine(a1), spec.marks,
                      lipschitz_certificate(a1, spec.marks))
    model2 = SdeModel(CoefficientTriple.from_affine(a2), spec.marks,
                      lipschitz_certificate(a2, spec.marks))
    return ComparisonProblem(
        model1=model1, model2=model2, t0=0.0, T=1.0, x1=x1, x2=x2,
        sampling=SampleDomain(box=8.0, count=count, seed=seed),
        tolerances=Tolerances(),
    )


def feasible_kinds(m: int, n_atoms: int) -> List[str]:
    out = []
    for kind in FAIL_KINDS:
        if kind in ("sigma-coupling", "jump-cross-coef", "drift-offdiag") and m < 2:
            continue
        if kind.startswith("jump") and n_atoms < 1:
            continue
        out.append(kind)
    return out


def random_problem(
    seed: int,
    *,
    failing: bool,
    m: Optional[int] = None,
    shared_gamma: bool = False,
    zero_gamma: bool = False,
    kind: Optional[str] = None,
) -> Tuple[ComparisonProblem, Optional[str]]:
    """One seeded problem; returns (problem, failure kind or None)."""
    rng = np.random.default_rng(seed)
    m = m if m is not None else int(rng.integers(1, 4))
    d = int(rng.integers(1, 3))
    if zero_gamma:
        marks = MarkMeasure.from_atoms([], dimension=1)
    else:
        min_atoms = 1 if (failing and kind is not None and kind.startswith("jump")) else 0
        marks = random_marks(rng, min_atoms=min_atoms)
    spec = _passing_ingredients(rng, m, d, marks, shared_gamma=shared_gamma,
                                zero_gamma=zero_gamma)
    chosen: Optional[str] = None
    if failing:
        options = feasible_kinds(m, marks.n_atoms)
        if shared_gamma:
            options = [o for o in options if o not in ("jump-row-gap", "jump-const-gap")]
        if zero_gamma:
            options = [o for o in options if not o.startswith("jump")]
        if kind is not None:
            if kind not in options:
                raise ValueError(f"kind {kind} infeasible for m={m}, atoms={marks.n_atoms}")
            chosen = kind
        else:
            chosen = str(options[int(rng.integers(0, len(options)))])
        _apply_failure(spec, rng, chosen)
    return _assemble(spec, seed), chosen


def dense_jump_problem(seed: int, *, mass: float = 16.0,
                       kind: Optional[str] = None) -> ComparisonProblem:
    """An m = 3, d = 2 pair whose three atoms carry total mark mass ``mass``.

    The jump linear parts are shrunk by 4 so that so many jumps do not make
    the paths explode; ``kind`` mutates one ingredient as in random_problem.
    """
    rng = np.random.default_rng(seed)
    w = rng.uniform(0.1, 1.5, 3)
    marks = MarkMeasure.from_atoms(
        [([e], float(wj)) for e, wj in zip((0.5, -0.7, 0.2), w * mass / w.sum())])
    spec = _passing_ingredients(rng, 3, 2, marks)
    spec.G1 *= 0.25
    spec.G2 *= 0.25
    if kind is not None:
        _apply_failure(spec, rng, kind)
    return _assemble(spec, seed)


def strip_affine(problem: ComparisonProblem) -> ComparisonProblem:
    """Same problem with the affine blocks hidden (forces the sampled path)."""

    def wrap(model: SdeModel) -> SdeModel:
        aff = model.coefficients.affine
        triple = CoefficientTriple(
            m=model.m, d=model.d,
            drift=aff.drift, diffusion=aff.diffusion, jump=aff.jump, affine=None,
        )
        return SdeModel(coefficients=triple, marks=model.marks, budget=model.budget)

    return ComparisonProblem(
        model1=wrap(problem.model1), model2=wrap(problem.model2),
        t0=problem.t0, T=problem.T, x1=problem.x1, x2=problem.x2,
        sampling=problem.sampling, tolerances=problem.tolerances,
        ordering=problem.ordering,
    )
