"""Independent reference checkers for the tests.

``check_corollary_1d`` decides the paper's one-dimensional Corollaries
3.3-3.5 by their own drift-line rule, so the tests can hold the full
checker (``conditions.check_theorem31``) to it on m = 1 problems.
``ii_prime_terms`` is the pointwise inequality at one probe.  No command
runs these; they reuse the library's probe helpers and condition battery.
"""

from typing import List

import numpy as np

from jumpcompare.conditions import (
    VIOLATED,
    Verdict,
    Witness,
    _norms,
    _records,
    _rng_for,
    _scale_to_expose,
    _witnesses,
    check_condition_b,
    check_sigma_equal,
    combine_statuses,
)
from jumpcompare.geometry import GeneratorValue, Orthant, generator
from jumpcompare.model import ComparisonProblem

_EPS_LIN = 1e-12  # floating-point equality tolerance of the affine preconditions


class DimensionError(ValueError):
    """A one-dimensional checker was applied to a multi-dimensional problem."""


class VariantPreconditionError(ValueError):
    """The jump structure does not match the requested corollary variant."""


def ii_prime_terms(problem: ComparisonProblem, t: float, x, x_prime) -> GeneratorValue:
    """The pointwise inequality at one probe (t, x, x'): the orthant's
    generator on a block of one."""
    return generator(Orthant, problem, [t], Orthant.asarray(x)[None],
                     Orthant.asarray(x_prime)[None]).probe(0)


def _jump_sup(problem: ComparisonProblem, rng: np.random.Generator, size, n: int = 64) -> float:
    """Sampled sup over live atoms and the box of ``size(gamma1, gamma2)``,
    row by row (structure probe); NaN if any size is NaN, so a jump that is
    NaN somewhere fails the precondition it probes."""
    c1, c2 = problem.model1.coefficients, problem.model2.coefficients
    x, t = _records(problem, rng, n)
    sizes = [size(c1.gamma_rows(t, x, j), c2.gamma_rows(t, x, j))
             for j, w in enumerate(problem.marks.weights) if w > 0.0]
    return float(np.max(sizes, initial=0.0))


def _larger_norm(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """``max(norm(g1[i]), norm(g2[i]))`` for each row, NaN if either is."""
    return np.maximum(_norms(g1), _norms(g2))


def check_corollary_1d(problem: ComparisonProblem, variant: str) -> Verdict:
    """One-dimensional specializations ("3.3", "3.4", "3.5").

    "3.3": diffusions equal, compensator-adjusted drifts ordered, and the
    post-jump maps ordered across models for ordered starting points.
    "3.4": shared jump coefficient required; diffusions equal, drifts
    ordered, post-jump map monotone.
    "3.5": no jumps allowed; diffusions equal, drifts ordered.

    The verdict must agree with the full checker's overall status on the same
    problem (specialization consistency).
    """
    if problem.m != 1:
        raise DimensionError(f"one-dimensional checker called with m={problem.m}")
    if variant not in ("3.3", "3.4", "3.5"):
        raise ValueError(f"unknown variant {variant!r}")
    eps = problem.tolerances.resolved_eps_check(problem.is_affine)
    rng = _rng_for(problem, 0x1D)

    # variant preconditions on the jump structure
    if variant == "3.4":
        if problem.is_affine:
            a1 = problem.model1.coefficients.affine
            a2 = problem.model2.coefficients.affine
            same = (
                np.allclose(a1.G, a2.G, rtol=0.0, atol=_EPS_LIN)
                and np.allclose(a1.g, a2.g, rtol=0.0, atol=_EPS_LIN)
            )
            if not same:
                raise VariantPreconditionError("variant 3.4 requires gamma1 == gamma2")
        elif not _jump_sup(problem, rng, lambda g1, g2: _norms(g1 - g2)) <= eps:  # or NaN
            raise VariantPreconditionError("variant 3.4 requires gamma1 == gamma2")
    if variant == "3.5":
        if problem.is_affine:
            a1 = problem.model1.coefficients.affine
            a2 = problem.model2.coefficients.affine
            zero = all(
                float(np.max(np.abs(arr))) <= _EPS_LIN if arr.size else True
                for arr in (a1.G, a1.g, a2.G, a2.g)
            )
            if not zero:
                raise VariantPreconditionError("variant 3.5 requires gamma == 0")
        elif not _jump_sup(problem, rng, _larger_norm) <= eps:  # or NaN
            raise VariantPreconditionError("variant 3.5 requires gamma == 0")

    verdicts: List[Verdict] = [check_sigma_equal(problem)]

    if variant == "3.3":
        verdicts.extend(check_condition_b(problem))  # the ordered post-jump line
        verdicts.extend(_drift_line_1d(problem, compensated=True))
    elif variant == "3.4":
        verdicts.extend(check_condition_b(problem))  # reduces to monotonicity of x+gamma
        verdicts.extend(_drift_line_1d(problem, compensated=False))
    else:  # "3.5"
        verdicts.extend(_drift_line_1d(problem, compensated=False))

    status = combine_statuses([v.status for v in verdicts])
    witnesses: List[Witness] = []
    samples = 0
    for v in verdicts:
        witnesses.extend(v.witnesses)
        samples += v.samples_used
    if status == VIOLATED:
        return Verdict.from_witnesses(witnesses, samples)
    return Verdict(status=status, samples_used=samples)


def _drift_line_1d(problem: ComparisonProblem, compensated: bool) -> List[Verdict]:
    """b1 >= b2 pointwise, optionally after subtracting the mark integral."""
    eps = problem.tolerances.resolved_eps_check(problem.is_affine)
    marks = problem.marks
    if problem.is_affine:
        a1 = problem.model1.coefficients.affine
        a2 = problem.model2.coefficients.affine
        if compensated:
            M1, d1 = a1.net_drift_blocks(marks)
            M2, d2 = a2.net_drift_blocks(marks)
        else:
            M1, d1 = a1.B, a1.c
            M2, d2 = a2.B, a2.c
        witnesses: List[Witness] = []
        slope_gap = float(M1[0, 0] - M2[0, 0])
        const_gap = float(d1[0] - d2[0])
        if abs(slope_gap) > eps:
            s = _scale_to_expose(problem.sampling.box, const_gap, slope_gap)
            xp = np.array([-np.sign(slope_gap) * s])
            val = slope_gap * float(xp[0]) + const_gap
            witnesses.append(Witness(problem.t0, tuple(xp), tuple(xp), None, val,
                                     kind="drift-line slope-gap"))
        if const_gap < -eps:
            witnesses.append(Witness(problem.t0, (0.0,), (0.0,), None, const_gap,
                                     kind="drift-line const"))
        return [Verdict.exact(witnesses)]

    rng = _rng_for(problem, 0xD1)
    box = problem.sampling.box
    c1, c2 = problem.model1.coefficients, problem.model2.coefficients
    x = np.concatenate([np.zeros((1, 1)),
                        rng.uniform(-box, box, (problem.sampling.count // 2, 1))])
    t = rng.uniform(problem.t0, problem.T, len(x))
    gaps = c1.b_rows(t, x)[:, 0] - c2.b_rows(t, x)[:, 0]
    for j, w in enumerate(marks.weights):
        if compensated and w != 0.0:
            gaps = gaps - w * (c1.gamma_rows(t, x, j)[:, 0] - c2.gamma_rows(t, x, j)[:, 0])
    return [Verdict.sampled(_witnesses(t, x, x, gaps, gaps < -eps, "drift-line"), len(x))]
