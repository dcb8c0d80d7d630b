"""Checkers for the necessary-and-sufficient comparison conditions.

Two complementary routes are implemented and cross-checked:

* the structural battery: equality of diffusions, per-coordinate diffusion
  decoupling (a), the jump-monotonicity inequality (b), and the
  compensator-adjusted drift order with quasimonotone coupling (c);
* the single integro-differential inequality ("ii-prime") that the battery is
  equivalent to: ``geometry.generator`` over the orthant, sampled over sign
  patterns and a magnitude ladder biased toward the origin, where violations
  of the necessary conditions concentrate, and evaluated on blocks of
  probes.  ``judge_probes`` is the one judge of probe blocks, shared with
  the matrix check (``psdcone``).

On affine coefficient families the battery is decided exactly (verdict
``holds``), conditions (b) and (c) by one row rule (``_affine_row``);
black-box coefficients are only ever sampled, so the strongest clean
verdict is ``no-violation-found``.  The module holds the battery, the
inequality and the judge; the Corollary 3.3-3.5 reference checker, which no
command runs, is in the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .geometry import Orthant, _dot, generator
from .model import ComparisonProblem

__all__ = [
    "HOLDS",
    "NO_VIOLATION",
    "VIOLATED",
    "Witness",
    "Verdict",
    "Theorem31Report",
    "check_sigma_equal",
    "check_condition_a",
    "check_condition_b",
    "check_condition_c",
    "judge_probes",
    "check_ii_prime",
    "check_theorem31",
    "combine_statuses",
]

HOLDS = "holds"
NO_VIOLATION = "no-violation-found"
VIOLATED = "violated"

_MAX_WITNESSES = 8


@dataclass(frozen=True)
class Witness:
    """A concrete probe where a condition fails (margin < 0)."""

    t: float
    x: Tuple[float, ...]
    x_prime: Tuple[float, ...]
    atom: Optional[int]
    margin: float
    kind: str = ""


@dataclass(frozen=True)
class Verdict:
    """Outcome of one condition check.

    ``holds`` is only ever produced by the affine-exact oracle; sampling can
    at best report ``no-violation-found``.  A ``violated`` verdict carries at
    least one witness with a negative margin.
    """

    status: str
    witnesses: Tuple[Witness, ...] = ()
    samples_used: int = 0

    @property
    def violated(self) -> bool:
        return self.status == VIOLATED

    @property
    def worst_margin(self) -> float:
        if not self.witnesses:
            return float("inf")
        return min(w.margin for w in self.witnesses)

    @classmethod
    def exact(cls, witnesses: Sequence[Witness]) -> "Verdict":
        """An exact reduction's verdict: violated by ``witnesses``, or holds
        when there are none."""
        return cls.from_witnesses(witnesses, 0) if witnesses else cls(status=HOLDS)

    @classmethod
    def clean(cls, samples: int) -> "Verdict":
        return cls(status=NO_VIOLATION, samples_used=samples)

    @classmethod
    def from_witnesses(cls, witnesses: Sequence[Witness], samples: int) -> "Verdict":
        ordered = tuple(sorted(witnesses, key=lambda w: w.margin)[:_MAX_WITNESSES])
        return cls(status=VIOLATED, witnesses=ordered, samples_used=samples)

    @classmethod
    def sampled(cls, witnesses: Sequence[Witness], samples: int) -> "Verdict":
        """Violated with these witnesses, or clean when there are none."""
        return cls.from_witnesses(witnesses, samples) if witnesses else cls.clean(samples)


def combine_statuses(statuses: Sequence[str]) -> str:
    if any(s == VIOLATED for s in statuses):
        return VIOLATED
    if statuses and all(s == HOLDS for s in statuses):
        return HOLDS
    return NO_VIOLATION


# ---------------------------------------------------------------------------
# shared probe machinery
# ---------------------------------------------------------------------------


def _rng_for(problem: ComparisonProblem, salt: int) -> np.random.Generator:
    return np.random.default_rng((int(problem.sampling.seed) << 8) ^ salt)


def _uniforms(rng: np.random.Generator, lo, hi, mask: np.ndarray, cuts) -> List[np.ndarray]:
    """Probe records drawn with one ``rng.uniform`` call, one record a row.

    The True cells of ``mask`` are drawn in C order, cell (i, j) from
    [lo[j], hi[j]); the other cells are 0.  numpy draws each value as
    lo + (hi - lo) * (the next double of the stream), so the values, and the
    generator state after them, are those of one call per cell in that
    order: a sampled branch draws its probe stream as arrays and keeps the
    values of a draw per probe.  The records come back split at the columns
    ``cuts``, each part C-contiguous like a stacked block."""
    out = np.zeros(mask.shape)
    out[mask] = rng.uniform(*(np.broadcast_to(b, mask.shape)[mask] for b in (lo, hi)))
    return [np.ascontiguousarray(part) for part in np.split(out, cuts, axis=1)]


def _records(problem: ComparisonProblem, rng: np.random.Generator, n: int):
    """n records [x | t], x from the box and t from the horizon: (x, t)."""
    m, box = problem.m, problem.sampling.box
    x, t = _uniforms(rng, [-box] * m + [problem.t0], [box] * m + [problem.T],
                     np.ones((n, m + 1), dtype=bool), [m])
    return x, t[:, 0]


def _with_zero_and_drawn_xp(problem: ComparisonProblem, rng: np.random.Generator, x):
    """Each row of ``x`` probed twice, with x' = 0 and then with x' drawn
    from the box, each probe with its own t; a row draws t, x', t."""
    m, box = problem.m, problem.sampling.box
    ta, xp, tb = _uniforms(rng, [problem.t0] + [-box] * m + [problem.t0],
                           [problem.T] + [box] * m + [problem.T],
                           np.ones((len(x), m + 2), dtype=bool), [1, m + 1])
    return (np.hstack([ta, tb]).ravel(), np.repeat(x, 2, axis=0),
            np.stack([np.zeros_like(xp), xp], axis=1).reshape(-1, m))


def _ladder_points(scales: np.ndarray, cols, drawn: np.ndarray) -> np.ndarray:
    """The origin, then per scale s the points s e_i for i in ``cols`` and the
    rows of drawn[s]."""
    units = np.zeros((len(scales), len(cols), drawn.shape[-1]))
    units[:, np.arange(len(cols)), cols] = scales[:, None]
    rest = np.concatenate([units, drawn], axis=1).reshape(-1, drawn.shape[-1])
    return np.concatenate([np.zeros((1, drawn.shape[-1])), rest])


def _sign_patterns(m: int, rng: np.random.Generator, cap: int = 48) -> np.ndarray:
    """All sign patterns in {-1,0,1}^m for small m, one a row; a capped
    random family above."""
    if 3**m <= cap:
        return np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=m)))
    base = [np.full(m, -1.0), np.full(m, 1.0), np.zeros(m)]
    for k in range(m):
        e = np.zeros(m)
        e[k] = 1.0
        base.append(e)
        base.append(-e)
    drawn = rng.choice([-1.0, 0.0, 1.0], size=(max(0, cap - len(base)), m))
    return np.vstack(base + [drawn])


def _norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm`` of each v[i], bit for bit: the square root of one
    ``ddot`` of its entries in C order."""
    flat = v.reshape(v.shape[0], -1)
    return np.sqrt(_dot(flat, flat))


def _witnesses(t, x, xp, margin, bad, kind: str, coords=tuple) -> List[Witness]:
    """A witness at each probe (t[i], x[i], x'[i]) where ``bad`` is True,
    with its ``margin``, in probe order; ``coords`` writes the points."""
    return [Witness(float(t[i]), coords(x[i]), coords(xp[i]), None, float(margin[i]), kind)
            for i in np.flatnonzero(bad)]


def _b_expression(problem: ComparisonProblem, t, x, xp, j: int) -> np.ndarray:
    """Rows x_k + gamma1_k(t, x+x', e_j) - gamma2_k(t, x', e_j) over k, one
    per probe of the block (t, x, x')."""
    c1 = problem.model1.coefficients
    c2 = problem.model2.coefficients
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    return x + c1.gamma_rows(t, x + xp, j) - c2.gamma_rows(t, xp, j)


def _c_expression(problem: ComparisonProblem, t, delta, xp) -> np.ndarray:
    """Rows of the compensator-adjusted drift gap at (delta + x', x') over k,
    one per probe of the block (t, delta, x')."""
    c1 = problem.model1.coefficients
    c2 = problem.model2.coefficients
    xp = np.asarray(xp, dtype=float)
    y = np.asarray(delta, dtype=float) + xp
    lhs = c1.b_rows(t, y)
    rhs = c2.b_rows(t, xp)
    for j, w in enumerate(problem.marks.weights):
        if w != 0.0:
            lhs = lhs - w * c1.gamma_rows(t, y, j)
            rhs = rhs - w * c2.gamma_rows(t, xp, j)
    return lhs - rhs


# ---------------------------------------------------------------------------
# diffusion equality and per-coordinate decoupling
# ---------------------------------------------------------------------------


def check_sigma_equal(problem: ComparisonProblem) -> Verdict:
    """The two diffusion coefficients must agree as functions."""
    eps = problem.tolerances.resolved_eps_check(problem.is_affine)
    if problem.is_affine:
        a1 = problem.model1.coefficients.affine
        a2 = problem.model2.coefficients.affine
        dv = float(np.max(np.abs(a1.V - a2.V))) if a1.V.size else 0.0
        du = float(np.max(np.abs(a1.U - a2.U))) if a1.U.size else 0.0
        if max(dv, du) <= eps:
            return Verdict.exact([])
        # exhibit the gap at a concrete point, the first of the largest gaps
        m = problem.m
        cands = [np.zeros(m)]
        for j in range(m):
            e = np.zeros(m)
            e[j] = problem.sampling.box
            cands.extend([e, -e])
        c1, c2 = problem.model1.coefficients, problem.model2.coefficients
        x = np.array(cands)
        t = np.full(len(x), problem.t0)
        gaps = _norms(c1.sigma_rows(t, x) - c2.sigma_rows(t, x)).tolist()
        i = max(range(len(cands)), key=gaps.__getitem__)
        best = Witness(t=problem.t0, x=tuple(x[i]), x_prime=tuple(x[i]), atom=None,
                       margin=-gaps[i], kind="sigma-equal")
        return Verdict.from_witnesses([best], samples=len(cands))

    # the origin, a point per scale s from (-s, s)^m, count // 4 from the box;
    # then a t for each
    rng = _rng_for(problem, 0xA1)
    c1, c2 = problem.model1.coefficients, problem.model2.coefficients
    m, box = problem.m, problem.sampling.box
    scales = np.array(problem.sampling.scales())
    x = np.concatenate([np.zeros((1, m)),
                        rng.uniform(-1.0, 1.0, (len(scales), m)) * scales[:, None],
                        rng.uniform(-box, box, (problem.sampling.count // 4, m))])
    t = rng.uniform(problem.t0, problem.T, len(x))
    gaps = _norms(c1.sigma_rows(t, x) - c2.sigma_rows(t, x))
    return Verdict.sampled(_witnesses(t, x, x, -gaps, gaps > eps, "sigma-equal"), len(x))


def check_condition_a(problem: ComparisonProblem) -> List[Verdict]:
    """Row k of the diffusion may depend on coordinate k only (per-k verdicts)."""
    eps = problem.tolerances.resolved_eps_check(problem.is_affine)
    m = problem.m
    if problem.is_affine:
        a1 = problem.model1.coefficients.affine
        out: List[Verdict] = []
        for k in range(m):
            worst = None
            for j in range(m):
                if j == k:
                    continue
                mag = float(np.max(np.abs(a1.V[k, :, j]))) if a1.V.size else 0.0
                if mag > eps and (worst is None or mag > -worst.margin):
                    e = np.zeros(m)
                    e[j] = 1.0
                    cross = float(np.linalg.norm(a1.V[k, :, j]))
                    worst = Witness(
                        t=problem.t0, x=tuple(np.zeros(m)), x_prime=tuple(e),
                        atom=None, margin=-cross, kind=f"cond-a[k={k}]",
                    )
            out.append(Verdict.exact([] if worst is None else [worst]))
        return out

    # per k, j != k, scale s and rep: x from the box, then t; x' = s e_j
    rng = _rng_for(problem, 0xA2)
    c1 = problem.model1.coefficients
    scales = np.array(problem.sampling.scales())
    reps = max(2, problem.sampling.count // (m * max(1, m - 1) * len(scales)))
    out = []
    for k in range(m):
        n = (m - 1) * len(scales) * reps
        x, t = _records(problem, rng, n)
        j, s = np.divmod(np.arange(n) // reps, len(scales))
        e = np.zeros((n, m))
        e[np.arange(n), j + (j >= k)] = scales[s]
        witnesses: List[Witness] = []
        if n:
            gaps = _norms(c1.sigma_rows(t, x + e)[:, k] - c1.sigma_rows(t, x)[:, k])
            witnesses = _witnesses(t, x, e, -gaps, gaps > eps, f"cond-a[k={k}]")
        out.append(Verdict.sampled(witnesses, n))
    return out


# ---------------------------------------------------------------------------
# jump monotonicity (b) and drift order (c)
# ---------------------------------------------------------------------------


def _scale_to_expose(base: float, offset: float, coef: float) -> float:
    """Scale s with coef*s + offset <= -1, never below the sampling box."""
    return max(base, (abs(offset) + 1.0 + abs(coef)) / max(abs(coef), 1e-300))


def _affine_row(problem: ComparisonProblem, gap, coefs, const: float, skip: Optional[int],
                label: str, witness) -> List[Witness]:
    """The affine rule for row k of two maps, shared by (b) and (c): the rows
    must agree (``gap``, row 1 less row 2), the coefficients ``coefs`` off
    column ``skip`` must be nonnegative, and the constants ordered (``const``,
    constant 1 less constant 2).  ``witness(x, x', kind)`` exhibits a failure
    at a probe; a row gap is exhibited alone, the other failures each."""
    eps = problem.tolerances.resolved_eps_check(True)
    m, box = problem.m, problem.sampling.box
    zero = np.zeros(m)
    if np.max(np.abs(gap)) > eps:
        norm = np.linalg.norm(gap)
        s = _scale_to_expose(box, const, float(norm))
        return [witness(zero, -s * (gap / norm), "row-gap")]
    out = []
    for i in range(m):
        if i != skip and coefs[i] < -eps:
            x = np.zeros(m)
            x[i] = _scale_to_expose(box, const, float(coefs[i]))
            out.append(witness(x, zero, f"{label}[i={i}]"))
    if const < -eps:
        out.append(witness(zero, zero, "const"))
    return out


def check_condition_b(problem: ComparisonProblem) -> List[Verdict]:
    """Per-coordinate jump monotonicity across the two models (per-k verdicts).

    Affine reduction (``_affine_row``): for every positively weighted atom,
    row k of the post-jump maps x + G x must agree, their coefficients, 1 +
    G_kk included, must be nonnegative, and the constant parts ordered.
    """
    eps = problem.tolerances.resolved_eps_check(problem.is_affine)
    m = problem.m
    marks = problem.marks
    live_atoms = [j for j in range(marks.n_atoms) if marks.weights[j] > 0.0]

    if problem.is_affine:
        a1 = problem.model1.coefficients.affine
        a2 = problem.model2.coefficients.affine

        def witness(j, k, x, xp, kind):
            val = float(_b_expression(problem, [problem.t0], [x], [xp], j)[0, k])
            return Witness(problem.t0, tuple(x), tuple(xp), j, val, f"cond-b[k={k}] {kind}")

        # the row gap is G1's less G2's, not that of the shifted rows, which
        # can round differently
        return [Verdict.exact([w for j in live_atoms for w in _affine_row(
                    problem, a1.G[j][k] - a2.G[j][k], a1.G[j][k] + np.eye(m)[k],
                    float(a1.g[j][k] - a2.g[j][k]), None, "coef",
                    functools.partial(witness, j, k))])
                for k in range(m)]

    # x: the ladder points with reps draws s * U(0, 1)^m per scale s
    rng = _rng_for(problem, 0xB1)
    scales = np.array(problem.sampling.scales())
    reps = max(2, problem.sampling.count // max(1, (len(scales) * (m + 2) * max(1, len(live_atoms)))))
    drawn = scales[:, None, None] * rng.uniform(0.0, 1.0, (len(scales), reps, m))
    t, x, xp = _with_zero_and_drawn_xp(problem, rng, _ladder_points(scales, range(m), drawn))
    per_k_wit: List[List[Witness]] = [[] for _ in range(m)]
    samples = len(t) * len(live_atoms)
    if live_atoms:
        # (probe, atom, k), witnesses in the order of probes, then atoms
        vals = np.stack([_b_expression(problem, t, x, xp, j) for j in live_atoms], axis=1)
        for i, a, k in np.argwhere(vals < -eps):
            per_k_wit[k].append(Witness(float(t[i]), tuple(x[i]), tuple(xp[i]), live_atoms[a],
                                        float(vals[i, a, k]), kind=f"cond-b[k={k}]"))
    return [Verdict.sampled(w, samples) for w in per_k_wit]


def check_condition_c(problem: ComparisonProblem) -> List[Verdict]:
    """Compensator-adjusted drift order with quasimonotone coupling (per k).

    Affine reduction (``_affine_row``) on M_i = B_i - sum_j w_j G_i[j], d_i =
    c_i - sum_j w_j g_i[j]: row k of M1 and M2 must agree, M1's off-diagonal
    row entries must be nonnegative, and d1_k >= d2_k.
    """
    eps = problem.tolerances.resolved_eps_check(problem.is_affine)
    m = problem.m
    marks = problem.marks

    if problem.is_affine:
        a1 = problem.model1.coefficients.affine
        a2 = problem.model2.coefficients.affine
        M1, d1 = a1.net_drift_blocks(marks)
        M2, d2 = a2.net_drift_blocks(marks)

        def witness(k, delta, xp, kind):
            val = float(_c_expression(problem, [problem.t0], [delta], [xp])[0, k])
            return Witness(problem.t0, tuple(delta), tuple(xp), None, val, f"cond-c[k={k}] {kind}")

        return [Verdict.exact(_affine_row(problem, M1[k] - M2[k], M1[k], float(d1[k] - d2[k]),
                                          k, "offdiag", functools.partial(witness, k)))
                for k in range(m)]

    # per k, delta: the ladder points off coordinate k, with reps draws
    # s * U(0, 1)^m per scale s and their entry k zeroed
    rng = _rng_for(problem, 0xC1)
    scales = np.array(problem.sampling.scales())
    reps = max(2, problem.sampling.count // max(1, len(scales) * m * 4))
    out = []
    for k in range(m):
        drawn = scales[:, None, None] * rng.uniform(0.0, 1.0, (len(scales), reps, m))
        drawn[:, :, k] = 0.0
        others = [i for i in range(m) if i != k]
        t, delta, xp = _with_zero_and_drawn_xp(problem, rng,
                                               _ladder_points(scales, others, drawn))
        vals = _c_expression(problem, t, delta, xp)[:, k]
        out.append(Verdict.sampled(_witnesses(t, delta, xp, vals, vals < -eps, f"cond-c[k={k}]"),
                                   len(t)))
    return out


# ---------------------------------------------------------------------------
# the pointwise inequality
# ---------------------------------------------------------------------------


_BLOCK = 512  # probes drawn and evaluated together by check_ii_prime


def _ii_prime_probes(problem: ComparisonProblem, rng: np.random.Generator):
    """Probe blocks (t, x, x') of ``_BLOCK`` probes, the last one shorter, in
    one seeded order: sign patterns x ladder, then the proof-shaped probes
    with one small negative coordinate against an O(1) nonnegative rest.

    A probe draws one record of cells (``_uniforms``), and a block draws its
    records with a call per kind of probe, so consecutive blocks consume the
    stream in order and the block size changes no value.  Blocks are cut
    every ``_BLOCK`` probes of the whole stream, across the two kinds, so a
    black-box coefficient is called at the same points in the same order as
    when each probe was drawn alone."""
    m, box = problem.m, problem.sampling.box
    scales = np.array(problem.sampling.scales())
    patterns = _sign_patterns(m, rng)
    reps = max(2, problem.sampling.count // max(1, len(patterns) * len(scales)))
    n_ladder = len(patterns) * len(scales) * reps
    n = n_ladder + m * len(scales) * 4 * m
    head = np.zeros(2 * m)  # the draws of the last group head of edge_probes

    def ladder_probes(p):
        # per pattern, scale s and rep r, [u | x' | t]: x = (s * pattern) * u with
        # u ~ U(0.5, 1)^m, and x' = 0 at r = 0, drawn from the box otherwise
        group, r = np.divmod(p, reps)
        mask = np.ones((len(p), 2 * m + 1), dtype=bool)
        mask[r == 0, m:2 * m] = False
        u, xp, t = _uniforms(rng, [0.5] * m + [-box] * m + [problem.t0],
                             [1.0] * m + [box] * m + [problem.T], mask, [m, 2 * m])
        pattern, s = np.divmod(group, len(scales))
        return t[:, 0], (scales[s, None] * patterns[pattern]) * u, xp

    def edge_probes(p):
        # per k and scale s, a group of 4m probes: the 2m bases mag * u (u ~
        # U(0.2, 1)^m, entry k zeroed) and mag * e_i (i != k), for mag = 1 and
        # then box, less s e_k, each with x' = 0 and then x' drawn; the group
        # head draws both u first, so a record is [u1 | ubox | x' | t]
        nonlocal head
        group, q = np.divmod(p, 4 * m)
        rows = np.arange(len(p))
        mask = np.ones((len(p), 3 * m + 1), dtype=bool)
        mask[q != 0, :2 * m] = False
        mask[q % 2 == 0, 2 * m:3 * m] = False
        drawn, xp, t = _uniforms(rng, [0.2] * (2 * m) + [-box] * m + [problem.t0],
                                 [1.0] * (2 * m) + [box] * m + [problem.T], mask,
                                 [2 * m, 3 * m])
        at = rows - q  # the row of each probe's group head, < 0 in an earlier call
        u = np.where((at >= 0)[:, None], drawn[np.maximum(at, 0)], head)
        head = u[-1]
        k, s = np.divmod(group, len(scales))
        big, i = np.divmod(q // 2, m)  # mag = box if big, else 1; base i = 0 is mag * u
        mag = np.where(big == 1, box, 1.0)
        delta = mag[:, None] * np.where(big[:, None] == 1, u[:, m:], u[:, :m])
        delta[rows, k] = 0.0
        unit = np.zeros((len(p), m))
        unit[rows, i - 1 + (i - 1 >= k)] = mag  # base i >= 1: at the (i-1)-th index != k
        ek = np.zeros((len(p), m))
        ek[rows, k] = scales[s]
        return t[:, 0], np.where((i == 0)[:, None], delta, unit) - ek, xp

    for a in range(0, n, _BLOCK):
        p = np.arange(a, min(a + _BLOCK, n))
        parts = [draw(i) for draw, i in ((ladder_probes, p[p < n_ladder]),
                                         (edge_probes, p[p >= n_ladder] - n_ladder)) if len(i)]
        yield tuple(np.concatenate(part) for part in zip(*parts))


def judge_probes(blocks, eps: float, coords, kind: str) -> Verdict:
    """Judge the pointwise inequality over blocks of probes.

    ``blocks`` yields (t, x, x', value): probes indexed along a leading axis
    and their ``GeneratorValue``.  Degenerate probes are skipped and not
    counted in ``samples_used``; a probe with lhs > rhs + eps is a witness,
    its points written by ``coords``.  A probe whose lhs or rhs is NaN is
    counted and is no witness.  Witnesses are collected in probe order.
    """
    witnesses: List[Witness] = []
    samples = 0
    for t, x, xp, val in blocks:
        live = ~np.asarray(val.degenerate, dtype=bool)
        samples += int(np.count_nonzero(live))
        witnesses += _witnesses(t, x, xp, val.rhs - val.lhs, live & (val.lhs > val.rhs + eps),
                                kind, coords)
    return Verdict.sampled(witnesses, samples)


def check_ii_prime(problem: ComparisonProblem) -> Verdict:
    """Sampled check of the pointwise inequality over the probe ladder.

    The probes are drawn in the order of ``_ii_prime_probes``, ``_BLOCK`` at
    a time, and the orthant's generator evaluates each block once it is
    drawn, with the bits each probe gets in a block of one.  The
    evaluation draws nothing, so the block size changes neither the stream
    nor the verdict, and memory stays bounded for any ``check.samples``.
    """
    eps = problem.tolerances.resolved_eps_check(problem.is_affine)
    blocks = ((t, x, xp, generator(Orthant, problem, t, x, xp))
              for t, x, xp in _ii_prime_probes(problem, _rng_for(problem, 0x11)))
    return judge_probes(blocks, eps, tuple, "ii-prime")


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Theorem31Report:
    """All sub-verdicts plus the combined status.

    ``overall`` is violated iff any sub-verdict is violated; it is ``holds``
    only when the whole battery is affine-exact and nothing is violated.
    ``battery_agrees_ii_prime`` records whether the structural battery and the
    sampled pointwise inequality reached the same violated/clean conclusion;
    the two are equivalent, so a disagreement flags a checker defect.
    """

    sigma_equal: Verdict
    cond_a: Tuple[Verdict, ...]
    cond_b: Tuple[Verdict, ...]
    cond_c: Tuple[Verdict, ...]
    ii_prime: Verdict
    overall: str
    battery_agrees_ii_prime: bool

    @property
    def battery_violated(self) -> bool:
        parts = [self.sigma_equal, *self.cond_a, *self.cond_b, *self.cond_c]
        return any(v.violated for v in parts)

    def all_witnesses(self) -> List[Witness]:
        parts = [self.sigma_equal, *self.cond_a, *self.cond_b, *self.cond_c, self.ii_prime]
        out: List[Witness] = []
        for v in parts:
            out.extend(v.witnesses)
        return sorted(out, key=lambda w: w.margin)


def check_theorem31(problem: ComparisonProblem) -> Theorem31Report:
    """Run the full battery and the pointwise inequality; combine verdicts."""
    sigma = check_sigma_equal(problem)
    a = tuple(check_condition_a(problem))
    b = tuple(check_condition_b(problem))
    c = tuple(check_condition_c(problem))
    ii = check_ii_prime(problem)
    # the battery is the exact oracle; the sampled pointwise inequality can
    # only confirm, never certify, so it adds nothing to the status but VIOLATED
    battery = combine_statuses([v.status for v in (sigma, *a, *b, *c)])
    return Theorem31Report(
        sigma_equal=sigma,
        cond_a=a,
        cond_b=b,
        cond_c=c,
        ii_prime=ii,
        overall=VIOLATED if ii.violated else battery,
        battery_agrees_ii_prime=(battery == VIOLATED) == ii.violated,
    )
