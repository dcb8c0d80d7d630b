"""Condition-checker tests: affine reductions, the pointwise inequality,
equivalence of the two routes, and the one-dimensional specializations."""

import numpy as np
import pytest

from jumpcompare.conditions import (
    HOLDS,
    NO_VIOLATION,
    VIOLATED,
    check_condition_a,
    check_condition_b,
    check_condition_c,
    check_ii_prime,
    check_sigma_equal,
    check_theorem31,
    judge_probes,
)
from jumpcompare import conditions
from jumpcompare.geometry import GeneratorValue, Orthant, generator
from jumpcompare.model import (
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    MarkMeasure,
    SampleDomain,
    SdeModel,
    Tolerances,
    constant_Cstar,
    lipschitz_certificate,
)

from oracles import (
    DimensionError,
    VariantPreconditionError,
    check_corollary_1d,
    ii_prime_terms,
)
from suitegen import random_problem, sized_problem, strip_affine


def build_pair(m, d, marks, blocks1, blocks2, x1=None, x2=None, count=384, seed=0):
    models = []
    for B, c, V, U, G, g in (blocks1, blocks2):
        n = marks.n_atoms
        aff = AffineCoefficients(
            B=np.asarray(B, float).reshape(m, m),
            c=np.asarray(c, float).reshape(m),
            V=np.asarray(V, float).reshape(m, d, m),
            U=np.asarray(U, float).reshape(m, d),
            G=np.asarray(G, float).reshape(n, m, m),
            g=np.asarray(g, float).reshape(n, m),
        )
        models.append(SdeModel(CoefficientTriple.from_affine(aff), marks,
                               lipschitz_certificate(aff, marks)))
    x1 = np.ones(m) if x1 is None else np.asarray(x1, float)
    x2 = np.zeros(m) if x2 is None else np.asarray(x2, float)
    return ComparisonProblem(
        model1=models[0], model2=models[1], t0=0.0, T=1.0, x1=x1, x2=x2,
        sampling=SampleDomain(box=8.0, count=count, seed=seed),
        tolerances=Tolerances(),
    )


ONE_ATOM = MarkMeasure.from_atoms([([1.0], 1.0)])
NO_ATOMS = MarkMeasure.from_atoms([], dimension=1)


def scalar_pair(B1=0.0, c1=0.0, V1=0.0, U1=0.0, G1=None, g1=None,
                B2=0.0, c2=0.0, V2=0.0, U2=0.0, G2=None, g2=None,
                marks=None):
    marks = marks if marks is not None else (ONE_ATOM if G1 is not None else NO_ATOMS)
    n = marks.n_atoms

    def jumps(G, g):
        if n == 0:
            return np.zeros((0, 1, 1)), np.zeros((0, 1))
        return np.array([[[G or 0.0]]]), np.array([[g or 0.0]])

    Ga, ga = jumps(G1, g1)
    Gb, gb = jumps(G2, g2)
    return build_pair(
        1, 1, marks,
        ([[B1]], [c1], [[[V1]]], [[U1]], Ga, ga),
        ([[B2]], [c2], [[[V2]]], [[U2]], Gb, gb),
    )


class TestSigmaEqual:
    def test_identical_parameters_hold(self):
        p = scalar_pair(V1=0.5, U1=0.2, V2=0.5, U2=0.2)
        assert check_sigma_equal(p).status == HOLDS

    def test_constant_gap_violated(self):
        p = scalar_pair(U1=1e-3, U2=0.0)
        v = check_sigma_equal(p)
        assert v.status == VIOLATED
        assert v.witnesses[0].margin < 0

    def test_blackbox_equal_clean(self):
        p = strip_affine(scalar_pair(V1=1.0, V2=1.0))
        v = check_sigma_equal(p)
        assert v.status == NO_VIOLATION
        assert v.samples_used > 0


class TestConditionA:
    def test_diagonal_dependence_holds(self):
        marks = NO_ATOMS
        V = np.zeros((2, 1, 2))
        V[0, 0, 0] = 0.7
        V[1, 0, 1] = -0.3
        p = build_pair(2, 1, marks,
                       (np.zeros((2, 2)), np.zeros(2), V, np.zeros((2, 1)),
                        np.zeros((0, 2, 2)), np.zeros((0, 2))),
                       (np.zeros((2, 2)), np.zeros(2), V, np.zeros((2, 1)),
                        np.zeros((0, 2, 2)), np.zeros((0, 2))))
        assert all(v.status == HOLDS for v in check_condition_a(p))

    def test_cross_dependence_violated(self):
        # sigma row 1 reads coordinate 2
        marks = NO_ATOMS
        V = np.zeros((2, 1, 2))
        V[0, 0, 1] = 1.0
        p = build_pair(2, 1, marks,
                       (np.zeros((2, 2)), np.zeros(2), V, np.zeros((2, 1)),
                        np.zeros((0, 2, 2)), np.zeros((0, 2))),
                       (np.zeros((2, 2)), np.zeros(2), V, np.zeros((2, 1)),
                        np.zeros((0, 2, 2)), np.zeros((0, 2))))
        verdicts = check_condition_a(p)
        assert verdicts[0].status == VIOLATED
        assert verdicts[1].status == HOLDS
        # black-box sampling reaches the same conclusion
        bb = check_condition_a(strip_affine(p))
        assert bb[0].status == VIOLATED
        assert bb[1].status == NO_VIOLATION

    def test_constant_sigma_holds(self):
        p = scalar_pair(U1=0.4, U2=0.4)
        assert all(v.status == HOLDS for v in check_condition_a(p))


class TestConditionB:
    def test_zero_gamma_holds(self):
        p = scalar_pair(G1=0.0, g1=0.0, G2=0.0, g2=0.0)
        assert all(v.status == HOLDS for v in check_condition_b(p))

    def test_constant_jump_order(self):
        p = scalar_pair(G1=0.0, g1=1.0, G2=0.0, g2=0.0)
        assert all(v.status == HOLDS for v in check_condition_b(p))
        p_bad = scalar_pair(G1=0.0, g1=-0.5, G2=0.0, g2=0.0)
        v = check_condition_b(p_bad)[0]
        assert v.status == VIOLATED
        w = v.witnesses[0]
        assert w.margin == pytest.approx(-0.5, abs=1e-12)
        assert np.all(np.asarray(w.x) == 0.0) and np.all(np.asarray(w.x_prime) == 0.0)

    def test_own_coefficient_below_minus_one(self):
        # 1 + G = -0.5: grid-search oracle over x in [0,10], x' in [-10,10]
        p = scalar_pair(G1=-1.5, g1=0.0, G2=-1.5, g2=0.0)
        v = check_condition_b(p)[0]
        assert v.status == VIOLATED
        # independent dense grid search for a negative margin
        grid_margin = min(
            x + (-1.5 * (x + xp)) - (-1.5 * xp)
            for x in np.linspace(0.0, 10.0, 101)
            for xp in np.linspace(-10.0, 10.0, 41)
        )
        assert grid_margin < 0
        assert v.witnesses[0].margin < 0

    def test_row_gap_violated(self):
        marks = ONE_ATOM
        p = scalar_pair(G1=0.4, g1=0.0, G2=0.1, g2=0.0, marks=marks)
        assert check_condition_b(p)[0].status == VIOLATED

    def test_zero_weight_atoms_ignored(self):
        marks = MarkMeasure.from_atoms([([1.0], 0.0)])
        # violating coefficients on a weight-zero atom must not matter
        p = scalar_pair(G1=-5.0, g1=-9.0, G2=0.0, g2=0.0, marks=marks)
        assert all(v.status == HOLDS for v in check_condition_b(p))


class TestConditionC:
    def test_drift_order_with_quasimonotone_coupling(self):
        marks = NO_ATOMS
        B = np.array([[-0.5, 0.2], [0.3, -0.4]])
        p = build_pair(2, 1, marks,
                       (B, np.array([1.0, 1.0]), np.zeros((2, 1, 2)), np.zeros((2, 1)),
                        np.zeros((0, 2, 2)), np.zeros((0, 2))),
                       (B, np.array([0.0, 0.0]), np.zeros((2, 1, 2)), np.zeros((2, 1)),
                        np.zeros((0, 2, 2)), np.zeros((0, 2))))
        assert all(v.status == HOLDS for v in check_condition_c(p))

    def test_negative_offdiagonal_violated(self):
        # off-diagonal -1 in row 1: grid oracle over delta = (0, s) shows -s
        marks = NO_ATOMS
        B = np.array([[0.0, -1.0], [0.0, 0.0]])
        p = build_pair(2, 1, marks,
                       (B, np.zeros(2), np.zeros((2, 1, 2)), np.zeros((2, 1)),
                        np.zeros((0, 2, 2)), np.zeros((0, 2))),
                       (B, np.zeros(2), np.zeros((2, 1, 2)), np.zeros((2, 1)),
                        np.zeros((0, 2, 2)), np.zeros((0, 2))))
        verdicts = check_condition_c(p)
        assert verdicts[0].status == VIOLATED
        assert verdicts[1].status == HOLDS
        margins = [(-1.0) * s for s in np.linspace(0.1, 10, 50)]  # oracle margin -s
        assert min(margins) < -0.5
        bb = check_condition_c(strip_affine(p))
        assert bb[0].status == VIOLATED

    def test_m1_reduces_to_drift_line(self):
        # single coordinate: holds iff the net drift constants are ordered
        p_ok = scalar_pair(B1=0.5, c1=0.8, G1=0.5, g1=0.8,
                           B2=0.5, c2=0.2, G2=0.5, g2=0.2)
        assert check_condition_c(p_ok)[0].status == HOLDS
        p_bad = scalar_pair(B1=0.5, c1=0.0, G1=0.5, g1=0.5,
                            B2=0.5, c2=0.0, G2=0.5, g2=0.0)
        # d1 = -0.5 < 0 = d2
        assert check_condition_c(p_bad)[0].status == VIOLATED


class TestEvalIiPrime:
    def test_single_drift_term(self):
        p = scalar_pair(c1=1.0, c2=0.0)
        val = ii_prime_terms(p, 0.0, [-1.0], [0.0])
        assert val.lhs == pytest.approx(-2.0, abs=1e-12)
        cstar = constant_Cstar(p.shared_budget(), p.marks)
        assert val.rhs == pytest.approx(cstar, abs=1e-12)

    def test_zero_on_nonnegative_orthant_with_equal_gaps(self):
        p = scalar_pair(B1=0.3, c1=0.1, V1=0.2, U1=0.1, G1=0.5, g1=0.2,
                        B2=0.3, c2=0.1, V2=0.2, U2=0.1, G2=0.5, g2=0.2)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(0.0, 3.0, 1)
            xp = rng.uniform(-3.0, 3.0, 1)
            assert ii_prime_terms(p, 0.5, x, xp).lhs == pytest.approx(0.0, abs=1e-12)

    def test_reversed_drift_fails_at_small_negative_x(self):
        p = scalar_pair(c1=0.0, c2=1.0)
        cstar = constant_Cstar(p.shared_budget(), p.marks)
        for eps in (1e-6, 1e-4, 1e-2):
            val = ii_prime_terms(p, 0.0, [-eps], [0.0])
            assert val.lhs == pytest.approx(2.0 * eps, abs=1e-12)
            assert val.rhs == pytest.approx(cstar * eps * eps, rel=1e-12)
            if eps < 2.0 / cstar:
                assert val.lhs > val.rhs

    def test_drift_term_homogeneous_in_negative_part(self):
        # fixing the coefficient gap, the drift term scales linearly on x <= 0
        p, _ = random_problem(5, failing=True)
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = -np.abs(rng.uniform(0.1, 1.0, p.m))
            xp = rng.uniform(-2.0, 2.0, p.m)
            base = ii_prime_terms(p, 0.3, x, xp).drift
            for lam in (0.5, 2.0, 7.0):
                scaled = ii_prime_terms(p, 0.3, lam * x, xp).drift
                assert scaled == pytest.approx(lam * base, rel=1e-9, abs=1e-12)


class TestCheckIiPrime:
    def test_passing_model_clean(self):
        p, _ = random_problem(101, failing=False)
        assert check_ii_prime(p).status == NO_VIOLATION

    def test_reversed_drift_found_at_small_x(self):
        p = scalar_pair(c1=0.0, c2=1.0)
        v = check_ii_prime(p)
        assert v.status == VIOLATED
        worst = v.witnesses[0]
        assert max(abs(a) for a in worst.x) <= 1.0

    def test_sigma_gap_found_via_ladder(self):
        p = scalar_pair(U1=1.0, U2=0.2)
        v = check_ii_prime(p)
        assert v.status == VIOLATED

    def test_cstar_computed_once_per_run(self, monkeypatch):
        p, _ = random_problem(5, failing=True)
        calls = [0]
        real = ComparisonProblem.shared_budget

        def counting(self):
            calls[0] += 1
            return real(self)

        monkeypatch.setattr(ComparisonProblem, "shared_budget", counting)
        v = check_ii_prime(p)
        assert v.samples_used > 1
        assert calls[0] == 1
        assert p.cstar == constant_Cstar(real(p), p.marks)


def reference_terms(problem, t, x, xp):
    """The orthant generator at one probe, written as a loop over one point:
    one coefficient call per term, ``float(a @ b)`` dot products and the
    Hessian sum over the negative rows only."""
    c1, c2 = problem.model1.coefficients, problem.model2.coefficients
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    minus = np.maximum(-x, 0.0)
    plus = x + minus
    dist2 = float(minus @ minus)
    drift = -2.0 * float(minus @ (c1.b(t, plus + xp) - c2.b(t, xp)))
    neg = x < 0.0
    s_gap = c1.sigma(t, x + xp) - c2.sigma(t, xp)
    diffusion = float(np.sum(s_gap[neg] ** 2)) if np.any(neg) else 0.0
    jump = 0.0
    for j in range(problem.marks.n_atoms):
        w = float(problem.marks.weights[j])
        if w == 0.0:
            continue
        dg = c1.gamma(t, x + xp, j) - c2.gamma(t, xp, j)
        after = np.minimum(x + dg, 0.0)
        jump += w * (float(after @ after) - dist2 + 2.0 * float(minus @ dg))
    return (drift, diffusion, jump, drift + diffusion + jump, problem.cstar * dist2)


def drawn_probes(problem):
    blocks = list(conditions._ii_prime_probes(problem, conditions._rng_for(problem, 0x11)))
    return [np.concatenate(a) for a in zip(*blocks)]


TERMS = ("drift", "diffusion", "jump", "lhs", "rhs")
# (m, d, atoms, failure kind, seed): m = 4, d = 2 sums 8 Hessian terms at
# the all-negative probes, where numpy sums pairwise
BLOCK_CASES = [(1, 1, 2, "jump-row-gap", 1), (2, 2, 1, "sigma-gap", 2),
               (3, 1, 3, "drift-row-gap", 3), (4, 2, 2, "sigma-coupling", 4),
               (4, 2, 0, None, 5)]


def value_rows(value, lo, hi):
    return GeneratorValue(*(getattr(value, f)[lo:hi] for f in TERMS + ("degenerate",)))


class TestProbeBlocks:
    @pytest.mark.parametrize("blackbox", [False, True], ids=["affine", "bb"])
    @pytest.mark.parametrize("case", BLOCK_CASES, ids=[str(c) for c in BLOCK_CASES])
    def test_block_equals_single_probes_bit_for_bit(self, case, blackbox):
        m, d, n_atoms, kind, seed = case
        p = sized_problem(seed, m, d, n_atoms, kind)
        if blackbox:
            p = strip_affine(p)
        t, x, xp = drawn_probes(p)
        block = generator(Orthant, p, t, x, xp)
        assert block.lhs.shape == t.shape
        assert not block.degenerate.any()
        for i in range(t.size):
            one = ii_prime_terms(p, t[i], x[i], xp[i])
            ref = reference_terms(p, float(t[i]), x[i], xp[i])
            for k, term in enumerate(TERMS):
                assert getattr(block, term)[i] == getattr(one, term) == ref[k], (i, term)

    @pytest.mark.parametrize("case", BLOCK_CASES, ids=[str(c) for c in BLOCK_CASES])
    def test_smaller_blocks_give_the_same_verdict(self, monkeypatch, case):
        """Every sampled branch: the battery, the pointwise inequality and,
        at m = 1, each corollary variant or the precondition it fails."""
        m, d, n_atoms, kind, seed = case

        def verdicts(p):
            out = [check_theorem31(p)]
            for variant in ("3.3", "3.4", "3.5") if m == 1 else ():
                try:
                    out.append(check_corollary_1d(p, variant))
                except VariantPreconditionError as exc:
                    out.append(str(exc))
            return out

        for p in (sized_problem(seed, m, d, n_atoms, kind),
                  strip_affine(sized_problem(seed, m, d, n_atoms, kind))):
            want = verdicts(p)
            assert want[0].ii_prime.samples_used == drawn_probes(p)[0].size
            for size in (1, 7):
                monkeypatch.setattr(conditions, "_BLOCK", size)
                assert verdicts(p) == want
            monkeypatch.undo()

    def test_nan_gap_is_counted_and_is_no_witness(self):
        p = strip_affine(sized_problem(2, 2, 2, 1, "sigma-gap"))
        nan_model = SdeModel(
            CoefficientTriple(m=2, d=2, drift=lambda t, x: np.full(2, np.nan),
                              diffusion=p.model1.coefficients.diffusion,
                              jump=p.model1.coefficients.jump),
            p.marks, p.model1.budget)
        p_nan = ComparisonProblem(model1=nan_model, model2=p.model2, t0=p.t0, T=p.T,
                                  x1=p.x1, x2=p.x2, sampling=p.sampling,
                                  tolerances=p.tolerances)
        assert check_ii_prime(p).status == VIOLATED
        # a NaN drift gap makes every lhs NaN (0 * NaN in the drift term too)
        v = check_ii_prime(p_nan)
        assert v.status == NO_VIOLATION
        assert v.samples_used == drawn_probes(p_nan)[0].size

    def test_raising_coefficient_still_raises(self):
        p = strip_affine(sized_problem(3, 1, 1, 0, None))

        def boom(t, x):
            if x[0] < -0.5:
                raise RuntimeError("boom")
            return p.model2.coefficients.diffusion(t, x)

        model = SdeModel(
            CoefficientTriple(m=1, d=1, drift=p.model2.coefficients.drift,
                              diffusion=boom, jump=p.model2.coefficients.jump),
            p.marks, p.model2.budget)
        p_boom = ComparisonProblem(model1=p.model1, model2=model, t0=p.t0, T=p.T,
                                   x1=p.x1, x2=p.x2, sampling=p.sampling,
                                   tolerances=p.tolerances)
        with pytest.raises(RuntimeError, match="boom"):
            check_ii_prime(p_boom)

    def test_degenerate_probes_are_skipped_and_not_counted(self):
        value = GeneratorValue.stack([
            GeneratorValue(drift=2.0, diffusion=0.0, jump=0.0, lhs=2.0, rhs=0.0,
                           degenerate=False),
            GeneratorValue(drift=9.0, diffusion=0.0, jump=0.0, lhs=9.0, rhs=0.0,
                           degenerate=True),
            GeneratorValue(drift=0.0, diffusion=0.0, jump=0.0, lhs=0.0, rhs=1.0,
                           degenerate=False),
            GeneratorValue(drift=2.0, diffusion=0.0, jump=0.0, lhs=2.0, rhs=0.0,
                           degenerate=False),
        ])
        t = np.array([0.1, 0.2, 0.3, 0.4])
        x = np.arange(4.0)[:, None]
        v = judge_probes([(t[:2], x[:2], x[:2], value_rows(value, 0, 2)),
                          (t[2:], x[2:], x[2:], value_rows(value, 2, 4))],
                         1e-9, tuple, "ii-prime")
        assert v.status == VIOLATED
        assert v.samples_used == 3
        # equal margins keep probe order
        assert [w.t for w in v.witnesses] == [0.1, 0.4]
        assert [w.margin for w in v.witnesses] == [-2.0, -2.0]


class TestTheorem31Report:
    def test_pass_family_overall_holds(self):
        p = scalar_pair(B1=-0.5, c1=1.0, V1=0.4, U1=0.1,
                        B2=-0.5, c2=0.3, V2=0.4, U2=0.1)
        rep = check_theorem31(p)
        assert rep.overall == HOLDS
        assert rep.battery_agrees_ii_prime

    def test_single_violation_makes_overall_violated(self):
        p = scalar_pair(U1=1.0, U2=0.2)
        rep = check_theorem31(p)
        assert rep.overall == VIOLATED
        assert rep.sigma_equal.status == VIOLATED

    def test_equivalence_on_random_suite(self):
        # battery and pointwise inequality must reach the same conclusion
        for seed in range(20):
            p, kind = random_problem(seed, failing=seed % 2 == 0)
            rep = check_theorem31(p)
            assert rep.battery_agrees_ii_prime, (seed, kind)
            assert rep.battery_violated == (kind is not None), (seed, kind)

    def test_sampled_checker_agrees_with_oracle(self):
        # black-box sampling never contradicts the exact oracle, and finds
        # witnesses for decisive failure margins within the probe budget
        for seed in range(12):
            p, kind = random_problem(1000 + seed, failing=seed % 3 != 0)
            oracle = check_theorem31(p)
            sampled = check_theorem31(strip_affine(p))
            assert sampled.battery_violated == oracle.battery_violated, (seed, kind)
            if not oracle.battery_violated:
                assert not sampled.battery_violated


class TestCorollary1d:
    def test_dimension_error(self):
        p, _ = random_problem(3, failing=False, m=2)
        with pytest.raises(DimensionError):
            check_corollary_1d(p, "3.3")

    def test_unknown_variant(self):
        p, _ = random_problem(4, failing=False, m=1)
        with pytest.raises(ValueError):
            check_corollary_1d(p, "3.9")

    def test_variant_precondition_gamma_shared(self):
        p = scalar_pair(G1=0.5, g1=0.8, G2=0.5, g2=0.2)  # gamma1 != gamma2
        with pytest.raises(VariantPreconditionError):
            check_corollary_1d(p, "3.4")

    def test_variant_precondition_no_jumps(self):
        p = scalar_pair(G1=0.5, g1=0.5, G2=0.5, g2=0.5)
        with pytest.raises(VariantPreconditionError):
            check_corollary_1d(p, "3.5")

    @pytest.mark.parametrize("variant,jumps,raises", [
        ("3.4", dict(G1=0.5, g1=0.8, G2=0.5, g2=0.2), True),
        ("3.4", dict(G1=0.5, g1=0.3, G2=0.5, g2=0.3), False),
        ("3.5", dict(G1=0.5, g1=0.5, G2=0.5, g2=0.5), True),
        ("3.5", dict(G1=0.0, g1=0.0, G2=0.0, g2=0.0), False),
    ], ids=["3.4-gap", "3.4-shared", "3.5-jumps", "3.5-zero"])
    def test_variant_preconditions_sampled_for_black_box(self, variant, jumps, raises):
        # black-box coefficients reach the sampled sup over the box, not the
        # affine blocks
        p = strip_affine(scalar_pair(B1=0.1, c1=0.7, B2=0.1, c2=0.2, **jumps))
        if raises:
            with pytest.raises(VariantPreconditionError):
                check_corollary_1d(p, variant)
        else:
            assert check_corollary_1d(p, variant).status in (HOLDS, NO_VIOLATION)

    def test_no_jump_variant_drift_order(self):
        p = scalar_pair(B1=-0.2, c1=1.0, V1=0.3, U1=0.0,
                        B2=-0.2, c2=0.0, V2=0.3, U2=0.0)
        assert check_corollary_1d(p, "3.5").status == HOLDS
        rep = check_theorem31(p)
        assert rep.overall == HOLDS

    def test_monotone_jump_variant_matches_full_checker(self):
        p = scalar_pair(B1=0.1, c1=0.7, G1=0.5, g1=0.3,
                        B2=0.1, c2=0.2, G2=0.5, g2=0.3)
        v = check_corollary_1d(p, "3.4")
        rep = check_theorem31(p)
        assert (v.status == VIOLATED) == (rep.overall == VIOLATED)
        assert v.status in (HOLDS, NO_VIOLATION)

    @pytest.mark.parametrize("variant,shared,zero", [
        ("3.3", False, False),
        ("3.4", True, False),
        ("3.5", False, True),
    ])
    def test_specialization_consistency(self, variant, shared, zero):
        for i in range(10):
            p, kind = random_problem(
                7000 + i, failing=i % 2 == 1, m=1,
                shared_gamma=shared, zero_gamma=zero,
            )
            v = check_corollary_1d(p, variant)
            rep = check_theorem31(p)
            assert (v.status == VIOLATED) == (rep.overall == VIOLATED), (i, kind)
