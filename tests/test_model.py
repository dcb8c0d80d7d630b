"""Model-layer unit tests: validation, certificates, constants."""

import itertools
import math

import numpy as np
import pytest

from jumpcompare.model import (
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    DimensionMismatch,
    MarkMeasure,
    ModelError,
    NegativeWeight,
    OrderError,
    RegularityBudget,
    SampleDomain,
    SdeModel,
    Tolerances,
    ZeroMark,
    constant_C,
    constant_Cstar,
    lipschitz_certificate,
    operator_norm,
    validate_model,
)

from suitegen import random_problem


def simple_affine(m=1, d=1, n_atoms=1, gscale=0.0):
    return AffineCoefficients(
        B=np.zeros((m, m)),
        c=np.zeros(m),
        V=np.zeros((m, d, m)),
        U=np.zeros((m, d)),
        G=gscale * np.stack([np.eye(m)] * n_atoms) if n_atoms else np.zeros((0, m, m)),
        g=np.zeros((n_atoms, m)),
    )


def simple_model(m=1, d=1, atoms=(([1.0], 1.0),), rho=(1.0,)):
    marks = MarkMeasure.from_atoms(list(atoms), dimension=len(atoms[0][0]) if atoms else 1)
    aff = simple_affine(m=m, d=d, n_atoms=marks.n_atoms)
    return SdeModel(
        coefficients=CoefficientTriple.from_affine(aff),
        marks=marks,
        budget=RegularityBudget(mu=0.0, rho=np.array(rho[: marks.n_atoms])),
    )


class TestMarkMeasure:
    def test_valid_single_atom(self):
        mm = MarkMeasure.from_atoms([([1.0], 1.0)])
        assert mm.n_atoms == 1
        assert mm.total_mass == 1.0

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            MarkMeasure.from_atoms([([1.0], -0.5)])

    def test_zero_mark_rejected(self):
        with pytest.raises(ZeroMark):
            MarkMeasure.from_atoms([([0.0, 0.0], 1.0)])

    def test_total_mass_must_be_finite(self):
        # finite weights whose sum overflows: an infinite jump rate would
        # stall the jump sampler at t0
        with pytest.raises(ModelError, match="total mark mass must be finite"):
            MarkMeasure.from_atoms([([1.0], 1e308), ([2.0], 1e308)])
        big = MarkMeasure.from_atoms([([1.0], 1e308), ([2.0], 7e307)])
        assert big.total_mass == 1.7e308

    def test_empty_measure(self):
        mm = MarkMeasure.from_atoms([], dimension=2)
        assert mm.n_atoms == 0
        assert mm.total_mass == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            MarkMeasure(dimension=2, marks=np.array([[1.0]]), weights=np.array([1.0]))


class TestValidateModel:
    def test_simple_model_ok(self):
        # m=1, d=1, one atom (e=1, w=1), rho=1
        validate_model(simple_model())

    def test_validate_idempotent(self):
        model = simple_model()
        validate_model(model)
        validate_model(model)

    def test_mark_count_mismatch(self):
        # jump blocks built for two atoms, marks carry one
        marks = MarkMeasure.from_atoms([([1.0], 1.0)])
        aff = simple_affine(n_atoms=2)
        model = SdeModel(
            coefficients=CoefficientTriple.from_affine(aff),
            marks=marks,
            budget=RegularityBudget(mu=0.0, rho=np.array([0.0])),
        )
        with pytest.raises(DimensionMismatch):
            validate_model(model)

    def test_budget_rho_count_mismatch(self):
        marks = MarkMeasure.from_atoms([([1.0], 1.0), ([2.0], 0.5)])
        aff = simple_affine(n_atoms=2)
        model = SdeModel(
            coefficients=CoefficientTriple.from_affine(aff),
            marks=marks,
            budget=RegularityBudget(mu=0.0, rho=np.array([0.0])),
        )
        with pytest.raises(DimensionMismatch):
            validate_model(model)

    def test_bad_drift_shape(self):
        marks = MarkMeasure.from_atoms([], dimension=1)
        triple = CoefficientTriple(
            m=2, d=1,
            drift=lambda t, x: np.zeros(3),
            diffusion=lambda t, x: np.zeros((2, 1)),
            jump=lambda t, x, j: np.zeros(2),
        )
        model = SdeModel(coefficients=triple, marks=marks,
                         budget=RegularityBudget(mu=1.0, rho=np.zeros(0)))
        with pytest.raises(DimensionMismatch):
            validate_model(model)


class TestOperatorNorm:
    def test_zero_matrix(self):
        assert operator_norm(np.zeros((3, 2))) == 0.0

    def test_identity(self):
        assert operator_norm(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent_by_hand(self):
        # [[0,1],[0,0]] has singular values {1, 0}
        assert operator_norm(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0, abs=1e-12)

    def test_near_repeated_top_singular_value(self):
        # a power iteration that stops when the Rayleigh quotient stalls
        # returns about 0.9999912 here, below the true norm
        assert operator_norm(np.diag([1.0, 0.99999, 0.5])) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_svd(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((rng.integers(1, 6), rng.integers(1, 6)))
        assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=1e-8)


class TestLipschitzCertificate:
    def test_constants_only(self):
        # B=0, c arbitrary, V=0, G=0: mu comes from the growth bound
        marks = MarkMeasure.from_atoms([([1.0], 1.0)])
        aff = AffineCoefficients(
            B=np.zeros((2, 2)), c=np.array([3.0, 4.0]),
            V=np.zeros((2, 1, 2)), U=np.zeros((2, 1)),
            G=np.zeros((1, 2, 2)), g=np.zeros((1, 2)),
        )
        budget = lipschitz_certificate(aff, marks)
        assert budget.mu == pytest.approx(5.0, abs=1e-10)  # |c| = 5
        assert budget.rho[0] == 0.0

    def test_identity_drift_scaled_jump(self):
        # B = I (2x2), V = 0, single G = 0.5*I: mu >= 1, rho = 0.5
        marks = MarkMeasure.from_atoms([([1.0], 1.0)])
        aff = AffineCoefficients(
            B=np.eye(2), c=np.zeros(2),
            V=np.zeros((2, 1, 2)), U=np.zeros((2, 1)),
            G=0.5 * np.stack([np.eye(2)]), g=np.zeros((1, 2)),
        )
        budget = lipschitz_certificate(aff, marks)
        assert budget.mu >= 1.0 - 1e-10
        assert budget.mu == pytest.approx(1.0, abs=1e-9)
        assert budget.rho[0] == pytest.approx(0.5, abs=1e-10)

    def test_mu_covers_near_repeated_spectrum(self):
        # the certified budget must not fall below the true Lipschitz arm
        B = np.diag([1.0, 0.99999, 0.5])
        V = np.zeros((3, 1, 3))
        V[:, 0, :] = [[0.2, 0.0, 0.1], [0.0, 0.3, 0.0], [0.1, 0.0, 0.2]]
        aff = AffineCoefficients(B=B, c=np.zeros(3), V=V, U=np.zeros((3, 1)),
                                 G=np.zeros((0, 3, 3)), g=np.zeros((0, 3)))
        budget = lipschitz_certificate(aff, MarkMeasure.from_atoms([], dimension=1))
        V_stacked = V.reshape(3, 3)
        assert budget.mu >= np.linalg.norm(B, 2) + np.linalg.norm(V_stacked, 2)

    def test_nilpotent_jump(self):
        marks = MarkMeasure.from_atoms([([1.0], 1.0)])
        aff = AffineCoefficients(
            B=np.zeros((2, 2)), c=np.zeros(2),
            V=np.zeros((2, 1, 2)), U=np.zeros((2, 1)),
            G=np.stack([np.array([[0.0, 1.0], [0.0, 0.0]])]), g=np.zeros((1, 2)),
        )
        budget = lipschitz_certificate(aff, marks)
        assert budget.rho[0] == pytest.approx(1.0, abs=1e-9)

    def test_certificate_bounds_increments(self):
        # 1e4 random point pairs per seeded model: the certificate dominates
        # the observed Lipschitz ratios of drift and jump coefficients
        eps_lin = 1e-12
        for seed in range(5):
            problem, _ = random_problem(seed, failing=seed % 2 == 1)
            for model in (problem.model1, problem.model2):
                aff = model.coefficients.affine
                budget = model.budget
                rng = np.random.default_rng(1000 + seed)
                n = 10_000
                X = rng.uniform(-5.0, 5.0, (n, model.m))
                Y = rng.uniform(-5.0, 5.0, (n, model.m))
                diff_norm = np.linalg.norm(X - Y, axis=1)
                bx = X @ aff.B.T
                by = Y @ aff.B.T
                assert np.all(
                    np.linalg.norm(bx - by, axis=1) <= (budget.mu + eps_lin) * diff_norm
                )
                for j in range(model.marks.n_atoms):
                    gx = X @ aff.G[j].T
                    gy = Y @ aff.G[j].T
                    assert np.all(
                        np.linalg.norm(gx - gy, axis=1)
                        <= (budget.rho[j] + eps_lin) * diff_norm
                    )


class TestConstants:
    def test_constant_C_examples(self):
        no_atoms = MarkMeasure.from_atoms([], dimension=1)
        assert constant_C(RegularityBudget(0.0, np.zeros(0)), no_atoms) == 1.0

        one = MarkMeasure.from_atoms([([1.0], 1.0)])
        assert constant_C(RegularityBudget(1.0, np.array([1.0])), one) == 5.0

        two = MarkMeasure.from_atoms([([1.0], 0.5), ([2.0], 0.5)])
        assert constant_C(RegularityBudget(2.0, np.array([2.0, 0.0])), two) == 11.0

    def test_constant_Cstar_examples(self):
        no_atoms = MarkMeasure.from_atoms([], dimension=1)
        assert constant_Cstar(RegularityBudget(0.0, np.zeros(0)), no_atoms) == 0.0

        one = MarkMeasure.from_atoms([([1.0], 1.0)])
        assert constant_Cstar(RegularityBudget(1.0, np.array([1.0])), one) == 6.0

        assert constant_Cstar(RegularityBudget(2.0, np.zeros(0)), no_atoms) == 12.0

    @pytest.mark.parametrize("seed", range(10))
    def test_cstar_is_c_plus_2mu_minus_1(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(0, 4))
        marks = MarkMeasure.from_atoms(
            [(rng.uniform(0.5, 1.5, 1), float(rng.uniform(0.1, 2.0))) for _ in range(n)],
            dimension=1,
        )
        budget = RegularityBudget(float(rng.uniform(0.0, 3.0)), rng.uniform(0.0, 2.0, n))
        lhs = constant_Cstar(budget, marks)
        rhs = constant_C(budget, marks) + 2.0 * budget.mu - 1.0
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestComparisonProblem:
    def test_order_enforced(self):
        model = simple_model()
        with pytest.raises(OrderError):
            ComparisonProblem(model1=model, model2=model, t0=0.0, T=1.0,
                              x1=np.array([0.0]), x2=np.array([1.0]))

    def test_mark_sharing_enforced(self):
        m1 = simple_model(atoms=(([1.0], 1.0),))
        m2 = simple_model(atoms=(([2.0], 1.0),))
        with pytest.raises(DimensionMismatch):
            ComparisonProblem(model1=m1, model2=m2, t0=0.0, T=1.0,
                              x1=np.array([1.0]), x2=np.array([0.0]))

    def test_shared_budget_is_max(self):
        problem, _ = random_problem(3, failing=False)
        shared = problem.shared_budget()
        assert shared.mu == max(problem.model1.budget.mu, problem.model2.budget.mu)
        if shared.rho.size:
            assert np.all(shared.rho >= problem.model1.budget.rho)
            assert np.all(shared.rho >= problem.model2.budget.rho)

    def test_affine_blackbox_agreement(self):
        # affine blocks and callable evaluation agree pointwise by sampling
        problem, _ = random_problem(11, failing=True)
        rng = np.random.default_rng(0)
        for model in (problem.model1, problem.model2):
            aff = model.coefficients.affine
            coeffs = model.coefficients
            for _ in range(50):
                x = rng.uniform(-3.0, 3.0, model.m)
                assert np.allclose(coeffs.b(0.0, x), aff.B @ x + aff.c, atol=1e-12)
                assert np.allclose(coeffs.sigma(0.0, x), aff.V @ x + aff.U, atol=1e-12)
                for j in range(model.marks.n_atoms):
                    assert np.allclose(
                        coeffs.gamma(0.0, x, j), aff.G[j] @ x + aff.g[j], atol=1e-12
                    )

    def test_tolerances_validation(self):
        with pytest.raises(ModelError):
            Tolerances(eps_check=-1.0)

    def test_sample_domain_validation(self):
        with pytest.raises(ModelError):
            SampleDomain(box=-1.0)
        with pytest.raises(ModelError):
            SampleDomain(count=0)

    @pytest.mark.parametrize("seed", [-3, 2**64, True, 3.0])
    def test_sample_domain_rejects_seeds_outside_the_key_range(self, seed):
        with pytest.raises(ModelError, match=r"seed: must be an integer in \[0, 2\^64\), got "):
            SampleDomain(seed=seed)

    def test_sample_domain_keeps_seeds_in_the_key_range(self):
        assert SampleDomain(seed=0).seed == 0
        assert SampleDomain(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


# every row of three coordinates drawn from these: signed zeros, a
# subnormal, signs, infinities and NaN
GRID_VALUES = [0.0, -0.0, 1e-310, 1.5, -1.5, math.inf, -math.inf, math.nan]


class TestDiagonalDiffusion:
    """A V with V[k, :, j] = 0 for j != k is taken as a product; the value
    must be einsum(V, X) + U bit for bit, sign bits included and NaN where
    einsum makes NaN, on rows that are not finite too."""

    GRID = np.array(list(itertools.product(GRID_VALUES, repeat=3)))

    @staticmethod
    def diagonal_V(diag):
        diag = np.asarray(diag, dtype=float)  # (m, d)
        m, d = diag.shape
        V = np.zeros((m, d, m))
        V[np.arange(m), :, np.arange(m)] = diag
        return V

    @staticmethod
    def same_bits(got, want):
        nan = np.isnan(want)
        return np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes()

    def einsum_calls(self, monkeypatch):
        calls = []
        einsum = np.einsum

        def counting(*args, **kwargs):
            calls.append(args[0])
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        return calls

    @pytest.mark.parametrize("diag", [
        [[0.75], [-0.0], [0.0]],
        [[-2.0], [1e-310], [3.0]],
        [[0.75, -0.0], [0.0, -2.0], [1e-310, 1.25]],
        [[-0.0, 0.0], [0.0, -0.0], [2.0, 2.0]],
    ], ids=["d1-zeros", "d1", "d2-zeros", "d2-one-nonzero"])
    @pytest.mark.parametrize("u_zero", [False, True], ids=["U", "U-with-zeros"])
    def test_product_is_einsum_bit_for_bit(self, diag, u_zero, monkeypatch):
        V = self.diagonal_V(diag)
        m, d = V.shape[:2]
        U = np.linspace(-1.0, 2.0, m * d).reshape(m, d)
        if u_zero:
            U[::2, 0] = 0.0
        aff = AffineCoefficients(B=np.eye(m), c=np.zeros(m), V=V, U=U, G=[], g=[])
        assert aff._diagonal is not None
        X = self.GRID
        with np.errstate(invalid="ignore", over="ignore"):
            want = np.einsum("kaj,pj->pka", V, X) + U
            finite = np.isfinite(X).all(axis=1)
            assert 0 < finite.sum() < X.shape[0]
            calls = self.einsum_calls(monkeypatch)
            # finite rows take the product, whole or a row at a time
            assert self.same_bits(aff.diffusion_rows(0.0, X[finite]), want[finite])
            assert self.same_bits(aff.diffusion_rows(0.0, X[finite], aff.row_tiles(600)),
                                  want[finite])
            assert calls == []
            # a block holding a row that is not finite, and each row alone
            assert self.same_bits(aff.diffusion_rows(0.0, X), want)
            for p in range(X.shape[0]):
                got = aff.diffusion_rows(0.0, X[p:p + 1])
                assert self.same_bits(got[0], want[p]), (X[p], got[0], want[p])
        assert len(calls) == 1 + np.count_nonzero(~finite)

    @pytest.mark.parametrize("case", ["off-diagonal", "U-negative-zero"])
    def test_other_models_take_the_einsum(self, case, monkeypatch):
        V = self.diagonal_V([[0.75, 1.0], [-2.0, 0.5], [1.25, 3.0]])
        U = np.full((3, 2), 0.5)
        if case == "off-diagonal":
            V[0, 1, 2] = 1e-300
        else:
            U[1, 1] = -0.0
        aff = AffineCoefficients(B=np.eye(3), c=np.zeros(3), V=V, U=U, G=[], g=[])
        assert aff._diagonal is None
        X = self.GRID[np.isfinite(self.GRID).all(axis=1)]
        want = np.einsum("kaj,pj->pka", V, X) + U
        calls = self.einsum_calls(monkeypatch)
        assert aff.diffusion_rows(0.0, X).tobytes() == want.tobytes()
        assert calls == ["kaj,pj->pka"]
