"""Spectral geometry and the matrix comparison condition."""

import tracemalloc

import numpy as np
import pytest

from jumpcompare import psdcone
from jumpcompare.cli import build_problem, gallery_configs
from jumpcompare.conditions import NO_VIOLATION, VIOLATED, check_ii_prime
from jumpcompare.geometry import GeneratorValue, generator
from jumpcompare.model import (
    AffineCoefficients,
    CoefficientTriple,
    ComparisonProblem,
    DimensionMismatch,
    MarkMeasure,
    ModelError,
    SampleDomain,
    SdeModel,
    Tolerances,
    lipschitz_certificate,
)
from jumpcompare.psdcone import (
    MatrixComparisonProblem,
    MatrixCoefficients,
    MatrixLinearMap,
    MatrixModel,
    OrderError,
    PsdCone,
    check_theorem37,
    eig_sym,
    eval_theorem37,
    matrix_certificate,
    mc_matrix_comparison,
    svec,
    unsvec,
)

from oracles import ii_prime_terms

NO_ATOMS = MarkMeasure.from_atoms([], dimension=1)


def rand_sym(rng, m, scale=1.0):
    A = rng.uniform(-scale, scale, (m, m))
    return 0.5 * (A + A.T)


def linear_matrix_model(b_scale, b_off, s_scale, s_off, jumps=(), marks=NO_ATOMS):
    coeffs = MatrixCoefficients(
        drift=MatrixLinearMap(b_scale, np.asarray(b_off, float)),
        diffusion=MatrixLinearMap(s_scale, np.asarray(s_off, float)),
        jumps=tuple(MatrixLinearMap(s, np.asarray(o, float)) for s, o in jumps),
    )
    return MatrixModel(
        coefficients=coeffs,
        marks=marks,
        budget=matrix_certificate(coeffs, marks),
    )


def matrix_pair(m, gap, s_scale=0.3, s_off=None, x1=None, x2=None, marks=NO_ATOMS,
                jumps1=(), jumps2=(), b_scale=0.5):
    zeros = np.zeros((m, m))
    s_off = zeros if s_off is None else np.asarray(s_off, float)
    m1 = linear_matrix_model(b_scale, np.asarray(gap, float), s_scale, s_off,
                             jumps=jumps1, marks=marks)
    m2 = linear_matrix_model(b_scale, zeros, s_scale, s_off, jumps=jumps2, marks=marks)
    x1 = np.eye(m) if x1 is None else np.asarray(x1, float)
    x2 = zeros if x2 is None else np.asarray(x2, float)
    return MatrixComparisonProblem(
        model1=m1, model2=m2, t0=0.0, T=1.0, x1=x1, x2=x2,
        sampling=SampleDomain(box=6.0, count=256, seed=5),
        tolerances=Tolerances(),
    )


class TestEigSym:
    def test_diagonal(self):
        dec = eig_sym(np.diag([1.0, -2.0]))
        assert np.allclose(dec.lam, [-2.0, 1.0])
        assert np.allclose(np.abs(dec.Q), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)

    def test_zero_matrix(self):
        dec = eig_sym(np.zeros((3, 3)))
        assert np.array_equal(dec.lam, np.zeros(3))
        assert np.array_equal(dec.Q, np.eye(3))

    def test_offdiagonal_by_hand(self):
        # characteristic polynomial lambda^2 - 1
        dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.lam, [-1.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_reconstruction_and_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 9))
        y = rand_sym(rng, m, scale=3.0)
        dec = eig_sym(y)
        assert np.linalg.norm(dec.Q.T @ dec.Q - np.eye(m)) <= 1e-10 * m
        recon = (dec.Q * dec.lam) @ dec.Q.T
        assert np.linalg.norm(recon - y) <= 1e-10 * (1.0 + np.linalg.norm(y))
        assert np.all(np.diff(dec.lam) >= -1e-14)

    def test_matches_lapack_eigenvalues(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            y = rand_sym(rng, m, scale=2.0)
            assert np.allclose(eig_sym(y).lam, np.linalg.eigvalsh(y), atol=1e-10)

    @pytest.mark.parametrize("y, error, match", [
        (np.ones((2, 3)), DimensionMismatch, "square"),
        (np.array([[0.0, 1.0], [0.0, 0.0]]), ModelError, "not symmetric"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), ModelError, "finite"),
        (np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]), DimensionMismatch, "square"),
        (np.zeros((0, 0)), DimensionMismatch, "at least one row"),
    ], ids=["non-square", "non-symmetric", "non-finite", "stack", "empty"])
    def test_bad_input_raises(self, y, error, match):
        # eig_sym takes a stack; svec, map offsets and initial states take
        # one matrix only
        takes = [svec, lambda a: MatrixLinearMap(1.0, a),
                 lambda a: matrix_pair(2, gap=np.zeros((2, 2)), x1=a),
                 lambda a: matrix_pair(2, gap=np.zeros((2, 2)), x1=np.eye(2), x2=a)]
        for take in takes + ([eig_sym] if y.ndim == 2 else []):
            with pytest.raises(error, match=match):
                take(y)

    def test_stack_symmetry_tolerance_is_per_matrix(self):
        # the asymmetry of the small matrix is far below the large one's scale
        small = np.array([[1.0, 1.0 + 1e-6], [1.0, 1.0]])
        with pytest.raises(ModelError, match="not symmetric"):
            eig_sym(np.array([1e6 * np.eye(2), small]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8])
    def test_stack_gets_the_bits_of_each_matrix_alone(self, m):
        rng = np.random.default_rng(300 + m)
        Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
        repeated = (Q * np.repeat([-1.5, 2.0], [m - m // 2, m // 2])) @ Q.T
        scales = 10.0 ** rng.uniform(-100.0, 100.0, (m, m))
        mats = [rand_sym(rng, m, 3.0) for _ in range(5)] + [
            0.5 * (repeated + repeated.T), np.zeros((m, m)), -np.eye(m),
            rand_sym(rng, m) * 0.5 * (scales + scales.T)]
        stack = eig_sym(np.array(mats))
        for i, y in enumerate(mats):
            alone = eig_sym(y)
            assert stack.lam[i].tobytes() == alone.lam.tobytes()
            assert stack.Q[i].tobytes() == alone.Q.tobytes()


class TestSplit:
    def test_diagonal_split(self):
        point = PsdCone.point(np.diag([1.0, -2.0]))
        yp, ym = point.plus, point.minus
        assert np.allclose(yp, np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(ym, np.diag([0.0, 2.0]), atol=1e-12)

    def test_psd_input_unchanged(self):
        y = np.array([[2.0, 0.5], [0.5, 1.0]])
        point = PsdCone.point(y)
        yp, ym = point.plus, point.minus
        assert np.allclose(yp, y, atol=1e-12)
        assert np.allclose(ym, 0.0, atol=1e-12)

    def test_exchange_matrix_by_hand(self):
        # eigenvectors (1, +-1)/sqrt(2)
        point = PsdCone.point(np.array([[0.0, 1.0], [1.0, 0.0]]))
        yp, ym = point.plus, point.minus
        assert np.allclose(yp, 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]]), atol=1e-12)
        assert np.allclose(ym, 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_split_identities(self, seed):
        rng = np.random.default_rng(100 + seed)
        m = int(rng.integers(1, 9))
        y = rand_sym(rng, m, scale=2.5)
        point = PsdCone.point(y)
        yp, ym = point.plus, point.minus
        tol = 1e-10 * (1.0 + np.linalg.norm(y))
        assert np.linalg.norm(yp - ym - y) <= tol
        assert abs(np.trace(yp @ ym)) <= tol
        assert np.linalg.eigvalsh(yp).min() >= -1e-10
        assert np.linalg.eigvalsh(ym).min() >= -1e-10


class TestDist2:
    def test_psd_zero(self):
        y = np.array([[2.0, 0.3], [0.3, 1.0]])
        assert PsdCone.point(y).dist2 == pytest.approx(0.0, abs=1e-14)

    def test_diagonal(self):
        assert PsdCone.point(np.diag([1.0, -2.0])).dist2 == pytest.approx(4.0, abs=1e-12)

    def test_grid_projection_oracle_m2(self):
        # brute force over PSD candidates parametrized by rotation + eigenvalues
        rng = np.random.default_rng(17)
        y = rand_sym(rng, 2, scale=1.5)
        thetas = np.linspace(0.0, np.pi, 181)
        lams = np.linspace(0.0, 4.0, 161)
        best = np.inf
        L1, L2 = np.meshgrid(lams, lams)
        for th in thetas:
            c, s = np.cos(th), np.sin(th)
            a = L1 * c * c + L2 * s * s
            d = L1 * s * s + L2 * c * c
            b = (L1 - L2) * c * s
            dist = (a - y[0, 0]) ** 2 + (d - y[1, 1]) ** 2 + 2.0 * (b - y[0, 1]) ** 2
            best = min(best, float(dist.min()))
        assert PsdCone.point(y).dist2 == pytest.approx(best, abs=2e-3)

    def test_equals_residual_to_positive_part(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            y = rand_sym(rng, m, 2.0)
            yp = PsdCone.point(y).plus
            assert PsdCone.point(y).dist2 == pytest.approx(
                np.linalg.norm(y - yp) ** 2, abs=1e-10 * (1 + np.linalg.norm(y))
            )


class TestGrad:
    def test_psd_zero(self):
        g = -2.0 * PsdCone.point(np.array([[1.0, 0.2], [0.2, 2.0]])).minus
        assert np.allclose(g, 0.0, atol=1e-12)

    def test_closed_form(self):
        g = -2.0 * PsdCone.point(np.diag([1.0, -2.0])).minus
        assert np.allclose(g, np.diag([0.0, -4.0]), atol=1e-12)

    def test_directional_fd(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            y = rand_sym(rng, m, 2.0)
            if np.min(np.abs(np.linalg.eigvalsh(y))) < 1e-2:
                continue  # keep eigenvalues away from zero
            H = rand_sym(rng, m, 1.0)
            s = 1e-5
            fd = (PsdCone.point(y + s * H).dist2 - PsdCone.point(y - s * H).dist2) / (2 * s)
            inner = float(np.trace(-2.0 * PsdCone.point(y).minus @ H))
            assert inner == pytest.approx(fd, abs=1e-6)


class TestHessQuadForm:
    def test_fd_oracle_diag(self):
        # s -> dist2(diag(1,-2) + s I) = (2 - s)^2 near 0: second derivative 2
        out = PsdCone.point(np.diag([1.0, -2.0]))
        assert not out.degenerate
        assert out.hess(np.eye(2)) == pytest.approx(2.0, abs=1e-12)

    def test_negative_definite(self):
        rng = np.random.default_rng(37)
        S = rand_sym(rng, 3, 0.2)
        y = -np.eye(3) - S @ S.T
        H = rand_sym(rng, 3, 1.0)
        out = PsdCone.point(y)
        assert out.hess(H) == pytest.approx(2.0 * np.linalg.norm(H) ** 2, rel=1e-10)

    def test_positive_definite(self):
        rng = np.random.default_rng(38)
        S = rand_sym(rng, 3, 0.2)
        y = np.eye(3) + S @ S.T
        H = rand_sym(rng, 3, 1.0)
        out = PsdCone.point(y)
        assert out.hess(H) == pytest.approx(0.0, abs=1e-12)

    def test_matches_second_differences(self):
        rng = np.random.default_rng(39)
        checked = 0
        while checked < 25:
            m = int(rng.integers(2, 6))
            y = rand_sym(rng, m, 2.0)
            if np.min(np.abs(np.linalg.eigvalsh(y))) <= 1e-3:
                continue
            H = rand_sym(rng, m, 1.0)
            s = 1e-4
            out = PsdCone.point(y)
            fd = (PsdCone.point(y + s * H).dist2 - 2.0 * out.dist2
                  + PsdCone.point(y - s * H).dist2) / (s * s)
            assert not out.degenerate
            assert out.hess(H) == pytest.approx(fd, abs=max(1e-6, 1e3 * s * s))
            checked += 1

    def test_degenerate_flag(self):
        out = PsdCone.point(np.diag([0.0, 1.0]))
        assert out.degenerate and np.isnan(out.hess(np.eye(2)))

    def test_coincident_eigenvalues(self):
        out = PsdCone.point(-np.eye(2)).hess(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert out == pytest.approx(2.0 * 2.0, abs=1e-12)  # 2 * fro(H)^2

    @pytest.mark.parametrize("seed", range(6))
    def test_rotation_invariance_with_repeated_eigenvalue(self, seed):
        # the eigenbasis inside the repeated eigenspace of y is arbitrary;
        # dist2 and its Hessian form must not depend on that choice
        rng = np.random.default_rng(200 + seed)
        y = np.diag([-1.0, -1.0, 2.0])
        H = rand_sym(rng, 3, 1.0)
        Q, R = np.linalg.qr(rng.standard_normal((3, 3)))
        Q = Q * np.sign(np.diag(R))
        y_rot, H_rot = Q @ y @ Q.T, Q @ H @ Q.T
        out, out_rot = PsdCone.point(y), PsdCone.point(y_rot)
        assert not out_rot.degenerate
        assert out_rot.hess(H_rot) == pytest.approx(out.hess(H), rel=1e-12)
        assert out_rot.dist2 == pytest.approx(out.dist2, rel=1e-12)


class TestEvalTheorem37:
    def test_psd_x_equal_gaps_zero(self):
        p = matrix_pair(2, gap=np.zeros((2, 2)))
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rand_sym(rng, 2, 1.0)
            x = x @ x.T + 0.1 * np.eye(2)  # strictly PSD
            xp = rand_sym(rng, 2, 2.0)
            out = eval_theorem37(p, 0.2, x, xp)
            # only the drift gap is zero here; model1 == model2 exactly
            assert out.lhs == pytest.approx(0.0, abs=1e-10)

    def test_indefinite_drift_gap_violates_at_small_x(self):
        p = matrix_pair(2, gap=np.diag([2.0, -2.0]))
        for eps in (1e-4, 1e-2):
            x = np.diag([1.0, -eps])
            out = eval_theorem37(p, 0.0, x, np.zeros((2, 2)))
            assert out.lhs > out.rhs

    def test_psd_drift_gap_passes(self):
        p = matrix_pair(2, gap=0.4 * np.eye(2), s_scale=0.4)
        v = check_theorem37(p)
        assert v.status == NO_VIOLATION

    def test_indefinite_gap_check_violated(self):
        p = matrix_pair(2, gap=np.diag([2.0, -2.0]), s_scale=0.0,
                        s_off=[[0.3, 0.1], [0.1, 0.2]], x1=0.5 * np.eye(2),
                        x2=0.5 * np.eye(2))
        v = check_theorem37(p)
        assert v.status == VIOLATED
        assert v.worst_margin < -0.15

    def test_samples_used_excludes_degenerate_probes(self, monkeypatch):
        p = matrix_pair(2, gap=0.4 * np.eye(2), s_scale=0.4)
        p = MatrixComparisonProblem(
            model1=p.model1, model2=p.model2, t0=0.0, T=1.0, x1=p.x1, x2=p.x2,
            sampling=SampleDomain(box=6.0, count=256, ladder=(1e-9,), seed=5),
        )
        calls, degenerate = [0], [0]
        real = psdcone.eval_theorem37

        def counting(*args):
            out = real(*args)
            calls[0] += 1
            degenerate[0] += out.degenerate
            return out

        monkeypatch.setattr(psdcone, "eval_theorem37", counting)
        v = check_theorem37(p)
        assert 0 < degenerate[0] < calls[0]
        assert v.samples_used == calls[0] - degenerate[0] == 72
        assert v.status == NO_VIOLATION

    def test_degenerate_probe_has_no_hessian_value(self):
        p = matrix_pair(2, gap=0.4 * np.eye(2), s_scale=0.4)
        out = eval_theorem37(p, 0.2, np.diag([0.0, 1.0]), np.eye(2))
        assert out.degenerate
        assert np.isnan(out.diffusion) and np.isnan(out.lhs)
        assert np.isfinite([out.drift, out.jump, out.rhs]).all()

    def test_one_eigen_solve_of_x_per_probe(self, monkeypatch):
        p = matrix_pair(3, gap=np.diag([0.5, -0.2, 0.1]), s_scale=0.4,
                        s_off=[[0.1, 0.2, 0.0], [0.2, 0.0, 0.1], [0.0, 0.1, 0.3]])
        x = np.diag([1.0, -0.5, 2.0])
        x[0, 1] = x[1, 0] = 0.3
        calls = []
        real = psdcone.eig_sym

        def counting(y):
            calls.append(np.asarray(y, dtype=float).copy())
            return real(y)

        monkeypatch.setattr(psdcone, "eig_sym", counting)
        out = eval_theorem37(p, 0.2, x, np.eye(3))
        assert not out.degenerate and out.diffusion > 0.0
        # count the matrices inside each (possibly stacked) call
        assert sum(np.array_equal(a, x) for y in calls for a in y.reshape(-1, 3, 3)) == 1

    def test_jump_gap_nonnegative_passes(self):
        # gamma1 = gamma2 + c*I with c >= 0 and compensator-adjusted drifts equal
        marks = MarkMeasure.from_atoms([([1.0], 1.0)])
        m = 2
        c_gap = 0.5
        # drift offsets: b_i = w * gamma_offset_i so the net drift matches
        m1 = linear_matrix_model(0.0, c_gap * np.eye(m), 0.0, np.zeros((m, m)),
                                 jumps=((0.0, c_gap * np.eye(m)),), marks=marks)
        m2 = linear_matrix_model(0.0, np.zeros((m, m)), 0.0, np.zeros((m, m)),
                                 jumps=((0.0, np.zeros((m, m))),), marks=marks)
        p = MatrixComparisonProblem(model1=m1, model2=m2, t0=0.0, T=1.0,
                                    x1=np.eye(m), x2=np.zeros((m, m)),
                                    sampling=SampleDomain(box=6.0, count=256, seed=5))
        assert check_theorem37(p).status == NO_VIOLATION


TERMS = ("drift", "diffusion", "jump", "lhs", "rhs")


def _block_problems():
    gallery = [build_problem(c) for c in gallery_configs() if c.kind == "matrix"]
    marks = MarkMeasure.from_atoms([([1.0], 0.7), ([-0.5], 1.3)])
    rng = np.random.default_rng(7)
    jumps = [tuple((s, rand_sym(rng, 3)) for s in (0.4, -0.2)) for _ in range(2)]
    p = matrix_pair(3, gap=np.diag([0.5, -0.2, 0.1]), s_scale=0.4, s_off=rand_sym(rng, 3),
                    marks=marks, jumps1=jumps[0], jumps2=jumps[1])
    jump = MatrixComparisonProblem(
        model1=p.model1, model2=p.model2, t0=0.0, T=1.0, x1=p.x1, x2=p.x2,
        sampling=SampleDomain(box=6.0, count=256, ladder=(1e-9, 1e-3, 1.0), seed=5))
    return gallery + [jump]


@pytest.mark.parametrize("problem", _block_problems(),
                         ids=["matrix-pass", "matrix-drift-fail", "jump-atoms"])
def test_probe_block_gets_the_bits_of_each_probe(problem):
    # the PSD cone's generator over a whole probe block against
    # eval_theorem37, one probe at a time, as check_theorem37 calls it
    rng = np.random.default_rng((int(problem.sampling.seed) << 8) ^ 0x37)
    t, x, xp = zip(*psdcone._theorem37_probes(problem, rng))
    block = generator(psdcone.PsdCone, problem, t, x, xp)
    alone = GeneratorValue.stack([eval_theorem37(problem, *probe) for probe in zip(t, x, xp)])
    assert np.array_equal(block.degenerate, alone.degenerate)
    live = ~alone.degenerate
    for term in TERMS:
        assert getattr(block, term)[live].tobytes() == getattr(alone, term)[live].tobytes(), term
    assert np.isnan(block.diffusion[~live]).all() and np.isnan(block.lhs[~live]).all()
    if problem.sampling.ladder[0] < 1e-8:
        assert 0 < np.count_nonzero(~live) < live.size


class TestScalarReduction:
    def build_scalar_vector_problem(self, c1, c2, sigma):
        aff1 = AffineCoefficients(B=[[0.0]], c=[c1], V=np.zeros((1, 1, 1)),
                                  U=[[sigma]], G=np.zeros((0, 1, 1)), g=np.zeros((0, 1)))
        aff2 = AffineCoefficients(B=[[0.0]], c=[c2], V=np.zeros((1, 1, 1)),
                                  U=[[sigma]], G=np.zeros((0, 1, 1)), g=np.zeros((0, 1)))
        model1 = SdeModel(CoefficientTriple.from_affine(aff1), NO_ATOMS,
                          lipschitz_certificate(aff1, NO_ATOMS))
        model2 = SdeModel(CoefficientTriple.from_affine(aff2), NO_ATOMS,
                          lipschitz_certificate(aff2, NO_ATOMS))
        return ComparisonProblem(model1=model1, model2=model2, t0=0.0, T=1.0,
                                 x1=np.array([1.0]), x2=np.array([0.0]),
                                 sampling=SampleDomain(box=6.0, count=256, seed=5))

    @pytest.mark.parametrize("c1,c2", [(1.0, 0.0), (0.0, 1.0)])
    def test_verdicts_agree_with_scalar_checker(self, c1, c2):
        # m=1 matrix problem vs the scalar pointwise-inequality checker
        sigma = 0.3
        p_mat = matrix_pair(1, gap=[[c1 - c2]], s_scale=0.0, s_off=[[sigma]],
                            b_scale=0.0, x1=[[1.0]], x2=[[0.0]])
        v_mat = check_theorem37(p_mat)
        p_vec = self.build_scalar_vector_problem(c1, c2, sigma)
        v_vec = check_ii_prime(p_vec)
        assert (v_mat.status == VIOLATED) == (v_vec.status == VIOLATED)

    @staticmethod
    def scalar_twin(model, i, budget=None):
        """Entry (i, i) of a scalar-linear matrix model with diagonal offsets,
        as a one-dimensional affine model."""
        lin = model.coefficients
        aff = AffineCoefficients(
            B=[[lin.drift.scale]], c=[lin.drift.offset[i, i]],
            V=[[[lin.diffusion.scale]]], U=[[lin.diffusion.offset[i, i]]],
            G=np.array([j.scale for j in lin.jumps]).reshape(-1, 1, 1),
            g=np.array([j.offset[i, i] for j in lin.jumps]).reshape(-1, 1),
        )
        if budget is None:
            budget = lipschitz_certificate(aff, model.marks)
        return SdeModel(CoefficientTriple.from_affine(aff), model.marks, budget)

    def scalar_problem(self, p, i, budget=None):
        return ComparisonProblem(
            model1=self.scalar_twin(p.model1, i, budget),
            model2=self.scalar_twin(p.model2, i, budget),
            t0=p.t0, T=p.T, x1=[p.x1[i, i]], x2=[p.x2[i, i]],
        )

    @staticmethod
    def jump_pair(offsets1, offsets2):
        marks = MarkMeasure.from_atoms([([1.0], 0.7), ([-0.5], 1.3)])
        jumps1 = ((0.4, np.diag(offsets1[0])), (-0.2, np.diag(offsets1[1])))
        jumps2 = ((0.3, np.diag(offsets2[0])), (-0.2, np.diag(offsets2[1])))
        return marks, jumps1, jumps2

    def test_m1_values_match_vector_terms(self):
        # jumps on two atoms and a state-dependent diffusion: the matrix
        # inequality at m = 1 is the vector one, value for value
        marks, jumps1, jumps2 = self.jump_pair(([0.3], [-0.6]), ([0.1], [-0.1]))
        p_mat = matrix_pair(1, gap=[[0.25]], s_scale=0.6, s_off=[[0.2]], marks=marks,
                            jumps1=jumps1, jumps2=jumps2, x1=[[1.0]], x2=[[0.0]])
        p_vec = self.scalar_problem(p_mat, 0)
        assert p_mat.cstar == p_vec.cstar
        for x, xp in ((-0.3, 0.2), (-1.0, -0.5), (-0.05, 1.0), (0.4, 0.1)):
            mat = eval_theorem37(p_mat, 0.3, [[x]], [[xp]])
            vec = ii_prime_terms(p_vec, 0.3, [x], [xp])
            assert not mat.degenerate
            for term in TERMS:
                assert getattr(mat, term) == getattr(vec, term), term

    def test_diagonal_problem_splits_into_scalar_problems(self):
        # diagonal state, diagonal offsets: the matrix value is the sum of
        # the m scalar values under the matrix problem's budget
        m = 3
        marks, jumps1, jumps2 = self.jump_pair(
            ([0.3, -0.2, 0.5], [-0.4, 0.1, 0.0]), ([0.1, 0.2, -0.3], [-0.1, 0.4, 0.2])
        )
        p_mat = matrix_pair(m, gap=np.diag([0.25, -0.5, 0.1]), s_scale=0.6,
                            s_off=np.diag([0.2, -0.1, 0.4]), marks=marks,
                            jumps1=jumps1, jumps2=jumps2)
        budget = p_mat.shared_budget()
        scalars = [self.scalar_problem(p_mat, i, budget) for i in range(m)]
        for x, xp in (([-0.3, 0.4, -1.2], [0.2, -0.5, 0.7]),
                      ([-0.05, -1.0, 0.3], [1.0, 0.1, -2.0])):
            mat = eval_theorem37(p_mat, 0.3, np.diag(x), np.diag(xp))
            parts = [ii_prime_terms(sp, 0.3, [x[i]], [xp[i]]) for i, sp in enumerate(scalars)]
            assert not mat.degenerate
            for term in TERMS:
                assert getattr(mat, term) == pytest.approx(
                    sum(getattr(t, term) for t in parts), rel=1e-12, abs=1e-12), term

    def test_dist2_psd_reduces_to_scalar_hinge(self):
        for v in (-2.5, -0.3, 0.0, 1.7):
            point = PsdCone.point(np.array([[v]]))
            assert point.dist2 == pytest.approx(min(v, 0.0) ** 2, abs=1e-14)
            yp, ym = point.plus, point.minus
            assert yp[0, 0] == pytest.approx(max(v, 0.0), abs=1e-14)
            assert ym[0, 0] == pytest.approx(max(-v, 0.0), abs=1e-14)


class TestSvec:
    def test_round_trip_and_isometry(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            y = rand_sym(rng, m, 2.0)
            v = svec(y)
            assert v.shape == (m * (m + 1) // 2,)
            assert np.allclose(unsvec(v, m), y, atol=1e-14)
            assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(y), rel=1e-12)
            z = rand_sym(rng, m, 2.0)
            assert float(svec(y) @ svec(z)) == pytest.approx(
                float(np.trace(y @ z)), rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_unsvec_rows_is_unsvec_per_row(self, m):
        rows = np.random.default_rng(m).standard_normal((7, m * (m + 1) // 2))
        rows[2, 0], rows[3, -1], rows[4, m - 1] = np.nan, -np.inf, -0.0
        want = np.stack([unsvec(r, m) for r in rows])
        assert psdcone._unsvec_rows(rows, m).tobytes() == want.tobytes()


def _stress_rows_2x2(rng: np.random.Generator, n: int) -> np.ndarray:
    """svec rows (a, c, sqrt2 b) of 2 x 2 matrices at the edges of the
    closed-form spectral statistic."""
    rows = rng.standard_normal((n, 3)) * 10.0 ** rng.uniform(-150.0, 150.0, (n, 1))
    k = n // 8
    a, c = rows[:, 0], rows[:, 1]
    part = [slice(i * k, (i + 1) * k) for i in range(7)]
    c[part[0]] = a[part[0]]  # a = c
    c[part[1]] = -a[part[1]]  # a = -c, so a + c = 0
    rows[part[2], 2] = 0.0  # b = 0
    # |b| a few ulps either side of dsterf's split bound sqrt|a| sqrt|c| eps
    s = part[3]
    bound = np.sqrt(np.abs(a[s])) * np.sqrt(np.abs(c[s])) * 2.0**-53
    ulps = rng.integers(-3, 4, k)
    rows[s, 2] = np.sqrt(2.0) * np.sign(rng.standard_normal(k)) * (
        bound * (1.0 + ulps * 2.0**-52))
    # |a - c| = |2 b|, dlae2's tie between its two branches
    s = part[4]
    rows[s, 2] = np.sqrt(2.0) * (a[s] - c[s]) / 2.0
    # an off-diagonal whose square is subnormal or zero next to a normal diagonal
    s = part[5]
    rows[s, 2] = 10.0 ** rng.uniform(-320.0, -150.0, k) * np.sign(rng.standard_normal(k))
    a[s] = np.sign(a[s]) * 10.0 ** rng.uniform(-10.0, 10.0, k)
    # the largest |entry| a few ulps either side of a rescaling limit
    s = part[6]
    limit = np.where(rng.random(k) < 0.5, 2.0**-405, 2.0**485)
    a[s] = np.sign(a[s]) * limit * (1.0 + rng.integers(-2, 3, k) * 2.0**-52)
    rows[s, 1:] = rows[s, 1:] * (limit / np.abs(rows[s, 1:]).max(axis=1))[:, None] * 0.5
    # signed zeros anywhere
    zero = rng.random((n, 3)) < 0.05
    rows[zero] = np.where(rng.random(int(zero.sum())) < 0.5, 0.0, -0.0)
    # non-finite rows
    bad = rng.choice(n, 64, replace=False)
    rows[bad[:32], rng.integers(0, 3, 32)] = np.inf * np.sign(rng.standard_normal(32))
    rows[bad[32:], rng.integers(0, 3, 32)] = np.nan
    return rows


def _numpy_lapack() -> str:
    """The LAPACK numpy was built against, as numpy reports it."""
    try:
        lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    except (TypeError, KeyError):  # numpy before 1.26 has no mode="dicts"
        return "unknown"
    return f"{lapack.get('name')} {lapack.get('version')}"


class TestSpectralStat:
    @staticmethod
    def eigvalsh_max(rows, m):
        # the top eigenvalue of each un-svec'd row by LAPACK, NaN for a
        # non-finite row (_unsvec_rows is unsvec per row, see TestSvec)
        fin = np.isfinite(rows).all(axis=1)
        w = np.linalg.eigvalsh(psdcone._unsvec_rows(np.where(fin[:, None], rows, 0.0), m))
        return np.where(fin, w[:, -1], np.nan)

    def test_m2_closed_form_is_eigvalsh_bit_for_bit(self):
        stat = psdcone.spectral_violation_stat(2)
        n = 0
        for seed in range(4):
            rows = _stress_rows_2x2(np.random.default_rng(seed), 2**18)
            got, want = stat(rows), self.eigvalsh_max(rows, 2)
            bad = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
            # the closed form is reference LAPACK's arithmetic; on another
            # LAPACK a last-bit difference here is a build difference
            assert bad.size == 0, (f"{bad.size} rows differ from eigvalsh on LAPACK "
                                   f"{_numpy_lapack()}", rows[bad[:3]], got[bad[:3]],
                                   want[bad[:3]])
            n += rows.shape[0]
        assert n >= 10**6

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_lapack_calls(self, m, monkeypatch):
        # m = 2 calls eigvalsh only for rows LAPACK would rescale or that are
        # not finite; every other m always calls it
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape[0])
            return eigvalsh(a, *args, **kwargs)

        rows = np.random.default_rng(m).standard_normal((100, m * (m + 1) // 2))
        want = self.eigvalsh_max(rows, m)
        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        stat = psdcone.spectral_violation_stat(m)
        assert stat(rows).tobytes() == want.tobytes()
        assert calls == ([] if m == 2 else [100])
        rows[7] *= 1e-130
        rows[9, 0] = np.nan
        stat(rows)
        assert calls == ([2] if m == 2 else [100, 100])


class TestSpectralStatWorkspace:
    """The m = 2 statistic keeps its intermediate arrays from call to call;
    no call may see another's values, and a repeat call allocates its
    result only."""

    @staticmethod
    def buffers(stat):
        return [stat._floats, stat._bools]

    def test_blocks_of_any_size_match_a_fresh_statistic(self):
        rng = np.random.default_rng(11)
        stat = psdcone.spectral_violation_stat(2)
        kept = []
        for n in (8192, 100, 8192, 1, 8192):
            rows = _stress_rows_2x2(rng, n) if n > 1 else rng.standard_normal((1, 3))
            got = stat(rows)
            assert got.tobytes() == psdcone.spectral_violation_stat(2)(rows).tobytes(), n
            kept.append((got, got.copy()))
        # every returned array is the caller's: later calls leave it as it was
        for got, copy in kept:
            assert got.tobytes() == copy.tobytes()
            assert not any(np.shares_memory(got, buf) for buf in self.buffers(stat))

    def test_two_statistics_share_no_buffer(self):
        rows = _stress_rows_2x2(np.random.default_rng(12), 512)
        one, two = psdcone.spectral_violation_stat(2), psdcone.spectral_violation_stat(2)
        assert one is not two
        one(rows), two(rows)
        for x in self.buffers(one):
            for y in self.buffers(two):
                assert not np.shares_memory(x, y)

    def test_a_repeat_call_allocates_its_result_only(self):
        # an intermediate array freed at the top of the heap can go back to
        # the system and be faulted in again by the next call
        n = 8192
        rows = np.random.default_rng(13).standard_normal((n, 3))
        rows[:4] = [[0.0, 0.0, 0.0], [np.nan, 1.0, 0.0], [1e-200, 0.0, 1e-201], [1.0, 1.0, 0.0]]
        stat = psdcone.spectral_violation_stat(2)
        stat(rows)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = stat(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (n,)
        assert peak - start <= 2 * 8 * n, (peak - start) / (8 * n)


class TestMatrixMc:
    def test_identical_models_zero(self):
        p = matrix_pair(2, gap=np.zeros((2, 2)), x1=0.7 * np.eye(2), x2=0.7 * np.eye(2))
        rep = mc_matrix_comparison(p, 400, 2.0**-6, seed=1)
        assert rep.violation_fraction == 0.0

    def test_psd_gap_zero_violations(self):
        p = matrix_pair(2, gap=np.eye(2), s_scale=0.4)
        rep = mc_matrix_comparison(p, 1000, 2.0**-7, seed=2)
        assert rep.violation_fraction == 0.0

    def test_indefinite_gap_fraction_one(self):
        p = matrix_pair(2, gap=np.diag([1.0, -1.0]), s_scale=0.0,
                        s_off=[[0.3, 0.1], [0.1, 0.2]],
                        x1=0.5 * np.eye(2), x2=0.5 * np.eye(2))
        rep = mc_matrix_comparison(p, 500, 2.0**-7, seed=3)
        assert rep.violation_fraction == 1.0

    def test_m1_matches_vector_engine_semantics(self):
        # a 1x1 matrix problem is the scalar problem in disguise
        p = matrix_pair(1, gap=[[-1.0]], s_scale=0.0, s_off=[[0.0]], b_scale=0.0,
                        x1=[[0.0]], x2=[[0.0]])
        rep = mc_matrix_comparison(p, 100, 2.0**-6, seed=4)
        assert rep.violation_fraction == 1.0


class TestMatrixProblemValidation:
    def test_order_error(self):
        with pytest.raises(OrderError):
            matrix_pair(2, gap=np.zeros((2, 2)), x1=np.zeros((2, 2)), x2=np.eye(2))

    def test_symmetry_enforced(self):
        with pytest.raises(ModelError, match="not symmetric"):
            matrix_pair(2, gap=np.zeros((2, 2)), x1=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_coefficients_preserve_symmetry(self):
        # sample test: symmetric inputs give symmetric outputs
        rng = np.random.default_rng(44)
        marks = MarkMeasure.from_atoms([([1.0], 0.5)])
        model = linear_matrix_model(
            0.4, rand_sym(rng, 3), 0.2, rand_sym(rng, 3),
            jumps=((0.3, rand_sym(rng, 3)),), marks=marks,
        )
        mc = model.coefficients
        for _ in range(30):
            y = rand_sym(rng, 3, 2.0)
            for out in (mc.b(0.0, y), mc.sigma(0.0, y), mc.gamma(0.0, y, 0)):
                assert np.allclose(out, out.T, atol=1e-12)
