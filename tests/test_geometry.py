"""Geometry of the orthant {x >= 0} as the pointwise inequality uses it."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpcompare.geometry import Orthant


def proj(x):
    return Orthant.point(x).plus


def grad(x):
    return -2.0 * Orthant.point(x).minus


class TestProjection:
    def test_negative_coordinate(self):
        assert np.array_equal(proj([-1.0]), [0.0])

    def test_identity_on_K(self):
        x = np.array([2.0, 0.5, 0.0])
        assert np.array_equal(proj(x), x)

    def test_componentwise(self):
        assert np.array_equal(proj([-2.0, 5.0]), [0.0, 5.0])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p1 = proj(rng.uniform(-5, 5, int(rng.integers(1, 5))))
            assert np.array_equal(proj(p1), p1)


class TestDist2:
    def test_single_negative(self):
        assert Orthant.dist2(np.array([-2.0, 1.0])) == 4.0
        assert Orthant.point([-2.0, 1.0]).dist2 == 4.0

    def test_zero_on_K(self):
        assert Orthant.point([0.0, 3.0]).dist2 == 0.0

    def test_grid_oracle(self):
        # brute-force min over a dense grid of cone points around the query
        x = np.array([-3.0, -4.0])
        grid = np.linspace(0.0, 8.0, 81)
        best = min(float(np.sum((x - [a, b]) ** 2)) for a in grid for b in grid)
        assert best == pytest.approx(25.0, abs=1e-12)
        assert Orthant.point(x).dist2 == pytest.approx(best, abs=1e-12)

    def test_equals_projection_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            x = rng.uniform(-4, 4, int(rng.integers(1, 5)))
            pt = Orthant.point(x)
            resid = float(np.sum((x - pt.plus) ** 2))
            assert pt.dist2 == pytest.approx(resid, abs=1e-12)
            assert Orthant.dist2(x) == pt.dist2

    def test_nearest_point_property(self):
        # dist2 never beats any of 10^3 cone points for each of 10^3 random x
        rng = np.random.default_rng(13)
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            x = rng.uniform(-3, 3, m)
            k = rng.uniform(0, 4, (1000, m))
            assert Orthant.point(x).dist2 <= float(np.sum((x - k) ** 2, axis=1).min()) + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=4))
    def test_nonnegative(self, vals):
        assert Orthant.point(vals).dist2 >= 0.0


class TestGrad:
    def test_closed_form(self):
        assert np.array_equal(grad([-2.0, 1.0]), [-4.0, 0.0])

    def test_zero_in_interior(self):
        assert np.array_equal(grad([1.0, 2.0]), np.zeros(2))

    def test_matches_central_fd(self):
        x = np.array([-3.0, 2.0, -0.5])
        step = 1e-5
        for i, e in enumerate(step * np.eye(3)):
            fd = (Orthant.dist2(x + e) - Orthant.dist2(x - e)) / (2 * step)
            assert grad(x)[i] == pytest.approx(fd, abs=1e-8)

    def test_pairs_with_inner_product(self):
        # the drift term -2 <x^-, b> is <grad dist2, b>
        x, b = np.array([-1.5, 0.3]), np.array([0.7, -2.0])
        assert Orthant.inner(grad(x), b) == -2.0 * Orthant.inner(Orthant.point(x).minus, b)


def grad_fd_jacobian(x, step=1e-6, side=0):
    """Finite-difference Jacobian of the gradient: central (side 0) or
    one-sided (+1/-1)."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    jac = np.zeros((n, n))
    lo, hi = (-1, 1) if side == 0 else (0, side)
    for j, e in enumerate(step * np.eye(n)):
        jac[:, j] = (grad(x + hi * e) - grad(x + lo * e)) / ((hi - lo) * step)
    return jac


class TestHess:
    """The a.e. Hessian of dist2, read off the derivative of the gradient,
    against the half quadratic form the generator uses."""

    def test_interior_of_K(self):
        assert np.allclose(grad_fd_jacobian([1.0, 2.0]), 0.0, atol=1e-9)
        assert Orthant.point([1.0, 2.0]).half_hess(np.eye(2)) == 0.0

    def test_negative_coordinate(self):
        assert np.allclose(grad_fd_jacobian([-1.0]), [[2.0]], atol=1e-6)
        assert Orthant.point([-1.0]).half_hess(np.array([[3.0]])) == 9.0

    def test_boundary_flag(self):
        # At x_0 = 0 the Hessian does not exist: the one-sided curvatures
        # along that coordinate differ (0 from inside the cone, 2 from
        # outside), while x_1 < 0 has curvature 2 from either side.  The
        # half form takes the inside value and the point is not degenerate.
        x = [0.0, -1.0]
        assert np.allclose(grad_fd_jacobian(x, side=1), np.diag([0.0, 2.0]), atol=1e-6)
        assert np.allclose(grad_fd_jacobian(x, side=-1), np.diag([2.0, 2.0]), atol=1e-6)
        pt = Orthant.point(x)
        assert pt.half_hess(np.eye(2)) == 1.0
        assert not pt.degenerate

    def test_half_form_matches_fd_hessian(self):
        # half_hess(H) = 1/2 sum over columns h of H of h^T Hess h
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            x = rng.uniform(-2, 2, m)
            x[np.abs(x) < 1e-3] = 0.5
            hess = grad_fd_jacobian(x)
            assert np.allclose(hess, np.diag(np.where(x < 0.0, 2.0, 0.0)), atol=1e-6)
            H = rng.uniform(-1, 1, (m, int(rng.integers(1, 3))))
            fd = 0.5 * float(np.sum(H * (hess @ H)))
            assert Orthant.point(x).half_hess(H) == pytest.approx(fd, abs=1e-6)
