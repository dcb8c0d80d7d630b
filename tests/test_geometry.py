"""Geometry of the orthant-times-free constraint set."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from jumpcompare.geometry import (
    ConePoint,
    dist2_K,
    grad_dist2_K,
    project_onto_K,
)


def cone(x1, x2):
    return ConePoint(x1=np.asarray(x1, dtype=float), x2=np.asarray(x2, dtype=float))


class TestProjection:
    def test_negative_first_block(self):
        p = project_onto_K(cone([-1.0], [3.0]))
        assert np.array_equal(p.x1, [0.0])
        assert np.array_equal(p.x2, [3.0])

    def test_identity_on_K(self):
        x = cone([2.0, 0.5], [1.0, -1.0])
        p = project_onto_K(x)
        assert np.array_equal(p.x1, x.x1)
        assert np.array_equal(p.x2, x.x2)

    def test_componentwise(self):
        p = project_onto_K(cone([-2.0, 5.0], [1.0, -1.0]))
        assert np.array_equal(p.x1, [0.0, 5.0])
        assert np.array_equal(p.x2, [1.0, -1.0])

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = int(rng.integers(1, 4))
            x = cone(rng.uniform(-5, 5, m), rng.uniform(-5, 5, m))
            p1 = project_onto_K(x)
            p2 = project_onto_K(p1)
            assert np.array_equal(p1.x1, p2.x1) and np.array_equal(p1.x2, p2.x2)


class TestDist2:
    def test_single_negative(self):
        assert dist2_K(cone([-2.0, 1.0], [9.0, -3.0])) == 4.0

    def test_zero_on_K(self):
        assert dist2_K(cone([0.0, 3.0], [-1.0, 2.0])) == 0.0

    def test_grid_oracle(self):
        # brute-force min over a dense grid of K-points around the query
        x = cone([-3.0, -4.0], [0.5, -0.5])
        grid = np.linspace(0.0, 8.0, 81)  # first block candidates, >= 0
        best = np.inf
        for a in grid:
            for b in grid:
                k1 = np.array([a, b])
                best = min(best, float(np.sum((x.x1 - k1) ** 2)))  # x2 block free
        assert best == pytest.approx(25.0, abs=1e-12)
        assert dist2_K(x) == pytest.approx(best, abs=1e-12)

    def test_equals_projection_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            m = int(rng.integers(1, 4))
            x = cone(rng.uniform(-4, 4, m), rng.uniform(-4, 4, m))
            p = project_onto_K(x)
            resid = np.sum((x.x1 - p.x1) ** 2) + np.sum((x.x2 - p.x2) ** 2)
            assert dist2_K(x) == pytest.approx(resid, abs=1e-12)

    def test_nearest_point_property(self):
        # dist2 never beats any of 10^3 K-points for each of 10^3 random x,
        # and the projection witnesses equality
        rng = np.random.default_rng(13)
        for _ in range(1000):
            m = int(rng.integers(1, 4))
            x = cone(rng.uniform(-3, 3, m), rng.uniform(-3, 3, m))
            d2 = dist2_K(x)
            k1 = rng.uniform(0, 4, (1000, m))
            k2 = rng.uniform(-4, 4, (1000, m))
            dk = np.sum((x.x1 - k1) ** 2, axis=1) + np.sum((x.x2 - k2) ** 2, axis=1)
            assert d2 <= float(dk.min()) + 1e-12
            p = project_onto_K(x)
            dp = np.sum((x.x1 - p.x1) ** 2) + np.sum((x.x2 - p.x2) ** 2)
            assert d2 == pytest.approx(dp, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-10, 10), min_size=1, max_size=4))
    def test_nonnegative(self, vals):
        m = len(vals)
        x = cone(vals, np.zeros(m))
        assert dist2_K(x) >= 0.0


class TestGrad:
    def test_closed_form(self):
        g = grad_dist2_K(cone([-2.0, 1.0], [0.0, 0.0]))
        assert np.array_equal(g, [-4.0, 0.0, 0.0, 0.0])

    def test_zero_in_interior(self):
        g = grad_dist2_K(cone([1.0, 2.0], [5.0, -5.0]))
        assert np.array_equal(g, np.zeros(4))

    def test_matches_central_fd(self):
        x = cone([-3.0, 2.0], [1.0, -1.0])
        g = grad_dist2_K(x)
        step = 1e-5
        z = x.to_vector()
        for i in range(4):
            e = np.zeros(4)
            e[i] = step
            fd = (
                dist2_K(ConePoint.from_vector(z + e)) - dist2_K(ConePoint.from_vector(z - e))
            ) / (2 * step)
            assert g[i] == pytest.approx(fd, abs=1e-8)


def grad_fd_jacobian(x, step=1e-6, side=0):
    """Finite-difference Jacobian of grad_dist2_K: central (side 0) or one-sided (+1/-1)."""
    z = x.to_vector()
    n = z.shape[0]
    jac = np.zeros((n, n))
    lo, hi = (-1, 1) if side == 0 else (0, side)
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        g_hi = grad_dist2_K(ConePoint.from_vector(z + hi * e))
        g_lo = grad_dist2_K(ConePoint.from_vector(z + lo * e))
        jac[:, j] = (g_hi - g_lo) / ((hi - lo) * step)
    return jac


class TestHess:
    """The a.e. Hessian of dist2_K, read off the derivative of grad_dist2_K."""

    def test_interior_of_K(self):
        h = grad_fd_jacobian(cone([1.0, 2.0], [0.0, 0.0]))
        assert np.allclose(h, np.zeros((4, 4)), atol=1e-9)

    def test_negative_coordinate(self):
        h = grad_fd_jacobian(cone([-1.0], [0.0]))
        assert np.allclose(h, np.diag([2.0, 0.0]), atol=1e-6)

    def test_boundary_flag(self):
        # At x1_0 = 0 the Hessian does not exist: the one-sided curvatures
        # along that coordinate differ (0 from inside K, 2 from outside),
        # while the coordinate x1_1 < 0 has curvature 2 from either side.
        x = cone([0.0, -1.0], [0.0, 0.0])
        inside = grad_fd_jacobian(x, side=1)
        outside = grad_fd_jacobian(x, side=-1)
        assert np.allclose(inside, np.diag([0.0, 2.0, 0.0, 0.0]), atol=1e-6)
        assert np.allclose(outside, np.diag([2.0, 2.0, 0.0, 0.0]), atol=1e-6)

    def test_second_block_always_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            x1 = rng.uniform(-2, 2, m)
            x1[np.abs(x1) < 1e-3] = 0.5
            h = grad_fd_jacobian(cone(x1, rng.uniform(-2, 2, m)))
            assert np.allclose(h[:, m:], 0.0, atol=1e-9)
            assert np.allclose(h[m:, :], 0.0, atol=1e-9)
            assert np.allclose(h, np.diag(np.diag(h)), atol=1e-9)
            assert np.allclose(np.diag(h)[:m], np.where(x1 < 0.0, 2.0, 0.0), atol=1e-6)


class TestConePoint:
    def test_pack_round_trip(self):
        z = np.array([1.0, -2.0, 3.0, 4.0])
        x = ConePoint.from_vector(z)
        assert np.array_equal(x.to_vector(), z)

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            ConePoint.from_vector(np.array([1.0, 2.0, 3.0]))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            cone([np.nan], [0.0])
