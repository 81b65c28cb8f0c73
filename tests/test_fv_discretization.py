"""Unit and property tests for TPFA transmissibility, mobility, coefficients."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import grid_dims
from repro.fv.coefficients import build_flux_coefficients
from repro.fv.mobility import compute_face_mobility
from repro.fv.transmissibility import (
    compute_transmissibility,
    half_transmissibility,
)
from repro.mesh.geomodel import lognormal_permeability
from repro.mesh.grid import CartesianGrid3D, Direction, DIRECTIONS
from repro.util.errors import ValidationError


class TestHalfTransmissibility:
    def test_formula(self):
        g = CartesianGrid3D(2, 2, 2, dx=2.0, dy=3.0, dz=4.0)
        k = np.full(g.shape, 5.0)
        # T = k * A / (dx/2); A_x = dy*dz = 12.
        np.testing.assert_allclose(half_transmissibility(g, k, 0), 5.0 * 12.0 / 1.0)

    def test_shape_mismatch(self):
        g = CartesianGrid3D(2, 2, 2)
        with pytest.raises(ValidationError):
            half_transmissibility(g, np.ones((3, 3, 3)), 0)


class TestTransmissibility:
    def test_homogeneous_value(self):
        """For constant k, Υ = k * A / Δ on every internal face."""
        g = CartesianGrid3D(4, 3, 5, dx=2.0, dy=1.0, dz=0.5)
        k = np.full(g.shape, 10.0)
        t = compute_transmissibility(g, k, dtype=np.float64)
        np.testing.assert_allclose(t.tx, 10.0 * g.face_area(0) / g.dx)
        np.testing.assert_allclose(t.ty, 10.0 * g.face_area(1) / g.dy)
        np.testing.assert_allclose(t.tz, 10.0 * g.face_area(2) / g.dz)

    def test_harmonic_mean_two_cells(self):
        """Two cells with k=2 and k=6 give Υ = (A/Δ) * 2*2*6/(2+6) = 3 A/Δ."""
        g = CartesianGrid3D(2, 1, 1)
        k = np.array([2.0, 6.0]).reshape(2, 1, 1)
        t = compute_transmissibility(g, k, dtype=np.float64)
        assert t.tx[0, 0, 0] == pytest.approx(2 * 2 * 6 / (2 + 6))

    def test_harmonic_dominated_by_small(self):
        """Harmonic averaging: a near-zero-perm cell blocks the face."""
        g = CartesianGrid3D(2, 1, 1)
        k = np.array([1e-6, 1e6]).reshape(2, 1, 1)
        t = compute_transmissibility(g, k, dtype=np.float64)
        assert t.tx[0, 0, 0] < 2.1e-6

    def test_positive_for_positive_perm(self, small_grid):
        perm = lognormal_permeability(small_grid, seed=1)
        t = compute_transmissibility(small_grid, perm)
        assert np.all(t.tx > 0) and np.all(t.ty > 0) and np.all(t.tz > 0)

    def test_rejects_nonpositive_perm(self, small_grid):
        perm = np.ones(small_grid.shape)
        perm[0, 0, 0] = 0.0
        with pytest.raises(ValidationError, match="strictly positive"):
            compute_transmissibility(small_grid, perm)

    def test_face_value_boundary_is_zero(self, small_grid):
        perm = np.ones(small_grid.shape)
        t = compute_transmissibility(small_grid, perm)
        assert t.face_value(0, 0, 0, Direction.WEST) == 0.0
        assert t.face_value(small_grid.nx - 1, 0, 0, Direction.EAST) == 0.0

    @given(grid_dims)
    def test_face_value_symmetric(self, dims):
        """Υ seen from K towards L equals Υ seen from L towards K."""
        g = CartesianGrid3D(*dims)
        perm = lognormal_permeability(g, seed=3)
        t = compute_transmissibility(g, perm)
        x, y, z = dims[0] // 2, dims[1] // 2, dims[2] // 2
        for d in DIRECTIONS:
            n = g.neighbor(x, y, z, d)
            if n is None:
                continue
            assert t.face_value(x, y, z, d) == pytest.approx(
                t.face_value(*n, d.opposite)
            )

    def test_cell_view_matches_face_value(self, small_grid):
        perm = lognormal_permeability(small_grid, seed=9)
        t = compute_transmissibility(small_grid, perm)
        for d in DIRECTIONS:
            view = t.cell_view(d)
            assert view.shape == small_grid.shape
            for cell in [(0, 0, 0), (2, 3, 1), (5, 4, 3)]:
                assert view[cell] == pytest.approx(t.face_value(*cell, d))


class TestMobility:
    def test_scalar_mobility_faces(self, small_grid):
        m = compute_face_mobility(small_grid, 0.25)
        assert np.all(m.mx == 0.25)
        assert np.all(m.my == 0.25)
        assert np.all(m.mz == 0.25)

    def test_arithmetic_average(self):
        g = CartesianGrid3D(2, 1, 1)
        lam = np.array([1.0, 3.0]).reshape(2, 1, 1)
        m = compute_face_mobility(g, lam, dtype=np.float64)
        assert m.mx[0, 0, 0] == pytest.approx(2.0)

    def test_rejects_negative_mobility(self, small_grid):
        lam = np.full(small_grid.shape, -1.0)
        with pytest.raises(ValidationError):
            compute_face_mobility(small_grid, lam)

    def test_face_value_boundary_zero(self, small_grid):
        m = compute_face_mobility(small_grid, 1.0)
        assert m.face_value(0, 0, 0, Direction.WEST) == 0.0


class TestFluxCoefficients:
    def test_diagonal_is_row_sum(self, small_grid):
        """D_K must equal the sum of the six per-cell face coefficients."""
        perm = lognormal_permeability(small_grid, seed=11)
        coeffs = build_flux_coefficients(small_grid, perm, viscosity=2.0)
        total = np.zeros(small_grid.shape, dtype=np.float64)
        for d in DIRECTIONS:
            total += coeffs.cell_view(d)
        np.testing.assert_allclose(coeffs.diagonal, total, rtol=1e-5)

    def test_viscosity_scales_inverse(self, small_grid):
        perm = lognormal_permeability(small_grid, seed=2)
        c1 = build_flux_coefficients(small_grid, perm, viscosity=1.0, dtype=np.float64)
        c2 = build_flux_coefficients(small_grid, perm, viscosity=4.0, dtype=np.float64)
        np.testing.assert_allclose(c1.cx, 4.0 * c2.cx, rtol=1e-12)

    def test_mobility_override(self, small_grid):
        perm = np.ones(small_grid.shape)
        mob = np.full(small_grid.shape, 3.0)
        c = build_flux_coefficients(small_grid, perm, mobility=mob, dtype=np.float64)
        c_ref = build_flux_coefficients(
            small_grid, perm, viscosity=1.0 / 3.0, dtype=np.float64
        )
        np.testing.assert_allclose(c.cx, c_ref.cx, rtol=1e-12)

    def test_face_value_zero_at_boundary(self, small_grid):
        perm = np.ones(small_grid.shape)
        coeffs = build_flux_coefficients(small_grid, perm)
        assert coeffs.face_value(0, 0, 0, Direction.SOUTH) == 0.0
        assert coeffs.face_value(0, 0, 0, Direction.DOWN) == 0.0
