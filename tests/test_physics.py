"""Tests for the Darcy problem container, analytic solutions and Newton."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import make_problem, solvable_grid_dims
import repro
from repro import api
from repro.mesh.boundary import DirichletSet
from repro.mesh.geomodel import lognormal_permeability
from repro.mesh.grid import CartesianGrid3D
from repro.mesh.wells import quarter_five_spot
from repro.physics.analytic import (
    analytic_two_plane_solution,
    linear_pressure_profile,
)
from repro.physics.darcy import build_problem
from repro.physics.simulation import newton_solve
from repro.util.errors import ConfigurationError, ValidationError


class TestBuildProblem:
    def test_scalar_permeability(self, small_grid):
        _, d = quarter_five_spot(small_grid)
        p = build_problem(small_grid, 10.0, d)
        assert np.all(p.permeability == 10.0)
        assert p.coefficients.grid is small_grid

    def test_rejects_empty_dirichlet(self, small_grid):
        with pytest.raises(ConfigurationError, match="singular"):
            build_problem(small_grid, 1.0, DirichletSet(small_grid))

    def test_rejects_foreign_dirichlet(self, small_grid, tiny_grid):
        d = DirichletSet(tiny_grid).set_cell(0, 0, 0, 1.0)
        with pytest.raises(ConfigurationError, match="different grid"):
            build_problem(small_grid, 1.0, d)

    def test_rejects_bad_viscosity(self, small_grid):
        _, d = quarter_five_spot(small_grid)
        with pytest.raises(ValidationError):
            build_problem(small_grid, 1.0, d, viscosity=0.0)

    def test_initial_pressure_honours_dirichlet(self, small_problem):
        p0 = small_problem.initial_pressure(fill=0.5)
        mask = small_problem.dirichlet.mask
        np.testing.assert_array_equal(
            p0[mask], small_problem.dirichlet.values[mask]
        )
        assert np.all(p0[~mask] == 0.5)

    def test_initial_residual_vanishes_on_dirichlet(self, small_problem):
        """The invariant the dataflow kernel relies on (§III)."""
        p0 = small_problem.initial_pressure()
        r = small_problem.residual(p0)
        np.testing.assert_allclose(r[small_problem.dirichlet.mask], 0.0, atol=1e-6)


class TestAnalytic:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_linear_profile_endpoints(self, axis):
        g = CartesianGrid3D(5, 6, 7)
        prof = linear_pressure_profile(g, axis, 2.0, -3.0)
        first = [slice(None)] * 3
        last = [slice(None)] * 3
        first[axis] = 0
        last[axis] = g.shape[axis] - 1
        assert np.all(prof[tuple(first)] == 2.0)
        assert np.all(prof[tuple(last)] == -3.0)

    def test_single_cell_axis(self):
        g = CartesianGrid3D(1, 4, 4)
        prof = linear_pressure_profile(g, 0, 5.0, 9.0)
        assert np.all(prof == 5.0)

    def test_two_plane_requires_two_cells(self):
        g = CartesianGrid3D(1, 4, 4)
        with pytest.raises(ConfigurationError):
            analytic_two_plane_solution(g, 0, 1.0, 0.0)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_solver_reproduces_linear_solution(self, axis):
        """TPFA is exact for linear fields: solver must match analytically."""
        g = CartesianGrid3D(7, 6, 5, dx=1.3, dy=0.7, dz=2.0)
        dirichlet, exact = analytic_two_plane_solution(g, axis, 1.0, -1.0)
        problem = build_problem(g, 25.0, dirichlet)
        report = newton_solve(problem)
        np.testing.assert_allclose(report.pressure, exact, atol=1e-6)

    def test_heterogeneous_layers_orthogonal_to_flow_keep_linearity(self):
        """Permeability varying only along Y doesn't disturb an X-linear
        solution (fluxes along Y vanish)."""
        g = CartesianGrid3D(8, 5, 3)
        perm = np.ones(g.shape)
        perm *= np.linspace(1.0, 10.0, g.ny).reshape(1, -1, 1)
        dirichlet, exact = analytic_two_plane_solution(g, 0, 0.0, 1.0)
        problem = build_problem(g, perm, dirichlet)
        report = newton_solve(problem)
        np.testing.assert_allclose(report.pressure, exact, atol=1e-6)


class TestNewton:
    def test_converges_in_one_step_linear_problem(self, small_problem):
        report = newton_solve(small_problem)
        assert report.newton_iterations == 1
        assert len(report.linear_results) == 1
        assert report.residual_norms[-1] < 1e-10 * report.residual_norms[0]

    def test_exact_initial_guess_skips_linear_solve(self, small_problem):
        first = newton_solve(small_problem)
        report = newton_solve(small_problem, initial_pressure=first.pressure)
        assert report.newton_iterations == 0
        assert report.total_linear_iterations == 0

    def test_solution_bounded_by_dirichlet_values(self, small_problem):
        """Discrete maximum principle: pressure lies within well pressures."""
        report = newton_solve(small_problem)
        assert report.pressure.min() >= -1e-6
        assert report.pressure.max() <= 1.0 + 1e-6

    @given(solvable_grid_dims, st.integers(0, 3))
    def test_solution_matches_direct_solve(self, dims, seed):
        from repro.fv.assembly import assemble_jacobian
        from repro.solvers.baseline import dense_direct_solve

        problem = make_problem(*dims, seed=seed)
        report = newton_solve(problem)
        J = assemble_jacobian(problem.coefficients, problem.dirichlet)
        b = np.zeros(problem.grid.num_cells)
        mask_flat = problem.dirichlet.mask.reshape(-1)
        b[mask_flat] = problem.dirichlet.values.reshape(-1)[mask_flat]
        direct = dense_direct_solve(J, b).reshape(problem.grid.shape)
        np.testing.assert_allclose(report.pressure, direct, rtol=1e-4, atol=1e-7)

    def test_float32_mode(self, small_problem):
        report = newton_solve(small_problem, dtype=np.float32)
        assert report.pressure.dtype == np.float32
        assert report.newton_iterations >= 1

    def test_report_counts(self, small_problem):
        report = newton_solve(small_problem)
        assert report.total_linear_iterations == sum(
            r.iterations for r in report.linear_results
        )


class TestApi:
    def test_quarter_five_spot_problem(self):
        p = api.quarter_five_spot_problem(8, 7, 3)
        assert p.grid.shape == (8, 7, 3)
        assert p.dirichlet.num_dirichlet == 2 * 3

    def test_quickstart_docstring_flow(self):
        problem = api.quarter_five_spot_problem(nx=12, ny=12, nz=4)
        report = repro.solve(problem)
        assert report.pressure.shape == (12, 12, 4)

    def test_custom_permeability_array(self):
        grid_shape = (6, 6, 2)
        perm = np.full(grid_shape, 5.0, dtype=np.float32)
        p = api.quarter_five_spot_problem(*grid_shape, permeability=perm)
        np.testing.assert_array_equal(p.permeability, perm)

    def test_injection_production_pressures(self):
        p = api.quarter_five_spot_problem(
            6, 6, 2, injection_pressure=10.0, production_pressure=2.0
        )
        report = repro.solve(p)
        assert report.pressure.max() == pytest.approx(10.0, abs=1e-4)
        assert report.pressure.min() == pytest.approx(2.0, abs=1e-4)
