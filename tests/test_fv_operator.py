"""Property tests for the matrix-free operator (Eq. 6) vs. the assembled J.

These are the core numerical-integrity tests: the matrix-free application
must agree exactly with the assembled sparse matrix, must be SPD on the
Dirichlet-vanishing subspace, and must preserve the Dirichlet-residual
invariant the dataflow implementation relies on.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_problem, solvable_grid_dims
from repro.fv.assembly import (
    assemble_jacobian,
    assembled_matrix_bytes,
    eliminate_dirichlet,
)
from repro.fv.coefficients import FluxCoefficients, build_flux_coefficients
from repro.fv.operator import MatrixFreeOperator, apply_jx, operator_diagonal
from repro.fv.residual import compute_residual
from repro.mesh.boundary import DirichletSet
from repro.mesh.geomodel import lognormal_permeability
from repro.mesh.grid import CartesianGrid3D
from repro.util.errors import ValidationError


def _coeffs64(problem):
    c = problem.coefficients
    return FluxCoefficients(
        c.grid,
        c.cx.astype(np.float64),
        c.cy.astype(np.float64),
        c.cz.astype(np.float64),
        c.diagonal.astype(np.float64),
    )


class TestOperatorEqualsMatrix:
    @given(solvable_grid_dims, st.integers(0, 5))
    def test_matrix_free_equals_assembled(self, dims, seed):
        problem = make_problem(*dims, seed=seed)
        coeffs = _coeffs64(problem)
        J = assemble_jacobian(coeffs, problem.dirichlet)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(problem.grid.shape)
        lhs = (J @ x.reshape(-1)).reshape(problem.grid.shape)
        rhs = apply_jx(coeffs, problem.dirichlet, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_no_dirichlet_variant(self, small_problem, rng):
        coeffs = _coeffs64(small_problem)
        J = assemble_jacobian(coeffs, None)
        x = rng.standard_normal(small_problem.grid.shape)
        lhs = (J @ x.reshape(-1)).reshape(small_problem.grid.shape)
        rhs = apply_jx(coeffs, None, x)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_out_parameter_reused(self, small_problem, rng):
        coeffs = _coeffs64(small_problem)
        x = rng.standard_normal(small_problem.grid.shape)
        out = np.empty_like(x)
        result = apply_jx(coeffs, small_problem.dirichlet, x, out=out)
        assert result is out

    def test_shape_validation(self, small_problem):
        with pytest.raises(ValidationError):
            apply_jx(small_problem.coefficients, None, np.zeros((2, 2, 2)))
        x = np.zeros(small_problem.grid.shape)
        with pytest.raises(ValidationError):
            apply_jx(small_problem.coefficients, None, x, out=np.zeros((1, 1, 1)))


class TestOperatorStructure:
    def test_dirichlet_rows_are_identity(self, small_problem, rng):
        x = rng.standard_normal(small_problem.grid.shape)
        y = apply_jx(_coeffs64(small_problem), small_problem.dirichlet, x)
        mask = small_problem.dirichlet.mask
        np.testing.assert_array_equal(y[mask], x[mask])

    def test_constant_field_in_nullspace_without_dirichlet(self, small_problem):
        """Row sums are zero for the pure-Neumann operator (flux of a
        constant field vanishes).  Built in float64 end-to-end: the fp32
        coefficient path rounds the diagonal, so exact cancellation is a
        float64 property."""
        coeffs = build_flux_coefficients(
            small_problem.grid,
            small_problem.permeability.astype(np.float64),
            viscosity=small_problem.viscosity,
            dtype=np.float64,
        )
        ones = np.ones(small_problem.grid.shape)
        y = apply_jx(coeffs, None, ones)
        np.testing.assert_allclose(y, 0.0, atol=1e-9)

    @given(solvable_grid_dims, st.integers(0, 3))
    def test_symmetry_on_dirichlet_vanishing_subspace(self, dims, seed):
        """<Ju, v> == <u, Jv> whenever u and v vanish on T_D."""
        problem = make_problem(*dims, seed=seed)
        coeffs = _coeffs64(problem)
        rng = np.random.default_rng(seed + 100)
        u = rng.standard_normal(problem.grid.shape)
        v = rng.standard_normal(problem.grid.shape)
        u[problem.dirichlet.mask] = 0.0
        v[problem.dirichlet.mask] = 0.0
        Ju = apply_jx(coeffs, problem.dirichlet, u)
        Jv = apply_jx(coeffs, problem.dirichlet, v)
        assert np.vdot(Ju, v) == pytest.approx(np.vdot(u, Jv), rel=1e-9, abs=1e-9)

    @given(solvable_grid_dims, st.integers(0, 3))
    def test_positive_definite_on_subspace(self, dims, seed):
        """<Ju, u> > 0 for nonzero u vanishing on T_D (the SPD claim)."""
        problem = make_problem(*dims, seed=seed)
        coeffs = _coeffs64(problem)
        rng = np.random.default_rng(seed + 7)
        u = rng.standard_normal(problem.grid.shape)
        u[problem.dirichlet.mask] = 0.0
        if np.allclose(u, 0):
            return
        Ju = apply_jx(coeffs, problem.dirichlet, u)
        assert float(np.vdot(Ju, u)) > 0

    def test_reduced_matrix_is_symmetric(self, small_problem):
        coeffs = _coeffs64(small_problem)
        J = assemble_jacobian(coeffs, small_problem.dirichlet)
        rhs = np.zeros(small_problem.grid.num_cells)
        J_ii, _, interior = eliminate_dirichlet(J, small_problem.dirichlet, rhs)
        asym = (J_ii - J_ii.T).toarray()
        assert np.abs(asym).max() < 1e-12
        assert interior.size == small_problem.grid.num_cells - (
            small_problem.dirichlet.num_dirichlet
        )

    def test_reduced_matrix_is_positive_definite(self, small_problem):
        coeffs = _coeffs64(small_problem)
        J = assemble_jacobian(coeffs, small_problem.dirichlet)
        rhs = np.zeros(small_problem.grid.num_cells)
        J_ii, _, _ = eliminate_dirichlet(J, small_problem.dirichlet, rhs)
        eigvals = np.linalg.eigvalsh(J_ii.toarray())
        assert eigvals.min() > 0

    def test_operator_counts_applications(self, small_problem, rng):
        op = MatrixFreeOperator(small_problem.coefficients, small_problem.dirichlet)
        x = rng.standard_normal(small_problem.grid.shape).astype(np.float32)
        op(x)
        op(x)
        assert op.num_applications == 2

    def test_linear_operator_view(self, small_problem, rng):
        op = MatrixFreeOperator(_coeffs64(small_problem), small_problem.dirichlet)
        lin = op.as_linear_operator()
        x = rng.standard_normal(small_problem.grid.num_cells)
        y1 = lin @ x
        y2 = apply_jx(
            _coeffs64(small_problem),
            small_problem.dirichlet,
            x.reshape(small_problem.grid.shape),
        ).reshape(-1)
        np.testing.assert_allclose(y1, y2, rtol=1e-12)

    def test_operator_diagonal(self, small_problem):
        """The Jacobi diagonal: identity on the Dirichlet rows, positive
        everywhere."""
        diag = operator_diagonal(small_problem.coefficients, small_problem.dirichlet)
        np.testing.assert_array_equal(diag[small_problem.dirichlet.mask], 1.0)
        assert np.all(diag > 0)


class TestResidual:
    def test_residual_zero_at_exact_solution(self, small_problem):
        """r(p*) = 0 where p* solves the system (via dense direct solve)."""
        coeffs = _coeffs64(small_problem)
        J = assemble_jacobian(coeffs, small_problem.dirichlet)
        b = np.zeros(small_problem.grid.num_cells)
        mask_flat = small_problem.dirichlet.mask.reshape(-1)
        b[mask_flat] = small_problem.dirichlet.values.reshape(-1)[mask_flat]
        p_star = np.linalg.solve(J.toarray(), b).reshape(small_problem.grid.shape)
        r = compute_residual(coeffs, small_problem.dirichlet, p_star)
        assert np.abs(r).max() < 1e-8

    def test_dirichlet_rows_measure_violation(self, small_problem):
        p = np.zeros(small_problem.grid.shape)
        r = compute_residual(_coeffs64(small_problem), small_problem.dirichlet, p)
        mask = small_problem.dirichlet.mask
        np.testing.assert_allclose(
            r[mask], -small_problem.dirichlet.values[mask], rtol=1e-6
        )

    def test_residual_is_linear_shift_of_jx(self, small_problem, rng):
        """r(p) == J p on interior rows; Dirichlet rows differ by p^D."""
        coeffs = _coeffs64(small_problem)
        p = rng.standard_normal(small_problem.grid.shape)
        r = compute_residual(coeffs, small_problem.dirichlet, p)
        jp = apply_jx(coeffs, small_problem.dirichlet, p)
        interior = ~small_problem.dirichlet.mask
        np.testing.assert_allclose(r[interior], jp[interior], rtol=1e-12)
        mask = small_problem.dirichlet.mask
        np.testing.assert_allclose(
            (jp - r)[mask], small_problem.dirichlet.values[mask], rtol=1e-6
        )

    def test_residual_shape_validation(self, small_problem):
        with pytest.raises(ValidationError):
            compute_residual(
                small_problem.coefficients, small_problem.dirichlet, np.zeros((1, 1, 1))
            )


class TestAssemblyFootprint:
    def test_matrix_free_is_smaller(self, small_problem):
        """The ablation claim: matrix-free storage (6 coefficients + diag)
        beats CSR storage of J."""
        J = assemble_jacobian(small_problem.coefficients, small_problem.dirichlet)
        csr_bytes = assembled_matrix_bytes(J)
        c = small_problem.coefficients
        mf_bytes = c.cx.nbytes + c.cy.nbytes + c.cz.nbytes + c.diagonal.nbytes
        assert mf_bytes < csr_bytes

    def test_csr_dtype(self, small_problem):
        J = assemble_jacobian(
            small_problem.coefficients, small_problem.dirichlet, dtype=np.float32
        )
        assert J.dtype == np.float32
