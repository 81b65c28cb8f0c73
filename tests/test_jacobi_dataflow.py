"""Tests for the Jacobi-scaled dataflow CG (the fabric-local extension)."""

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro import api
from repro.core.solver import WseMatrixFreeSolver
from repro.mesh.geomodel import lognormal_permeability
from repro.mesh.grid import CartesianGrid3D
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(32, 32)
#: The Jacobi extension's claims (PE-local scaling, no extra traffic, two
#: extra columns per PE) are checked on the per-PE event oracle.
ORACLE = dict(spec=SPEC, engine="event")


def _hard_problem():
    """Strong lognormal heterogeneity: badly scaled diagonal."""
    grid = CartesianGrid3D(6, 5, 3)
    perm = lognormal_permeability(grid, seed=21, sigma_log=2.5)
    return api.quarter_five_spot_problem(6, 5, 3, permeability=perm)


class TestJacobiDataflow:
    def test_same_solution_as_plain(self):
        problem = make_problem(5, 4, 3, seed=9)
        ref = repro.solve(problem)
        report = WseMatrixFreeSolver(
            problem, **ORACLE, dtype=np.float64, rel_tol=1e-9,
            max_iters=3000, preconditioner="jacobi",
        ).solve()
        assert report.converged
        np.testing.assert_allclose(report.pressure, ref.pressure, atol=2e-6)

    def test_cuts_iterations_on_badly_scaled_problem(self):
        problem = _hard_problem()
        plain = WseMatrixFreeSolver(
            problem, **ORACLE, dtype=np.float64, rel_tol=1e-8, max_iters=5000
        ).solve()
        pcg = WseMatrixFreeSolver(
            problem, **ORACLE, dtype=np.float64, rel_tol=1e-8,
            max_iters=5000, preconditioner="jacobi",
        ).solve()
        assert plain.converged and pcg.converged
        assert pcg.iterations < plain.iterations / 2

    def test_no_extra_communication(self):
        """Jacobi scaling is purely local: per-iteration message counts
        match plain CG exactly."""
        problem = make_problem(4, 4, 3, seed=10)
        iters = 4
        plain = WseMatrixFreeSolver(
            problem, **ORACLE, dtype=np.float32, fixed_iterations=iters
        ).solve()
        pcg = WseMatrixFreeSolver(
            problem, **ORACLE, dtype=np.float32, fixed_iterations=iters,
            preconditioner="jacobi",
        ).solve()
        assert pcg.trace.total_messages == plain.trace.total_messages
        assert pcg.trace.total_wavelets == plain.trace.total_wavelets

    def test_extra_flops_are_local_scaling_only(self):
        """PCG adds one FMUL column (z = inv_diag * r) and swaps the dot
        operand; FLOP overhead per iteration is ~nz per PE."""
        problem = make_problem(4, 4, 4, seed=11)
        iters = 3
        plain = WseMatrixFreeSolver(
            problem, **ORACLE, dtype=np.float32, fixed_iterations=iters
        ).solve()
        pcg = WseMatrixFreeSolver(
            problem, **ORACLE, dtype=np.float32, fixed_iterations=iters,
            preconditioner="jacobi",
        ).solve()
        extra = pcg.counters.flops - plain.counters.flops
        num_pes = 16
        nz = 4
        # One fmuls per PE per (iters + init) rounds.
        assert extra == num_pes * nz * (iters + 1)

    def test_memory_overhead_two_columns(self):
        problem = make_problem(4, 4, 8, seed=12)
        plain = WseMatrixFreeSolver(problem, **ORACLE, fixed_iterations=1)
        pcg = WseMatrixFreeSolver(
            problem, **ORACLE, fixed_iterations=1, preconditioner="jacobi"
        )
        diff = (
            pcg.fabric.pe(1, 1).memory.used_bytes
            - plain.fabric.pe(1, 1).memory.used_bytes
        )
        assert diff == 2 * 8 * 4  # z + inv_diag columns, fp32

    def test_fp32_jacobi(self):
        problem = _hard_problem()
        ref = repro.solve(problem)
        report = WseMatrixFreeSolver(
            problem, **ORACLE, dtype=np.float32, rel_tol=1e-5,
            max_iters=5000, preconditioner="jacobi",
        ).solve()
        assert report.converged
        np.testing.assert_allclose(report.pressure, ref.pressure, atol=5e-3)
