"""End-to-end tests: the dataflow solver vs. the host reference.

These are the §V-B "numerical integrity" checks at simulator scale: the
fabric CG must reproduce the reference solution on every problem shape,
permeability field, precision and kernel variant.
"""

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro import api
from repro.core.fv_kernel import (
    DirichletKind,
    FvColumnKernel,
    KernelVariant,
    PeKernelConfig,
)
from repro.core.solver import WseMatrixFreeSolver
from repro.mesh.geomodel import channelized_permeability, layered_permeability
from repro.mesh.grid import CartesianGrid3D
from repro.physics.analytic import analytic_two_plane_solution
from repro.physics.darcy import build_problem
from repro.solvers.state_machine import CG_TRANSITIONS, CGState
from repro.util.errors import ConfigurationError
from repro.wse.isa import Op
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(32, 32)


def wse_solve(problem, **kwargs):
    """A solve on the per-PE event oracle unless ``engine`` says otherwise."""
    kwargs.setdefault("engine", "event")
    kwargs.setdefault("spec", SPEC)
    kwargs.setdefault("dtype", np.float64)
    kwargs.setdefault("rel_tol", 1e-10)
    kwargs.setdefault("max_iters", 2000)
    return WseMatrixFreeSolver(problem, **kwargs).solve()


class TestSolverMatchesReference:
    @pytest.mark.parametrize("shape", [(4, 4, 3), (5, 3, 2), (2, 6, 4), (3, 3, 1)])
    def test_heterogeneous_problems(self, shape):
        problem = make_problem(*shape, seed=shape[0])
        ref = repro.solve(problem)
        report = wse_solve(problem)
        assert report.converged
        # The reference solve stops at newton_rtol=1e-6 (relative norm),
        # so agreement is bounded by that tolerance, not by fp64 eps.
        np.testing.assert_allclose(report.pressure, ref.pressure, atol=2e-6)

    def test_fp32_paper_precision(self):
        problem = make_problem(5, 4, 3, seed=1)
        ref = repro.solve(problem)
        report = wse_solve(problem, dtype=np.float32, rel_tol=1e-6)
        assert report.converged
        np.testing.assert_allclose(report.pressure, ref.pressure, atol=5e-5)

    def test_fused_mobility_variant(self):
        problem = make_problem(4, 4, 3, seed=2)
        ref = repro.solve(problem)
        report = wse_solve(problem, variant="fused_mobility")
        assert report.converged
        np.testing.assert_allclose(report.pressure, ref.pressure, atol=5e-8)

    def test_no_buffer_reuse_same_answer(self):
        problem = make_problem(4, 3, 3, seed=3)
        a = wse_solve(problem, reuse_buffers=True)
        b = wse_solve(problem, reuse_buffers=False)
        np.testing.assert_allclose(a.pressure, b.pressure, atol=1e-12)

    def test_analytic_linear_profile(self):
        grid = CartesianGrid3D(6, 4, 3)
        dirichlet, exact = analytic_two_plane_solution(grid, 0, 1.0, -1.0)
        problem = build_problem(grid, 42.0, dirichlet)
        report = wse_solve(problem)
        np.testing.assert_allclose(report.pressure, exact, atol=1e-7)

    def test_layered_and_channelized_fields(self):
        grid = CartesianGrid3D(6, 5, 4)
        for perm in (
            layered_permeability(grid, seed=4),
            channelized_permeability(grid, seed=5, channel=100.0),
        ):
            problem = api.quarter_five_spot_problem(6, 5, 4, permeability=perm)
            ref = repro.solve(problem)
            report = wse_solve(problem)
            assert report.converged
            # High-contrast fields are worse conditioned; agreement is
            # bounded by the reference's relative tolerance times κ(J).
            np.testing.assert_allclose(report.pressure, ref.pressure, atol=1e-4)

    def test_partial_dirichlet_column(self):
        """A Dirichlet z-plane makes every column PARTIAL — exercises the
        masked blend path."""
        grid = CartesianGrid3D(4, 4, 4)
        dirichlet, exact = analytic_two_plane_solution(grid, 2, 2.0, 0.0)
        problem = build_problem(grid, 10.0, dirichlet)
        report = wse_solve(problem)
        np.testing.assert_allclose(report.pressure, exact, atol=1e-7)

    def test_iteration_counts_match_reference_cg(self):
        """Same algorithm, same numbers: iteration counts agree with the
        host CG run at the same tolerance (float64)."""
        problem = make_problem(5, 5, 2, seed=7)
        # Disable the absolute floor so both solvers use exactly
        # rel_tol^2 * rtr0.
        report = wse_solve(problem, rel_tol=1e-8, tol_rtr=0.0)
        p0 = problem.initial_pressure(dtype=np.float64)
        r0 = problem.residual(p0)
        rtr0 = float(np.vdot(r0, r0))
        from repro.solvers.cg import conjugate_gradient

        op = problem.operator()
        b = (-r0).astype(np.float64)
        ref = conjugate_gradient(op, b, tol_rtr=1e-16 * rtr0, max_iters=2000)
        # Same tolerance scaling: within a couple of iterations (rounding
        # of the distributed fp accumulation differs slightly).
        assert abs(report.iterations - ref.iterations) <= 2


class TestSolverMechanics:
    def test_state_visits_follow_graph(self):
        problem = make_problem(3, 3, 2, seed=0)
        report = wse_solve(problem)
        visits = report.state_visits
        assert visits[0] is CGState.INIT
        assert visits[-1] in (CGState.CONVERGED, CGState.MAXITER)
        # The dataflow machine shares the host machine's transitions; the
        # INIT phase additionally routes through EXCHANGE -> COMPUTE_JX ->
        # DOT_RR -> ITER_CHECK to evaluate r0 on-device (§III-D's INIT
        # "initializes the residual and search direction").
        init_path_edges = {
            (CGState.INIT, CGState.EXCHANGE),
            (CGState.COMPUTE_JX, CGState.DOT_RR),
            (CGState.DOT_RR, CGState.ITER_CHECK),
        }
        for a, b in zip(visits, visits[1:]):
            legal = (b in CG_TRANSITIONS[a]) or ((a, b) in init_path_edges)
            assert legal, f"illegal transition {a} -> {b}"

    def test_residual_history_matches_iterations(self):
        problem = make_problem(4, 3, 2, seed=1)
        report = wse_solve(problem)
        # history = initial rtr + one entry per iteration.
        assert len(report.residual_history) == report.iterations + 1
        assert report.residual_history[-1] < report.residual_history[0]

    def test_fixed_iterations_mode(self):
        problem = make_problem(3, 3, 2, seed=2)
        report = wse_solve(problem, fixed_iterations=4, rel_tol=None)
        assert report.iterations == 4
        assert not report.converged  # MAXITER by construction

    def test_comm_only_requires_fixed_iterations(self):
        problem = make_problem(3, 3, 2, seed=3)
        with pytest.raises(ConfigurationError, match="fixed_iterations"):
            WseMatrixFreeSolver(problem, spec=SPEC, comm_only=True)

    def test_comm_only_moves_data_but_no_flops(self):
        problem = make_problem(3, 3, 2, seed=3)
        report = wse_solve(
            problem, comm_only=True, fixed_iterations=3, rel_tol=None,
            dtype=np.float32,
        )
        assert report.counters.flops == 0
        assert report.counters.fabric_bytes > 0
        assert report.trace.makespan_cycles > 0

    def test_comm_only_time_below_full_time(self):
        problem = make_problem(4, 4, 3, seed=4)
        full = wse_solve(problem, fixed_iterations=5, rel_tol=None, dtype=np.float32)
        comm = wse_solve(
            problem, comm_only=True, fixed_iterations=5, rel_tol=None,
            dtype=np.float32,
        )
        assert comm.trace.makespan_cycles < full.trace.makespan_cycles

    def test_simd_ablation_reduces_compute_cycles(self):
        problem = make_problem(4, 3, 4, seed=5)
        scalar = wse_solve(problem, simd_width=1, fixed_iterations=5, rel_tol=None)
        simd = wse_solve(problem, simd_width=2, fixed_iterations=5, rel_tol=None)
        assert simd.counters.compute_cycles < scalar.counters.compute_cycles
        # Vector-dominated work: close to the 2x ideal.
        ratio = scalar.counters.compute_cycles / simd.counters.compute_cycles
        assert ratio > 1.5

    def test_memory_report_within_budget(self):
        problem = make_problem(4, 4, 8, seed=6)
        report = wse_solve(problem, fixed_iterations=2, rel_tol=None)
        assert report.memory["max_high_water"] <= report.memory["capacity"]
        assert report.memory["max_used"] > 0

    def test_buffer_reuse_saves_memory(self):
        problem = make_problem(3, 3, 16, seed=7)
        lean = wse_solve(problem, reuse_buffers=True, fixed_iterations=2, rel_tol=None)
        fat = wse_solve(problem, reuse_buffers=False, fixed_iterations=2, rel_tol=None)
        assert lean.memory["max_high_water"] < fat.memory["max_high_water"]

    def test_fabric_grid_mismatch_rejected(self):
        problem = make_problem(3, 3, 2)
        from repro.core.host import stage_problem
        from repro.core.mapping import ProblemMapping
        from repro.wse.fabric import Fabric

        fabric = Fabric(SPEC, width=2, height=2)
        with pytest.raises(ConfigurationError, match="does not match"):
            stage_problem(fabric, problem, ProblemMapping(problem.grid, SPEC))

    def test_guess_violating_dirichlet_scales_rel_tol_like_its_staged_form(self):
        """Staging applies the Dirichlet values to a supplied guess, so
        the device starts a zero guess and the same guess with those
        values applied from one field.  ``rel_tol`` must scale from that
        field too: both guesses give bitwise-equal reports."""
        problem = repro.scenario("quarter_five_spot", nx=16, ny=16, nz=8).build()
        zero = np.zeros(problem.grid.shape)
        applied = problem.initial_pressure(dtype=np.float64)
        raw, staged = (
            wse_solve(problem, engine="vectorized", rel_tol=1e-6, initial_pressure=guess)
            for guess in (zero, applied)
        )
        assert raw.iterations == staged.iterations
        assert raw.residual_history == staged.residual_history
        np.testing.assert_array_equal(raw.pressure, staged.pressure)
        assert raw.counters.to_dict() == staged.counters.to_dict()

    def test_rel_tol_scales_from_the_staged_rhs_system(self):
        """A steady solve with ``rhs`` stages ``J p = b`` with ``b = rhs``
        and ``p^D`` on the Dirichlet rows; ``rel_tol`` must scale from
        that system's initial residual, not the zero-rhs one:
        ``tol_rtr = rel_tol² ‖b − J p0‖²``."""
        from repro.fv.operator import apply_jx

        problem = make_problem(8, 8, 3, seed=3)
        rhs = 10.0 * np.random.default_rng(0).uniform(-1.0, 1.0, problem.grid.shape)
        rel_tol = 1e-6
        solver = WseMatrixFreeSolver(
            problem, engine="vectorized", spec=SPEC, dtype=np.float64,
            rel_tol=rel_tol, rhs=rhs,
        )
        mask = problem.dirichlet.mask
        b = rhs.copy()
        b[mask] = problem.dirichlet.values[mask]
        p0 = problem.initial_pressure(dtype=np.float64)
        r0 = b - apply_jx(problem.coefficients, problem.dirichlet, p0)
        assert solver.program.tol_rtr == pytest.approx(
            rel_tol**2 * float(np.vdot(r0, r0)), rel=1e-12
        )

    def test_elapsed_seconds_positive_and_scaled(self):
        problem = make_problem(3, 3, 2, seed=8)
        report = wse_solve(problem)
        assert report.elapsed_seconds == pytest.approx(
            report.trace.makespan_cycles / SPEC.clock_hz
        )


class TestKernelOpCounts:
    def test_expected_counts_match_trace(self):
        """One kernel invocation on one PE must execute exactly the
        instruction mix `expected_op_counts` declares."""
        from repro.core.exchange import HALO_BUFFER
        from repro.core.fv_kernel import COEFF_BUFFER, COEFF_DOWN, COEFF_UP
        from repro.wse.fabric import Fabric

        nz = 6
        fab = Fabric(SPEC, width=1, height=1, dtype=np.float64)
        pe = fab.pe(0, 0)
        for name in ("p", "Jx"):
            pe.memory.alloc(name, nz, dtype=np.float64)
        for name in HALO_BUFFER.values():
            pe.memory.alloc(name, nz, dtype=np.float64)
        for name in COEFF_BUFFER.values():
            pe.memory.alloc(name, nz, dtype=np.float64)
        pe.memory.alloc(COEFF_DOWN, nz, dtype=np.float64)
        pe.memory.alloc(COEFF_UP, nz, dtype=np.float64)
        config = PeKernelConfig(depth=nz, dirichlet=DirichletKind.NONE)
        kernel = FvColumnKernel()
        fab.schedule_task(pe, 0, lambda: kernel.run(pe, config))
        fab.run()
        expected = FvColumnKernel.expected_op_counts(config)
        for op, count in expected.items():
            assert pe.counters.op_counts[op] == count, op
        # No unexpected op kinds.
        for op, count in pe.counters.op_counts.items():
            assert expected.get(op, 0) == count, op

    @pytest.mark.parametrize("variant", list(KernelVariant))
    @pytest.mark.parametrize("kind", list(DirichletKind))
    def test_expected_counts_all_configs(self, variant, kind):
        config = PeKernelConfig(depth=8, dirichlet=kind, variant=variant)
        counts = FvColumnKernel.expected_op_counts(config)
        assert all(v >= 0 for v in counts.values())
        flops = sum(
            {Op.FMUL: 1, Op.FADD: 1, Op.FSUB: 1, Op.FNEG: 1, Op.FMA: 2,
             Op.FMOV: 0}[op] * n
            for op, n in counts.items()
        )
        assert flops > 0
