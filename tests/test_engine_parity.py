"""Engine parity: the vectorized engine vs. the event-driven oracle.

The vectorized engine executes the same :class:`CgProgram` as whole-
fabric array sweeps; these tests pin it to the event engine on every
grid family the solver tests cover: identical iterates (within fp
round-off), identical residual histories, and *exactly* identical
instruction counters, traffic, compute cycles, memory statistics and
state sequences (all of those are integers/analytic — any drift is a
modelling bug, not round-off).
"""

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro.core.program import CgProgram, Phase
from repro.core.solver import WseMatrixFreeSolver
from repro.mesh.grid import CartesianGrid3D
from repro.physics.analytic import analytic_two_plane_solution
from repro.physics.darcy import build_problem
from repro.util.errors import ConfigurationError, PeOutOfMemory
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(32, 32)


def solve_both(problem, **kwargs):
    kwargs.setdefault("spec", SPEC)
    kwargs.setdefault("dtype", np.float64)
    kwargs.setdefault("rel_tol", 1e-10)
    kwargs.setdefault("max_iters", 2000)
    event = WseMatrixFreeSolver(problem, engine="event", **kwargs).solve()
    vector = WseMatrixFreeSolver(problem, engine="vectorized", **kwargs).solve()
    return event, vector


def assert_counter_parity(event, vector):
    """The analytic model must reproduce the oracle's counters exactly."""
    assert dict(event.counters.op_counts) == dict(vector.counters.op_counts)
    assert event.counters.flops == vector.counters.flops
    assert event.counters.mem_load_bytes == vector.counters.mem_load_bytes
    assert event.counters.mem_store_bytes == vector.counters.mem_store_bytes
    assert event.counters.fabric_load_bytes == vector.counters.fabric_load_bytes
    assert event.counters.fabric_store_bytes == vector.counters.fabric_store_bytes
    assert event.counters.compute_cycles == vector.counters.compute_cycles
    assert event.memory == vector.memory
    assert event.trace.total_messages == vector.trace.total_messages
    assert event.trace.total_wavelets == vector.trace.total_wavelets
    assert event.trace.total_hop_wavelets == vector.trace.total_hop_wavelets
    assert event.trace.comm_busy_cycles == vector.trace.comm_busy_cycles


def assert_history_parity(event, vector, tol):
    """Residual histories track the same convergence curve.

    CG amplifies dot-accumulation-order differences between the engines
    (sequential fabric chains vs. float64 array dots) by the operator's
    condition number, so late entries — many decades below the initial
    residual — diverge relatively in *any* pair of round-off-different
    CG runs (the iterates still agree; see the pressure assertions).
    The parity contract: entry-by-entry agreement to 1e-4 of the initial
    residual, and entries at the convergence threshold stay below it in
    both engines."""
    assert len(event.residual_history) == len(vector.residual_history)
    scale = max(abs(event.residual_history[0]), tol)
    for a, b in zip(event.residual_history, vector.residual_history):
        assert abs(a - b) <= max(1e-4 * scale, 8 * tol)


class TestNumericalParity:
    @pytest.mark.parametrize(
        "shape", [(4, 4, 3), (5, 3, 2), (2, 6, 4), (3, 3, 1), (7, 6, 4)]
    )
    def test_heterogeneous_problems(self, shape):
        """The grids of test_core_solver.TestSolverMatchesReference."""
        problem = make_problem(*shape, seed=shape[0])
        event, vector = solve_both(problem)
        assert event.iterations == vector.iterations
        assert event.converged and vector.converged
        np.testing.assert_allclose(vector.pressure, event.pressure, atol=1e-8)
        assert_history_parity(event, vector, tol=event.residual_history[-1] + 1e-300)
        assert_counter_parity(event, vector)
        assert event.state_visits == vector.state_visits

    def test_single_row_and_column_fabrics(self):
        """Degenerate fabrics exercise the W=1 / H=1 collective paths."""
        for shape in ((1, 5, 3), (5, 1, 2)):
            event, vector = solve_both(make_problem(*shape, seed=3))
            assert event.iterations == vector.iterations
            np.testing.assert_allclose(vector.pressure, event.pressure, atol=1e-9)
            assert_counter_parity(event, vector)

    def test_lognormal_integration_grid(self):
        """The 7x6x4 lognormal grid of test_integration."""
        from repro.mesh.geomodel import lognormal_permeability
        from repro import api

        grid = CartesianGrid3D(7, 6, 4)
        perm = lognormal_permeability(grid, seed=11, sigma_log=1.2)
        problem = api.quarter_five_spot_problem(7, 6, 4, permeability=perm)
        event, vector = solve_both(problem, rel_tol=1e-9, max_iters=3000)
        assert event.iterations == vector.iterations
        np.testing.assert_allclose(vector.pressure, event.pressure, atol=1e-7)
        assert_counter_parity(event, vector)

    def test_fp32_paper_precision(self):
        problem = make_problem(5, 4, 3, seed=1)
        event, vector = solve_both(problem, dtype=np.float32, rel_tol=1e-6)
        assert event.converged and vector.converged
        # fp32 dots accumulate in different orders; iterates agree to
        # fp32 round-off, iteration counts to the last step.
        assert abs(event.iterations - vector.iterations) <= 1
        np.testing.assert_allclose(
            vector.pressure.astype(np.float64),
            event.pressure.astype(np.float64),
            atol=5e-6,
        )

    def test_fp32_fixed_iterations_bitwise_iterates(self):
        """With the step count pinned, fp32 iterates stay within
        round-off of the oracle's (same elementwise operand order)."""
        problem = make_problem(4, 4, 3, seed=2)
        event, vector = solve_both(
            problem, dtype=np.float32, rel_tol=None, fixed_iterations=6
        )
        assert event.iterations == vector.iterations == 6
        np.testing.assert_allclose(
            vector.pressure.astype(np.float64),
            event.pressure.astype(np.float64),
            atol=1e-5,
        )
        assert_counter_parity(event, vector)

    def test_partial_dirichlet_columns(self):
        """A Dirichlet z-plane makes every column PARTIAL."""
        grid = CartesianGrid3D(4, 4, 4)
        dirichlet, exact = analytic_two_plane_solution(grid, 2, 2.0, 0.0)
        problem = build_problem(grid, 10.0, dirichlet)
        event, vector = solve_both(problem)
        assert event.iterations == vector.iterations
        np.testing.assert_allclose(vector.pressure, exact, atol=1e-7)
        assert_counter_parity(event, vector)
        assert event.state_visits == vector.state_visits


class TestProgramVariantParity:
    def test_fused_mobility_variant(self):
        problem = make_problem(4, 4, 3, seed=2)
        event, vector = solve_both(problem, variant="fused_mobility")
        assert event.iterations == vector.iterations
        np.testing.assert_allclose(vector.pressure, event.pressure, atol=1e-9)
        assert_counter_parity(event, vector)

    def test_jacobi_preconditioner(self):
        problem = make_problem(5, 4, 3, seed=9)
        event, vector = solve_both(problem, preconditioner="jacobi", rel_tol=1e-9)
        assert event.iterations == vector.iterations
        np.testing.assert_allclose(vector.pressure, event.pressure, atol=1e-9)
        assert_counter_parity(event, vector)

    def test_no_buffer_reuse(self):
        problem = make_problem(4, 3, 3, seed=3)
        event, vector = solve_both(problem, reuse_buffers=False)
        assert event.iterations == vector.iterations
        assert_counter_parity(event, vector)

    def test_simd_ablation(self):
        problem = make_problem(4, 3, 4, seed=5)
        event, vector = solve_both(
            problem, simd_width=1, fixed_iterations=5, rel_tol=None
        )
        assert_counter_parity(event, vector)

    def test_comm_only_mode(self):
        problem = make_problem(3, 3, 2, seed=3)
        event, vector = solve_both(
            problem, comm_only=True, fixed_iterations=3, rel_tol=None,
            dtype=np.float32,
        )
        assert event.iterations == vector.iterations == 3
        assert vector.counters.flops == 0
        assert vector.counters.fabric_bytes > 0
        np.testing.assert_array_equal(event.pressure, vector.pressure)
        assert_counter_parity(event, vector)

    def test_fixed_iterations_maxiter_path(self):
        problem = make_problem(3, 3, 2, seed=2)
        event, vector = solve_both(problem, fixed_iterations=4, rel_tol=None)
        assert event.iterations == vector.iterations == 4
        assert not event.converged and not vector.converged
        assert event.state_visits == vector.state_visits
        assert_counter_parity(event, vector)


class TestVectorEngineBehaviour:
    def test_selected_via_machine_spec(self):
        """The declarative path: MachineSpec(engine=...) through the
        backend registry."""
        problem = make_problem(4, 4, 2, seed=1)
        base = repro.SolveSpec.from_kwargs(spec=SPEC, dtype="float64", rel_tol=1e-9)
        event = repro.solve(problem, backend="wse", spec=base)
        vector = repro.solve(
            problem, backend="wse", spec=base.with_options(engine="vectorized")
        )
        assert event.telemetry["engine"] == "event"
        assert vector.telemetry["engine"] == "vectorized"
        assert vector.iterations == event.iterations
        np.testing.assert_allclose(vector.pressure, event.pressure, atol=1e-8)
        # Telemetry carries serializable dict summaries on both engines.
        assert vector.telemetry["counters"]["flops"] == \
            event.telemetry["counters"]["flops"]

    def test_unknown_engine_rejected(self):
        problem = make_problem(3, 3, 2)
        with pytest.raises(ConfigurationError, match="engine"):
            WseMatrixFreeSolver(problem, spec=SPEC, engine="quantum")
        with pytest.raises(ConfigurationError, match="engine"):
            repro.SolveSpec.from_kwargs(engine="quantum")

    def test_gpu_backend_rejects_engine(self):
        problem = make_problem(3, 3, 2)
        spec = repro.SolveSpec.from_kwargs(engine="vectorized")
        with pytest.raises(ConfigurationError, match="engine"):
            repro.solve(problem, backend="gpu", spec=spec)

    def test_memory_budget_enforced(self):
        """Too-deep columns fail at construction, like the oracle."""
        from repro import api

        problem = api.quarter_five_spot_problem(2, 2, 1000)
        with pytest.raises(PeOutOfMemory):
            WseMatrixFreeSolver(
                problem, spec=WSE2.with_fabric(4, 4), engine="vectorized"
            )

    def test_elapsed_seconds_from_analytic_makespan(self):
        problem = make_problem(4, 4, 3, seed=1)
        report = WseMatrixFreeSolver(
            problem, spec=SPEC, dtype=np.float64, rel_tol=1e-8,
            engine="vectorized",
        ).solve()
        assert report.trace.makespan_cycles > 0
        assert report.elapsed_seconds == pytest.approx(
            report.trace.makespan_cycles / SPEC.clock_hz
        )
        assert report.engine == "vectorized"

    def test_makespan_grows_with_fabric_extent(self):
        """The analytic model keeps the Table III story: all-reduce
        chains travel farther on bigger fabrics."""
        spans = []
        for lateral in (4, 8, 16):
            problem = make_problem(lateral, lateral, 3, seed=1, heterogeneous=False)
            report = WseMatrixFreeSolver(
                problem, spec=WSE2.with_fabric(lateral, lateral),
                dtype=np.float32, fixed_iterations=3, engine="vectorized",
            ).solve()
            spans.append(report.trace.makespan_cycles)
        assert spans[0] < spans[1] < spans[2]

    def test_paper_scale_fabric_smoke(self):
        """A 128x128 fabric — beyond what the event engine can run in
        test time — solves in well under a second per iteration."""
        problem = make_problem(128, 128, 2, seed=0, heterogeneous=False)
        report = WseMatrixFreeSolver(
            problem, spec=WSE2.with_fabric(128, 128), dtype=np.float32,
            fixed_iterations=2, engine="vectorized",
        ).solve()
        assert report.iterations == 2
        assert report.pressure.shape == (128, 128, 2)
        assert report.counters.flops > 0
        assert report.memory["max_high_water"] <= report.memory["capacity"]


class TestProgramDescription:
    def test_phases_in_order(self):
        program = CgProgram()
        assert program.describe() == [
            "halo_exchange", "fv_apply", "axpy_dot", "allreduce",
        ]
        assert tuple(program.phases) == (
            Phase.HALO_EXCHANGE, Phase.FV_APPLY, Phase.AXPY_DOT, Phase.ALLREDUCE,
        )

    def test_comm_only_requires_fixed_iterations(self):
        with pytest.raises(ConfigurationError, match="fixed_iterations"):
            CgProgram(comm_only=True)

    def test_instruction_plan_matches_counts(self):
        """The per-instruction plan is the ground truth both engines
        share; its totals must equal the pinned expected_op_counts."""
        from collections import Counter

        from repro.core.fv_kernel import (
            DirichletKind, FvColumnKernel, KernelVariant, PeKernelConfig,
        )

        for variant in KernelVariant:
            for kind in DirichletKind:
                config = PeKernelConfig(depth=6, dirichlet=kind, variant=variant)
                plan = FvColumnKernel.instruction_plan(config)
                totals = Counter()
                for op, n in plan:
                    totals[op] += n
                assert totals == FvColumnKernel.expected_op_counts(config)
                assert FvColumnKernel.expected_cycles(config, 2) > 0
