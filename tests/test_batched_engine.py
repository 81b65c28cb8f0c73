"""Batched execution: N same-shape problems as the lanes of one program.

The contract: a batched solve of N independent problems is
*indistinguishable per problem* from N serial vectorized solves —
iterates and residual histories bitwise (each lane runs the serial
kernel), and op/traffic/cycle counters, memory statistics and state
sequences exactly — with per-problem convergence (a converged lane gets
no further passes or charges while the rest keep iterating).
"""

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro.core.engines import create_batched_engine, create_engine
from repro.core.program import CgProgram
from repro.core.solver import WseMatrixFreeSolver, solve_batch
from repro.mesh.grid import CartesianGrid3D
from repro.physics.analytic import analytic_two_plane_solution
from repro.physics.darcy import build_problem
from repro.util.errors import ConfigurationError
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(32, 32)


def serial_report(problem, **kwargs):
    kwargs.setdefault("spec", SPEC)
    kwargs.setdefault("dtype", np.float64)
    kwargs.setdefault("rel_tol", 1e-10)
    kwargs.setdefault("max_iters", 2000)
    return WseMatrixFreeSolver(problem, engine="vectorized", **kwargs).solve()


def assert_lane_parity(serial, lane):
    """One batched lane vs. the serial vectorized solve of that problem."""
    assert serial.iterations == lane.iterations
    assert serial.converged == lane.converged
    np.testing.assert_array_equal(lane.pressure, serial.pressure)
    assert serial.residual_history == lane.residual_history
    assert dict(serial.counters.op_counts) == dict(lane.counters.op_counts)
    assert serial.counters.to_dict() == lane.counters.to_dict()
    assert serial.trace.to_dict() == lane.trace.to_dict()
    assert serial.memory == lane.memory
    assert serial.state_visits == lane.state_visits
    assert serial.elapsed_seconds == lane.elapsed_seconds


class TestBatchedParity:
    def test_eight_problem_batch_matches_serial_exactly(self):
        """The acceptance bar: >= 8 independent problems, one fused
        program, per-lane results identical to per-problem serial runs
        (lanes converge at different iterations, so the freeze path is
        exercised)."""
        problems = [make_problem(5, 4, 3, seed=s) for s in range(8)]
        serials = [serial_report(p) for p in problems]
        assert len({s.iterations for s in serials}) > 1  # staggered freeze
        reports = solve_batch(
            problems, spec=SPEC, dtype=np.float64, rel_tol=1e-10, max_iters=2000
        )
        assert len(reports) == 8
        for serial, lane in zip(serials, reports):
            assert_lane_parity(serial, lane)
            assert lane.engine == "batched"

    def test_chunked_batch_matches_unchunked(self):
        problems = [make_problem(4, 4, 3, seed=s) for s in range(6)]
        fused = solve_batch(problems, spec=SPEC, dtype=np.float64, rel_tol=1e-9)
        chunked = solve_batch(
            problems, spec=SPEC, dtype=np.float64, rel_tol=1e-9, batch_size=4
        )
        for a, b in zip(fused, chunked):
            np.testing.assert_array_equal(a.pressure, b.pressure)
            assert a.counters.to_dict() == b.counters.to_dict()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(variant="fused_mobility"),
            dict(preconditioner="jacobi"),
            dict(reuse_buffers=False),
            dict(simd_width=1, fixed_iterations=4, rel_tol=None),
            dict(dtype=np.float32, fixed_iterations=5, rel_tol=None),
            dict(comm_only=True, fixed_iterations=3, rel_tol=None, dtype=np.float32),
        ],
    )
    def test_program_knob_parity(self, kwargs):
        problems = [make_problem(4, 3, 3, seed=s) for s in (1, 5, 9)]
        serials = [serial_report(p, **kwargs) for p in problems]
        merged = dict(
            spec=SPEC, dtype=np.float64, rel_tol=1e-10, max_iters=2000, **{}
        )
        merged.update(kwargs)
        reports = solve_batch(problems, **merged)
        for serial, lane in zip(serials, reports):
            assert_lane_parity(serial, lane)

    def test_mixed_dirichlet_classes_across_lanes(self):
        """Lanes with different Dirichlet histograms (wells-only vs a
        full Dirichlet plane) charge different kernel plans per lane."""
        grid = CartesianGrid3D(4, 4, 4)
        dirichlet, _ = analytic_two_plane_solution(grid, 2, 2.0, 0.0)
        plane_problem = build_problem(grid, 10.0, dirichlet)
        wells_problem = make_problem(4, 4, 4, seed=2)
        serials = [serial_report(p) for p in (wells_problem, plane_problem)]
        reports = solve_batch(
            [wells_problem, plane_problem],
            spec=SPEC, dtype=np.float64, rel_tol=1e-10, max_iters=2000,
        )
        for serial, lane in zip(serials, reports):
            assert_lane_parity(serial, lane)

    def test_per_lane_initial_pressure(self):
        problems = [make_problem(4, 4, 3, seed=s) for s in (3, 4)]
        guesses = np.stack(
            [np.full(p.grid.shape, 0.25 * (i + 1)) for i, p in enumerate(problems)]
        )
        serials = [
            serial_report(p, initial_pressure=guesses[i])
            for i, p in enumerate(problems)
        ]
        reports = solve_batch(
            problems, spec=SPEC, dtype=np.float64, rel_tol=1e-10,
            max_iters=2000, initial_pressure=guesses,
        )
        for serial, lane in zip(serials, reports):
            assert_lane_parity(serial, lane)


class TestBatchedValidation:
    def test_program_batch_dimension_validated(self):
        with pytest.raises(ConfigurationError, match="batch"):
            CgProgram(batch=0)
        problems = [make_problem(3, 3, 2, seed=s) for s in (0, 1)]
        with pytest.raises(ConfigurationError, match="batch"):
            create_batched_engine(
                "vectorized", problems, CgProgram(batch=3), spec=SPEC
            )

    def test_event_engine_rejects_batched_program(self):
        from repro.core.event_engine import EventEngine

        with pytest.raises(ConfigurationError, match="one problem at a time"):
            EventEngine(make_problem(3, 3, 2), CgProgram(batch=2), spec=SPEC)
        with pytest.raises(ConfigurationError, match="one problem at a time"):
            solve_batch([make_problem(3, 3, 2)], spec=SPEC, engine="event")

    def test_vector_engine_rejects_batched_program(self):
        for name in ("vectorized", "fused", "sharded"):
            with pytest.raises(ConfigurationError, match="create_batched_engine"):
                create_engine(
                    name, make_problem(3, 3, 2), CgProgram(batch=2), spec=SPEC
                )

    def test_mismatched_grid_shapes_rejected(self):
        problems = [make_problem(3, 3, 2, seed=0), make_problem(4, 3, 2, seed=0)]
        with pytest.raises(ConfigurationError, match="grid shape"):
            solve_batch(problems, spec=SPEC)

    def test_empty_batch_is_empty(self):
        assert solve_batch([], spec=SPEC) == []

    def test_batch_size_knob_validated(self):
        with pytest.raises(ConfigurationError, match="batch_size"):
            repro.SolveSpec.from_kwargs(batch_size=0)
        with pytest.raises(ConfigurationError, match="batch_size"):
            solve_batch([make_problem(3, 3, 2)], spec=SPEC, batch_size=0)

    def test_single_solve_rejects_batch_size_on_event_engine(self):
        spec = repro.SolveSpec.from_kwargs(spec=SPEC, batch_size=4)
        with pytest.raises(ConfigurationError, match="batch_size"):
            repro.solve(make_problem(3, 3, 2), backend="wse", spec=spec)
        # vectorized single solves tolerate the knob (it gates fan-out).
        result = repro.solve(
            make_problem(3, 3, 2), backend="wse",
            spec=spec.with_options(engine="vectorized", rel_tol=1e-6),
        )
        assert result.converged

    def test_solve_many_rejects_batch_with_worker_pool(self):
        """batch=True fuses entries instead of fanning out workers; a
        requested pool width must fail loudly, not be dropped."""
        with pytest.raises(ConfigurationError, match="mutually exclusive"):
            repro.solve_many(
                [make_problem(3, 3, 2)], backend="wse",
                spec=repro.SolveSpec.from_kwargs(spec=SPEC, engine="vectorized"),
                batch=True, n_workers=4,
            )

    def test_gpu_and_reference_reject_batch_size(self):
        problem = make_problem(3, 3, 2)
        spec = repro.SolveSpec.from_kwargs(batch_size=2)
        for backend in ("gpu", "reference"):
            with pytest.raises(ConfigurationError, match="batch_size"):
                repro.solve(problem, backend=backend, spec=spec)

    def test_spec_round_trips_batch_size(self):
        spec = repro.SolveSpec.from_kwargs(batch_size=16, engine="vectorized")
        assert spec.machine.batch_size == 16
        assert repro.SolveSpec.from_dict(spec.to_dict()) == spec
        assert "batch_size" in spec.machine.set_fields()


class TestBatchedSessionIntegration:
    def test_session_batched_executor_matches_serial(self):
        problems = [make_problem(4, 4, 2, seed=s) for s in range(5)]
        spec = repro.SolveSpec.from_kwargs(
            spec=SPEC, dtype="float64", rel_tol=1e-9, engine="vectorized"
        )
        session = repro.Session()
        serial = session.plan(problems, spec, backend="wse").run(executor="serial")
        batched = session.plan(problems, spec, backend="wse").run(executor="batched")
        for s, b in zip(serial, batched):
            assert s.ok and b.ok
            np.testing.assert_array_equal(b.result.pressure, s.result.pressure)
            assert b.result.telemetry["counters"] == s.result.telemetry["counters"]

    def test_solve_many_batch_true(self):
        problems = [make_problem(4, 3, 2, seed=s) for s in range(4)]
        spec = repro.SolveSpec.from_kwargs(
            spec=SPEC, dtype="float64", rel_tol=1e-9, engine="vectorized",
            batch_size=2,
        )
        serial = repro.solve_many(problems, backend="wse", spec=spec, n_workers=1)
        batched = repro.solve_many(problems, backend="wse", spec=spec, batch=True)
        for s, b in zip(serial, batched):
            np.testing.assert_array_equal(b.pressure, s.pressure)
            assert b.telemetry["batch"]["size"] == 2
            assert b.telemetry["engine"] == "batched"
            assert s.telemetry["engine"] == "vectorized"

    def test_plan_entry_result_engine_propagates(self):
        """The satellite fix: per-entry engine telemetry surfaces on
        PlanEntryResult so batched and serial results are
        distinguishable without digging into telemetry."""
        problem = make_problem(4, 4, 2, seed=1)
        vec = repro.SolveSpec.from_kwargs(
            spec=SPEC, dtype="float64", rel_tol=1e-9, engine="vectorized"
        )
        ev = vec.with_options(engine="event")
        ref = repro.SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-8)
        session = repro.Session()
        plan = session.plan(
            [(problem, vec, "wse"), (problem, ev, "wse"), (problem, ref, "reference")]
        )
        serial = plan.run(executor="serial")
        assert [r.engine for r in serial] == ["vectorized", "event", None]
        sibling = make_problem(4, 4, 2, seed=2)
        batched = session.plan(
            [(problem, vec, "wse"), (problem, ev, "wse"), (sibling, vec, "wse")]
        ).run(executor="batched")
        # vectorized entries fuse; event-pinned entries fall back serially.
        assert [r.engine for r in batched] == ["batched", "event", "batched"]

    def test_batched_groups_split_by_shape_and_spec(self):
        spec = repro.SolveSpec.from_kwargs(
            spec=SPEC, dtype="float64", rel_tol=1e-9, engine="vectorized"
        )
        targets = [
            make_problem(4, 4, 2, seed=0),
            make_problem(4, 4, 2, seed=1),
            make_problem(3, 3, 3, seed=0),  # different shape -> own group
        ]
        results = repro.Session().plan(targets, spec, backend="wse").run(
            executor="batched"
        )
        assert [r.ok for r in results] == [True, True, True]
        sizes = [r.result.telemetry.get("batch", {}).get("size") for r in results]
        # A group of one runs solo.
        assert sizes == [2, 2, None]
        assert [r.engine for r in results] == ["batched", "batched", "vectorized"]

    def test_unset_engine_runs_solo_on_the_event_oracle(self):
        targets = [
            repro.scenario("lognormal_reservoir", nx=4, ny=4, nz=3, seed=s)
            for s in (1, 2)
        ]
        spec = repro.SolveSpec.from_kwargs(rel_tol=1e-7)
        results = repro.Session().plan(targets, spec, backend="wse").run(
            executor="batched"
        )
        assert [r.engine for r in results] == ["event", "event"]
        assert all("batch" not in r.result.telemetry for r in results)

    def test_solve_batch_refuses_unset_engine(self):
        backend = repro.backends.get_backend("wse")
        spec = repro.SolveSpec.from_kwargs(spec=SPEC)
        problems = [make_problem(3, 3, 2, seed=s) for s in range(2)]
        with pytest.raises(ConfigurationError, match="batch-capable"):
            backend.solve_batch(problems, spec)
        with pytest.raises(ConfigurationError, match="batch-capable"):
            backend.simulate_batch(problems, spec.with_options(n_steps=1))

    def test_batched_group_error_captured_per_entry(self):
        """A group whose solve raises fails each member entry, not the
        whole run."""
        deep = repro.api.quarter_five_spot_problem(2, 2, 1000)
        ok = make_problem(3, 3, 2, seed=1)
        spec = repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(4, 4), dtype="float32", engine="vectorized",
            fixed_iterations=2,
        )
        results = repro.Session().plan(
            [deep, deep, ok], spec, backend="wse"
        ).run(executor="batched")
        assert [r.ok for r in results] == [False, False, True]
        assert all("memory" in str(r.error).lower() or r.ok for r in results)
