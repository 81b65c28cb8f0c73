"""Tests for the first-class time-stepping API: ``TimeSpec``,
``repro.simulate``/``simulate_steps``/``simulate_many``, backend
transient support, warm-start semantics, Session/ResultStore
integration, and resume-at-step."""

import warnings

import numpy as np
import pytest

from helpers import make_problem
import repro
from repro.backends import SimulationResult, StepResult
from repro.session import entry_fingerprint
from repro.spec import SolveSpec, TimeSpec
from repro.util.errors import ConfigurationError, ValidationError
from repro.wse.specs import WSE2

SPEC = WSE2.with_fabric(8, 8)

#: A small transient study every backend can finish quickly.
TIME_KW = dict(n_steps=4, dt=2.0, total_compressibility=5e-3, rel_tol=1e-8)


@pytest.fixture()
def problem():
    return make_problem(5, 5, 3, seed=3)


def _wse_spec(**extra):
    return repro.SolveSpec.from_kwargs(
        spec=SPEC, engine="vectorized", **{**TIME_KW, **extra}
    )


class TestTimeSpec:
    def test_defaults_and_schedule(self):
        t = TimeSpec(n_steps=3, dt=2.0)
        assert t.dts() == (2.0, 2.0, 2.0)
        assert t.times() == (2.0, 4.0, 6.0)

    def test_ramped_schedule(self):
        t = TimeSpec(n_steps=3, dt=(1.0, 2.0, 4.0))
        assert t.dts() == (1.0, 2.0, 4.0)
        assert t.times() == (1.0, 3.0, 7.0)

    def test_schedule_length_must_match(self):
        with pytest.raises(ConfigurationError):
            TimeSpec(n_steps=2, dt=(1.0, 2.0, 3.0))

    @pytest.mark.parametrize("kwargs", [
        dict(n_steps=0),
        dict(dt=0.0),
        dict(dt=(1.0, -2.0), n_steps=2),
        dict(total_compressibility=-1e-4),
        dict(porosity=0.0),
        dict(initial_condition="steady"),
        dict(initial_condition=float("nan")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            TimeSpec(**kwargs)

    def test_stepper_options_drive_a_stepper(self, problem):
        from repro.physics.transient import TransientStepper

        t = TimeSpec(n_steps=2, dt=(1.0, 3.0), porosity=0.3, warm_start=False)
        stepper = TransientStepper(problem, **t.stepper_options())
        assert stepper.dts == [1.0, 3.0]
        assert (stepper.porosity, stepper.warm_start) == (0.3, False)

    def test_numeric_initial_condition(self):
        t = TimeSpec(initial_condition=0.5)
        assert t.initial_condition == 0.5

    def test_round_trip_and_fingerprint(self):
        spec = SolveSpec.from_kwargs(
            n_steps=3, dt=(1.0, 2.0, 4.0), porosity=0.3, warm_start=False
        )
        assert spec.time is not None
        assert SolveSpec.from_dict(spec.to_dict()) == spec
        steady = SolveSpec()
        assert spec.fingerprint() != steady.fingerprint()
        other = spec.with_options(dt=(1.0, 2.0, 5.0))
        assert other.fingerprint() != spec.fingerprint()

    def test_with_options_layers_over_existing_time(self):
        base = SolveSpec.from_kwargs(n_steps=5, dt=2.0)
        tweaked = base.with_options(warm_start=False)
        assert tweaked.time.n_steps == 5
        assert tweaked.time.warm_start is False

    def test_lone_time_knob_cannot_silently_go_transient(self):
        """A physics knob on a steady spec must not fabricate a default
        1-step schedule (that would silently change what solve() computes);
        establishing the time section requires n_steps."""
        for kwargs in (dict(porosity=0.3), dict(dt=2.0), dict(warm_start=False)):
            with pytest.raises(ConfigurationError, match="n_steps"):
                SolveSpec().with_options(**kwargs)

    def test_schedule_rejects_none_entries(self):
        with pytest.raises(ConfigurationError, match="dt\\[1\\]"):
            TimeSpec(n_steps=2, dt=(1.0, None))

    def test_steady_spec_has_no_time_section(self):
        assert SolveSpec().time is None
        assert SolveSpec().to_dict()["time"] is None


class TestSimulateAPI:
    def test_flat_kwargs_are_first_class_no_deprecation(self, problem):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            sim = repro.simulate(problem, n_steps=2, dt=2.0)
        assert isinstance(sim, SimulationResult)
        assert sim.n_steps == 2

    def test_requires_a_time_schedule(self, problem):
        with pytest.raises(ConfigurationError, match="time"):
            repro.simulate(problem)
        with pytest.raises(ConfigurationError, match="time"):
            repro.simulate(problem, spec=SolveSpec())

    @pytest.mark.parametrize("backend", ["reference", "gpu", "wse"])
    def test_every_door_reports_one_run_telemetry(self, problem, backend):
        """``solve`` with a time spec, ``simulate`` and ``simulate_many``
        build the same run-level telemetry through
        :meth:`SimulationResult.collect`."""
        kw = dict(TIME_KW, specs=SPEC) if backend == "wse" else TIME_KW
        sim = repro.simulate(problem, backend=backend, **kw)
        folded = repro.solve(problem, backend=backend, **kw)
        [many] = repro.simulate_many([problem], backend=backend, **kw)
        run = {k: v for k, v in folded.telemetry.items() if k != "transient"}
        assert sim.telemetry == many.telemetry == run
        assert set(run) == {"preconditioner", "warm_start", "time_kind"} | (
            {"engine"} if backend == "wse" else set()
        )
        assert sim.backend == many.backend == folded.backend == backend

    def test_unsupported_backend_is_rejected(self, problem):
        class NoTransient:
            name = "no-transient"

            def solve(self, problem, spec=None):  # pragma: no cover
                raise AssertionError

        repro.register_backend(NoTransient())
        try:
            with pytest.raises(ConfigurationError, match="supports_transient"):
                repro.simulate(problem, backend="no-transient", n_steps=1)
        finally:
            repro.backends.unregister_backend("no-transient")

    def test_streaming_is_lazy(self, problem):
        stream = repro.simulate_steps(problem, n_steps=3, dt=1.0)
        first = next(stream)
        assert isinstance(first, StepResult)
        assert first.step == 1 and first.time == 1.0

    def test_a_failing_build_raises_on_the_first_step(self):
        # The problem is built only when a step must be computed, so a bad
        # scenario parameter surfaces on the first next(), not at the call.
        stream = repro.simulate_steps(
            repro.scenario("quarter_five_spot", nx=-1), n_steps=1, dt=1.0
        )
        with pytest.raises(ValidationError, match="grid dims"):
            next(stream)

    def test_steps_carry_schedule_metadata(self, problem):
        sim = repro.simulate(problem, n_steps=3, dt=(1.0, 2.0, 4.0))
        assert [s.step for s in sim.steps] == [1, 2, 3]
        assert sim.dts == [1.0, 2.0, 4.0]
        assert sim.times == [1.0, 3.0, 7.0]
        assert sim.total_iterations == sum(sim.per_step_iterations)

    def test_simulation_result_to_dict_is_jsonable(self, problem):
        import json

        sim = repro.simulate(problem, n_steps=2, dt=1.0)
        payload = sim.to_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["n_steps"] == 2
        assert payload["time_kind"] == "wall_clock"


class TestBackendParity:
    def test_all_three_backends_answer_the_same_api(self, problem):
        ref = repro.simulate(problem, backend="reference", **TIME_KW)
        wse = repro.simulate(problem, backend="wse", spec=_wse_spec())
        gpu = repro.simulate(problem, backend="gpu", **TIME_KW)
        for sim, kind in ((ref, "wall_clock"), (wse, "simulated_device"),
                          (gpu, "modeled_kernel")):
            assert sim.n_steps == TIME_KW["n_steps"]
            assert sim.converged
            assert sim.telemetry["time_kind"] == kind
        np.testing.assert_allclose(
            wse.final_pressure.astype(np.float64), ref.final_pressure, atol=5e-4
        )
        np.testing.assert_allclose(
            gpu.final_pressure.astype(np.float64), ref.final_pressure, atol=5e-4
        )

    def test_event_and_vectorized_agree_through_the_backend(self):
        # Shallow enough convergence that CG's round-off chaos (different
        # dot-product summation orders diverge after ~20+ iterations)
        # cannot flip an iteration count; deep-tolerance parity is the
        # fuzz suite's job at the engine level.
        problem = make_problem(4, 4, 2, seed=3)
        spec64 = repro.SolveSpec.from_kwargs(
            spec=SPEC, dtype="float64",
            **{**TIME_KW, "rel_tol": 1e-6},
        )
        event = repro.simulate(
            problem, backend="wse", spec=spec64.with_options(engine="event")
        )
        vector = repro.simulate(
            problem, backend="wse", spec=spec64.with_options(engine="vectorized")
        )
        assert event.per_step_iterations == vector.per_step_iterations
        np.testing.assert_allclose(
            event.final_pressure, vector.final_pressure, atol=1e-8
        )
        for ev, vec in zip(event.steps, vector.steps):
            assert ev.telemetry["counters"]["flops"] == \
                vec.telemetry["counters"]["flops"]
            assert ev.telemetry["trace"]["total_wavelets"] == \
                vec.telemetry["trace"]["total_wavelets"]

    def test_gpu_rejects_jacobi_wse_rejects_comm_only(self, problem):
        with pytest.raises(ConfigurationError, match="preconditioner"):
            list(repro.simulate_steps(
                problem, backend="gpu",
                spec=SolveSpec.from_kwargs(n_steps=1, jacobi=True),
            ))
        with pytest.raises(ConfigurationError, match="comm_only"):
            list(repro.simulate_steps(
                problem, backend="wse",
                spec=SolveSpec.from_kwargs(
                    spec=SPEC, n_steps=1, comm_only=True, fixed_iterations=2
                ),
            ))

    def test_jacobi_transient_on_wse_and_reference(self, problem):
        ref = repro.simulate(
            problem, backend="reference", jacobi=True, **TIME_KW
        )
        wse = repro.simulate(
            problem, backend="wse", spec=_wse_spec(jacobi=True, dtype="float64")
        )
        np.testing.assert_allclose(
            wse.final_pressure, ref.final_pressure, atol=1e-6
        )


class TestWarmStart:
    def test_step1_is_identical_warm_or_cold(self, problem):
        warm = repro.simulate(problem, backend="wse", spec=_wse_spec())
        cold = repro.simulate(
            problem, backend="wse", spec=_wse_spec(warm_start=False)
        )
        assert warm.steps[0].iterations == cold.steps[0].iterations
        np.testing.assert_array_equal(
            warm.steps[0].pressure, cold.steps[0].pressure
        )
        assert warm.steps[0].residual_history == cold.steps[0].residual_history

    def test_warm_start_reduces_total_iterations(self, problem):
        warm = repro.simulate(problem, backend="wse", spec=_wse_spec())
        cold = repro.simulate(
            problem, backend="wse", spec=_wse_spec(warm_start=False)
        )
        assert warm.total_iterations < cold.total_iterations
        # Same physics either way: the trajectory end point agrees.
        np.testing.assert_allclose(
            warm.final_pressure, cold.final_pressure, atol=5e-4
        )


class TestSessionIntegration:
    def test_solve_folds_a_transient_spec(self, problem):
        spec = _wse_spec()
        result = repro.solve(problem, backend="wse", spec=spec)
        sim = repro.simulate(problem, backend="wse", spec=spec)
        assert result.iterations == sim.total_iterations
        assert result.elapsed_seconds == pytest.approx(sim.elapsed_seconds)
        np.testing.assert_array_equal(result.pressure, sim.final_pressure)
        transient = result.telemetry["transient"]
        assert transient["n_steps"] == TIME_KW["n_steps"]
        assert transient["per_step_iterations"] == sim.per_step_iterations

    def test_plan_rows_stay_meaningful(self, problem):
        plan = repro.Session().plan([problem], _wse_spec(), backend="wse")
        row = plan.describe()[0]
        assert row[4] == TIME_KW["n_steps"]
        assert "steps]" in row[1]
        er = plan.run(executor="serial")[0]
        assert er.ok
        assert er.n_steps == TIME_KW["n_steps"]
        assert er.total_iterations == er.result.iterations > 0
        assert er.engine == "vectorized"

    def test_steady_rows_unchanged(self, problem):
        plan = repro.Session().plan([problem], None, backend="reference")
        row = plan.describe()[0]
        assert row[4] == "-"
        er = plan.run(executor="serial")[0]
        assert er.n_steps is None
        assert er.total_iterations == er.result.iterations

    def test_store_round_trip_through_plan(self, problem, tmp_path):
        session = repro.Session(store=tmp_path / "runs")
        spec = _wse_spec()
        first = session.plan([problem], spec, backend="wse").run(executor="serial")
        again = session.plan([problem], spec, backend="wse").run(executor="serial")
        assert not first[0].from_store and again[0].from_store
        np.testing.assert_array_equal(
            again[0].result.pressure, first[0].result.pressure
        )

    def test_batched_executor_fuses_transient_entries(self, problem):
        problems = [make_problem(5, 5, 3, seed=s) for s in (3, 4, 5, 6)]
        spec = _wse_spec(batch_size=2)
        results = repro.solve_many(
            problems, backend="wse", spec=spec, batch=True
        )
        serial = [
            repro.solve(p, backend="wse", spec=_wse_spec()) for p in problems
        ]
        for fused, ser in zip(results, serial):
            assert fused.telemetry["engine"] == "batched"
            assert fused.iterations == ser.iterations
            np.testing.assert_array_equal(fused.pressure, ser.pressure)


class TestBatchedSimulation:
    def test_lanes_match_serial_simulations(self):
        problems = [make_problem(4, 4, 2, seed=s) for s in (1, 2, 3)]
        spec = _wse_spec()
        fused = repro.simulate_many(
            problems, backend="wse", spec=spec, batch=True
        )
        serial = repro.simulate_many(problems, backend="wse", spec=spec)
        for a, b in zip(fused, serial):
            assert a.per_step_iterations == b.per_step_iterations
            np.testing.assert_array_equal(a.final_pressure, b.final_pressure)
            assert a.telemetry["engine"] == "batched"

    def test_batch_requires_capable_backend(self, problem):
        with pytest.raises(ConfigurationError, match="simulate_batch"):
            repro.simulate_many(
                [problem], backend="reference", batch=True, n_steps=1
            )

    def test_event_engine_cannot_batch(self, problem):
        with pytest.raises(ConfigurationError, match="event"):
            repro.simulate_many(
                [problem], backend="wse", batch=True,
                spec=repro.SolveSpec.from_kwargs(
                    spec=SPEC, engine="event", n_steps=1
                ),
            )


class TestStoreResume:
    def test_interrupted_run_resumes_at_step(self, problem, tmp_path):
        spec = _wse_spec()
        boom = RuntimeError("interrupted")

        def explode_after_2(step):
            if step.step == 2:
                raise boom

        with pytest.raises(RuntimeError):
            repro.simulate(
                problem, backend="wse", spec=spec, store=tmp_path,
                on_step=explode_after_2,
            )
        store = repro.ResultStore(tmp_path)
        fp = entry_fingerprint(problem, spec, "wse")
        assert store.simulation_steps_completed(fp) == 2

        resumed = repro.simulate(
            problem, backend="wse", spec=spec, store=tmp_path
        )
        flags = [bool(s.telemetry.get("from_store")) for s in resumed.steps]
        assert flags == [True, True, False, False]

        uninterrupted = repro.simulate(problem, backend="wse", spec=spec)
        assert resumed.per_step_iterations == uninterrupted.per_step_iterations
        # Run telemetry comes from the last step, which the engine computed.
        assert resumed.telemetry == uninterrupted.telemetry
        assert resumed.telemetry["engine"] == "vectorized"
        np.testing.assert_array_equal(
            resumed.final_pressure, uninterrupted.final_pressure
        )

    def test_completed_run_rehydrates_entirely(self, problem, tmp_path):
        spec = _wse_spec()
        first = repro.simulate(problem, backend="wse", spec=spec, store=tmp_path)
        seen = []
        second = repro.simulate(
            problem, backend="wse", spec=spec, store=tmp_path,
            on_step=seen.append,
        )
        assert all(s.telemetry.get("from_store") for s in second.steps)
        assert len(seen) == first.n_steps
        # Stored steps carry no engine, so a replayed run reports none.
        assert second.telemetry == {
            k: v for k, v in first.telemetry.items() if k != "engine"
        }
        assert second.backend == first.backend == "wse"
        np.testing.assert_array_equal(
            second.final_pressure, first.final_pressure
        )
        assert second.per_step_iterations == first.per_step_iterations

    def test_resume_false_recomputes_and_overwrites(self, problem, tmp_path):
        spec = _wse_spec(n_steps=2)
        repro.simulate(problem, backend="wse", spec=spec, store=tmp_path)
        redone = repro.simulate(
            problem, backend="wse", spec=spec, store=tmp_path, resume=False
        )
        assert not any(s.telemetry.get("from_store") for s in redone.steps)
        store = repro.ResultStore(tmp_path)
        fp = entry_fingerprint(problem, spec, "wse")
        assert store.simulation_steps_completed(fp) == 2

    def test_distinct_specs_get_distinct_stacks(self, problem, tmp_path):
        a = repro.simulate(
            problem, backend="wse", spec=_wse_spec(), store=tmp_path
        )
        b = repro.simulate(
            problem, backend="wse", spec=_wse_spec(warm_start=False),
            store=tmp_path,
        )
        assert not any(s.telemetry.get("from_store") for s in b.steps)
        assert a.total_iterations < b.total_iterations

    def test_torn_write_loses_only_the_torn_step(self, problem, tmp_path):
        """Each step persists as its own atomically-renamed file, so a
        crash mid-write can lose at most the step being written — the
        completed prefix stays loadable and resume picks up there."""
        spec = _wse_spec()
        complete = repro.simulate(
            problem, backend="wse", spec=spec, store=tmp_path
        )
        store = repro.ResultStore(tmp_path)
        fp = entry_fingerprint(problem, spec, "wse")
        # Simulate a torn write of step 3: the file vanished (a crash
        # before the rename) even though the run got that far.
        (tmp_path / f"{fp}.steps" / "00003.npz").unlink()
        assert store.simulation_steps_completed(fp) == 2
        assert len(store.load_simulation_steps(fp)) == 2
        resumed = repro.simulate(
            problem, backend="wse", spec=spec, store=tmp_path
        )
        assert resumed.per_step_iterations == complete.per_step_iterations
        np.testing.assert_array_equal(
            resumed.final_pressure, complete.final_pressure
        )

    def test_resume_simulation_returns_prefix_or_clears(self, problem, tmp_path):
        spec = _wse_spec()
        repro.simulate(problem, backend="wse", spec=spec, store=tmp_path)
        store = repro.ResultStore(tmp_path)
        fp = entry_fingerprint(problem, spec, "wse")
        assert [s.step for s in store.resume_simulation(fp, 4, resume=True)] \
            == [1, 2, 3, 4]
        assert [s.step for s in store.resume_simulation(fp, 2, resume=True)] \
            == [1, 2]
        assert store.resume_simulation("absent", 4, resume=True) == []
        assert store.resume_simulation(fp, 4, resume=False) == []
        assert store.simulation_steps_completed(fp) == 0

    def test_ordered_append_is_enforced(self, problem, tmp_path):
        store = repro.ResultStore(tmp_path)
        sim = repro.simulate(problem, n_steps=2, dt=1.0)
        with pytest.raises(ConfigurationError, match="cannot append"):
            store.save_simulation_step("abc123", sim.steps[1])
