"""Tests for the Session execution engine (`repro.session`).

ISSUE-2 acceptance: process-executor results match serial execution
(allclose) on the weak-scaling family; a populated ResultStore is resumed
without re-solving completed entries; per-entry errors are captured
instead of poisoning the batch; legacy `solve_many` routes through the
plan and keeps its signature.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.backends import SolveResult, register_backend, unregister_backend
from repro.scenarios import weak_scaling_family
from repro.session import (
    PlanEntryResult,
    ResultStore,
    Session,
    entry_fingerprint,
    plan_entry,
)
from repro.spec import SolveSpec
from repro.util.errors import ConfigurationError, ConvergenceError

SPEC = SolveSpec.from_kwargs(dtype=np.float64, rel_tol=1e-8, max_iters=2000)
FAMILY_KW = dict(laterals=(3, 4, 5), nz=3)


@pytest.fixture()
def family():
    return weak_scaling_family(**FAMILY_KW)


class TestPlan:
    def test_plan_is_inspectable(self, family):
        plan = Session().plan(family, SPEC, backend="reference")
        assert len(plan) == len(family)
        rows = plan.describe()
        assert [r[0] for r in rows] == [0, 1, 2]
        assert all(r[2] == "reference" for r in rows)
        # Fingerprints are content-derived: distinct targets differ.
        assert len({e.fingerprint for e in plan}) == len(family)

    def test_fingerprints_depend_on_spec_and_backend(self, family):
        session = Session()
        a = session.plan(family, SPEC, backend="reference")
        b = session.plan(family, SPEC.with_options(rel_tol=1e-6), backend="reference")
        c = session.plan(family, SPEC, backend="gpu")
        assert a.entries[0].fingerprint != b.entries[0].fingerprint
        assert a.entries[0].fingerprint != c.entries[0].fingerprint
        # Same target+spec+backend is stable across plans.
        assert a.entries[0].fingerprint == session.plan(
            family, SPEC, backend="reference"
        ).entries[0].fingerprint

    def test_plan_accepts_names_scenarios_problems_and_tuples(self):
        problem = repro.scenario("quarter_five_spot", nx=3, ny=3, nz=2).build()
        plan = Session().plan(
            [
                "quarter_five_spot",
                repro.scenario("quarter_five_spot", nx=4, ny=4, nz=2),
                problem,
                (problem, SPEC.with_options(max_iters=99)),
            ],
            SPEC,
        )
        assert plan.entries[3].spec.tolerance.max_iters == 99
        assert plan.entries[2].problem is problem
        assert plan.entries[0].scenario is not None

    def test_plan_rejects_junk_targets_and_backends(self):
        with pytest.raises(ConfigurationError, match="cannot plan"):
            Session().plan([42], SPEC)
        with pytest.raises(ConfigurationError, match="unknown backend"):
            Session().plan(["quarter_five_spot"], SPEC, backend="abacus")
        with pytest.raises(ConfigurationError, match="tuple entries"):
            Session().plan([("quarter_five_spot",)], SPEC)

    def test_assembly_is_memoized_per_scenario(self):
        calls = {"n": 0}

        @repro.scenarios.register_scenario("memo-probe", overwrite=True)
        def _build(nx=3, ny=3, nz=2):
            calls["n"] += 1
            return repro.scenario("quarter_five_spot", nx=nx, ny=ny, nz=nz).build()

        try:
            sc = repro.scenario("memo-probe")
            plan = Session().plan(
                [(sc, SPEC), (sc, SPEC.with_options(max_iters=99))],
                backend="reference",
            )
            results = plan.run(executor="serial")
            assert all(er.ok for er in results)
            assert calls["n"] == 1  # two entries, one assembly
        finally:
            repro.scenarios.unregister_scenario("memo-probe")


class TestRun:
    def test_serial_thread_process_agree(self, family):
        serial = Session().plan(family, SPEC).run(executor="serial")
        threaded = Session().plan(family, SPEC).run(executor="thread", n_workers=3)
        procs = Session().plan(family, SPEC).run(executor="process", n_workers=3)
        for s, t, p in zip(serial, threaded, procs):
            assert s.ok and t.ok and p.ok
            np.testing.assert_allclose(t.result.pressure, s.result.pressure)
            np.testing.assert_allclose(p.result.pressure, s.result.pressure)
        # Input order is preserved regardless of completion order.
        assert [er.entry.index for er in procs] == [0, 1, 2]

    def test_unknown_executor_rejected(self, family):
        with pytest.raises(ConfigurationError, match="executor"):
            Session().plan(family, SPEC).run(executor="fibers")
        with pytest.raises(ConfigurationError, match="n_workers"):
            Session().plan(family, SPEC).run(n_workers=0)

    def test_per_entry_error_capture(self, family):
        # An unreachable tolerance in 2 iterations raises ConvergenceError
        # for one entry; the others must still complete.
        bad = ("weak_scaling", SolveSpec.from_kwargs(rel_tol=1e-12, max_iters=2))
        plan = Session().plan([family[0], bad, family[1]], SPEC)
        results = plan.run(executor="thread", n_workers=3)
        assert [er.ok for er in results] == [True, False, True]
        assert isinstance(results[1].error, ConvergenceError)
        assert results[1].result is None
        np.testing.assert_allclose(
            results[0].result.pressure.shape, (3, 3, 3)
        )

    def test_errors_survive_the_process_boundary(self, family):
        bad = ("weak_scaling", SolveSpec.from_kwargs(rel_tol=1e-12, max_iters=2))
        results = Session().plan([bad, family[0]], SPEC).run(
            executor="process", n_workers=2
        )
        assert isinstance(results[0].error, ConvergenceError)
        assert results[1].ok

    def test_on_result_callback_sees_every_entry(self, family):
        seen: list[PlanEntryResult] = []
        results = Session().plan(family, SPEC).run(
            executor="serial", on_result=seen.append
        )
        assert len(seen) == len(results) == len(family)


class TestResultStore:
    def test_persist_and_resume_without_resolving(self, family, tmp_path):
        session = Session(store=tmp_path / "run")
        first = session.plan(family, SPEC).run(executor="serial")
        assert all(not er.from_store for er in first)
        assert len(session.store) == len(family)

        # A counting backend proves resume never calls solve again.
        class Counting:
            name = "counting-reference"
            calls = 0

            def solve(self, problem, spec=None):
                type(self).calls += 1
                from repro.backends import get_backend

                return get_backend("reference").solve(problem, spec)

        register_backend(Counting())
        try:
            store2 = tmp_path / "run2"
            s2 = Session(store=store2)
            a = s2.plan(family, SPEC, backend="counting-reference").run(executor="serial")
            assert Counting.calls == len(family)
            b = Session(store=store2).plan(
                family, SPEC, backend="counting-reference"
            ).run(executor="thread")
            assert Counting.calls == len(family)  # unchanged: all from store
            assert all(er.from_store for er in b)
            for x, y in zip(a, b):
                np.testing.assert_allclose(y.result.pressure, x.result.pressure)
                assert y.result.telemetry["from_store"] is True
        finally:
            unregister_backend("counting-reference")

    def test_store_records_spec_and_reloads_result(self, family, tmp_path):
        session = Session(store=tmp_path / "run")
        [er] = session.plan(family[:1], SPEC).run(executor="serial")
        store = ResultStore(tmp_path / "run")  # fresh handle, reads manifest
        assert store.keys() == [er.entry.fingerprint]
        record = store.records()[0]
        assert record["backend"] == "reference"
        assert SolveSpec.from_dict(record["spec"]) == SPEC
        loaded = store.load(er.entry.fingerprint)
        np.testing.assert_allclose(loaded.pressure, er.result.pressure)
        assert loaded.iterations == er.result.iterations
        assert loaded.residual_history == er.result.residual_history
        assert loaded.telemetry["time_kind"] == "wall_clock"

    def test_resume_disabled_resolves_again(self, family, tmp_path):
        session = Session(store=tmp_path / "run")
        session.plan(family[:1], SPEC).run(executor="serial")
        [er] = session.plan(family[:1], SPEC).run(executor="serial", resume=False)
        assert not er.from_store

    def test_failed_entries_are_not_stored(self, tmp_path):
        bad = ("weak_scaling", SolveSpec.from_kwargs(rel_tol=1e-12, max_iters=2))
        session = Session(store=tmp_path / "run")
        [er] = session.plan([bad]).run(executor="serial")
        assert not er.ok
        assert len(session.store) == 0

    def test_load_unknown_fingerprint_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no entry"):
            ResultStore(tmp_path / "empty").load("deadbeef")


class TestResolvedEngineFingerprint:
    """An entry is fingerprinted with the engine that will run it: an
    unset wse engine resolves to the default ``"fused"`` first."""

    FIXED_SPEC = SolveSpec.from_kwargs(rel_tol=1e-7)
    #: What the unset wse entry digested to while it meant the event oracle.
    EVENT_ERA = "2701f5f822998f033b0476eda8e9924e6df515bb5d1f0ea8ecd049017ced5036"
    FUSED = "6f761635b474a261d199bdc6fa038607edd685ea80214218544eb7c83dc709dc"
    REFERENCE = "bda3115409ba0de0387cf3bd6b2a0894ff6178004d79798899061f8906969d90"

    @staticmethod
    def target():
        return repro.scenario("lognormal_reservoir", nx=4, ny=4, nz=3, seed=1)

    def test_unset_wse_engine_fingerprints_as_explicit_fused(self):
        unset = plan_entry(self.target(), self.FIXED_SPEC, "wse")
        fused = plan_entry(
            self.target(), self.FIXED_SPEC.with_options(engine="fused"), "wse"
        )
        assert unset.fingerprint == fused.fingerprint == self.FUSED
        assert unset.spec.machine.engine == "fused"
        reference = plan_entry(self.target(), self.FIXED_SPEC, "reference")
        assert reference.fingerprint == self.REFERENCE
        assert reference.spec is self.FIXED_SPEC

    def test_explicit_engine_spec_keeps_its_identity(self):
        spec = self.FIXED_SPEC.with_options(engine="event")
        assert plan_entry(self.target(), spec, "wse").spec is spec

    @pytest.mark.parametrize("backend", ["wse", "reference"])
    def test_entry_fingerprint_is_the_plan_entry_digest(self, backend):
        assert entry_fingerprint(self.target(), self.FIXED_SPEC, backend) == (
            plan_entry(self.target(), self.FIXED_SPEC, backend).fingerprint
        )

    def _event_era_store(self, root) -> ResultStore:
        """A store holding a stale answer under the event-era digest."""
        store = ResultStore(root)
        entry = replace(
            plan_entry(self.target(), self.FIXED_SPEC, "wse"),
            spec=self.FIXED_SPEC, fingerprint=self.EVENT_ERA,
        )
        stale = SolveResult(
            pressure=np.full((4, 4, 3), 42.0), iterations=0, converged=True,
            residual_history=[0.0], elapsed_seconds=0.0, backend="wse",
            telemetry={"engine": "event"},
        )
        store.save(entry, stale)
        assert store.has(self.EVENT_ERA)
        return store

    def test_event_era_result_is_not_served_by_a_session(self, tmp_path):
        store = self._event_era_store(tmp_path / "store")
        [er] = Session(store=store).plan(
            [self.target()], self.FIXED_SPEC, backend="wse"
        ).run(executor="serial")
        assert er.ok and not er.from_store
        assert er.engine == "fused"
        assert not np.any(er.result.pressure == 42.0)

    def test_event_era_result_is_not_served_by_the_service(self, tmp_path):
        from repro.serve import SolveService

        store = self._event_era_store(tmp_path / "store")

        async def main():
            async with SolveService(store=store, records=tmp_path / "runs") as svc:
                result = await svc.submit(
                    self.target(), backend="wse", spec=self.FIXED_SPEC
                )
                return result, svc.stats()

        result, stats = asyncio.run(main())
        assert stats["executed"] == 1 and stats["cache_hits_store"] == 0
        assert result.telemetry["engine"] == "fused"
        assert not np.any(result.pressure == 42.0)


class TestSolveManyCompat:
    """Satellite: legacy `solve_many` gains per-entry error capture."""

    def test_all_entries_finish_before_first_error_raised(self):
        solved: list[str] = []

        class Probe:
            name = "probe-backend"

            def solve(self, problem, spec=None):
                from repro.backends import get_backend

                shape = "x".join(map(str, problem.grid.shape))
                if problem.grid.nx == 4:
                    raise ConvergenceError("probe blew up", 1, 1.0)
                result = get_backend("reference").solve(problem, spec)
                solved.append(shape)
                return result

        register_backend(Probe())
        try:
            targets = [
                repro.scenario("quarter_five_spot", nx=n, ny=3, nz=2)
                for n in (3, 4, 5)
            ]
            with pytest.raises(ConvergenceError, match="probe blew up"):
                repro.solve_many(targets, backend="probe-backend", n_workers=2)
            # The failing middle entry did not lose its siblings.
            assert sorted(solved) == ["3x3x2", "5x3x2"]
        finally:
            unregister_backend("probe-backend")

    def test_signature_and_order_preserved(self, family):
        results = repro.solve_many(family, backend="reference", spec=SPEC, n_workers=2)
        assert [r.pressure.shape[0] for r in results] == [3, 4, 5]
