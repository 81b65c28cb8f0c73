"""Direct coverage for ResultStore resume semantics and the pickle
survival of the library's rich exceptions.

``ResultStore`` is the resume backbone of long sessions and
``ConvergenceError``/``PeOutOfMemory`` carry extra constructor arguments
that would break the default reduce protocol across process pools —
both previously had only incidental coverage.
"""

import builtins
import json
import os
import pickle
import shutil
from pathlib import Path

import numpy as np
import pytest

from helpers import make_problem
import repro
import repro.session
from repro.serve.service import _pool_solve
from repro.session import (
    ResultStore,
    _execute_entry_in_worker,
    entry_fingerprint,
    plan_entry,
)
from repro.util.errors import ConfigurationError, ConvergenceError, PeOutOfMemory
from repro.wse.specs import WSE2

REF_SPEC = repro.SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-8)


def _plan(session, n=2):
    problems = [make_problem(4, 3, 2, seed=s) for s in range(n)]
    return session.plan(problems, REF_SPEC, backend="reference")


class TestResultStoreResume:
    def test_round_trips_pressure_and_history_exactly(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        session = repro.Session(store=store)
        plan = _plan(session, n=1)
        [first] = plan.run(executor="serial")
        assert first.ok and not first.from_store
        loaded = store.load(plan.entries[0].fingerprint)
        np.testing.assert_array_equal(loaded.pressure, first.result.pressure)
        assert loaded.residual_history == [
            float(v) for v in first.result.residual_history
        ]
        assert loaded.iterations == first.result.iterations
        assert loaded.converged == first.result.converged
        assert loaded.telemetry["from_store"] is True

    def test_resume_skips_completed_entries_across_instances(self, tmp_path):
        """A fresh Session + fresh ResultStore over the same directory
        resumes from the manifest — the crash-recovery contract."""
        first = _plan(repro.Session(store=tmp_path / "runs")).run(executor="serial")
        assert [r.from_store for r in first] == [False, False]
        again = _plan(repro.Session(store=tmp_path / "runs")).run(executor="serial")
        assert [r.from_store for r in again] == [True, True]
        for a, b in zip(first, again):
            np.testing.assert_array_equal(b.result.pressure, a.result.pressure)

    def test_resume_false_resolves_again(self, tmp_path):
        session = repro.Session(store=tmp_path / "runs")
        _plan(session).run(executor="serial")
        rerun = _plan(session).run(executor="serial", resume=False)
        assert [r.from_store for r in rerun] == [False, False]

    def test_has_requires_both_manifest_and_npz(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        session = repro.Session(store=store)
        plan = _plan(session, n=1)
        plan.run(executor="serial")
        fingerprint = plan.entries[0].fingerprint
        assert store.has(fingerprint) and fingerprint in store
        # A manifest record whose payload file vanished must not count as
        # resumable (and must re-solve, not crash, on the next run).
        (store.root / f"{fingerprint}.npz").unlink()
        assert not store.has(fingerprint)
        resumed = repro.Session(store=ResultStore(tmp_path / "runs")).plan(
            [make_problem(4, 3, 2, seed=0)], REF_SPEC, backend="reference"
        ).run(executor="serial")
        assert resumed[0].ok and not resumed[0].from_store

    def test_manifest_is_atomic_and_reloadable(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        session = repro.Session(store=store)
        plan = _plan(session)
        plan.run(executor="serial")
        assert not list(store.root.glob("*.tmp"))  # atomic replace cleaned up
        reloaded = ResultStore(tmp_path / "runs")
        assert len(reloaded) == 2
        assert reloaded.keys() == store.keys()
        records = reloaded.records()
        assert {r["backend"] for r in records} == {"reference"}
        assert all(r["spec"] == REF_SPEC.to_dict() for r in records)

    def test_load_unknown_fingerprint_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no entry"):
            ResultStore(tmp_path / "runs").load("deadbeef")

    def test_batched_executor_populates_and_resumes_store(self, tmp_path):
        problems = [make_problem(4, 4, 2, seed=s) for s in range(3)]
        spec = repro.SolveSpec.from_kwargs(
            spec=repro.spec.WseSpecs(  # small fabric keeps the run tiny
                name="t", fabric_width=8, fabric_height=8,
                pe_memory_bytes=48 * 1024, clock_hz=1e9, simd_width_f32=2,
                peak_flops=1e12, memory_bandwidth_bytes=1e12,
                fabric_bandwidth_bytes=1e12,
            ),
            dtype="float64", rel_tol=1e-9, engine="vectorized",
        )
        session = repro.Session(store=tmp_path / "runs")
        first = session.plan(problems, spec, backend="wse").run(executor="batched")
        assert all(r.ok and r.engine == "batched" for r in first)
        second = repro.Session(store=tmp_path / "runs").plan(
            problems, spec, backend="wse"
        ).run(executor="batched")
        assert all(r.from_store for r in second)


def _stored_result(seed=0):
    rng = np.random.default_rng(seed)
    return repro.SolveResult(
        pressure=rng.random((4, 4, 2), dtype=np.float32),
        iterations=7, converged=True, residual_history=[1.0, 0.1, 0.01],
        elapsed_seconds=0.001, backend="reference", telemetry={},
    )


def _step_arrays(n):
    return dict(
        pressure=np.full((2, 2, 2), float(n)), residual_history=np.array([0.1]),
        iterations=np.int64(n), converged=np.bool_(True),
        time=np.float64(0.5 * n), dt=np.float64(0.5), elapsed=np.float64(0.0),
    )


class TestPerKeyLayout:
    """One record file per key: the layout, a legacy manifest's one-time
    migration, a save's cost and an interrupted clear."""

    def test_legacy_manifest_migrates_on_open(self, tmp_path):
        solve, sim = "a" * 64, "b" * 64
        pressure = np.random.default_rng(1).random((3, 3, 2))
        history = np.array([1.0, 0.1, 0.01])
        np.savez_compressed(
            tmp_path / f"{solve}.npz", pressure=pressure, residual_history=history
        )
        (tmp_path / f"{sim}.steps").mkdir()
        for n in (1, 2):
            np.savez_compressed(
                tmp_path / f"{sim}.steps" / f"{n:05d}.npz", **_step_arrays(n)
            )
        manifest = {
            solve: {
                "fingerprint": solve, "label": "problem[3x3x2]",
                "scenario": None, "backend": "reference",
                "spec": REF_SPEC.to_dict(), "iterations": 2, "converged": True,
                "elapsed_seconds": 0.01, "time_kind": "wall_clock",
            },
            f"{sim}#steps": {
                "kind": "simulation", "fingerprint": sim, "n_steps": 4,
                "steps_completed": 2, "backend": "wse", "time_kind": "modeled",
            },
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "manifest.lock").touch()

        store = ResultStore(tmp_path)
        assert store.keys() == sorted(manifest)
        loaded = store.load(solve)
        assert loaded.pressure.dtype == pressure.dtype
        assert loaded.pressure.tobytes() == pressure.tobytes()
        assert loaded.residual_history == history.tolist()
        steps = store.resume_simulation(sim, 2, resume=True)
        assert [s.step for s in steps] == [1, 2]
        np.testing.assert_array_equal(steps[1].pressure, np.full((2, 2, 2), 2.0))
        assert steps[1].backend == "wse"
        assert not (tmp_path / "manifest.json").exists()
        assert not (tmp_path / "manifest.lock").exists()
        assert "steps_completed" not in store.get(f"{sim}#steps")

    def test_save_writes_its_own_two_files_and_reads_nothing(
        self, tmp_path, monkeypatch
    ):
        store = ResultStore(tmp_path)
        entries = [
            plan_entry(
                repro.scenario("lognormal_reservoir", nx=4, ny=4, nz=2, seed=s),
                REF_SPEC, "reference",
            )
            for s in range(801)
        ]
        result = _stored_result()
        for entry in entries[:800]:
            store.save(entry, result)
        assert len(store) == 800

        replaced: list[str] = []
        reads: list = []
        real_replace, real_open = os.replace, builtins.open
        real_read_text, real_path_open = Path.read_text, Path.open
        monkeypatch.setattr(
            os, "replace",
            lambda src, dst: replaced.append(Path(dst).name) or real_replace(src, dst),
        )
        monkeypatch.setattr(
            builtins, "open", lambda *a, **k: reads.append(a) or real_open(*a, **k)
        )
        monkeypatch.setattr(
            Path, "read_text",
            lambda self, *a, **k: reads.append(self) or real_read_text(self, *a, **k),
        )
        monkeypatch.setattr(
            Path, "open",
            lambda self, *a, **k: reads.append(self) or real_path_open(self, *a, **k),
        )
        fingerprint = entries[800].fingerprint
        store.save(entries[800], result)
        monkeypatch.undo()
        assert replaced == [f"{fingerprint}.npz", f"{fingerprint}.json"]
        assert reads == []
        assert len(store) == 801

    def test_interrupted_clear_leaves_no_steps_to_skip(self, tmp_path, monkeypatch):
        problem = make_problem(5, 5, 3, seed=3)
        spec = repro.SolveSpec.from_kwargs(
            spec=WSE2.with_fabric(8, 8), engine="vectorized", n_steps=4,
            dt=2.0, total_compressibility=5e-3, rel_tol=1e-8,
        )
        repro.simulate(problem, backend="wse", spec=spec, store=tmp_path)
        store = ResultStore(tmp_path)
        fingerprint = entry_fingerprint(problem, spec, "wse")
        assert store.simulation_steps_completed(fingerprint) == 4

        def rmtree_fails(path, *args, **kwargs):
            raise OSError("removal failed")

        monkeypatch.setattr(shutil, "rmtree", rmtree_fails)
        with pytest.raises(OSError, match="removal failed"):
            store.clear_simulation(fingerprint)
        monkeypatch.undo()
        assert store.simulation_steps_completed(fingerprint) == 0

        written: list[str] = []
        write_npz = repro.session._write_npz
        monkeypatch.setattr(
            repro.session, "_write_npz",
            lambda path, **arrays: written.append(path.name) or write_npz(path, **arrays),
        )
        rerun = repro.simulate(problem, backend="wse", spec=spec, store=tmp_path)
        assert not any(step.telemetry.get("from_store") for step in rerun.steps)
        assert written == ["00001.npz", "00002.npz", "00003.npz", "00004.npz"]
        assert store.simulation_steps_completed(fingerprint) == 4


class TestErrorPickling:
    def test_convergence_error_survives_pickle(self):
        err = ConvergenceError("no luck", iterations=123, residual_norm=4.5e-3)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ConvergenceError)
        assert str(clone) == "no luck"
        assert clone.iterations == 123
        assert clone.residual_norm == 4.5e-3

    def test_pe_out_of_memory_survives_pickle(self):
        err = PeOutOfMemory("full", requested=256, available=128, capacity=49152)
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, PeOutOfMemory)
        assert (clone.requested, clone.available, clone.capacity) == (256, 128, 49152)
        assert str(clone) == "full"

    def test_reduce_reconstructs_with_full_signature(self):
        """__reduce__ must hand back every constructor argument — the
        default protocol would re-call __init__ with only the message."""
        cls, args = ConvergenceError("m", 7, 0.25).__reduce__()
        assert cls is ConvergenceError and args == ("m", 7, 0.25)
        cls, args = PeOutOfMemory("m", 1, 2, 3).__reduce__()
        assert cls is PeOutOfMemory and args == ("m", 1, 2, 3)

    def test_worker_replaces_unpicklable_errors(self, tmp_path):
        """_execute_entry_in_worker must never ship an exception that
        explodes at deserialization time."""

        class Unpicklable(Exception):
            def __init__(self, message, detail):  # two required args +
                super().__init__(message)         # default reduce = boom
                self.detail = detail

            def __reduce__(self):
                return (self.__class__, (self.args[0],))  # wrong arity

        class ExplodingBackend:
            name = "exploding-test-backend"

            def solve(self, problem, spec=None):
                raise Unpicklable("kaboom", detail=42)

        repro.register_backend(ExplodingBackend(), overwrite=True)
        try:
            session = repro.Session()
            plan = session.plan(
                [make_problem(3, 3, 2)], REF_SPEC, backend=ExplodingBackend.name
            )
            result, error, elapsed = _execute_entry_in_worker(plan.entries[0])
            assert result is None and elapsed >= 0
            # The stand-in is picklable and names the original error.
            clone = pickle.loads(pickle.dumps(error))
            assert isinstance(clone, RuntimeError)
            assert "Unpicklable" in str(clone) and "kaboom" in str(clone)
            # The service's process-pool worker applies the same rule.
            with pytest.raises(RuntimeError) as raised:
                _pool_solve(
                    ExplodingBackend.name, make_problem(3, 3, 2), REF_SPEC,
                    picklesafe=True,
                )
            clone = pickle.loads(pickle.dumps(raised.value))
            assert isinstance(clone, RuntimeError)
            assert "Unpicklable" in str(clone) and "kaboom" in str(clone)
        finally:
            repro.backends.unregister_backend(ExplodingBackend.name)

    def test_library_errors_cross_a_real_process_pool(self):
        """End-to-end: a ConvergenceError raised in a worker process
        arrives intact (type + attributes) at the parent."""
        problem = make_problem(4, 4, 2, seed=3)
        tight = repro.SolveSpec.from_kwargs(dtype="float64", rel_tol=1e-12, max_iters=1)
        plan = repro.Session().plan([(problem, tight, "reference")])
        [res] = plan.run(executor="process", n_workers=2)
        assert not res.ok
        assert isinstance(res.error, ConvergenceError)
        assert res.error.iterations >= 0
        assert res.error.residual_norm > 0
