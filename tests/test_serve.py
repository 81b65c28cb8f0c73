"""Serving-tier tests: SolveService and its parts.

Covers the failure taxonomy and the dispatch rule under fault injection
(killed pool workers included), admission/fusion grouping, the
content-addressed cache tiers, durable run records, the
64-requests/8-specs acceptance scenario, and killed-mid-stream resume.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import gc
import json
import multiprocessing
import os
import pathlib
import threading

import numpy as np
import pytest

import repro
from helpers import make_problem
from repro.backends import register_backend, unregister_backend
from repro.serve import (
    QueueClosed,
    RequestQueue,
    ResultCache,
    RunRecorder,
    SolveRequest,
    SolveService,
    classify_failure,
    load_attempts,
    load_run_record,
)
from repro.session import ResultStore, plan_entry, plan_lanes
from repro.spec import SolveSpec
from repro.util.errors import (
    ConfigurationError,
    ConvergenceError,
    PeOutOfMemory,
    ReproError,
    SolveErrorGroup,
    ValidationError,
)

SPEC = SolveSpec.from_kwargs(rel_tol=1e-7)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture()
def fake_backend():
    """Register a configurable fake backend; unregister on teardown."""
    registered: list[str] = []

    def make(cls):
        backend = cls()
        register_backend(backend, overwrite=True)
        registered.append(cls.name)
        return backend

    yield make
    for name in registered:
        unregister_backend(name)


# -- failure taxonomy ---------------------------------------------------------


class TestRetryTaxonomy:
    def test_classification(self):
        assert classify_failure(ConvergenceError("x", 1, 1.0)) == "convergence"
        assert classify_failure(PeOutOfMemory("x", 9, 1, 4)) == "resource"
        assert classify_failure(ConfigurationError("x")) == "config"
        assert classify_failure(ValidationError("x")) == "config"
        assert classify_failure(ConnectionError("x")) == "transport"
        assert classify_failure(RuntimeError("x")) == "executor"

    def test_group_classifies_as_worst_member(self):
        flaky = ConvergenceError("slow", 1, 1.0)
        assert classify_failure(SolveErrorGroup("g", [flaky])) == "convergence"
        mixed = SolveErrorGroup("g", [flaky, PeOutOfMemory("big", 9, 1, 4)])
        assert classify_failure(mixed) == "resource"  # non-retryable wins

    def test_empty_group_fails_fast_as_config(self):
        """A group with no member errors means the raiser lost track of
        its failures — a bookkeeping bug that classifies as config, not
        as "executor"."""

        class _EmptyGroup(SolveErrorGroup):
            # Python 3.11's ExceptionGroup refuses empty construction,
            # so seed one member and report none — what a buggy raiser's
            # bookkeeping looks like from the classifier's seat.
            def __new__(cls):
                return SolveErrorGroup.__new__(cls, "empty", [RuntimeError("seed")])

            def __init__(self):
                pass

            @property
            def errors(self):
                return []

        empty = _EmptyGroup()
        assert classify_failure(empty) == "config"


# -- fault injection through the service --------------------------------------


def _kill_worker():
    """End the calling pool worker the way a crash or an OOM kill does;
    refuse anywhere else, so a misconfigured test cannot end pytest."""
    if multiprocessing.parent_process() is None:
        raise RuntimeError("only a pool worker may be killed")
    os._exit(1)


fork_only = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="a backend registered in the test reaches pool workers only by fork",
)


class TestServiceRetries:
    def test_flaky_backend_recovers_on_resubmit(self, tmp_path, fake_backend):
        calls = []

        class Flaky:
            name = "flaky-backend"

            def solve(self, problem, spec=None):
                calls.append(1)
                if len(calls) == 1:
                    raise ConvergenceError("transient wobble", 1, 1.0)
                return repro.solve(problem, backend="reference", spec=spec)

        fake_backend(Flaky)

        async def main():
            async with SolveService(records=tmp_path / "runs") as svc:
                problem = make_problem(3, 3, 2)
                with pytest.raises(ConvergenceError):
                    await svc.submit(problem, backend="flaky-backend", spec=SPEC)
                # The failure cached nothing: a resubmit launches again.
                result = await svc.submit(
                    problem, backend="flaky-backend", spec=SPEC
                )
                return result, svc.recorder.run_dir

        result, run_dir = run(main())
        assert result.converged and len(calls) == 2

        attempts = load_attempts(run_dir)
        assert [a["attempt"] for a in attempts] == [1, 1]
        assert [a["outcome"] for a in attempts] == ["error", "ok"]
        assert [a["category"] for a in attempts] == ["convergence", None]
        assert all("backoff_seconds" not in a for a in attempts)

        record = load_run_record(run_dir)
        assert record["summary"]["retries"] == 0
        assert record["summary"]["executed"] == 1
        assert record["summary"]["failed"] == 1

    def test_pe_out_of_memory_fails_fast(self, tmp_path, fake_backend):
        calls = []

        class TooBig:
            name = "toobig-backend"

            def solve(self, problem, spec=None):
                calls.append(1)
                raise PeOutOfMemory("does not fit", 9000, 100, 4000)

        fake_backend(TooBig)

        async def main():
            async with SolveService(records=tmp_path / "runs") as svc:
                with pytest.raises(PeOutOfMemory):
                    await svc.submit(
                        make_problem(3, 3, 2), backend="toobig-backend",
                        spec=SPEC,
                    )
                return svc.recorder.run_dir

        run_dir = run(main())
        assert len(calls) == 1  # deterministic failure: no retry
        [attempt] = load_attempts(run_dir)
        assert attempt["category"] == "resource"
        record = load_run_record(run_dir)
        assert record["summary"]["failed"] == 1
        assert record["summary"]["retries"] == 0

    def test_convergence_error_is_attempted_once_without_sleeping(
        self, fake_backend, monkeypatch
    ):
        calls, sleeps = [], []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)

        class AlwaysFlaky:
            name = "alwaysflaky-backend"

            def solve(self, problem, spec=None):
                calls.append(1)
                raise ConvergenceError("never converges", 1, 1.0)

        fake_backend(AlwaysFlaky)

        async def main():
            async with SolveService() as svc:
                with pytest.raises(ConvergenceError):
                    await svc.submit(
                        make_problem(3, 3, 2), backend="alwaysflaky-backend",
                        spec=SPEC,
                    )
                return svc.stats()

        stats = run(main())
        assert len(calls) == 1 and sleeps == []
        assert (stats["launches"], stats["retries"], stats["failed"]) == (1, 0, 1)

    def test_failed_fused_lane_unfuses_and_retries_solo(
        self, tmp_path, fake_backend
    ):
        batch_calls, solo_calls = [], []

        class FlakyBatch:
            name = "flakybatch-backend"

            def solve(self, problem, spec=None):
                solo_calls.append(1)
                return repro.solve(problem, backend="reference", spec=spec)

            def solve_batch(self, problems, spec=None):
                batch_calls.append(len(problems))
                raise ConvergenceError("lane 1 dragged the batch", 1, 1.0)

        fake_backend(FlakyBatch)

        async def main():
            async with SolveService(records=tmp_path / "runs") as svc:
                futs = [
                    svc.submit(
                        make_problem(3, 3, 2, seed=s),
                        backend="flakybatch-backend", spec=SPEC,
                    )
                    for s in range(2)
                ]
                results = await asyncio.gather(*futs)
                return results, svc.recorder.run_dir

        results, run_dir = run(main())
        assert all(r.converged for r in results)
        assert batch_calls == [2] and len(solo_calls) == 2
        record = load_run_record(run_dir)
        assert record["summary"]["batched_launches"] == 1
        assert record["summary"]["executed"] == 2
        # Every request saw the fused failure (attempt 1) + solo success.
        for req in record["requests"].values():
            assert req["attempts"] == 2
            assert req["lane"]["fused"] is True

    def test_failed_store_write_fails_the_request(self, tmp_path, monkeypatch):
        def disk_full(self, entry, result):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(ResultStore, "save", disk_full)
        problem = make_problem(3, 3, 2)

        async def main():
            async with SolveService(
                store=tmp_path / "cache", records=tmp_path / "runs"
            ) as svc:
                for _ in range(2):  # the failed write cached nothing
                    with pytest.raises(OSError, match="No space left"):
                        await asyncio.wait_for(
                            svc.submit(problem, backend="reference", spec=SPEC),
                            timeout=20,
                        )
                return svc.stats(), svc.recorder.run_dir

        stats, run_dir = run(main())
        assert (stats["executed"], stats["failed"], stats["inflight"]) == (0, 2, 0)
        assert (stats["cache_hits_memory"], stats["cache_hits_store"]) == (0, 0)
        requests = load_run_record(run_dir)["requests"]
        assert [(r["outcome"], r["category"]) for r in requests.values()] == [
            ("error", "transport"), ("error", "transport"),
        ]

    @fork_only
    def test_killed_worker_fails_after_two_attempts_and_the_pool_heals(
        self, tmp_path, fake_backend
    ):
        class Killer:
            name = "killer-backend"

            def solve(self, problem, spec=None):
                _kill_worker()

        fake_backend(Killer)  # before the pool forks its workers

        async def main():
            async with SolveService(
                records=tmp_path / "runs", pool="process", n_workers=2
            ) as svc:
                with pytest.raises(concurrent.futures.BrokenExecutor):
                    await svc.submit(
                        make_problem(3, 3, 2), backend="killer-backend",
                        spec=SPEC,
                    )
                healthy = await svc.submit(
                    make_problem(3, 3, 2), backend="reference", spec=SPEC
                )
                return healthy, svc.stats(), svc.recorder.run_dir

        healthy, stats, run_dir = run(main())
        assert healthy.converged
        killed = [a for a in load_attempts(run_dir) if a["outcome"] == "error"]
        assert [a["attempt"] for a in killed] == [1, 2]
        assert {a["category"] for a in killed} == {"transport"}
        requests = load_run_record(run_dir)["requests"]
        assert sorted(
            (r["outcome"], r.get("category")) for r in requests.values()
        ) == [("error", "transport"), ("ok", None)]
        assert (stats["launches"], stats["retries"]) == (3, 1)
        assert multiprocessing.active_children() == []

    @fork_only
    def test_fused_lane_whose_worker_dies_is_answered_on_the_replacement_pool(
        self, tmp_path, fake_backend
    ):
        class BatchKiller:
            name = "batchkiller-backend"

            def solve(self, problem, spec=None):
                return repro.solve(problem, backend="reference", spec=spec)

            def solve_batch(self, problems, spec=None):
                _kill_worker()

        fake_backend(BatchKiller)  # before the pool forks its workers

        async def main():
            async with SolveService(
                records=tmp_path / "runs", pool="process", n_workers=2
            ) as svc:
                results = await asyncio.gather(*(
                    svc.submit(
                        make_problem(3, 3, 2, seed=s),
                        backend="batchkiller-backend", spec=SPEC,
                    )
                    for s in range(2)
                ))
                return results, svc.stats(), svc.recorder.run_dir

        results, stats, run_dir = run(main())
        assert all(r.converged for r in results)
        assert (stats["launches"], stats["batched_launches"]) == (3, 1)
        requests = load_run_record(run_dir)["requests"]
        assert [r["outcome"] for r in requests.values()] == ["ok", "ok"]
        lines = (run_dir / "requests.jsonl").read_text().splitlines()
        assert len(lines) == 2  # one terminal record each
        assert multiprocessing.active_children() == []


# -- admission & queue --------------------------------------------------------


def _request(problem, *, backend="wse", spec=SPEC):
    entry = plan_entry(problem, spec, backend)
    loop = asyncio.new_event_loop()
    try:
        future = loop.create_future()
    finally:
        loop.close()
    return SolveRequest(entry=entry, problem=problem, future=future)


def _item(problem, *, backend="wse", spec=SPEC):
    """One queued request as the admission loop hands it to plan_lanes."""
    return plan_entry(problem, spec, backend), problem


class TestAdmission:
    """The admission loop dispatches the lanes of ``plan_lanes`` over the
    queued ``(entry, problem)`` items; these pin that rule directly."""

    def test_same_key_requests_fuse_into_one_lane(self):
        spec = SPEC.with_options(engine="vectorized")
        items = [_item(make_problem(4, 3, 2, seed=s), spec=spec) for s in range(3)]
        assert plan_lanes(items) == [[0, 1, 2]]

    def test_shape_and_backend_split_lanes(self):
        items = [
            _item(make_problem(4, 3, 2)),
            _item(make_problem(5, 3, 2)),            # different shape
            _item(make_problem(4, 3, 2), backend="gpu"),  # different backend
        ]
        assert plan_lanes(items) == [[0], [1], [2]]

    def test_event_engine_never_fuses(self):
        spec = SolveSpec.from_kwargs(engine="event")
        items = [_item(make_problem(3, 3, 2, seed=s), spec=spec) for s in range(2)]
        assert plan_lanes(items) == [[0], [1]]

    def test_unset_wse_engine_fuses_like_fused(self):
        # An unset engine resolves to the default "fused" before the
        # entry is fingerprinted, so unset and explicit requests share
        # one key and fuse into one lane.
        problems = [make_problem(3, 3, 2, seed=s) for s in range(3)]
        explicit = SPEC.with_options(engine="fused")
        items = [
            _item(problems[0]),
            _item(problems[1], spec=explicit),
            _item(problems[2]),
        ]
        assert items[0][0].spec == items[1][0].spec
        assert plan_lanes(items) == [[0, 1, 2]]

    def test_lone_submit_dispatches_without_sleeping(self, tmp_path, monkeypatch):
        """A request with no peer is dispatched when the admission loop
        wakes: nothing on the way to its attempt sleeps."""
        sleeps: list[float] = []
        real_sleep = asyncio.sleep

        async def recording_sleep(delay, *args, **kwargs):
            sleeps.append(delay)
            return await real_sleep(delay, *args, **kwargs)

        monkeypatch.setattr(asyncio, "sleep", recording_sleep)

        async def main():
            async with SolveService(records=tmp_path / "runs") as svc:
                result = await svc.submit(
                    make_problem(3, 3, 2), backend="reference", spec=SPEC
                )
                return result, svc.recorder.run_dir

        result, run_dir = run(main())
        assert result.converged
        assert [a["outcome"] for a in load_attempts(run_dir)] == ["ok"]
        assert sleeps == []


class TestRequestQueue:
    def test_get_batch_returns_burst_then_close_raises(self):
        async def main():
            queue = RequestQueue()
            reqs = [_request(make_problem(3, 3, 2, seed=s)) for s in range(3)]
            for r in reqs:
                queue.put(r)
            queue.close()
            batch = await queue.get_batch()
            assert batch == reqs  # pre-close requests still delivered
            with pytest.raises(QueueClosed):
                await queue.get_batch()
            with pytest.raises(QueueClosed):
                queue.put(reqs[0])

        run(main())

    def test_resolve_fans_out_to_followers(self):
        async def main():
            request = _request(make_problem(3, 3, 2))
            loop = asyncio.get_running_loop()
            request.future = loop.create_future()
            request.followers = [loop.create_future() for _ in range(3)]
            request.resolve("answer")
            assert request.future.result() == "answer"
            assert [f.result() for f in request.followers] == ["answer"] * 3

        run(main())


# -- cache & store fast path --------------------------------------------------


class TestStoreFastPath:
    """Satellite: manifest-only `contains`/`get`, no NPZ I/O on probes."""

    def test_contains_and_get_without_npz_reads(self, tmp_path, monkeypatch):
        store = ResultStore(tmp_path / "cache")
        entry = plan_entry(make_problem(3, 3, 2), SPEC, "reference")
        store.save(entry, repro.solve(entry.problem, backend="reference", spec=SPEC))

        npz_reads: list = []
        real_load = np.load
        monkeypatch.setattr(
            np, "load", lambda *a, **k: npz_reads.append(a) or real_load(*a, **k)
        )
        assert not store.contains("not-a-fingerprint")
        assert store.get("not-a-fingerprint") is None
        assert store.contains(entry.fingerprint)
        record = store.get(entry.fingerprint)
        assert record["backend"] == "reference"
        assert npz_reads == []  # the probe satellite: zero payload I/O
        store.load(entry.fingerprint)
        assert len(npz_reads) == 1  # load still pays, as it should

    def test_get_returns_copy(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        entry = plan_entry(make_problem(3, 3, 2), SPEC, "reference")
        store.save(entry, repro.solve(entry.problem, backend="reference", spec=SPEC))
        store.get(entry.fingerprint)["backend"] = "tampered"
        assert store.get(entry.fingerprint)["backend"] == "reference"


class TestResultCache:
    def test_memory_then_store_tier_with_promotion(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        entry = plan_entry(make_problem(3, 3, 2), SPEC, "reference")
        result = repro.solve(entry.problem, backend="reference", spec=SPEC)
        store.save(entry, result)

        cache = ResultCache(store=ResultStore(tmp_path / "cache"))
        assert cache.lookup("unknown") == (None, None)
        loaded, tier = cache.lookup(entry.fingerprint)
        assert tier == "store"
        np.testing.assert_array_equal(loaded.pressure, result.pressure)
        _, tier = cache.lookup(entry.fingerprint)
        assert tier == "memory"  # promoted

    def _solved_entries(self, n):
        out = []
        for seed in range(n):
            entry = plan_entry(make_problem(3, 3, 2, seed=seed), SPEC, "reference")
            out.append(
                (entry, repro.solve(entry.problem, backend="reference", spec=SPEC))
            )
        return out

    def test_lru_eviction_by_bytes(self):
        from repro.serve.cache import result_nbytes

        pairs = self._solved_entries(3)
        # Budget exactly two of the largest results: admitting the third
        # must evict the least recently used, whatever the entry count.
        budget = 2 * max(result_nbytes(r) for _, r in pairs)
        cache = ResultCache(max_bytes=budget)
        for entry, result in pairs:
            cache.put(entry, result)
        assert pairs[0][0].fingerprint not in cache
        assert pairs[1][0].fingerprint in cache
        assert pairs[2][0].fingerprint in cache
        assert cache.memory_bytes <= budget
        stats = cache.stats()
        assert stats["memory_entries"] == 2
        assert stats["max_bytes"] == budget
        assert stats["memory_bytes"] == cache.memory_bytes

    def test_result_nbytes_counts_telemetry_array_payloads(self):
        """Ndarray payloads under a result's telemetry must count toward
        the memory-tier cost, or the byte budget is fiction on
        simulation-heavy traffic."""
        import dataclasses

        from repro.serve.cache import result_nbytes

        (_, slim), *_ = self._solved_entries(1)
        snapshots = [np.zeros((16, 16, 4)) for _ in range(3)]
        heavy = dataclasses.replace(
            slim,
            telemetry={
                **slim.telemetry,
                "transient": {"per_step_pressure": snapshots},
            },
        )
        extra = sum(a.nbytes for a in snapshots)
        assert result_nbytes(heavy) >= result_nbytes(slim) + extra

    def test_budget_holds_under_telemetry_heavy_results(self):
        """Budget-overflow pin: when telemetry arrays dominate each
        entry, the LRU must evict on the *true* (telemetry-inclusive)
        size — the undercounting bug kept every entry resident."""
        import dataclasses

        from repro.serve.cache import result_nbytes

        pairs = self._solved_entries(3)
        slim_budget = 2 * max(result_nbytes(r) for _, r in pairs)
        # Each folded result now hauls a telemetry payload worth the
        # whole slim budget, so its true cost dwarfs its slim estimate.
        n = max(1, slim_budget // 8)
        heavy_pairs = [
            (
                entry,
                dataclasses.replace(
                    result,
                    telemetry={
                        **result.telemetry,
                        "transient": {"per_step_pressure": [np.zeros(n)]},
                    },
                ),
            )
            for entry, result in pairs
        ]
        budget = 2 * max(result_nbytes(r) for _, r in heavy_pairs)
        cache = ResultCache(max_bytes=budget)
        for entry, result in heavy_pairs:
            cache.put(entry, result)
        # Two heavy entries fit; admitting the third must evict the LRU.
        # Sized on the slim estimate alone, all three would have stayed
        # resident (3 slim sizes < the 2-heavy budget) and the host
        # would hold ~1.5x the budget in live arrays.
        assert cache.memory_bytes <= budget
        assert cache.stats()["memory_entries"] == 2
        assert pairs[0][0].fingerprint not in cache

    def test_oversized_result_skips_memory_tier(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        entry = plan_entry(make_problem(3, 3, 2), SPEC, "reference")
        result = repro.solve(entry.problem, backend="reference", spec=SPEC)
        cache = ResultCache(max_bytes=64, store=store)  # smaller than any result
        cache.put(entry, result)
        assert len(cache) == 0  # memory tier skipped...
        loaded, tier = cache.lookup(entry.fingerprint)
        assert tier == "store"  # ...but the store tier still serves it
        np.testing.assert_array_equal(loaded.pressure, result.pressure)

    def test_torn_npz_counts_as_miss(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        entry = plan_entry(make_problem(3, 3, 2), SPEC, "reference")
        store.save(entry, repro.solve(entry.problem, backend="reference", spec=SPEC))
        (store.root / f"{entry.fingerprint}.npz").unlink()
        cache = ResultCache(store=store)
        assert cache.lookup(entry.fingerprint) == (None, None)


# -- solve_many error groups --------------------------------------------------


class TestSolveManyErrorGroup:
    """Satellite: every per-entry error surfaces, not just the first."""

    def _probe(self, fake_backend, fail_nx=(3, 5)):
        class Probe:
            name = "group-probe-backend"

            def solve(self, problem, spec=None):
                if problem.grid.nx in fail_nx:
                    raise ConvergenceError(
                        f"entry nx={problem.grid.nx} blew up", 1, 1.0
                    )
                return repro.solve(problem, backend="reference", spec=spec)

        return fake_backend(Probe)

    def test_multiple_failures_raise_group_with_all_errors(self, fake_backend):
        self._probe(fake_backend)
        targets = [make_problem(n, 3, 2) for n in (3, 4, 5)]
        with pytest.raises(SolveErrorGroup) as excinfo:
            repro.solve_many(
                targets, backend="group-probe-backend", n_workers=1, spec=SPEC
            )
        group = excinfo.value
        assert isinstance(group, ReproError)
        assert len(group.errors) == 2
        assert sorted(str(e) for e in group.errors) == [
            "entry nx=3 blew up", "entry nx=5 blew up",
        ]
        assert "2 of 3" in str(group) and "entries 0, 2" in str(group)

    def test_single_failure_still_raises_original_type(self, fake_backend):
        self._probe(fake_backend, fail_nx=(4,))
        targets = [make_problem(n, 3, 2) for n in (3, 4, 5)]
        with pytest.raises(ConvergenceError, match="nx=4"):
            repro.solve_many(
                targets, backend="group-probe-backend", n_workers=1, spec=SPEC
            )

    def test_batch_path_also_groups_all_errors(self, fake_backend):
        # A fused lane that fails fails *each member* — both errors must
        # come back through the exception group, not just the first.
        class BadBatch:
            name = "badbatch-backend"

            def solve(self, problem, spec=None):
                return repro.solve(problem, backend="reference", spec=spec)

            def solve_batch(self, problems, spec=None):
                raise ConvergenceError("the fused lane diverged", 2, 1.0)

        fake_backend(BadBatch)
        targets = [make_problem(4, 4, 3, seed=s) for s in range(2)]
        with pytest.raises(SolveErrorGroup) as excinfo:
            repro.solve_many(
                targets, backend="badbatch-backend", batch=True, spec=SPEC
            )
        assert len(excinfo.value.errors) == 2
        assert all(
            isinstance(e, ConvergenceError) for e in excinfo.value.errors
        )


# -- run records --------------------------------------------------------------


class TestRunRecords:
    def test_run_json_and_attempts_jsonl_round_trip(self, tmp_path):
        recorder = RunRecorder(tmp_path, run_id="run-test", config={"k": 1})
        recorder.record_submit(1, fingerprint="f" * 8, backend="wse", label="p")
        recorder.record_attempt(
            1, fingerprint="f" * 8, attempt=1, outcome="ok",
            elapsed_seconds=0.1,
        )
        recorder.record_launch(fused=False)
        recorder.record_outcome(1, outcome="ok")
        recorder.close()

        record = load_run_record(tmp_path / "run-test")
        assert record["run_id"] == "run-test"
        assert record["config"] == {"k": 1}
        assert record["summary"]["executed"] == 1
        assert record["requests"]["1"]["outcome"] == "ok"
        [attempt] = load_attempts(tmp_path / "run-test")
        assert attempt["attempt"] == 1

    def test_attempts_tolerate_torn_tail(self, tmp_path):
        recorder = RunRecorder(tmp_path, run_id="run-torn")
        recorder.record_attempt(
            1, fingerprint="ff", attempt=1, outcome="error",
            category="executor",
        )
        path = tmp_path / "run-torn" / "attempts.jsonl"
        with path.open("a") as handle:
            handle.write('{"request_id": 2, "attempt"')  # crash mid-write
        attempts = load_attempts(tmp_path / "run-torn")
        assert len(attempts) == 1 and attempts[0]["request_id"] == 1

    def test_run_json_does_not_grow_with_finished_requests(self, tmp_path):
        recorder = RunRecorder(tmp_path, run_id="run-size")
        sizes = {}
        for request_id in range(1, 100):
            recorder.record_submit(
                request_id, fingerprint="ff", backend="wse", label="p"
            )
            recorder.record_outcome(request_id, outcome="ok")
            if request_id in (10, 99):  # two-digit counters at both points
                sizes[request_id] = (tmp_path / "run-size" / "run.json").stat().st_size
        assert sizes[10] == sizes[99]
        assert recorder.requests == {}  # finished requests leave memory
        lines = (tmp_path / "run-size" / "requests.jsonl").read_text().splitlines()
        assert len(lines) == 99

    def test_pending_requests_written_at_close(self, tmp_path):
        recorder = RunRecorder(tmp_path, run_id="run-close")
        recorder.record_submit(1, fingerprint="ff", backend="wse", label="p")
        recorder.record_submit(2, fingerprint="ee", backend="wse", label="q")
        recorder.record_outcome(1, outcome="ok")
        recorder.close()
        requests = load_run_record(tmp_path / "run-close")["requests"]
        assert {k: r["outcome"] for k, r in requests.items()} == {
            "1": "ok", "2": "pending",
        }
        assert recorder.requests == {}

    def test_requests_tolerate_torn_tail(self, tmp_path):
        recorder = RunRecorder(tmp_path, run_id="run-torn-req")
        recorder.record_submit(1, fingerprint="ff", backend="wse", label="p")
        recorder.record_outcome(1, outcome="ok")
        path = tmp_path / "run-torn-req" / "requests.jsonl"
        with path.open("a") as handle:
            handle.write('{"request_id": 2, "outc')  # crash mid-write
        assert list(load_run_record(tmp_path / "run-torn-req")["requests"]) == ["1"]

    def test_one_record_per_request_with_followers_and_streams(self, tmp_path):
        problem = make_problem(3, 3, 2)
        transient = SPEC.with_options(n_steps=2, dt=1.0)

        async def main():
            async with SolveService(records=tmp_path / "runs") as svc:
                # A primary and its dedup follower, then a memory hit.
                await asyncio.gather(
                    svc.submit(problem, backend="reference", spec=SPEC),
                    svc.submit(problem, backend="reference", spec=SPEC),
                )
                await svc.submit(problem, backend="reference", spec=SPEC)
                steps = [
                    s async for s in svc.stream(
                        problem, backend="wse", spec=transient
                    )
                ]
                return len(steps), svc.recorder.run_dir

        n_steps, run_dir = run(main())
        record = load_run_record(run_dir)
        requests = record["requests"]
        lines = (run_dir / "requests.jsonl").read_text().splitlines()
        assert len(lines) == len(requests) == record["summary"]["submitted"] == 4
        assert sorted(r["cache"] or "-" for r in requests.values()) == [
            "-", "-", "dedup", "memory",
        ]
        [stream] = [r for r in requests.values() if r["kind"] == "stream"]
        assert stream["outcome"] == "ok"
        assert (stream["steps_resumed"], stream["steps_computed"]) == (0, n_steps)
        assert "requests" not in json.loads((run_dir / "run.json").read_text())

    def test_memory_only_recorder_keeps_counters(self):
        recorder = RunRecorder(None)
        recorder.record_submit(1, fingerprint="ff", backend="wse", label="p")
        recorder.record_cache_hit(1, "memory")
        recorder.record_outcome(1, outcome="ok", cache="memory")
        summary = recorder.to_dict()["summary"]
        assert summary["cache_hits_memory"] == 1
        assert summary["cache_hit_ratio"] == 1.0
        assert recorder.run_dir is None


class TestRecordWriteFailures:
    """A run-record write that fails (a full disk) loses its line and is
    counted in ``/metrics``; it never leaves a request pending."""

    @staticmethod
    def _disk_full(monkeypatch, name, times=None):
        """Make every write of the run file ``name`` (or the first
        ``times``) raise ENOSPC."""
        original = pathlib.Path.open
        left = [times]

        def open_(path, *args, **kwargs):
            if path.name == name and left[0] != 0:
                if left[0] is not None:
                    left[0] -= 1
                raise OSError(28, "No space left on device")
            return original(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "open", open_)

    @staticmethod
    def _no_lost_task_errors(caplog):
        gc.collect()  # a task dropped with its exception logs when collected
        assert "Task exception was never retrieved" not in caplog.text

    def test_failed_attempt_line_still_answers(self, tmp_path, monkeypatch, caplog):
        self._disk_full(monkeypatch, "attempts.jsonl")
        problem = make_problem(3, 3, 2)

        async def main():
            async with SolveService(records=tmp_path / "runs") as svc:
                result = await asyncio.wait_for(
                    svc.submit(problem, backend="reference", spec=SPEC), timeout=10
                )
                return result, svc

        result, svc = run(main())
        self._no_lost_task_errors(caplog)
        assert result.converged
        assert svc.metrics.record_write_failures.value() == 1
        assert "repro_record_write_failures_total 1" in svc.metrics.render()
        run_dir = svc.recorder.run_dir
        assert load_attempts(run_dir) == []
        requests = load_run_record(run_dir)["requests"]
        assert [r["outcome"] for r in requests.values()] == ["ok"]

    def test_failed_request_line_settles_the_whole_fused_lane(
        self, tmp_path, monkeypatch, caplog
    ):
        self._disk_full(monkeypatch, "requests.jsonl", times=1)
        problems = [make_problem(4, 4, 3, seed=s) for s in (1, 2)]
        spec = SPEC.with_options(engine="fused")

        async def main():
            async with SolveService(records=tmp_path / "runs") as svc:
                results = await asyncio.wait_for(
                    asyncio.gather(*(
                        svc.submit(p, backend="wse", spec=spec) for p in problems
                    )),
                    timeout=10,
                )
                return results, svc

        results, svc = run(main())
        self._no_lost_task_errors(caplog)
        assert [r.converged for r in results] == [True, True]
        assert svc.metrics.record_write_failures.value() == 1
        record = load_run_record(svc.recorder.run_dir)
        assert record["summary"]["batched_launches"] == 1
        assert record["summary"]["executed"] == 2
        assert len(record["requests"]) == 1  # the failed line is lost


# -- the acceptance scenarios -------------------------------------------------


class TestServiceEndToEnd:
    def test_64_requests_8_specs_solve_exactly_8(self, tmp_path):
        """The ISSUE acceptance bar: 64 concurrent submissions of 8
        distinct same-shape specs produce exactly 8 solves — at least one
        fused batched launch and 56 cache/dedup hits, verified from the
        durable run record."""
        problems = [make_problem(4, 4, 3, seed=s) for s in range(8)]
        spec = SPEC.with_options(engine="vectorized")

        async def main():
            async with SolveService(
                store=tmp_path / "cache", records=tmp_path / "runs",
            ) as svc:
                futures = [
                    svc.submit(problems[i % 8], backend="wse", spec=spec)
                    for i in range(64)
                ]
                results = await asyncio.gather(*futures)
                return results, svc.recorder.run_dir

        results, run_dir = run(main())
        assert len(results) == 64

        record = load_run_record(run_dir)
        summary = record["summary"]
        assert summary["submitted"] == 64
        assert summary["executed"] == 8          # exactly 8 real solves
        assert summary["batched_launches"] >= 1  # fused lane(s) did them
        hits = (
            summary["cache_hits_memory"]
            + summary["cache_hits_store"]
            + summary["dedup_hits"]
        )
        assert hits == 56
        assert summary["failed"] == 0
        assert len({r["fingerprint"] for r in record["requests"].values()}) == 8
        # Duplicate submissions got the very same answers.
        for i in range(8, 64):
            np.testing.assert_array_equal(
                results[i].pressure, results[i % 8].pressure
            )

    def test_unset_engine_requests_match_solo_solves(self, tmp_path):
        """Two unset-engine wse requests queued on one loop turn resolve
        to the default fused engine and share one batched launch; each
        answer is still exactly ``repro.solve`` of the same target and
        spec (a ``batched_fused`` lane is bitwise the solo ``fused``
        solve)."""
        targets = [
            repro.scenario("lognormal_reservoir", nx=4, ny=4, nz=3, seed=s)
            for s in (1, 2)
        ]

        async def main():
            async with SolveService(records=tmp_path / "runs") as svc:
                futures = [
                    svc.submit(t, backend="wse", spec=SPEC) for t in targets
                ]
                results = await asyncio.gather(*futures)
                return results, svc.recorder.run_dir

        results, run_dir = run(main())
        assert load_run_record(run_dir)["summary"]["batched_launches"] == 1
        for target, result in zip(targets, results):
            alone = repro.solve(target, backend="wse", spec=SPEC)
            assert alone.telemetry["engine"] == "fused"
            assert result.telemetry["engine"] == "batched_fused"
            np.testing.assert_array_equal(result.pressure, alone.pressure)
            assert result.iterations == alone.iterations
            assert result.telemetry["counters"] == alone.telemetry["counters"]
            assert result.telemetry["trace"] == alone.telemetry["trace"]

    def test_warm_store_serves_new_service_from_cache(self, tmp_path):
        problem = make_problem(4, 3, 2)

        async def first():
            async with SolveService(store=tmp_path / "cache") as svc:
                await svc.submit(problem, backend="wse", spec=SPEC)

        async def second():
            async with SolveService(store=tmp_path / "cache") as svc:
                result = await svc.submit(problem, backend="wse", spec=SPEC)
                return result, svc.stats()

        run(first())
        result, stats = run(second())
        assert result.converged
        assert stats["executed"] == 0
        assert stats["cache_hits_store"] == 1

    def test_store_hit_builds_no_problem(self, tmp_path, monkeypatch):
        """Only a request that is solved builds its scenario: a repeat
        the store answers builds none."""
        from repro.scenarios.base import Scenario

        builds: list[str] = []
        real_build = Scenario.build

        def counting_build(self):
            builds.append(self.name)
            return real_build(self)

        monkeypatch.setattr(Scenario, "build", counting_build)
        target = repro.scenario("quarter_five_spot", nx=6, ny=6, nz=2)

        async def serve():
            async with SolveService(store=tmp_path / "cache") as svc:
                await svc.submit(target, backend="reference", rel_tol=1e-6)
                return svc.stats()

        stats = run(serve())
        assert stats["executed"] == 1
        assert builds == ["quarter_five_spot"]
        stats = run(serve())
        assert stats["cache_hits_store"] == 1
        assert stats["executed"] == 0
        assert builds == ["quarter_five_spot"]

    def test_killed_stream_resumes_from_stored_steps(self, tmp_path):
        """The second acceptance bar: a transient request killed
        mid-stream resumes from the stored step stack on resubmit."""
        problem = make_problem(4, 3, 2)
        spec = SolveSpec.from_kwargs(n_steps=5, dt=0.5, rel_tol=1e-7)

        async def killed():
            async with SolveService(store=tmp_path / "cache") as svc:
                steps = []
                async for step in svc.stream(problem, backend="wse", spec=spec):
                    steps.append(step)
                    if len(steps) == 2:
                        break  # the consumer dies mid-stream
                return steps

        async def resumed():
            async with SolveService(
                store=tmp_path / "cache", records=tmp_path / "runs"
            ) as svc:
                steps = [
                    s async for s in svc.stream(problem, backend="wse", spec=spec)
                ]
                return steps, svc.stats(), svc.recorder.run_dir

        first = run(killed())
        assert [s.step for s in first] == [1, 2]

        steps, stats, run_dir = run(resumed())
        assert [s.step for s in steps] == [1, 2, 3, 4, 5]
        replayed = [s.telemetry.get("from_store", False) for s in steps]
        assert replayed[:2] == [True, True] and not any(replayed[2:])
        assert stats["resumed_steps"] == 2
        assert stats["streamed_steps"] == 3
        record = load_run_record(run_dir)
        [request] = record["requests"].values()
        assert request["kind"] == "stream"

        # Parity with the one-shot transient front door.
        sim = repro.simulate(problem, backend="wse", spec=spec)
        np.testing.assert_allclose(
            sim.steps[-1].pressure, steps[-1].pressure, rtol=1e-6
        )

    def test_abandoned_stream_computes_nothing_past_its_consumer(self, tmp_path):
        """A consumer that stops after step 1 leaves step 1 stored and
        nothing else, and closing the service leaves no stream thread."""
        target = repro.scenario("quarter_five_spot", nx=6, ny=6, nz=2)
        spec = SolveSpec.from_kwargs(n_steps=3, dt=1.0, rel_tol=1e-7)

        async def main():
            svc = await SolveService(store=tmp_path).start()
            first = await svc.stream(target, backend="wse", spec=spec).__anext__()
            await svc.close()
            return first

        assert run(main()).step == 1
        assert not [
            t for t in threading.enumerate()
            if t.name.startswith("repro-serve-stream")
        ]
        fingerprint = plan_entry(target, spec, "wse").fingerprint
        assert ResultStore(tmp_path).simulation_steps_completed(fingerprint) == 1

    def test_torn_stored_prefix_fails_the_stream_on_the_record(self, tmp_path):
        """A stored step that does not load fails the stream with one
        terminal ``"error"`` record, like any other stream failure."""
        target = repro.scenario("quarter_five_spot", nx=6, ny=6, nz=2)
        spec = SolveSpec.from_kwargs(n_steps=3, dt=1.0, rel_tol=1e-7)
        fingerprint = plan_entry(target, spec, "wse").fingerprint

        async def main():
            async with SolveService(
                store=tmp_path / "cache", records=tmp_path / "runs"
            ) as svc:
                stream = svc.stream(target, backend="wse", spec=spec)
                async for step in stream:
                    if step.step == 2:
                        break
                await stream.aclose()
                step_file = tmp_path / "cache" / f"{fingerprint}.steps" / "00002.npz"
                step_file.write_bytes(b"not an npz")
                with pytest.raises(ValueError):
                    async for _ in svc.stream(target, backend="wse", spec=spec):
                        pass
                return svc.recorder.run_dir

        record = load_run_record(run(main()))
        assert [r["outcome"] for r in record["requests"].values()] == [
            "cancelled", "error",
        ]
        assert record["summary"]["failed"] == 1

    def test_stream_parity_with_simulate_cold(self, tmp_path):
        problem = make_problem(3, 3, 2)
        spec = SolveSpec.from_kwargs(n_steps=3, dt=1.0, rel_tol=1e-7)

        async def main():
            async with SolveService() as svc:
                return [
                    s async for s in svc.stream(problem, backend="wse", spec=spec)
                ]

        steps = run(main())
        sim = repro.simulate(problem, backend="wse", spec=spec)
        assert len(steps) == 3
        for mine, theirs in zip(steps, sim.steps):
            np.testing.assert_allclose(
                mine.pressure, theirs.pressure, rtol=1e-6
            )

    def test_process_pool_runs_and_leaves_no_orphans(self):
        async def main():
            async with SolveService(pool="process", n_workers=2) as svc:
                futures = [
                    svc.submit("quarter_five_spot", backend="reference"),
                    svc.submit("layered_reservoir", backend="wse"),
                ]
                return await asyncio.gather(*futures)

        results = run(main())
        assert all(r.converged for r in results)
        assert multiprocessing.active_children() == []


class TestServiceGuards:
    def test_unstarted_and_closed_service_refuse_submissions(self):
        async def main():
            service = SolveService()
            with pytest.raises(ConfigurationError, match="not started"):
                service.submit("quarter_five_spot")
            async with service:
                pass
            with pytest.raises(ConfigurationError, match="closed"):
                service.submit("quarter_five_spot")

        run(main())

    def test_unknown_backend_fails_fast_at_submit(self):
        async def main():
            async with SolveService() as svc:
                with pytest.raises(ConfigurationError, match="unknown backend"):
                    svc.submit("quarter_five_spot", backend="nope")

        run(main())

    def test_unknown_option_names_the_closest(self):
        with pytest.raises(ConfigurationError, match="did you mean 'n_workers'"):
            SolveService(n_worker=2)

    def test_admission_window_is_an_unknown_option(self):
        from repro.net import serve_forever

        with pytest.raises(
            ConfigurationError, match="unknown service option 'admission_window'"
        ):
            SolveService(admission_window=0.005)
        with pytest.raises(ConfigurationError, match="unknown service option"):
            serve_forever(admission_window=0.005)

    @pytest.mark.parametrize("name", ["retry", "jitter_seed"])
    def test_retry_options_are_unknown(self, name):
        with pytest.raises(
            ConfigurationError, match=f"unknown service option '{name}'"
        ):
            SolveService(**{name: 1})

    def test_stream_requires_time_and_transient_backend(self):
        async def main():
            async with SolveService() as svc:
                with pytest.raises(ConfigurationError, match="time schedule"):
                    await svc.stream("quarter_five_spot").__anext__()

        run(main())

    def test_flat_kwargs_are_front_door_sugar(self):
        async def main():
            async with SolveService() as svc:
                result = await svc.submit(
                    "quarter_five_spot", backend="reference", rel_tol=1e-6
                )
                assert result.converged
                with pytest.raises(ConfigurationError, match="not both"):
                    svc.submit("quarter_five_spot", spec=SPEC, rel_tol=1e-6)

        run(main())
