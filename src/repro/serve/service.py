"""The long-lived solve service: asyncio front door over the engines.

:class:`SolveService` turns the in-process library (specs, sessions,
engines) into a serving tier::

    async with SolveService(store="cache/", records="runs/") as service:
        futures = [service.submit("quarter_five_spot", backend="wse",
                                  spec=spec) for _ in range(1000)]
        results = await asyncio.gather(*futures)

Request lifecycle (the order is the design):

1. **cache** — the request's content fingerprint (target + spec +
   backend, exactly :func:`repro.session.entry_fingerprint`) is probed
   against the memory LRU and then the :class:`~repro.session.ResultStore`
   record (no NPZ I/O on a miss).  A hit resolves immediately.
2. **in-flight dedup** — a miss whose fingerprint is already queued or
   solving *attaches* to that request; N identical concurrent requests
   cost one solve.
3. **admission** — genuinely new work enters the request queue; each
   time the admission loop wakes it cuts what is queued into the lanes
   of :func:`repro.session.plan_lanes` (same backend / spec
   fingerprint / grid shape, on an engine that can batch) and
   dispatches them at once: requests queued on one loop turn (a
   ``gather`` of submits) share one batched program on the
   :class:`~repro.core.cg_driver.CgDriver` per lane of several, and a
   lone request never waits for company.
4. **dispatch** — each lane is one launch on a persistent worker pool
   (threads by default, processes for GIL-bound backends).  A failed
   launch re-runs each member solo, once, if the lane was fused (so
   one bad member never poisons its peers) or the launch broke its
   pool (which is replaced first: a dead process worker breaks the
   whole pool); any other failure is the request's outcome on its
   first attempt, since a solve is deterministic.  Every failure
   carries its :func:`~repro.util.errors.classify_failure` category.
5. **records** — every submit, cache hit, attempt and outcome lands in
   the run's ``run.json`` / ``attempts.jsonl``
   (:mod:`repro.serve.records`).

:meth:`SolveService.stream` is the transient front door: an async
iterator of :class:`~repro.backends.StepResult` over
:func:`repro.session.simulation_steps`, advanced one step per
consumer request on a worker thread; each computed step persists
before it is yielded, so a killed stream resumes from the stored step
stack on resubmit.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Any, AsyncIterator

from repro.backends import SolveResult, StepResult, get_backend
from repro.net.metrics import ServiceMetrics
from repro.physics.darcy import SinglePhaseProblem
from repro.serve.cache import DEFAULT_MAX_BYTES as DEFAULT_CACHE_BYTES, ResultCache
from repro.serve.queue import (
    QueueClosed,
    RequestQueue,
    SolveRequest,
    next_request_id,
)
from repro.serve.records import RunRecorder
from repro.session import ResultStore, plan_entry, plan_lanes, simulation_steps
from repro.spec import SolveSpec, resolve_spec
from repro.util.errors import (
    ConfigurationError,
    classify_failure,
    picklesafe_error,
    unknown_name_error,
)

POOLS = ("thread", "process")


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (solve configuration stays in the spec)."""

    n_workers: int = 4
    pool: str = "thread"
    cache_bytes: int = DEFAULT_CACHE_BYTES

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ConfigurationError(
                f"n_workers must be >= 1, got {self.n_workers}"
            )
        if self.pool not in POOLS:
            raise ConfigurationError(
                f"unknown pool {self.pool!r}; choose one of {', '.join(POOLS)}"
            )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


# -- pool workers (module-level: process pools need picklable callables) -----


def _pool_solve(
    backend_name: str,
    problems: list[SinglePhaseProblem],
    spec: SolveSpec,
    picklesafe: bool = False,
) -> list[SolveResult]:
    """One launch: ``solve`` for a lane of one, ``solve_batch`` for more."""
    try:
        backend = get_backend(backend_name)
        if len(problems) == 1:
            return [backend.solve(problems[0], spec)]
        return backend.solve_batch(problems, spec)
    except Exception as exc:
        stand_in = picklesafe_error(exc) if picklesafe else exc
        if stand_in is not exc:
            raise stand_in from None
        raise


class SolveService:
    """A cache-first, lane-fusing solve service."""

    def __init__(
        self,
        *,
        store: ResultStore | str | Path | None = None,
        records: str | Path | None = None,
        config: ServiceConfig | None = None,
        run_id: str | None = None,
        metrics: ServiceMetrics | None = None,
        **config_kwargs: Any,
    ):
        if config is not None and config_kwargs:
            raise ConfigurationError(
                f"pass configuration either as config=ServiceConfig(...) or "
                f"as keyword options, not both (got config plus "
                f"{', '.join(sorted(config_kwargs))})"
            )
        if config is None:
            known = [f.name for f in fields(ServiceConfig)]
            for name in config_kwargs:
                if name not in known:
                    raise unknown_name_error("service option", name, known, "options")
            config = ServiceConfig(**config_kwargs)
        self.config = config
        if store is not None and not isinstance(store, ResultStore):
            store = ResultStore(store)
        self.store: ResultStore | None = store
        self.cache = ResultCache(
            max_bytes=self.config.cache_bytes, store=store
        )
        #: The one counter registry: the recorder mutates it, ``stats()``
        #: reads it back, and the gateway's ``/metrics`` renders it.
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.recorder = RunRecorder(
            records, run_id=run_id, config=self.config.to_dict(),
            metrics=self.metrics,
        )
        self._queue: RequestQueue | None = None
        self._admission_task: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._inflight: dict[str, SolveRequest] = {}
        self._pool: concurrent.futures.Executor | None = None
        self._stream_pool: concurrent.futures.ThreadPoolExecutor | None = None
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._queue is not None and not self._closed

    async def start(self) -> "SolveService":
        """Bring up the worker pool and the admission loop."""
        if self._closed:
            raise ConfigurationError("a closed SolveService cannot restart")
        if self._queue is not None:
            return self
        self._pool = self._new_pool()
        self._stream_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.n_workers,
            thread_name_prefix="repro-serve-stream",
        )
        self._queue = RequestQueue()
        self._admission_task = asyncio.create_task(
            self._admission_loop(), name="repro-serve-admission"
        )
        return self

    async def close(self) -> None:
        """Graceful shutdown: drain queued work, then stop the pools.

        Requests submitted before ``close`` still complete; the worker
        pools shut down with ``wait=True`` so no worker thread or process
        outlives the service (the smoke job asserts exactly this).
        """
        if self._closed or self._queue is None:
            self._closed = True
            self.recorder.close()
            return
        self._closed = True
        self._queue.close()
        if self._admission_task is not None:
            await self._admission_task
        while self._dispatch_tasks:
            await asyncio.gather(
                *list(self._dispatch_tasks), return_exceptions=True
            )
        assert self._pool is not None and self._stream_pool is not None
        self._pool.shutdown(wait=True)
        self._stream_pool.shutdown(wait=True)
        self.recorder.close()

    def _new_pool(self) -> concurrent.futures.Executor:
        if self.config.pool == "process":
            return concurrent.futures.ProcessPoolExecutor(
                max_workers=self.config.n_workers
            )
        return concurrent.futures.ThreadPoolExecutor(
            max_workers=self.config.n_workers, thread_name_prefix="repro-serve"
        )

    async def __aenter__(self) -> "SolveService":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- the front door -------------------------------------------------------

    def submit(
        self,
        target: Any,
        *,
        backend: str = "reference",
        spec: Any = None,
        **options: Any,
    ) -> "asyncio.Future[SolveResult]":
        """Admit one solve; returns an awaitable future of its result.

        ``target``/``backend``/``spec`` mean exactly what they mean for
        :func:`repro.solve`; flat keyword options are first-class sugar
        (``service.submit("quarter_five_spot", rel_tol=1e-8)``).  The
        future resolves from cache, from an in-flight duplicate, or from
        a (possibly fused) backend launch — ``service.stats()`` and the
        run record say which.
        """
        self._require_started()
        solve_spec = resolve_spec(spec, options)
        get_backend(backend)  # fail fast on a typo'd backend
        entry = plan_entry(target, solve_spec, backend)
        future: asyncio.Future[SolveResult] = (
            asyncio.get_running_loop().create_future()
        )
        request_id = next_request_id()
        cached, tier = self.cache.lookup(entry.fingerprint)
        primary = None if cached is not None else self._inflight.get(entry.fingerprint)
        if cached is None and primary is None:
            # Only a request that will be queued builds its problem, so a
            # target that fails to build raises here, before any record.
            request = SolveRequest(
                entry=entry, problem=entry.build_problem(), future=future,
                request_id=request_id,
            )
        self.recorder.record_submit(
            request_id,
            fingerprint=entry.fingerprint,
            backend=backend,
            label=entry.label,
        )

        if cached is not None:
            assert tier is not None
            self.recorder.record_cache_hit(request_id, tier)
            self.recorder.record_outcome(request_id, outcome="ok", cache=tier)
            future.set_result(cached)
            return future

        if primary is not None:
            primary.followers.append(future)
            self.recorder.record_cache_hit(request_id, "dedup")
            self._record_outcome_on_done(future, request_id, "dedup")
            return future

        self._inflight[entry.fingerprint] = request
        assert self._queue is not None
        self._queue.put(request)
        return future

    async def stream(
        self,
        target: Any,
        *,
        backend: str = "wse",
        spec: Any = None,
        resume: bool = True,
        **options: Any,
    ) -> AsyncIterator[StepResult]:
        """Stream a transient solve step by step, resumably.

        Yields the steps of :func:`repro.session.simulation_steps` as the
        consumer asks for them: each request advances the step source by
        one step on a worker thread, so no step is computed ahead of its
        consumer and stored steps load off the event loop too.  With a
        service ``store``, every computed step persists into the
        fingerprint's step stack *before* it is yielded — a stream
        killed mid-flight loses nothing, and resubmitting the same
        request replays the stored steps (``telemetry["from_store"]``)
        and resumes computing at the first missing step.
        """
        self._require_started()
        solve_spec = resolve_spec(spec, options)
        entry = plan_entry(target, solve_spec, backend)
        steps = simulation_steps(
            target, solve_spec, backend, store=self.store, resume=resume
        )
        request_id = next_request_id()
        self.recorder.record_submit(
            request_id,
            fingerprint=entry.fingerprint,
            backend=backend,
            label=entry.label,
            kind="stream",
        )

        loop = asyncio.get_running_loop()
        computed = 0
        resumed = 0
        outcome = "cancelled"
        error: Exception | None = None
        try:
            while True:
                # next() with a default: a future cannot carry StopIteration.
                step = await loop.run_in_executor(self._stream_pool, next, steps, None)
                if step is None:
                    break
                # Count before the yield: a consumer that breaks suspends
                # the generator there, and the post-yield line never runs.
                if step.telemetry.get("from_store"):
                    resumed += 1
                    self.recorder.record_stream_steps(computed=0, resumed=1)
                else:
                    computed += 1
                    self.recorder.record_stream_steps(computed=1, resumed=0)
                yield step
            outcome = "ok"
        except Exception as exc:
            outcome, error = "error", exc
            raise
        finally:
            self.recorder.record_outcome(
                request_id,
                outcome=outcome,
                cache="stream",  # streams never count as executed solves
                error=None if error is None else f"{type(error).__name__}: {error}",
                category=None if error is None else classify_failure(error),
                steps_resumed=resumed,
                steps_computed=computed,
            )

    # -- admission + dispatch -------------------------------------------------

    async def _admission_loop(self) -> None:
        """Cut whatever is queued when the loop wakes into the lanes of
        :func:`repro.session.plan_lanes` and dispatch them at once."""
        assert self._queue is not None
        while True:
            try:
                burst = await self._queue.get_batch()
            except QueueClosed:
                return
            for lane in plan_lanes([(r.entry, r.problem) for r in burst]):
                task = asyncio.create_task(
                    self._dispatch([burst[i] for i in lane])
                )
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_tasks.discard)

    async def _dispatch(self, lane: list[SolveRequest]) -> None:
        """Launch one lane (:func:`_pool_solve`) and settle its members.

        A failed launch re-dispatches each member solo, once, if the
        lane was fused or the launch broke its pool; any other failure
        is the outcome.  So a request makes at most two attempts.
        """
        assert self._pool is not None
        pool, size, fused = self._pool, len(lane), len(lane) > 1
        self.recorder.record_launch(fused=fused)
        start = time.perf_counter()
        error: Exception | None = None
        try:
            # functools.partial of a module-level callable stays
            # picklable for the process pool; a lambda would not.
            results = await asyncio.get_running_loop().run_in_executor(
                pool,
                functools.partial(
                    _pool_solve, lane[0].backend, [r.problem for r in lane],
                    lane[0].entry.spec, self.config.pool == "process",
                ),
            )
        except Exception as exc:  # noqa: BLE001 - classified below
            error = exc
        share = (time.perf_counter() - start) / size
        category = None if error is None else classify_failure(error)
        for index, request in enumerate(lane):
            request.attempts += 1
            self.recorder.record_attempt(
                request.request_id,
                fingerprint=request.fingerprint,
                attempt=request.attempts,
                outcome="ok" if error is None else "error",
                lane={"size": size, "lane": index, "fused": True} if fused else None,
                category=category,
                error=None if error is None else f"{type(error).__name__}: {error}",
                elapsed_seconds=share,
            )
        if error is None:
            for request, result in zip(lane, results):
                self._complete(request, result)
            return
        broken = isinstance(error, concurrent.futures.BrokenExecutor)
        if broken and pool is self._pool:
            # A dead process worker breaks its whole pool for good; the
            # lanes that broke with it find it replaced already.
            self._pool = self._new_pool()
            pool.shutdown(wait=False)
        # Every member of a lane is on the same attempt.
        if (fused or broken) and lane[0].attempts == 1:
            await asyncio.gather(*(self._dispatch([r]) for r in lane))
            return
        for request in lane:
            self._fail(request, error)

    def _complete(self, request: SolveRequest, result: SolveResult) -> None:
        try:
            self.cache.put(request.entry, result)
        except Exception as exc:  # noqa: BLE001 - a failed store write
            # fails the request, which must still reach an outcome.
            self._fail(request, exc)
            return
        self._inflight.pop(request.fingerprint, None)
        request.resolve(result)
        self.recorder.record_outcome(request.request_id, outcome="ok")

    def _fail(self, request: SolveRequest, error: Exception) -> None:
        self._inflight.pop(request.fingerprint, None)
        request.reject(error)
        self.recorder.record_outcome(
            request.request_id,
            outcome="error",
            error=f"{type(error).__name__}: {error}",
            category=classify_failure(error),
        )

    # -- plumbing -------------------------------------------------------------

    def _require_started(self) -> None:
        if self._closed:
            raise ConfigurationError("the service is closed")
        if self._queue is None:
            raise ConfigurationError(
                "the service is not started; use 'async with SolveService(...)' "
                "or 'await service.start()'"
            )

    def _record_outcome_on_done(
        self, future: "asyncio.Future[SolveResult]", request_id: int, tier: str
    ) -> None:
        def record(fut: "asyncio.Future[SolveResult]") -> None:
            if fut.cancelled():
                self.recorder.record_outcome(
                    request_id, outcome="cancelled", cache=tier
                )
            elif fut.exception() is not None:
                error = fut.exception()
                self.recorder.record_outcome(
                    request_id,
                    outcome="error",
                    cache=tier,
                    error=f"{type(error).__name__}: {error}",
                    category=classify_failure(error),
                )
            else:
                self.recorder.record_outcome(
                    request_id, outcome="ok", cache=tier
                )

        future.add_done_callback(record)

    def sync_gauges(self) -> None:
        """Refresh the point-in-time gauges in the metrics registry.

        Counters update at their mutation sites; the in-flight and
        queue-depth gauges are snapshots, synced on read (``stats()``
        and the gateway's ``/metrics`` both call this first).
        """
        self.metrics.inflight.set(len(self._inflight))
        self.metrics.queue_depth.set(
            0 if self._queue is None else len(self._queue)
        )

    def stats(self) -> dict[str, Any]:
        """Live service counters: run-record summary + cache stats."""
        self.sync_gauges()
        return {
            **self.recorder.to_dict()["summary"],
            "cache": self.cache.stats(),
            "inflight": len(self._inflight),
            "queued": 0 if self._queue is None else len(self._queue),
        }


__all__ = ["POOLS", "ServiceConfig", "SolveService"]
