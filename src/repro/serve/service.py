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
3. **admission** — genuinely new work enters the request queue; the
   admission controller cuts each burst into the lanes of
   :func:`repro.session.plan_lanes` (same backend / spec fingerprint /
   grid shape, on an engine that can batch): one batched program on
   the :class:`~repro.core.cg_driver.CgDriver` per lane of several.
4. **dispatch** — lanes run on a persistent worker pool (threads by
   default, processes for GIL-bound backends); failures classify
   through the retry taxonomy (:mod:`repro.serve.retry`) and retry with
   capped exponential backoff — a failed *fused* lane un-fuses and
   retries each member solo, so one bad lane never poisons its peers.
5. **records** — every submit, cache hit, attempt and outcome lands in
   the run's ``run.json`` / ``attempts.jsonl``
   (:mod:`repro.serve.records`).

:meth:`SolveService.stream` is the transient front door: an async
iterator of :class:`~repro.backends.StepResult` riding the backends'
incremental ``simulate`` generators, persisting each step so a killed
stream resumes from the stored step stack on resubmit.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import functools
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Any, AsyncIterator, Mapping

from repro.backends import SolveResult, StepResult, get_backend, get_transient_backend
from repro.net.metrics import ServiceMetrics
from repro.physics.darcy import SinglePhaseProblem
from repro.serve.admission import AdmissionController, Lane
from repro.serve.cache import DEFAULT_MAX_BYTES as DEFAULT_CACHE_BYTES, ResultCache
from repro.serve.queue import (
    QueueClosed,
    RequestQueue,
    SolveRequest,
    next_request_id,
)
from repro.serve.records import RunRecorder
from repro.serve.retry import RetryPolicy, classify_failure
from repro.session import ResultStore, plan_entry
from repro.spec import SolveSpec, resolve_spec
from repro.util.errors import ConfigurationError, picklesafe_error

POOLS = ("thread", "process")


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (solve configuration stays in the spec)."""

    n_workers: int = 4
    pool: str = "thread"
    admission_window: float = 0.005
    cache_bytes: int = DEFAULT_CACHE_BYTES
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    jitter_seed: int | None = None

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
        return {
            "n_workers": self.n_workers,
            "pool": self.pool,
            "admission_window": self.admission_window,
            "cache_bytes": self.cache_bytes,
            "retry": {
                "max_attempts": self.retry.max_attempts,
                "backoff_base": self.retry.backoff_base,
                "backoff_factor": self.retry.backoff_factor,
                "backoff_max": self.retry.backoff_max,
                "jitter": self.retry.jitter,
                "retryable": sorted(self.retry.retryable),
            },
        }


# -- pool workers (module-level: process pools need picklable callables) -----


def _pool_solve(
    backend_name: str,
    problem: SinglePhaseProblem,
    spec: SolveSpec,
    picklesafe: bool = False,
) -> SolveResult:
    try:
        return get_backend(backend_name).solve(problem, spec)
    except Exception as exc:
        stand_in = picklesafe_error(exc) if picklesafe else exc
        if stand_in is not exc:
            raise stand_in from None
        raise


def _pool_solve_batch(
    backend_name: str,
    problems: list[SinglePhaseProblem],
    spec: SolveSpec,
    picklesafe: bool = False,
) -> list[SolveResult]:
    try:
        return get_backend(backend_name).solve_batch(problems, spec)
    except Exception as exc:
        stand_in = picklesafe_error(exc) if picklesafe else exc
        if stand_in is not exc:
            raise stand_in from None
        raise


class SolveService:
    """An admission-controlled, cache-first, retrying solve service."""

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
        self.config = config if config is not None else ServiceConfig(**config_kwargs)
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
        self._admission = AdmissionController(window=self.config.admission_window)
        self._rng = Random(self.config.jitter_seed)
        self._queue: RequestQueue | None = None
        self._admission_task: asyncio.Task | None = None
        self._dispatch_tasks: set[asyncio.Task] = set()
        self._inflight: dict[str, SolveRequest] = {}
        self._pool: concurrent.futures.Executor | None = None
        self._stream_pool: concurrent.futures.ThreadPoolExecutor | None = None
        #: (stop, demand) per live stream bridge — close() trips these so
        #: abandoned streams cannot deadlock the pool shutdown.
        self._stream_bridges: set[
            tuple[threading.Event, threading.Semaphore]
        ] = set()
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
        if self.config.pool == "process":
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.config.n_workers
            )
        else:
            self._pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=self.config.n_workers,
                thread_name_prefix="repro-serve",
            )
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
        # A stream the consumer abandoned mid-iteration leaves its
        # producer thread parked on the demand semaphore until garbage
        # collection finalizes the generator; trip every live bridge so
        # the pool shutdown below cannot deadlock on it.
        for stop, demand in list(self._stream_bridges):
            stop.set()
            demand.release()
        assert self._pool is not None and self._stream_pool is not None
        self._pool.shutdown(wait=True)
        self._stream_pool.shutdown(wait=True)
        self.recorder.close()

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
                request_id=request_id, submitted_at=time.time(),
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

        Yields each :class:`~repro.backends.StepResult` as its
        backward-Euler step completes (the backend's incremental
        ``simulate`` generator runs on a worker thread, producing at most
        one step ahead of consumption).  With a service ``store``, every
        completed step persists into the fingerprint's step stack
        *before* it is yielded — a stream killed mid-flight loses
        nothing, and resubmitting the same request replays the stored
        steps (``telemetry["from_store"]``) and resumes computing at the
        first missing step.
        """
        self._require_started()
        solve_spec = resolve_spec(spec, options)
        n_steps = solve_spec.require_time().n_steps
        backend_obj = get_transient_backend(backend)
        entry = plan_entry(target, solve_spec, backend)
        request_id = next_request_id()
        self.recorder.record_submit(
            request_id,
            fingerprint=entry.fingerprint,
            backend=backend,
            label=entry.label,
            kind="stream",
        )

        stored: list[StepResult] = []
        if self.store is not None:
            stored = self.store.resume_simulation(
                entry.fingerprint, n_steps, resume=resume
            )

        computed = 0
        resumed = 0
        outcome = "cancelled"
        error: Exception | None = None
        try:
            for step in stored:
                # Count before the yield: a consumer that breaks suspends
                # the generator there, and the post-yield line never runs.
                resumed += 1
                self.recorder.record_stream_steps(computed=0, resumed=1)
                yield step
            if len(stored) < n_steps:
                async for step in self._produce_steps(
                    backend_obj, entry.build_problem(), solve_spec, entry.fingerprint,
                    start_step=len(stored),
                    state=stored[-1].pressure if stored else None,
                ):
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

    async def _produce_steps(
        self,
        backend_obj: Any,
        problem: SinglePhaseProblem,
        spec: SolveSpec,
        fingerprint: str,
        *,
        start_step: int,
        state: Any,
    ) -> AsyncIterator[StepResult]:
        """Bridge the blocking step generator onto the event loop.

        Demand-driven: a semaphore lets the producer thread compute at
        most one step ahead of the consumer, so breaking out of the
        stream stops the simulation instead of racing it to completion.
        """
        loop = asyncio.get_running_loop()
        out: asyncio.Queue[tuple[str, Any]] = asyncio.Queue()
        demand = threading.Semaphore(1)
        stop = threading.Event()
        store = self.store
        meta = {
            "backend": backend_obj.name,
            "spec": spec.to_dict(),
            "n_steps": spec.time.n_steps,
        }

        def produce() -> None:
            try:
                steps = backend_obj.simulate(
                    problem, spec, start_step=start_step, state=state
                )
                while True:
                    demand.acquire()
                    if stop.is_set():
                        return
                    try:
                        step = next(steps)
                    except StopIteration:
                        loop.call_soon_threadsafe(out.put_nowait, ("done", None))
                        return
                    if store is not None:
                        store.save_simulation_step(fingerprint, step, meta=meta)
                    loop.call_soon_threadsafe(out.put_nowait, ("step", step))
            except Exception as exc:  # noqa: BLE001 - crosses the bridge
                loop.call_soon_threadsafe(out.put_nowait, ("error", exc))

        assert self._stream_pool is not None
        bridge = (stop, demand)
        self._stream_bridges.add(bridge)
        producer = loop.run_in_executor(self._stream_pool, produce)
        try:
            while True:
                kind, payload = await out.get()
                if kind == "done":
                    return
                if kind == "error":
                    raise payload
                yield payload
                demand.release()
        finally:
            stop.set()
            demand.release()
            self._stream_bridges.discard(bridge)
            await producer

    # -- admission + dispatch -------------------------------------------------

    async def _admission_loop(self) -> None:
        assert self._queue is not None
        while True:
            try:
                lanes = await self._admission.collect(self._queue)
            except QueueClosed:
                return
            for lane in lanes:
                task = asyncio.create_task(self._dispatch_lane(lane))
                self._dispatch_tasks.add(task)
                task.add_done_callback(self._dispatch_tasks.discard)

    async def _dispatch_lane(self, lane: Lane) -> None:
        if not lane.fused:
            await asyncio.gather(
                *(self._solve_with_retry(r) for r in lane.requests)
            )
            return

        spec = lane.requests[0].entry.spec
        backend = lane.requests[0].backend
        problems = [r.problem for r in lane.requests]
        self.recorder.record_launch(fused=True, size=lane.size)
        start = time.perf_counter()
        try:
            results = await self._run_in_pool(
                _pool_solve_batch, backend, problems, spec
            )
        except Exception as exc:  # noqa: BLE001 - classified below
            elapsed = time.perf_counter() - start
            category = classify_failure(exc)
            for index, request in enumerate(lane.requests):
                request.attempts += 1
                self.recorder.record_attempt(
                    request.request_id,
                    fingerprint=request.fingerprint,
                    attempt=request.attempts,
                    outcome="error",
                    lane={"size": lane.size, "lane": index, "fused": True},
                    category=category,
                    error=f"{type(exc).__name__}: {exc}",
                    elapsed_seconds=elapsed / lane.size,
                )
            # Un-fuse: each member retries solo so one poisoned lane
            # cannot take down its batch peers.
            await asyncio.gather(
                *(self._solve_with_retry(r) for r in lane.requests)
            )
            return
        elapsed = time.perf_counter() - start
        for index, (request, result) in enumerate(zip(lane.requests, results)):
            request.attempts += 1
            self.recorder.record_attempt(
                request.request_id,
                fingerprint=request.fingerprint,
                attempt=request.attempts,
                outcome="ok",
                lane={"size": lane.size, "lane": index, "fused": True},
                elapsed_seconds=elapsed / lane.size,
            )
            self._complete(request, result)

    async def _solve_with_retry(self, request: SolveRequest) -> None:
        policy = self.config.retry
        while True:
            request.attempts += 1
            self.recorder.record_launch(fused=False)
            start = time.perf_counter()
            try:
                result = await self._run_in_pool(
                    _pool_solve, request.backend, request.problem,
                    request.entry.spec,
                )
            except Exception as exc:  # noqa: BLE001 - classified below
                elapsed = time.perf_counter() - start
                category = classify_failure(exc)
                retrying = (
                    policy.is_retryable(exc)
                    and request.attempts < policy.max_attempts
                )
                backoff = (
                    policy.delay(request.attempts, self._rng)
                    if retrying else None
                )
                self.recorder.record_attempt(
                    request.request_id,
                    fingerprint=request.fingerprint,
                    attempt=request.attempts,
                    outcome="error",
                    category=category,
                    error=f"{type(exc).__name__}: {exc}",
                    backoff_seconds=backoff,
                    elapsed_seconds=elapsed,
                )
                if not retrying:
                    self._fail(request, exc, category)
                    return
                await asyncio.sleep(backoff)
                continue
            self.recorder.record_attempt(
                request.request_id,
                fingerprint=request.fingerprint,
                attempt=request.attempts,
                outcome="ok",
                elapsed_seconds=time.perf_counter() - start,
            )
            self._complete(request, result)
            return

    async def _run_in_pool(self, fn: Any, *args: Any) -> Any:
        assert self._pool is not None
        picklesafe = self.config.pool == "process"
        # functools.partial of a module-level callable stays picklable
        # for the process pool; a lambda would not.
        return await asyncio.get_running_loop().run_in_executor(
            self._pool, functools.partial(fn, *args, picklesafe)
        )

    def _complete(self, request: SolveRequest, result: SolveResult) -> None:
        self.cache.put(request.entry, result)
        self._inflight.pop(request.fingerprint, None)
        request.resolve(result)
        self.recorder.record_outcome(request.request_id, outcome="ok")

    def _fail(
        self, request: SolveRequest, error: Exception, category: str
    ) -> None:
        self._inflight.pop(request.fingerprint, None)
        request.reject(error)
        self.recorder.record_outcome(
            request.request_id,
            outcome="error",
            error=f"{type(error).__name__}: {error}",
            category=category,
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
