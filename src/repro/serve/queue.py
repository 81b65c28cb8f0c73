"""The service's request vocabulary and its asyncio request queue.

A :class:`SolveRequest` is one admitted unit of work: the resolved
:class:`~repro.session.PlanEntry` (target + spec + backend, content
fingerprint already assigned), the built problem, an
:class:`asyncio.Future` the submitter awaits, and the follower list that
makes in-flight deduplication possible — requests arriving for a
fingerprint that is already queued or solving *attach* to the primary
request instead of enqueuing a duplicate solve.

:class:`RequestQueue` is a thin close-aware wrapper over
:class:`asyncio.Queue`: the admission loop blocks on :meth:`get_batch`,
which returns everything currently available (one blocking ``get`` plus
a non-blocking drain), so the lanes it cuts see every request queued on
one loop turn at once.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field
from typing import Any

from repro.physics.darcy import SinglePhaseProblem
from repro.session import PlanEntry

_request_ids = itertools.count(1)


def next_request_id() -> int:
    """Allocate a service-wide request id (streams use these too)."""
    return next(_request_ids)


@dataclass
class SolveRequest:
    """One submitted solve, from admission to resolution."""

    entry: PlanEntry
    problem: SinglePhaseProblem
    future: "asyncio.Future[Any]"
    request_id: int = field(default_factory=next_request_id)
    attempts: int = 0
    #: Futures of requests deduplicated onto this one (same fingerprint
    #: submitted while this request was still in flight).
    followers: list["asyncio.Future[Any]"] = field(default_factory=list)

    @property
    def fingerprint(self) -> str:
        return self.entry.fingerprint

    @property
    def backend(self) -> str:
        return self.entry.backend

    def resolve(self, result: Any) -> None:
        """Deliver ``result`` to the submitter and every follower."""
        for future in (self.future, *self.followers):
            if not future.done():
                future.set_result(result)

    def reject(self, error: BaseException) -> None:
        """Deliver ``error`` to the submitter and every follower."""
        for future in (self.future, *self.followers):
            if not future.done():
                future.set_exception(error)


class QueueClosed(Exception):
    """Raised by :meth:`RequestQueue.get_batch` after :meth:`close`."""


class RequestQueue:
    """Close-aware asyncio queue the admission loop drains in bursts."""

    _CLOSE = object()

    def __init__(self) -> None:
        self._queue: asyncio.Queue[Any] = asyncio.Queue()
        self._closed = False

    def __len__(self) -> int:
        return self._queue.qsize()

    def put(self, request: SolveRequest) -> None:
        if self._closed:
            raise QueueClosed("the service is closed")
        self._queue.put_nowait(request)

    def close(self) -> None:
        """No further puts; a pending :meth:`get_batch` wakes and raises."""
        if not self._closed:
            self._closed = True
            self._queue.put_nowait(self._CLOSE)

    async def get_batch(self) -> list[SolveRequest]:
        """Block for at least one request, then drain what's available.

        Returns the burst in arrival order.  Raises :class:`QueueClosed`
        once the queue is closed *and* drained — requests enqueued before
        the close are still delivered.
        """
        batch: list[SolveRequest] = []
        item = await self._queue.get()
        while True:
            if item is self._CLOSE:
                if batch:
                    # Deliver the batch; re-arm the sentinel for the next call.
                    self._queue.put_nowait(self._CLOSE)
                    return batch
                raise QueueClosed("the service is closed")
            batch.append(item)
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return batch


__all__ = ["QueueClosed", "RequestQueue", "SolveRequest", "next_request_id"]
