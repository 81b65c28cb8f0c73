"""Admission control: turn queued requests into dispatch lanes.

The economics: a fused launch — one batched program on the
:class:`~repro.core.cg_driver.CgDriver`, one lane per request — shares
staging, charge packets and dispatch, so N concurrent requests that agree on *how* to
solve (backend, full spec fingerprint — engine, tolerances, dtype, time
schedule, everything) and on the grid shape should cost one launch even
though their *targets* (permeability fields, boundary conditions)
differ.  The admission controller drains the request queue in bursts,
lets each burst wait for stragglers until the admission window after
its oldest request's submission, then cuts it into :class:`Lane`\\ s
with :func:`repro.session.plan_lanes` — the same planner
``executor="batched"`` uses, so a request fuses here exactly when it
would fuse in a :class:`~repro.session.Session`.  Admission never
*rejects* work, it only decides the launch shape.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.serve.queue import RequestQueue, SolveRequest
from repro.session import plan_lanes
from repro.util.errors import ConfigurationError


@dataclass
class Lane:
    """One dispatch unit: a fused batch of requests, or one solo request."""

    requests: list[SolveRequest]

    @property
    def size(self) -> int:
        return len(self.requests)

    @property
    def fused(self) -> bool:
        return len(self.requests) > 1


class AdmissionController:
    """Turns queue bursts into dispatch lanes.

    ``window`` (seconds) is the latency/fusion trade-off knob: a burst
    waits for compatible stragglers no later than ``window`` after its
    oldest request's submission.  A burst whose oldest request has
    already waited that long (queue backlog, a slow event loop, a prior
    long lane) dispatches at once; requests that arrive just after still
    coalesce through the service's in-flight dedup.
    """

    def __init__(self, *, window: float = 0.005):
        if window < 0:
            raise ConfigurationError(f"window must be >= 0, got {window}")
        self.window = window

    def linger_for(self, burst: list[SolveRequest]) -> float:
        """How long this burst should still wait for stragglers."""
        if not burst:
            return self.window
        age = max(0.0, time.time() - min(r.submitted_at for r in burst))
        return max(0.0, self.window - age)

    async def collect(self, queue: RequestQueue) -> list[Lane]:
        """Block for a burst, linger out the window, and partition it.

        Raises :class:`~repro.serve.queue.QueueClosed` when the queue is
        closed and drained.
        """
        burst = await queue.get_batch()
        linger = self.linger_for(burst)
        if linger > 0:
            await asyncio.sleep(linger)
            burst.extend(queue.drain_nowait())
        return self.partition(burst)

    def partition(self, requests: list[SolveRequest]) -> list[Lane]:
        """Cut a burst into the lanes of :func:`repro.session.plan_lanes`."""
        lanes = plan_lanes([(r.entry, r.problem) for r in requests])
        return [Lane([requests[i] for i in lane]) for lane in lanes]


__all__ = ["AdmissionController", "Lane"]
