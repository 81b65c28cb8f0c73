"""Admission control: group compatible queued requests into batch lanes.

The economics: a fused launch — one batched program on the
:class:`~repro.core.cg_driver.CgDriver`, one lane per request — shares
staging, charge packets and dispatch, so N concurrent requests that agree on *how* to
solve (backend, full spec fingerprint — engine, tolerances, dtype, time
schedule, everything) and on the grid shape should cost one launch even
though their *targets* (permeability fields, boundary conditions)
differ.  The admission controller implements exactly that: it drains the
request queue in bursts, waits one small admission window for
stragglers, then partitions the burst into :class:`Lane`\\ s.

A lane is marked ``fused`` when it has >1 member and the backend can
batch it (``solve_batch`` exists and the spec doesn't pin the
``"event"`` engine — the per-PE oracle plays one problem at a time).
Everything else degrades gracefully to per-request dispatch; admission
never *rejects* work, it only decides the launch shape.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Hashable

from repro.backends import get_backend
from repro.serve.queue import RequestQueue, SolveRequest
from repro.util.errors import ConfigurationError

#: Group key: (backend, spec fingerprint, grid shape) — the spec
#: fingerprint covers every solve knob *except* the target, so one key
#: means "these requests can share a fused launch".
GroupKey = tuple[str, str, tuple[int, ...]]


def group_key(request: SolveRequest) -> GroupKey:
    return (
        request.backend,
        request.entry.spec.fingerprint(),
        tuple(request.problem.grid.shape),
    )


def can_fuse(request: SolveRequest) -> bool:
    """Whether this request's backend/spec admit a fused batched launch."""
    backend = get_backend(request.backend)
    if not hasattr(backend, "solve_batch"):
        return False
    engine = request.entry.spec.machine.engine
    if engine is None:
        # Backends without the fabric-engine vocabulary (reference, GPU)
        # batch whenever they expose solve_batch.
        return True
    from repro.core.engines import BATCH_CAPABLE_ENGINES

    return engine in BATCH_CAPABLE_ENGINES


@dataclass
class Lane:
    """One dispatch unit: requests sharing a group key, fused or solo."""

    key: Hashable
    requests: list[SolveRequest]
    fused: bool

    @property
    def size(self) -> int:
        return len(self.requests)


class AdmissionController:
    """Turns queue bursts into dispatch lanes.

    ``window`` is how long (seconds) a burst waits for compatible
    stragglers before dispatch — the latency/fusion trade-off knob.
    ``max_lane_width`` caps requests per fused lane (``None`` = only the
    spec's own ``machine.batch_size`` chunking applies).

    ``speculative_after`` launches speculatively: when the burst's
    *oldest* request has already waited that long (queue backlog, a slow
    event loop, a prior long lane), the linger shrinks to whatever is
    left of the speculative budget — possibly zero — instead of always
    paying the full window on top.  Requests that arrive just after the
    speculative launch still coalesce for free via the service's
    in-flight dedup, so the fusion loss is bounded while the stale-lane
    tail latency is not.  ``None`` (the default) keeps the fixed window.
    """

    def __init__(
        self,
        *,
        window: float = 0.005,
        max_lane_width: int | None = None,
        speculative_after: float | None = None,
    ):
        if window < 0:
            raise ConfigurationError(f"window must be >= 0, got {window}")
        if max_lane_width is not None and max_lane_width < 1:
            raise ConfigurationError(
                f"max_lane_width must be >= 1, got {max_lane_width}"
            )
        if speculative_after is not None and speculative_after < 0:
            raise ConfigurationError(
                f"speculative_after must be >= 0, got {speculative_after}"
            )
        self.window = window
        self.max_lane_width = max_lane_width
        self.speculative_after = speculative_after

    def linger_for(self, burst: list[SolveRequest]) -> float:
        """How long this burst should wait for stragglers.

        The fixed ``window``, clipped to the oldest member's remaining
        speculative budget when ``speculative_after`` is set.
        """
        linger = self.window
        if self.speculative_after is not None and burst:
            oldest = min(r.submitted_at for r in burst)
            age = max(0.0, time.time() - oldest)
            linger = min(linger, max(0.0, self.speculative_after - age))
        return linger

    async def collect(self, queue: RequestQueue) -> list[Lane]:
        """Block for a burst, linger one window, and partition into lanes.

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
        """Group a burst into lanes, preserving first-arrival order.

        Requests that cannot fuse (backend without ``solve_batch``, spec
        pinned to the event engine) become solo lanes; fusable groups
        wider than ``max_lane_width`` split into consecutive chunks.
        """
        groups: dict[GroupKey, list[SolveRequest]] = {}
        order: list[GroupKey] = []
        lanes: list[Lane] = []
        for request in requests:
            if not can_fuse(request):
                lanes.append(Lane(key=None, requests=[request], fused=False))
                continue
            key = group_key(request)
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(request)
        for key in order:
            members = groups[key]
            width = self.max_lane_width or len(members)
            for start in range(0, len(members), width):
                chunk = members[start:start + width]
                lanes.append(Lane(key=key, requests=chunk, fused=len(chunk) > 1))
        return lanes


__all__ = ["AdmissionController", "GroupKey", "Lane", "can_fuse", "group_key"]
