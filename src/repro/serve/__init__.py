"""The serving tier: a long-lived solve service over the engines.

``repro.serve`` turns the library into infrastructure: a
:class:`SolveService` that admits concurrent solve requests through an
asyncio front door, deduplicates them against a content-addressed result
cache and the in-flight set, fuses compatible requests queued on one
loop turn into batched lanes and dispatches them at once, re-runs a
member solo once when its fused lane fails or its worker pool breaks
(and replaces the broken pool), streams transient solves one step per
consumer request with killed-stream resume, and leaves durable per-run
records (:mod:`~repro.serve.records`) behind for audit.  Each failure
carries its :func:`~repro.util.errors.classify_failure` category.

Quickstart::

    import asyncio
    from repro.serve import SolveService

    async def main():
        async with SolveService(store="cache/") as service:
            result = await service.submit("quarter_five_spot", backend="wse")
            print(result.iterations, service.stats()["cache"])

    asyncio.run(main())
"""

from repro.serve.cache import ResultCache
from repro.serve.queue import QueueClosed, RequestQueue, SolveRequest
from repro.serve.records import (
    SUMMARY_COUNTERS,
    RunRecorder,
    load_attempts,
    load_run_record,
)
from repro.serve.service import POOLS, ServiceConfig, SolveService
from repro.util.errors import FAILURE_CATEGORIES, classify_failure

__all__ = [
    "FAILURE_CATEGORIES",
    "POOLS",
    "QueueClosed",
    "RequestQueue",
    "ResultCache",
    "RunRecorder",
    "SUMMARY_COUNTERS",
    "ServiceConfig",
    "SolveRequest",
    "SolveService",
    "classify_failure",
    "load_attempts",
    "load_run_record",
]
