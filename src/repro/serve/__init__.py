"""The serving tier: a long-lived solve service over the engines.

``repro.serve`` turns the library into infrastructure: a
:class:`SolveService` that admits concurrent solve requests through an
asyncio front door, deduplicates them against a content-addressed result
cache and the in-flight set, fuses compatible requests into batched
vector-engine lanes, retries transient failures with classified backoff
(:mod:`~repro.serve.retry`), streams transient solves step by step with
killed-stream resume, and leaves durable per-run records
(:mod:`~repro.serve.records`) behind for audit.

Quickstart::

    import asyncio
    from repro.serve import SolveService

    async def main():
        async with SolveService(store="cache/") as service:
            result = await service.submit("quarter_five_spot", backend="wse")
            print(result.iterations, service.stats()["cache"])

    asyncio.run(main())
"""

from repro.serve.admission import AdmissionController, Lane
from repro.serve.cache import ResultCache
from repro.serve.queue import QueueClosed, RequestQueue, SolveRequest
from repro.serve.records import (
    SUMMARY_COUNTERS,
    RunRecorder,
    load_attempts,
    load_run_record,
)
from repro.serve.retry import (
    DEFAULT_RETRYABLE,
    FAILURE_CATEGORIES,
    RetryPolicy,
    classify_failure,
)
from repro.serve.service import POOLS, ServiceConfig, SolveService

__all__ = [
    "AdmissionController",
    "DEFAULT_RETRYABLE",
    "FAILURE_CATEGORIES",
    "Lane",
    "POOLS",
    "QueueClosed",
    "RequestQueue",
    "ResultCache",
    "RetryPolicy",
    "RunRecorder",
    "SUMMARY_COUNTERS",
    "ServiceConfig",
    "SolveRequest",
    "SolveService",
    "classify_failure",
    "load_attempts",
    "load_run_record",
]
