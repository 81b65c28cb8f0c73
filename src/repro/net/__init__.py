"""The network tier: an HTTP/WebSocket gateway over the serving tier.

``repro.net`` scales :class:`~repro.serve.SolveService` out of one
process: :class:`Gateway` binds a running service to the network
(``POST /v1/solve``, WebSocket ``GET /v1/stream``, ``GET /healthz``,
Prometheus ``GET /metrics``) over nothing but :mod:`asyncio.streams` —
no external dependencies — and :class:`GatewayClient` is the matching
blocking SDK so examples, benchmarks and remote callers exercise the
real wire path.  Several gateways on one host can share a single
:class:`~repro.session.ResultStore` (one record file per fingerprint,
renamed into place, so concurrent writers lose nothing), and every
service/gateway counter flows through one
:class:`~repro.net.metrics.MetricsRegistry` so ``/metrics``,
``service.stats()`` and the durable run records can never disagree.

Quickstart::

    import asyncio
    from repro.net import Gateway, GatewayClient
    from repro.serve import SolveService

    async def main():
        async with SolveService(store="cache/") as service:
            async with Gateway(service, port=8080) as gateway:
                print("serving on", gateway.url)
                await gateway.serve_until_cancelled()

    asyncio.run(main())
"""

from typing import Any

from repro.net.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ServiceMetrics,
)
from repro.net.wire import (
    decode_json,
    encode_json,
    parse_solve_payload,
    target_to_wire,
)

#: Gateway/client re-exports resolve lazily (PEP 562): the server module
#: imports the serving tier, and the serving tier's records import
#: :mod:`repro.net.metrics` from *this* package — eager imports here
#: would close that loop into a cycle.
_LAZY = {
    "Gateway": ("repro.net.server", "Gateway"),
    "serve_forever": ("repro.net.server", "serve_forever"),
    "GatewayClient": ("repro.net.client", "GatewayClient"),
    "GatewayError": ("repro.net.client", "GatewayError"),
    "parse_metrics_text": ("repro.net.client", "parse_metrics_text"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "Counter",
    "Gauge",
    "Gateway",
    "GatewayClient",
    "GatewayError",
    "Histogram",
    "MetricsRegistry",
    "ServiceMetrics",
    "decode_json",
    "encode_json",
    "parse_metrics_text",
    "parse_solve_payload",
    "serve_forever",
    "target_to_wire",
]
