"""The gateway: HTTP/WebSocket bindings for a :class:`SolveService`.

:class:`Gateway` binds one running service to a TCP port using nothing
but :mod:`asyncio.streams`:

``POST /v1/solve``
    JSON request (see :mod:`repro.net.wire`) in, the solved
    :meth:`~repro.backends.SolveResult.to_dict` out.  The response
    carries a content-addressed ``ETag`` — the entry fingerprint (target
    + spec + backend, exactly the cache/store identity) — so a client
    replaying a request with ``If-None-Match`` gets ``304 Not Modified``
    without the body ever being built.  All the service's machinery
    (cache tiers, in-flight dedup, fused admission, the solo re-run of
    a failed fused lane, run records) applies unchanged; the gateway is
    a thin wire adapter.
``GET /v1/stream`` (WebSocket upgrade)
    The transient front door: the first client text frame is a solve
    request, then the server streams one text frame per completed
    backward-Euler step, riding :meth:`SolveService.stream`.  With a
    service store every step persists before it is sent, so a
    connection cut mid-transient resumes on reconnect: the client sends
    ``last_step`` and the gateway replays/continues from the durable
    step stack, skipping what the client already holds.
``GET /healthz``
    Liveness + a tiny status payload.
``GET /metrics``
    Prometheus text exposition of the service's
    :class:`~repro.net.metrics.MetricsRegistry` — the same counters
    ``service.stats()`` and ``run.json`` report, because all three read
    the one registry.

Multiple gateways (processes) may share one
:class:`~repro.session.ResultStore` root: each fingerprint's files are
renamed into place atomically, so concurrent writers lose nothing, and
every probe asks the disk, so gateway B serves gateway A's solves from
the store tier.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from repro.net import http11, websocket
from repro.net.metrics import Counter, Histogram, MetricsRegistry
from repro.net.wire import (
    decode_json,
    encode_json,
    error_payload,
    parse_solve_payload,
    parse_stream_payload,
    status_for_error,
)
from repro.serve.service import SolveService
from repro.session import plan_entry
from repro.util.errors import ConfigurationError

#: Routes the gateway understands (for 404 payloads and metrics labels).
ROUTES = ("/healthz", "/metrics", "/v1/solve", "/v1/stream")


class Gateway:
    """One TCP listener in front of one :class:`SolveService`."""

    def __init__(
        self,
        service: SolveService,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        registry = service.metrics.registry
        self._http_requests: Counter = registry.counter(
            "repro_http_requests_total",
            "Gateway HTTP requests by route and status.",
            ("route", "status"),
        )
        self._http_seconds: Histogram = registry.histogram(
            "repro_http_request_seconds",
            "Gateway HTTP request latency by route.",
            ("route",),
        )
        self._ws_connections: Counter = registry.counter(
            "repro_ws_connections_total",
            "WebSocket stream connections accepted.",
        )
        self._ws_steps: Counter = registry.counter(
            "repro_ws_steps_sent_total",
            "Transient steps sent over WebSocket streams.",
        )

    # -- lifecycle ------------------------------------------------------------

    @property
    def registry(self) -> MetricsRegistry:
        return self.service.metrics.registry

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def started(self) -> bool:
        return self._server is not None

    async def start(self) -> "Gateway":
        if self._server is not None:
            return self
        if not self.service.started:
            raise ConfigurationError(
                "the gateway needs a started SolveService; use "
                "'async with SolveService(...)' around the Gateway"
            )
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        # Port 0 means "pick one": report what the OS chose.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def close(self) -> None:
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        for writer in list(self._connections):
            writer.close()
        self._server = None

    async def serve_until_cancelled(self) -> None:
        """Block until cancelled (the long-running deployment shape)."""
        assert self._server is not None
        await self._server.serve_forever()

    async def __aenter__(self) -> "Gateway":
        return await self.start()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.close()

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await http11.read_request(reader)
                except http11.HttpError as exc:
                    writer.write(http11.render_response(
                        exc.status,
                        encode_json({"error": {"message": str(exc)}}),
                        keep_alive=False,
                    ))
                    await writer.drain()
                    return
                if request is None:
                    return
                if request.path == "/v1/stream":
                    await self._handle_stream(request, reader, writer)
                    return  # a WebSocket consumes the connection
                keep_alive = await self._handle_http(request, writer)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # peer went away; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_http(
        self, request: http11.HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        start = time.perf_counter()
        route = request.path if request.path in ROUTES else "other"
        status, payload = 500, b""
        headers: dict[str, str] = {}
        content_type = "application/json"
        try:
            if request.path == "/healthz" and request.method == "GET":
                status, payload = 200, encode_json(self._health())
            elif request.path == "/metrics" and request.method == "GET":
                self.service.sync_gauges()
                status = 200
                payload = self.service.metrics.render().encode("utf-8")
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            elif request.path == "/v1/solve" and request.method == "POST":
                status, payload, headers = await self._handle_solve(request)
            elif request.path in ROUTES:
                status = 405
                payload = encode_json(
                    {"error": {"message": f"wrong method for {request.path}"}}
                )
            else:
                status = 404
                payload = encode_json(
                    {"error": {"message": f"unknown path {request.path!r}",
                               "routes": list(ROUTES)}}
                )
        except Exception as exc:  # noqa: BLE001 - every failure becomes a payload
            status = status_for_error(exc)
            payload = encode_json(error_payload(exc))
        keep_alive = request.keep_alive
        writer.write(http11.render_response(
            status, payload,
            content_type=content_type, headers=headers, keep_alive=keep_alive,
        ))
        await writer.drain()
        self._http_requests.inc(route=route, status=str(status))
        self._http_seconds.observe(time.perf_counter() - start, route=route)
        return keep_alive

    def _health(self) -> dict[str, Any]:
        return {
            "status": "ok" if self.service.started else "closed",
            "run_id": self.service.recorder.run_id,
            "inflight": len(self.service._inflight),
            "store": (
                None if self.service.store is None
                else str(self.service.store.root)
            ),
        }

    # -- POST /v1/solve -------------------------------------------------------

    async def _handle_solve(
        self, request: http11.HttpRequest
    ) -> tuple[int, bytes, dict[str, str]]:
        target, backend, spec = parse_solve_payload(decode_json(request.body))
        entry = plan_entry(target, spec, backend)
        etag = f'"{entry.fingerprint}"'
        if request.header("if-none-match") in (etag, entry.fingerprint):
            # The client already holds this exact content: the
            # fingerprint cannot map to a second answer, so no body
            # (and no cache probe) is needed.
            return 304, b"", {"ETag": etag}
        result = await self.service.submit(target, backend=backend, spec=spec)
        payload = dict(result.to_dict())
        payload["fingerprint"] = entry.fingerprint
        return 200, encode_json(payload), {"ETag": etag}

    # -- GET /v1/stream (WebSocket) -------------------------------------------

    async def _handle_stream(
        self,
        request: http11.HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        start = time.perf_counter()
        status = 101
        try:
            if not request.wants_websocket:
                status = 426
                writer.write(http11.render_response(
                    status,
                    encode_json({"error": {
                        "message": "/v1/stream speaks WebSocket; send an "
                                   "Upgrade: websocket handshake"}}),
                    headers={"Upgrade": "websocket"}, keep_alive=False,
                ))
                await writer.drain()
                return
            key = request.header("sec-websocket-key")
            if not key:
                status = 400
                writer.write(http11.render_response(
                    status,
                    encode_json({"error": {
                        "message": "missing Sec-WebSocket-Key"}}),
                    keep_alive=False,
                ))
                await writer.drain()
                return
            writer.write(http11.render_upgrade(websocket.accept_key(key)))
            await writer.drain()
            self._ws_connections.inc()
            await self._run_stream(reader, writer)
        finally:
            self._http_requests.inc(route="/v1/stream", status=str(status))
            self._http_seconds.observe(
                time.perf_counter() - start, route="/v1/stream"
            )

    async def _run_stream(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        decoder = websocket.FrameDecoder(require_masked=True)

        async def next_message() -> websocket.Frame | None:
            while True:
                data = await reader.read(65536)
                if not data:
                    return None
                for frame in decoder.feed(data):
                    if frame.opcode == websocket.OP_PING:
                        writer.write(websocket.encode_frame(
                            websocket.OP_PONG, frame.payload
                        ))
                        await writer.drain()
                        continue
                    if frame.opcode in (websocket.OP_CLOSE, websocket.OP_TEXT,
                                        websocket.OP_BINARY):
                        return frame

        async def send(payload: dict[str, Any]) -> None:
            writer.write(websocket.encode_frame(
                websocket.OP_TEXT, encode_json(payload)
            ))
            await writer.drain()

        try:
            opening = await next_message()
            if opening is None or opening.opcode == websocket.OP_CLOSE:
                return
            target, backend, spec, resume, last_step = parse_stream_payload(
                decode_json(opening.payload)
            )
            sent = 0
            async for step in self.service.stream(
                target, backend=backend, spec=spec, resume=resume,
            ):
                if step.step <= last_step:
                    # The client survived a cut with these steps in hand;
                    # the durable stack replays them, the wire skips them.
                    continue
                await send({"type": "step", "step": step.to_dict()})
                self._ws_steps.inc()
                sent += 1
            await send({"type": "done", "steps_sent": sent})
            writer.write(websocket.encode_close(1000, "done"))
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            return  # client vanished mid-stream; the store kept the steps
        except websocket.WebSocketError:
            return
        except Exception as exc:  # noqa: BLE001 - report, then close
            try:
                await send(error_payload(exc) | {"type": "error"})
                writer.write(websocket.encode_close(1011, "error"))
                await writer.drain()
            except (ConnectionError, OSError):
                pass


def serve_forever(
    *,
    store: Any = None,
    records: Any = None,
    host: str = "127.0.0.1",
    port: int = 0,
    run_id: str | None = None,
    ready: Any = None,
    stop: Any = None,
    poll_seconds: float = 0.05,
    **service_options: Any,
) -> dict[str, Any]:
    """Boot a service + gateway and block until ``stop`` is set.

    The process/thread entry point the demo and the multi-gateway smoke
    share: builds a :class:`~repro.serve.SolveService` (``store``,
    ``records`` and ``service_options`` pass straight through), wraps it
    in a :class:`Gateway`, calls ``ready({"host", "port", "url",
    "run_id"})`` once listening, then polls ``stop.is_set()`` (any
    object with that method — ``threading.Event`` and
    ``multiprocessing.Event`` both qualify) and shuts down cleanly.
    Returns the service's final ``stats()``.
    """

    async def main() -> dict[str, Any]:
        async with SolveService(
            store=store, records=records, run_id=run_id, **service_options
        ) as service:
            async with Gateway(service, host=host, port=port) as gateway:
                if ready is not None:
                    ready({
                        "host": gateway.host,
                        "port": gateway.port,
                        "url": gateway.url,
                        "run_id": service.recorder.run_id,
                    })
                if stop is None:
                    await gateway.serve_until_cancelled()
                while not stop.is_set():
                    await asyncio.sleep(poll_seconds)
            return service.stats()

    return asyncio.run(main())


__all__ = ["Gateway", "ROUTES", "serve_forever"]
