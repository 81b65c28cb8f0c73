"""The blocking client SDK for a running :class:`~repro.net.Gateway`.

:class:`GatewayClient` is how examples, benchmarks and remote callers
exercise the *real* wire path — stdlib ``http.client`` for the request/
response endpoints and a raw socket speaking RFC 6455 for streams:

* :meth:`solve` — ``POST /v1/solve``; returns a rehydrated
  :class:`~repro.backends.SolveResult` (pressure bit-exact across the
  wire).  Requests are content-addressed, so retries are always safe:
  connection-level failures (gateway restarting, socket reset) retry
  with backoff; application errors re-raise typed.
* :meth:`stream` — a blocking iterator of
  :class:`~repro.backends.StepResult` over the WebSocket.  If the
  connection dies mid-transient the client *reconnects and resumes*:
  it sends the last step it holds, and the gateway replays/continues
  from the durable step stack — the iterator's consumer just sees the
  next step.
* :meth:`healthz` / :meth:`metrics` / :meth:`metrics_values` — the
  operational surface (``metrics_values`` parses the Prometheus text
  into a flat ``{name{labels}: value}`` dict for assertions).

Connections are per-thread (``http.client`` handles keep-alive but is
not thread-safe), so one client object may be shared across a thread
pool — the fan-out benchmarks do exactly that.
"""

from __future__ import annotations

import http.client
import socket
import threading
import time
from typing import Any, Iterator, Mapping

from repro.backends import SolveResult, StepResult
from repro.net import websocket
from repro.net.wire import decode_json, encode_json, target_to_wire
from repro.spec import resolve_spec
from repro.util.errors import ConfigurationError, ReproError

#: Connection-level failures worth retrying (the request is
#: content-addressed, so a replay can never double-apply anything).
RECONNECT_ERRORS = (
    ConnectionError,
    http.client.BadStatusLine,
    http.client.CannotSendRequest,
    http.client.ResponseNotReady,
    socket.timeout,
    BrokenPipeError,
    EOFError,
    OSError,
)


def _spec_fields(spec: Any, options: Mapping[str, Any]) -> dict[str, Any]:
    """A request's flat ``options`` as given, or its ``spec`` as
    ``to_dict()``.  Both are resolved first by the front doors' one rule
    (:func:`repro.spec.resolve_spec`), so passing both, or a bad option
    or spec, raises before anything is sent."""
    resolved = resolve_spec(spec, options)
    if options:
        return {"options": dict(options)}
    return {} if spec is None else {"spec": resolved.to_dict()}


class GatewayError(ReproError):
    """An application-level error answered by the gateway."""

    def __init__(self, status: int, message: str, *, category: str | None = None):
        super().__init__(f"gateway answered {status}: {message}")
        self.status = status
        self.category = category


class GatewayClient:
    """A blocking, reconnecting client for one gateway address."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 120.0,
        retries: int = 3,
        retry_backoff: float = 0.05,
    ):
        if retries < 0:
            raise ConfigurationError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self._local = threading.local()
        self.last_etag: str | None = None

    # -- connection plumbing --------------------------------------------------

    def _connection(self, *, fresh: bool = False) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if fresh and conn is not None:
            conn.close()
            conn = None
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def close(self) -> None:
        """Close this thread's keep-alive connection (others close with
        their threads; the gateway also reaps idle sockets on shutdown)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        headers: Mapping[str, str] | None = None,
    ) -> tuple[int, dict[str, str], bytes]:
        """One HTTP exchange with reconnect-and-retry on transport faults."""
        attempt = 0
        while True:
            conn = self._connection(fresh=attempt > 0)
            try:
                conn.request(method, path, body=body, headers=dict(headers or {}))
                response = conn.getresponse()
                payload = response.read()
                response_headers = {
                    name.lower(): value for name, value in response.getheaders()
                }
                return response.status, response_headers, payload
            except RECONNECT_ERRORS:
                self.close()
                if attempt >= self.retries:
                    raise
                time.sleep(self.retry_backoff * (2 ** attempt))
                attempt += 1

    @staticmethod
    def _raise_for_error(status: int, payload: bytes) -> None:
        if status < 400:
            return
        message, category = "", None
        try:
            body = decode_json(payload)
            error = body.get("error", {}) if isinstance(body, dict) else {}
            message = error.get("message", "")
            category = error.get("category")
        except Exception:  # noqa: BLE001 - a non-JSON error body
            message = payload.decode("utf-8", errors="replace")
        raise GatewayError(status, message or "unknown error", category=category)

    # -- endpoints ------------------------------------------------------------

    def solve(
        self,
        target: Any,
        *,
        backend: str = "reference",
        spec: Any = None,
        if_none_match: str | None = None,
        **options: Any,
    ) -> SolveResult | None:
        """Solve over the wire; semantics mirror :meth:`SolveService.submit`.

        Returns the rehydrated result, or ``None`` on ``304 Not
        Modified`` when ``if_none_match`` named the current content
        (the caller already holds the answer).  :attr:`last_etag` keeps
        the response's ETag for that replay."""
        payload: dict[str, Any] = {
            "target": target_to_wire(target),
            "backend": backend,
            **_spec_fields(spec, options),
        }
        headers = {"Content-Type": "application/json"}
        if if_none_match is not None:
            headers["If-None-Match"] = if_none_match
        status, response_headers, body = self._request(
            "POST", "/v1/solve", encode_json(payload), headers
        )
        self.last_etag = response_headers.get("etag")
        if status == 304:
            return None
        self._raise_for_error(status, body)
        return SolveResult.from_dict(decode_json(body))

    def healthz(self) -> dict[str, Any]:
        status, _, body = self._request("GET", "/healthz")
        self._raise_for_error(status, body)
        return decode_json(body)

    def metrics(self) -> str:
        """The raw Prometheus text exposition."""
        status, _, body = self._request("GET", "/metrics")
        self._raise_for_error(status, body)
        return body.decode("utf-8")

    def metrics_values(self) -> dict[str, float]:
        """``/metrics`` parsed into ``{name{labels}: value}``."""
        return parse_metrics_text(self.metrics())

    # -- streaming ------------------------------------------------------------

    def stream(
        self,
        target: Any,
        *,
        backend: str = "wse",
        spec: Any = None,
        resume: bool = True,
        **options: Any,
    ) -> Iterator[StepResult]:
        """Iterate a transient solve's steps over the WebSocket.

        A connection lost mid-stream reconnects (up to ``retries``
        times per gap) sending ``last_step``, and the gateway resumes
        from the durable step stack — the iterator keeps yielding from
        the next step as if nothing happened.
        """
        request: dict[str, Any] = {
            "target": target_to_wire(target),
            "backend": backend,
            "resume": resume,
            **_spec_fields(spec, options),
        }

        last_step = 0
        attempts_left = self.retries
        while True:
            try:
                for step in self._stream_once(dict(request), last_step):
                    last_step = step.step
                    attempts_left = self.retries  # progress resets the budget
                    yield step
                return
            except RECONNECT_ERRORS:
                if attempts_left <= 0:
                    raise
                attempts_left -= 1
                time.sleep(self.retry_backoff)
                # Reconnect resumes: the gateway replays the durable
                # stack and skips everything <= last_step.

    def _stream_once(
        self, request: dict[str, Any], last_step: int
    ) -> Iterator[StepResult]:
        request["last_step"] = last_step
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        try:
            self._ws_handshake(sock)
            sock.sendall(websocket.encode_frame(
                websocket.OP_TEXT, encode_json(request), mask=True
            ))
            decoder = websocket.FrameDecoder()
            pending: list[websocket.Frame] = []
            while True:
                frame = self._next_data_frame(sock, decoder, pending)
                if frame is None or frame.opcode == websocket.OP_CLOSE:
                    return
                message = decode_json(frame.payload)
                kind = message.get("type")
                if kind == "step":
                    yield StepResult.from_dict(message["step"])
                elif kind == "done":
                    return
                elif kind == "error":
                    error = message.get("error", {})
                    raise GatewayError(
                        500, error.get("message", "stream failed"),
                        category=error.get("category"),
                    )
        finally:
            try:
                sock.close()
            except OSError:
                pass

    def _ws_handshake(self, sock: socket.socket) -> None:
        key = websocket.make_client_key()
        sock.sendall((
            "GET /v1/stream HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Upgrade: websocket\r\n"
            "Connection: Upgrade\r\n"
            f"Sec-WebSocket-Key: {key}\r\n"
            "Sec-WebSocket-Version: 13\r\n\r\n"
        ).encode("latin-1"))
        head = b""
        while b"\r\n\r\n" not in head:
            chunk = sock.recv(4096)
            if not chunk:
                raise ConnectionError("gateway closed during WS handshake")
            head += chunk
        status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
        if " 101 " not in f"{status_line} ":
            raise GatewayError(
                int(status_line.split(" ")[1]) if len(status_line.split(" ")) > 1 else 500,
                f"WebSocket upgrade refused: {status_line}",
            )
        expected = websocket.accept_key(key)
        for line in head.split(b"\r\n"):
            if line.lower().startswith(b"sec-websocket-accept:"):
                got = line.split(b":", 1)[1].strip().decode("ascii")
                if got != expected:
                    raise ConnectionError("bad Sec-WebSocket-Accept digest")

    def _next_data_frame(
        self,
        sock: socket.socket,
        decoder: websocket.FrameDecoder,
        pending: list[websocket.Frame],
    ) -> websocket.Frame | None:
        """Next non-control frame; ``pending`` holds frames that arrived
        in the same ``recv`` as an earlier one (none are ever dropped)."""
        while True:
            while pending:
                frame = pending.pop(0)
                if frame.opcode == websocket.OP_PING:
                    sock.sendall(websocket.encode_frame(
                        websocket.OP_PONG, frame.payload, mask=True
                    ))
                    continue
                if frame.opcode == websocket.OP_PONG:
                    continue
                return frame
            data = sock.recv(65536)
            if not data:
                raise ConnectionError("gateway closed mid-stream")
            pending.extend(decoder.feed(data))


def parse_metrics_text(text: str) -> dict[str, float]:
    """Prometheus text -> ``{'name{label="v"}': value}`` (floats)."""
    values: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, value = line.rpartition(" ")
        try:
            values[name] = float(value)
        except ValueError:
            continue
    return values


__all__ = [
    "GatewayClient",
    "GatewayError",
    "RECONNECT_ERRORS",
    "parse_metrics_text",
]
