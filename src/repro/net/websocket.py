"""RFC 6455 WebSocket framing and handshake, sans-io, stdlib-only.

The gateway streams transient solves over a WebSocket because the step
stream is exactly what HTTP request/response cannot express: an
unbounded, server-paced sequence the client may abandon (or lose to a
cut connection) and later *resume*.  This module owns the protocol
mechanics both ends share:

* :func:`accept_key` — the handshake digest
  (``base64(sha1(key + GUID))``) the server echoes back.
* :func:`encode_frame` — one frame, optionally client-masked.
* :class:`FrameDecoder` — an incremental byte-feed parser yielding
  :class:`Frame` values; it is transport-agnostic, so the asyncio
  server and the blocking client SDK use the identical parser (and the
  tests can drive it with byte slices, no sockets involved).

Only what the gateway needs is implemented: single-frame text/binary
messages plus the ping/pong/close control frames.  Fragmented messages
(FIN=0) are rejected loudly rather than mis-assembled silently.
"""

from __future__ import annotations

import base64
import hashlib
import os
import struct
from dataclasses import dataclass

#: The protocol's fixed handshake GUID (RFC 6455 §1.3).
WS_GUID = "258EAFA5-E914-47DA-95CA-C5AB0DC85B11"

OP_TEXT = 0x1
OP_BINARY = 0x2
OP_CLOSE = 0x8
OP_PING = 0x9
OP_PONG = 0xA

CONTROL_OPCODES = frozenset({OP_CLOSE, OP_PING, OP_PONG})
DATA_OPCODES = frozenset({OP_TEXT, OP_BINARY})

#: Frames larger than this are a protocol error on our wire (a full
#: 128x128x8 float64 step is ~1 MiB; 64 MiB is generous headroom).
MAX_FRAME_BYTES = 64 * 1024 * 1024


class WebSocketError(Exception):
    """A protocol violation or an unexpected close."""


def accept_key(client_key: str) -> str:
    """The Sec-WebSocket-Accept value for a client's Sec-WebSocket-Key."""
    digest = hashlib.sha1((client_key.strip() + WS_GUID).encode("ascii"))
    return base64.b64encode(digest.digest()).decode("ascii")


def make_client_key() -> str:
    """A fresh random Sec-WebSocket-Key (16 random bytes, base64)."""
    return base64.b64encode(os.urandom(16)).decode("ascii")


@dataclass(frozen=True)
class Frame:
    """One parsed frame: opcode plus unmasked payload."""

    opcode: int
    payload: bytes

    @property
    def is_control(self) -> bool:
        return self.opcode in CONTROL_OPCODES

    def text(self) -> str:
        return self.payload.decode("utf-8")


def encode_frame(opcode: int, payload: bytes, *, mask: bool = False) -> bytes:
    """Serialize one FIN frame.  Clients MUST mask; servers MUST NOT."""
    if opcode not in CONTROL_OPCODES | DATA_OPCODES:
        raise WebSocketError(f"unsupported opcode {opcode:#x}")
    if opcode in CONTROL_OPCODES and len(payload) > 125:
        raise WebSocketError("control frame payloads are capped at 125 bytes")
    header = bytearray([0x80 | opcode])
    length = len(payload)
    mask_bit = 0x80 if mask else 0x00
    if length < 126:
        header.append(mask_bit | length)
    elif length < 1 << 16:
        header.append(mask_bit | 126)
        header += struct.pack(">H", length)
    else:
        header.append(mask_bit | 127)
        header += struct.pack(">Q", length)
    if not mask:
        return bytes(header) + payload
    key = os.urandom(4)
    header += key
    masked = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
    return bytes(header) + masked


def encode_close(code: int = 1000, reason: str = "") -> bytes:
    """A close frame with status code + optional UTF-8 reason."""
    return encode_frame(
        OP_CLOSE, struct.pack(">H", code) + reason.encode("utf-8")
    )


class FrameDecoder:
    """Incremental frame parser: feed bytes in, get :class:`Frame`\\ s out.

    Transport-agnostic by design — the asyncio server feeds it from a
    ``StreamReader``, the blocking client from ``socket.recv``, and the
    unit tests from hand-built byte strings split at awkward offsets.
    """

    def __init__(self, *, require_masked: bool = False):
        #: Servers set ``require_masked=True`` — RFC 6455 §5.1 demands
        #: clients mask every frame.
        self.require_masked = require_masked
        self._buffer = bytearray()

    def feed(self, data: bytes) -> list[Frame]:
        """Append received bytes; return every frame now complete."""
        self._buffer.extend(data)
        frames: list[Frame] = []
        while True:
            frame = self._try_parse()
            if frame is None:
                return frames
            frames.append(frame)

    def _try_parse(self) -> Frame | None:
        buf = self._buffer
        if len(buf) < 2:
            return None
        first, second = buf[0], buf[1]
        fin = bool(first & 0x80)
        if first & 0x70:
            raise WebSocketError("reserved frame bits set (no extensions)")
        opcode = first & 0x0F
        masked = bool(second & 0x80)
        length = second & 0x7F
        offset = 2
        if length == 126:
            if len(buf) < offset + 2:
                return None
            (length,) = struct.unpack_from(">H", buf, offset)
            offset += 2
        elif length == 127:
            if len(buf) < offset + 8:
                return None
            (length,) = struct.unpack_from(">Q", buf, offset)
            offset += 8
        if length > MAX_FRAME_BYTES:
            raise WebSocketError(
                f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )
        if not fin:
            raise WebSocketError("fragmented messages are not supported")
        if self.require_masked and not masked and opcode in DATA_OPCODES:
            raise WebSocketError("client data frames must be masked")
        key = b""
        if masked:
            if len(buf) < offset + 4:
                return None
            key = bytes(buf[offset:offset + 4])
            offset += 4
        if len(buf) < offset + length:
            return None
        payload = bytes(buf[offset:offset + length])
        del buf[:offset + length]
        if masked:
            payload = bytes(b ^ key[i % 4] for i, b in enumerate(payload))
        if opcode not in CONTROL_OPCODES | DATA_OPCODES:
            raise WebSocketError(f"unsupported opcode {opcode:#x}")
        return Frame(opcode=opcode, payload=payload)


def parse_close(frame: Frame) -> tuple[int, str]:
    """Status code + reason of a close frame (1005 when absent)."""
    if frame.opcode != OP_CLOSE:
        raise WebSocketError("not a close frame")
    if len(frame.payload) < 2:
        return 1005, ""
    (code,) = struct.unpack_from(">H", frame.payload, 0)
    return code, frame.payload[2:].decode("utf-8", errors="replace")


__all__ = [
    "CONTROL_OPCODES",
    "DATA_OPCODES",
    "Frame",
    "FrameDecoder",
    "MAX_FRAME_BYTES",
    "OP_BINARY",
    "OP_CLOSE",
    "OP_PING",
    "OP_PONG",
    "OP_TEXT",
    "WS_GUID",
    "WebSocketError",
    "accept_key",
    "encode_close",
    "encode_frame",
    "make_client_key",
    "parse_close",
]
