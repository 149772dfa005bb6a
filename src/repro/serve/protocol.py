"""Length-prefixed JSON wire protocol for the compile service.

Every message — request or response — is one *frame*:

    +----------------+-------------------------+
    | 4-byte length  |  UTF-8 JSON payload     |
    | (big-endian)   |  (``length`` bytes)     |
    +----------------+-------------------------+

The length counts the JSON payload only.  A frame whose declared length
exceeds the receiver's ``max_bytes`` is rejected *before* the payload
is read (the receiver must not buffer an attacker-sized message); a
connection that closes mid-frame raises :class:`FrameError` so a torn
message is never half-parsed.

Both transports are covered: blocking ``socket`` helpers for clients
and worker tools, ``asyncio`` stream helpers for the server.  Requests
and responses are plain dicts; :data:`ERROR_CODES` enumerates the
``error.code`` values the server may return.
"""

from __future__ import annotations

import asyncio
import json
import socket
import struct
from typing import Any, Dict, Optional

#: frame header: payload byte length, unsigned 32-bit big-endian
HEADER = struct.Struct(">I")

#: default cap on a single frame's JSON payload (requests carrying QASM
#: text fit comfortably; anything larger is hostile or a bug)
MAX_PAYLOAD_BYTES = 4 * 1024 * 1024

#: ``error.code`` values a response may carry:
#:   bad-frame     frame header/payload violated the framing rules
#:                 (oversized declared length, truncated payload)
#:   bad-json      payload was not valid UTF-8 JSON
#:   bad-request   JSON was valid but the request shape was not
#:                 (missing op, unknown fields, bad types)
#:   unknown-op    request named an op the server does not implement
#:   too-large     request payload exceeded the server's size cap
#:   compile-error the compile job itself raised
#:   worker-crashed the worker process running the job died (the pool
#:                 is replaced; resubmitting the request is safe)
#:   shutting-down server is draining and no longer accepts compiles
ERROR_CODES = (
    "bad-frame",
    "bad-json",
    "bad-request",
    "unknown-op",
    "too-large",
    "compile-error",
    "worker-crashed",
    "shutting-down",
)


class FrameError(Exception):
    """Framing violation: oversized declared length or truncated frame."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def encode_frame(payload: Dict[str, Any]) -> bytes:
    """Serialize *payload* into one wire frame (header + JSON bytes)."""
    body = json.dumps(payload, separators=(",", ":"), default=str).encode()
    return HEADER.pack(len(body)) + body


def decode_payload(body: bytes) -> Dict[str, Any]:
    """Parse one frame body; raises :class:`FrameError` on bad JSON."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise FrameError("bad-json", f"payload is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise FrameError(
            "bad-json", f"payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


# -- blocking socket transport -----------------------------------------
def send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    sock.sendall(encode_frame(payload))


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly *count* bytes; ``None`` on clean EOF at a frame
    boundary, :class:`FrameError` on EOF mid-frame."""
    chunks = []
    got = 0
    while got < count:
        chunk = sock.recv(min(65536, count - got))
        if not chunk:
            if got == 0:
                return None
            raise FrameError(
                "bad-frame",
                f"connection closed mid-frame ({got}/{count} bytes)",
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def recv_frame(
    sock: socket.socket, max_bytes: int = MAX_PAYLOAD_BYTES
) -> Optional[Dict[str, Any]]:
    """One decoded frame, or ``None`` when the peer closed cleanly."""
    header = _recv_exact(sock, HEADER.size)
    if header is None:
        return None
    (length,) = HEADER.unpack(header)
    if length > max_bytes:
        raise FrameError(
            "too-large",
            f"frame declares {length} bytes, cap is {max_bytes}",
        )
    body = _recv_exact(sock, length)
    if body is None:
        raise FrameError("bad-frame", "connection closed before payload")
    return decode_payload(body)


# -- asyncio stream transport ------------------------------------------
async def write_frame_async(
    writer: asyncio.StreamWriter, payload: Dict[str, Any]
) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


async def read_frame_async(
    reader: asyncio.StreamReader, max_bytes: int = MAX_PAYLOAD_BYTES
) -> Optional[Dict[str, Any]]:
    """One decoded frame, or ``None`` when the peer closed cleanly.

    Oversized frames raise *before* the payload is buffered.
    """
    try:
        header = await reader.readexactly(HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            "bad-frame",
            f"connection closed mid-header ({len(exc.partial)} bytes)",
        )
    (length,) = HEADER.unpack(header)
    if length > max_bytes:
        raise FrameError(
            "too-large",
            f"frame declares {length} bytes, cap is {max_bytes}",
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError:
        raise FrameError("bad-frame", "connection closed before payload")
    return decode_payload(body)


def error_response(code: str, message: str, **extra: Any) -> Dict[str, Any]:
    """Canonical error response body (``ok=False`` + coded error)."""
    assert code in ERROR_CODES, code
    response: Dict[str, Any] = {
        "ok": False,
        "error": {"code": code, "message": message},
    }
    response.update(extra)
    return response
