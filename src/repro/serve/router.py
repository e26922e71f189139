"""Minimal stdlib HTTP/1.1 plumbing for the serving plane.

The container image carries no HTTP framework, so the serving plane
speaks just enough HTTP/1.1 over raw asyncio streams for its four JSON
endpoints: request-line + headers + ``Content-Length`` body in,
``Connection: close`` JSON responses out.  Deliberately not a general
server -- no chunked encoding, no keep-alive, no TLS -- which keeps the
parser a few dozen auditable lines.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, Optional, Tuple

__all__ = ["HttpError", "Request", "Router", "json_response", "read_request"]

#: Upper bound on header block and body sizes (64 KiB each) -- requests are
#: small JSON payloads; anything bigger is malformed or hostile.
_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 64 * 1024

#: Seconds a client gets to send one whole request (head and body).  A
#: connection that sends nothing, or trickles its request, is answered 408
#: and closed, so an idle client cannot hold up :meth:`ServePlane.stop`.
REQUEST_READ_TIMEOUT_S = 10.0

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be served; carries the HTTP status to return."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> Dict[str, object]:
        """Decode the body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "JSON body must be an object")
        return payload


async def read_request(
    reader: asyncio.StreamReader,
    on_head: Optional[Callable[[], None]] = None,
) -> Optional[Request]:
    """Read one HTTP/1.1 request from ``reader``.

    Returns ``None`` if the peer closed the connection before sending a
    request line; raises :class:`HttpError` on malformed, oversized or
    truncated input, and with status 408 if the request is not complete
    within :data:`REQUEST_READ_TIMEOUT_S`.  ``on_head`` is called once the
    whole request head has arrived (the server's drain stops waiting
    for connections only until then).
    """
    try:
        return await asyncio.wait_for(
            _read_request(reader, on_head), REQUEST_READ_TIMEOUT_S
        )
    except asyncio.TimeoutError:
        raise HttpError(
            408, f"request not received within {REQUEST_READ_TIMEOUT_S:g} s"
        ) from None


async def _read_request(
    reader: asyncio.StreamReader, on_head: Optional[Callable[[], None]]
) -> Optional[Request]:
    """:func:`read_request` without the deadline."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(400, "request head too large") from None
    if on_head is not None:
        on_head()
    if len(head) > _MAX_HEADER_BYTES:
        raise HttpError(400, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {lines[0]!r}")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value
    length_text = headers.get("content-length", "0")
    if not (length_text.isascii() and length_text.isdigit()):
        raise HttpError(400, f"bad Content-Length: {length_text!r}")
    # The digit-count test keeps int() clear of its huge-string limit.
    if len(length_text) > len(str(_MAX_BODY_BYTES)) or (
        int(length_text) > _MAX_BODY_BYTES
    ):
        raise HttpError(
            400, f"unacceptable Content-Length: {length_text[:32]}"
        )
    length = int(length_text)
    try:
        body = await reader.readexactly(length) if length else b""
    except asyncio.IncompleteReadError:
        raise HttpError(400, "truncated request body") from None
    path = target.split("?", 1)[0]
    return Request(method=method, path=path, headers=headers, body=body)


def json_response(status: int, payload: Dict[str, object]) -> bytes:
    """Serialize one ``Connection: close`` JSON response."""
    body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    reason = _REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    return head + body


#: An endpoint handler: request in, ``(status, payload)`` out.
Handler = Callable[[Request], Awaitable[Tuple[int, Dict[str, object]]]]


class Router:
    """Exact-match ``(method, path)`` dispatch table."""

    def __init__(self) -> None:
        self._routes: Dict[Tuple[str, str], Handler] = {}

    def add(self, method: str, path: str, handler: Handler) -> None:
        """Register ``handler`` for ``method path``."""
        self._routes[(method.upper(), path)] = handler

    async def dispatch(self, request: Request) -> Tuple[int, Dict[str, object]]:
        """Route one request; 404 on unknown path, 405 on wrong method."""
        handler = self._routes.get((request.method.upper(), request.path))
        if handler is not None:
            return await handler(request)
        if any(path == request.path for _, path in self._routes):
            raise HttpError(405, f"method {request.method} not allowed")
        raise HttpError(404, f"no such endpoint: {request.path}")
