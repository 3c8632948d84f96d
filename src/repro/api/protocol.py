"""Bounded HTTP/1.1 request parsing over asyncio streams.

The server speaks just enough HTTP for a JSON job API — and treats
the wire as an input surface to harden like any other (cf. the E1xx/
E2xx parsers): every read is bounded in **bytes** and **time**, so a
slow-loris client or an over-long header/body is shed with a coded
diagnostic instead of parking a task or ballooning memory:

* request line + headers are capped at ``MAX_HEADER_BYTES``;
* bodies require ``Content-Length`` (no request chunking) and are
  capped at ``MAX_BODY_BYTES`` → ``E424`` / 413 beyond it;
* every read runs under ``REQUEST_TIMEOUT`` → ``E425`` / 408 on
  expiry;
* anything malformed → ``E420`` / 400.

Responses are plain (``Content-Length``) or chunked — the progress
stream uses chunked JSON lines so a client can read events as they
happen over a keep-alive-free, one-request connection.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

#: request line + headers budget — generous for a JSON API client
MAX_HEADER_BYTES = 8192
#: request body budget — campaign submissions are small JSON records
MAX_BODY_BYTES = 64 * 1024
#: seconds a client has to deliver each piece of its request
REQUEST_TIMEOUT = 10.0

_REASONS = {
    200: "OK", 201: "Created", 400: "Bad Request",
    401: "Unauthorized", 403: "Forbidden", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class ProtocolError(Exception):
    """A malformed, over-long or overdue request.

    Carries the HTTP status and diagnostic code the server answers
    with — the protocol layer never decides policy beyond that.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


@dataclass
class Request:
    """One parsed request."""

    method: str
    target: str
    path: str
    query: dict = field(default_factory=dict)
    headers: dict = field(default_factory=dict)   # lower-cased keys
    body: bytes = b""


async def _readline(reader: asyncio.StreamReader, budget: int) -> bytes:
    try:
        line = await asyncio.wait_for(
            reader.readuntil(b"\n"), timeout=REQUEST_TIMEOUT)
    except asyncio.TimeoutError:
        raise ProtocolError(
            408, "E425", "timed out waiting for the request") \
            from None
    except asyncio.IncompleteReadError as err:
        if not err.partial:
            raise EOFError from None          # clean connection close
        raise ProtocolError(
            400, "E420", "connection closed mid-request") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(
            400, "E420", "request line exceeds the header budget") \
            from None
    if len(line) > budget:
        raise ProtocolError(
            413, "E424",
            f"request headers exceed {MAX_HEADER_BYTES} bytes")
    return line


async def read_request(reader: asyncio.StreamReader) -> Request | None:
    """Parse one bounded request; ``None`` on a clean pre-request EOF.

    Raises :class:`ProtocolError` for anything the server should
    answer with a coded 4xx.
    """
    budget = MAX_HEADER_BYTES
    try:
        line = await _readline(reader, budget)
    except EOFError:
        return None
    budget -= len(line)
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise ProtocolError(
            400, "E420", f"malformed request line: "
                         f"{line[:80]!r}")
    method, target = parts[0].upper(), parts[1]

    headers: dict[str, str] = {}
    while True:
        if budget <= 0:
            raise ProtocolError(
                413, "E424",
                f"request headers exceed {MAX_HEADER_BYTES} bytes")
        line = await _readline(reader, budget)
        budget -= len(line)
        text = line.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise ProtocolError(
                400, "E420", f"malformed header line: {text[:80]!r}")
        headers[name.strip().lower()] = value.strip()

    body = b""
    if "transfer-encoding" in headers:
        raise ProtocolError(
            400, "E420",
            "chunked request bodies are not accepted; send "
            "Content-Length")
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise ProtocolError(
                400, "E420",
                f"bad Content-Length: {length_text!r}") from None
        if length < 0:
            raise ProtocolError(
                400, "E420", f"bad Content-Length: {length}")
        if length > MAX_BODY_BYTES:
            raise ProtocolError(
                413, "E424",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte bound")
        if length:
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=REQUEST_TIMEOUT)
            except asyncio.TimeoutError:
                raise ProtocolError(
                    408, "E425",
                    "timed out reading the request body") from None
            except asyncio.IncompleteReadError:
                raise ProtocolError(
                    400, "E420",
                    "connection closed mid-body") from None

    split = urlsplit(target)
    query = dict(parse_qsl(split.query, keep_blank_values=True))
    return Request(method=method, target=target,
                   path=unquote(split.path) or "/", query=query,
                   headers=headers, body=body)


def reason(status: int) -> str:
    return _REASONS.get(status, "Unknown")


def response_bytes(status: int, body: bytes,
                   headers: dict | None = None,
                   content_type: str = "application/json") -> bytes:
    """A complete, single-buffer HTTP response."""
    lines = [f"HTTP/1.1 {status} {reason(status)}",
             f"Content-Type: {content_type}",
             f"Content-Length: {len(body)}",
             "Connection: close"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    return head + body


def chunked_head(status: int, headers: dict | None = None,
                 content_type: str = "application/json"
                 ) -> bytes:
    """Response head opening a chunked (streaming) body."""
    lines = [f"HTTP/1.1 {status} {reason(status)}",
             f"Content-Type: {content_type}",
             "Transfer-Encoding: chunked",
             "Connection: close"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def chunk(data: bytes) -> bytes:
    """One chunked-transfer frame (empty data is the terminator —
    use :func:`last_chunk` for clarity)."""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


def last_chunk() -> bytes:
    return b"0\r\n\r\n"
