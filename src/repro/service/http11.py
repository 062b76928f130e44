"""The one HTTP/1.1 message codec both ends of the RPC transport speak.

A message is a start line, ``Name: value`` header lines, a blank line and
exactly ``Content-Length`` bytes of body.  :func:`read_head` and
:func:`read_body` parse one from a buffered binary stream (requests on the
server, responses on the client); :func:`frame` builds one as a single
``bytes`` so the sender hands the kernel one segment.  What is not implemented
is refused, not guessed at — any ``Transfer-Encoding``, a ``Content-Length``
that is negative, non-numeric, repeated or over :data:`MAX_BODY`, a line over
:data:`MAX_LINE` bytes, more than :data:`MAX_HEADERS` header lines — with a
:class:`ProtocolError` carrying the HTTP status a server owes the peer, raised
before the body is read.
"""

from __future__ import annotations

from typing import BinaryIO, Dict, List, Optional, Tuple

__all__ = ["MAX_LINE", "MAX_HEADERS", "MAX_BODY", "ProtocolError", "read_head", "read_body", "frame"]

MAX_LINE = 65536
MAX_HEADERS = 100
MAX_BODY = 8 * 1024 * 1024


class ProtocolError(ValueError):
    """The peer broke the framing rules; the stream's position is unknown."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


def _readline(stream: BinaryIO) -> bytes:
    line = stream.readline(MAX_LINE + 1)
    if len(line) > MAX_LINE:
        raise ProtocolError(431, f"line longer than {MAX_LINE} bytes")
    return line


def read_head(stream: BinaryIO) -> Optional[Tuple[List[str], Dict[str, str]]]:
    """The start line's three fields and the headers (names lower-cased,
    repeats comma-joined); ``None`` when the peer closed between messages."""
    line = _readline(stream)
    if not line:
        return None
    start = line.decode("latin-1").rstrip("\r\n").split(" ", 2)
    if len(start) < 2 or not line.endswith(b"\n"):
        raise ProtocolError(400, "malformed start line")
    start += [""] * (3 - len(start))  # a response's reason phrase may be missing
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = _readline(stream)
        if line in (b"\r\n", b"\n"):
            return start, headers
        name, colon, value = line.decode("latin-1").partition(":")
        if not colon or name != name.strip() or not line.endswith(b"\n"):  # (no folded lines, no "Name :")
            raise ProtocolError(400, "malformed or truncated header line")
        name, value = name.lower(), value.strip()
        headers[name] = f"{headers[name]}, {value}" if name in headers else value
    raise ProtocolError(431, f"more than {MAX_HEADERS} header lines")


def read_body(stream: BinaryIO, headers: Dict[str, str]) -> bytes:
    """Exactly ``Content-Length`` bytes (none when the header is absent)."""
    if "transfer-encoding" in headers:
        raise ProtocolError(501, "Transfer-Encoding is not supported; send Content-Length")
    declared = headers.get("content-length", "0")
    if not declared.isdecimal():  # also a negative one, and "5, 5" from a repeat
        raise ProtocolError(400, f"bad Content-Length {declared!r}")
    if len(declared) > 10 or (length := int(declared)) > MAX_BODY:  # (int() itself refuses 4,300+ digits)
        raise ProtocolError(413, f"Content-Length {declared:.20} is over the {MAX_BODY}-byte limit")
    body = stream.read(length)
    if len(body) != length:
        raise ProtocolError(400, f"connection closed {length - len(body)} bytes short of the body")
    return body


def frame(start_line: str, body: bytes, extra_head: str = "") -> bytes:
    """One whole message — head and body in one buffer, for one write."""
    head = (
        f"{start_line}\r\n{extra_head}"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    )
    return head.encode("latin-1") + body
