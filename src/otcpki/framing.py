"""The subset of HTTP/1.1 (RFC 9112) that the enrollment service and its
client speak, read under the same limits at both ends.

A start line and each header line are at most ``MAX_LINE`` bytes, CRLF
included, and a header holds at most ``MAX_FIELDS`` fields, each a ``name:
value`` line (obs-fold is refused). A body is framed by one
``Content-Length`` of 1*DIGIT, and a reply body is at most ``MAX_BODY`` bytes;
``Transfer-Encoding`` is never decoded. Bytes come through a
:class:`MessageReader`, which gives each message a deadline.
"""

from __future__ import annotations

import re
import socket
import time
from typing import Optional, Tuple

__all__ = [
    "MAX_LINE",
    "MAX_FIELDS",
    "MAX_BODY",
    "VERSIONS",
    "FramingError",
    "MessageReader",
    "read_fields",
    "body_length",
    "keeps_alive",
    "read_reply",
]

# The limits http.client applies: a line of at most 64 KiB, its CRLF
# included, and at most 100 header fields.
MAX_LINE = 65536
MAX_FIELDS = 100
# The largest reply body the client reads: a chain and its CRL, or the pool's
# CRLs. The service caps a request body lower.
MAX_BODY = 1 << 20
# RFC 9110 §5.1: a field name is a token. A line with leading whitespace
# (obs-fold) or none of ":" has no such name.
_FIELD_NAME = re.compile(rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+")
# The only fields that change how a message is read or answered.
_FRAMING_FIELDS = frozenset((b"content-length", b"transfer-encoding", b"connection",
                             b"expect"))
VERSIONS = (b"HTTP/1.1", b"HTTP/1.0")


class FramingError(Exception):
    """A reply outside the subset: a malformed start or header line, a body
    that cannot be framed, is over its limit or is cut short."""


class MessageReader(socket.SocketIO):
    """A connection's incoming bytes, under two timeouts: ``timeout`` while
    waiting for a message's first byte, and from that byte on a deadline
    ``timeout`` later by which the whole message must have arrived."""

    def __init__(self, sock: socket.socket, timeout: float):
        super().__init__(sock, "rb")
        self._timeout = timeout
        self._deadline: Optional[float] = None

    @property
    def started(self) -> bool:
        """Whether a byte of the current message has arrived."""
        return self._deadline is not None

    def next_message(self):
        self._deadline = None
        if self._sock.gettimeout() != self._timeout:  # a message read took more than one recv
            self._sock.settimeout(self._timeout)

    def readinto(self, buffer) -> Optional[int]:
        if self._deadline is not None:
            remaining = self._deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError("message not read within its deadline")
            self._sock.settimeout(remaining)
        count = super().readinto(buffer)
        if self._deadline is None and count:
            self._deadline = time.monotonic() + self._timeout
        return count


def read_fields(rfile) -> Optional[dict]:
    """The framing fields of the header that follows a start line, each name
    mapped to its values, lowercased and with surrounding whitespace
    removed, or None when a header line is malformed or over a limit. End of
    input ends the header."""
    fields: dict = {}
    for _ in range(MAX_FIELDS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n", b""):
            return fields
        name, colon, value = line.partition(b":")
        if len(line) > MAX_LINE or not colon or not _FIELD_NAME.fullmatch(name):
            return None
        name = name.lower()
        if name in _FRAMING_FIELDS:
            fields.setdefault(name, []).append(value.strip(b" \t\r\n").lower())
    return None


def body_length(fields: dict) -> Optional[int]:
    """The body length a header declares (0 when it declares none), or None
    when the body cannot be framed: Transfer-Encoding, which is not decoded
    (RFC 9112 §6.3), or anything but one Content-Length of 1*DIGIT. Past 18
    digits it is over any limit, and int() refuses more than 4300."""
    declared = fields.get(b"content-length", [b"0"])
    if (b"transfer-encoding" not in fields and len(declared) == 1
            and declared[0].isdigit() and len(declared[0]) <= 18):
        return int(declared[0])
    return None


def keeps_alive(version: bytes, fields: dict) -> bool:
    """Whether the connection carries another message after this one:
    HTTP/1.1 unless ``Connection: close``, HTTP/1.0 only with ``Connection:
    keep-alive``."""
    options = {option.strip() for value in fields.get(b"connection", ())
               for option in value.split(b",")}
    return b"close" not in options and (version == b"HTTP/1.1" or b"keep-alive" in options)


def read_reply(rfile) -> Tuple[int, bytes, bytes, bool]:
    """Read one final reply: its status, reason phrase, body, and whether
    the connection carries another request. Interim 1xx replies are
    skipped. A body without ``Content-Length`` runs to the end of the
    connection. A reply outside the subset, or with a body over
    ``MAX_BODY`` bytes, raises :class:`FramingError`; a connection closed
    before the first byte raises :class:`ConnectionResetError`."""
    while True:
        line = rfile.readline(MAX_LINE + 1)
        if not line:
            raise ConnectionResetError("connection closed without a reply")
        version, _, rest = line.rstrip(b"\r\n").partition(b" ")
        code, _, reason = rest.partition(b" ")
        if (len(line) > MAX_LINE or version not in VERSIONS
                or len(code) != 3 or not code.isdigit()):
            raise FramingError(f"not an HTTP/1.x status line: {line[:80]!r}")
        fields = read_fields(rfile)
        if fields is None:
            raise FramingError("a header line that is not name: value, over 64 KiB,"
                               " or past the 100th")
        if not code.startswith(b"1"):
            break
    keep_alive = keeps_alive(version, fields)
    if b"content-length" in fields or b"transfer-encoding" in fields:
        length = body_length(fields)
        if length is None:
            raise FramingError("a body framed by Transfer-Encoding or an invalid"
                               " Content-Length")
        if length > MAX_BODY:
            raise FramingError(f"a body of {length} bytes, over {MAX_BODY}")
        body = rfile.read(length)
        if len(body) < length:
            raise FramingError(f"a body cut at {len(body)} of {length} bytes")
    else:
        body = rfile.read(MAX_BODY + 1)
        if len(body) > MAX_BODY:
            raise FramingError(f"a body over {MAX_BODY} bytes")
        keep_alive = False
    return int(code), reason, body, keep_alive
