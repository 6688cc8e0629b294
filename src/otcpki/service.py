"""HTTP enrollment front end for a pool of issuer CAs.

Three endpoints, all speaking PEM:

    POST /enroll   CSR in, full certificate chain out (leaf first)
    GET  /crl      the pool's blank CRLs, one PEM block per issuer
    GET  /chain    the CA chain clients should pin, issuer to root

Issuance rotates round-robin across the pool; every pool member hangs off
the same root, so which member signs is invisible to verifiers. Error
responses are a single ``code: message`` line with status 400 (unreadable
request), 422 (well-formed but unissuable), or 503 (no active issuer left,
an expired chain, or too many open connections).

The service speaks the fixed subset of HTTP/1.1 (RFC 9112) that
:mod:`otcpki.framing` reads, as its client does: requests of
HTTP/1.0 or HTTP/1.1 (any other version gets 505), a body framed only by one
``Content-Length`` of 1*DIGIT (``Transfer-Encoding`` gets 400), and at most
100 header fields of at most 64 KiB each, a line that is not ``name: value``
(obs-fold included) getting 400. Methods other than GET and POST get 501.
Every reply is one send and carries ``Content-Length``; one that ends its
connection also carries ``Connection: close``.

Connections are kept alive (HTTP/1.1, or HTTP/1.0 with ``Connection:
keep-alive``) and closed after ``HANDLER_TIMEOUT_S`` seconds without a byte
from the client, or when a request (request line, headers and body) is not
all in ``HANDLER_TIMEOUT_S`` seconds after its first byte. At most
``MAX_CONNECTIONS`` connections are served at once; one more is answered 503
with ``Connection: close``.
"""

from __future__ import annotations

import io
import logging
import socket
import socketserver
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from .ca import CaIdentity, load_ca, passphrase_from_env
from .certmodel import PEM_CONTENT_TYPE, SigningRequest, decode
from .errors import (
    CaExpiredError,
    CaRetiredError,
    ConfigError,
    MalformedEncodingError,
    KindMismatchError,
    OtcError,
)
from .framing import (
    MAX_BODY,
    MAX_LINE,
    VERSIONS,
    MessageReader,
    body_length,
    keeps_alive,
    read_fields,
)

__all__ = [
    "ServiceConfig",
    "EnrollmentService",
    "load_pool",
]

LOGGER = logging.getLogger(__name__)

# An idle keep-alive connection frees its handler thread after this long
# without a byte, and a request must be read whole this long after its first
# byte, however slowly it trickles in. Handler threads are daemons that
# stop() does not join.
HANDLER_TIMEOUT_S = 30.0
# Connections served at once, idle keep-alive ones included; each holds a
# handler thread. The accept loop answers one more with _BUSY_REPLY.
MAX_CONNECTIONS = 64

_BUSY_BODY = b"service-busy: too many open connections"
_BUSY_REPLY = (b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n"
               b"Content-Length: %d\r\nConnection: close\r\n\r\n%s"
               % (len(_BUSY_BODY), _BUSY_BODY))

_STATUS_LINES = {status: b"HTTP/1.1 %d %s" % (status, HTTPStatus(status).phrase.encode())
                 for status in (200, 400, 404, 422, 501, 503, 505)}
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_PEM_TYPE = PEM_CONTENT_TYPE.encode()
_DAYS = b"Mon Tue Wed Thu Fri Sat Sun".split()
_MONTHS = b"Jan Feb Mar Apr May Jun Jul Aug Sep Oct Nov Dec".split()


class _Server(socketserver.ThreadingTCPServer):
    # A burst of concurrent enrollments must queue, not get reset.
    request_queue_size = 128
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, service: "EnrollmentService"):
        self.service = service
        self._slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._date = (0, b"")
        super().__init__(address, _Handler)

    def http_date(self) -> bytes:
        """The current second as an IMF-fixdate (RFC 9110 §5.6.7), formatted
        once per second."""
        now = int(time.time())
        second, text = self._date
        if second != now:
            t = time.gmtime(now)
            text = b"%s, %02d %s %d %02d:%02d:%02d GMT" % (
                _DAYS[t.tm_wday], t.tm_mday, _MONTHS[t.tm_mon - 1], t.tm_year,
                t.tm_hour, t.tm_min, t.tm_sec)
            self._date = (now, text)
        return text

    def process_request(self, request, client_address):
        if not self._slots.acquire(blocking=False):
            # A fresh connection's send buffer is empty, so this cannot block.
            try:
                request.sendall(_BUSY_REPLY)
            except OSError:
                pass
            self.shutdown_request(request)
            return
        try:
            super().process_request(request, client_address)
        except RuntimeError:  # no thread started to give the slot back
            self._slots.release()
            raise

    def process_request_thread(self, request, client_address):
        try:
            super().process_request_thread(request, client_address)
        finally:
            self._slots.release()


class _Handler(socketserver.BaseRequestHandler):
    """One connection: its requests answered in order until one ends it, the
    client closes it, or a timeout of its ``MessageReader`` passes."""

    def setup(self):
        # A reply sent while the one before is unacknowledged (after a
        # pipelined request, or after 100 Continue) would otherwise wait
        # for the client's delayed ACK, ~40 ms.
        self.request.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
        self._reader = MessageReader(self.request, HANDLER_TIMEOUT_S)
        self.rfile = io.BufferedReader(self._reader)

    def handle(self):
        try:
            while self._serve_one():
                pass
        except OSError:  # a timeout, or the client reset the connection
            pass

    def finish(self):
        self.rfile.close()

    def _serve_one(self) -> bool:
        """Read and answer one request; False when the connection ends."""
        self._reader.next_message()
        line = self.rfile.readline(MAX_LINE + 1)
        if not line:  # the client closed the connection
            return False
        words = line.split()
        self._method, self._target = words[:2] if len(words) > 1 else (b"-", b"-")
        if len(line) > MAX_LINE or len(words) != 3:
            return self._reply(400, b"malformed-encoding: the request line is not"
                                    b" METHOD TARGET VERSION", close=True)
        version = words[2]
        if version not in VERSIONS:
            return self._reply(505, b"unsupported-version: only HTTP/1.0 and HTTP/1.1"
                                    b" are served", close=True)
        fields = read_fields(self.rfile)
        if fields is None:
            return self._reply(400, b"malformed-encoding: a header line that is not"
                                    b" name: value, over 64 KiB, or past the 100th",
                               close=True)
        close = not keeps_alive(version, fields)
        length = body_length(fields)

        service = self.server.service
        if self._method == b"POST":
            # Any early reply leaves the body unread, so the connection
            # cannot carry another request.
            if self._target != b"/enroll":
                return self._reply(404, b"not-found: unknown endpoint", close=True)
            if length is None or not 0 < length <= MAX_BODY:
                return self._reply(400, b"malformed-encoding: missing, invalid or oversized"
                                        b" Content-Length", close=True)
            if version == b"HTTP/1.1" and fields.get(b"expect") == [b"100-continue"]:
                self.request.sendall(_CONTINUE)
            body = self.rfile.read(length)
            if len(body) < length:  # the client hung up mid-body
                return False
            return self._reply(*service.handle_enroll(body), close=close)
        if self._method == b"GET":
            # A GET body is never read, so it would be parsed as the next
            # request on the connection.
            if length != 0:
                return self._reply(400, b"malformed-encoding: a GET request carries no body",
                                   close=True)
            if self._target == b"/crl":
                return self._reply(*service.handle_crl(), close=close)
            if self._target == b"/chain":
                return self._reply(*service.handle_chain(), close=close)
            return self._reply(404, b"not-found: unknown endpoint", close=close)
        return self._reply(501, b"not-implemented: only GET and POST are served", close=True)

    def _reply(self, status: int, body: bytes, close: bool) -> bool:
        """Send one response in one send; False when it ends the connection."""
        content_type = _PEM_TYPE if status == 200 else b"text/plain"
        self.request.sendall(
            b"%s\r\nDate: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n%s\r\n%s"
            % (_STATUS_LINES[status], self.server.http_date(), content_type, len(body),
               b"Connection: close\r\n" if close else b"", body))
        if LOGGER.isEnabledFor(logging.DEBUG):
            LOGGER.debug("%s %s %s %d", self.client_address[0],
                         self._method.decode("ascii", "backslashreplace"),
                         self._target.decode("ascii", "backslashreplace"), status)
        return not close


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ServiceConfig:
    """Parsed ``key = value`` service configuration.

    Keys: ``listen`` (host:port, default 127.0.0.1:8440), ``ca-dir`` (path
    holding the hierarchy, required), ``pool-size`` (how many issuers to
    serve; default all found).
    """

    listen_host: str = "127.0.0.1"
    listen_port: int = 8440
    ca_dir: Optional[Path] = None
    pool_size: Optional[int] = None

    @classmethod
    def parse_text(cls, text: str) -> "ServiceConfig":
        values = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: expected key = value")
            values[key.strip()] = value.strip()
        unknown = set(values) - {"listen", "ca-dir", "pool-size"}
        if unknown:
            raise ConfigError(f"unknown keys: {', '.join(sorted(unknown))}")
        host, port = cls._parse_listen(values.get("listen", "127.0.0.1:8440"))
        if "ca-dir" not in values:
            raise ConfigError("ca-dir is required")
        pool_size = None
        if "pool-size" in values:
            try:
                pool_size = int(values["pool-size"])
            except ValueError:
                raise ConfigError(f"pool-size is not a number: {values['pool-size']!r}") from None
            if pool_size < 1:
                raise ConfigError("pool-size must be at least 1")
        return cls(host, port, Path(values["ca-dir"]), pool_size)

    @classmethod
    def parse(cls, path: Union[str, Path]) -> "ServiceConfig":
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        return cls.parse_text(text)

    @staticmethod
    def _parse_listen(value: str) -> Tuple[str, int]:
        host, sep, port = value.rpartition(":")
        if not sep or not host:
            raise ConfigError(f"listen must be host:port, got {value!r}")
        try:
            port_number = int(port)
        except ValueError:
            raise ConfigError(f"listen port is not a number: {port!r}") from None
        if not 0 <= port_number <= 65535:
            raise ConfigError(f"listen port out of range: {port_number}")
        return host, port_number


def load_pool(ca_dir: Union[str, Path], pool_size: Optional[int] = None) -> list:
    """Load the issuer CAs under a hierarchy directory (layout written by
    the pki-init command: ``<ca-dir>/int-*/iss-*``)."""
    ca_dir = Path(ca_dir)
    if not ca_dir.is_dir():
        raise ConfigError(f"ca-dir {ca_dir} is not a directory")
    issuer_dirs = sorted(ca_dir.glob("int-*/iss-*"))
    if not issuer_dirs:
        raise ConfigError(f"no issuer directories under {ca_dir}")
    if pool_size is not None:
        if pool_size > len(issuer_dirs):
            raise ConfigError(
                f"pool-size {pool_size} exceeds the {len(issuer_dirs)}"
                f" issuers under {ca_dir}"
            )
        issuer_dirs = issuer_dirs[:pool_size]
    passphrase = passphrase_from_env()
    return [load_ca(path, passphrase) for path in issuer_dirs]


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class EnrollmentService:
    """Round-robin enrollment over a pool of issuer CAs.

    Request handling is separated from HTTP plumbing: the ``handle_*``
    methods take and return bytes plus a status code, so they are directly
    unit-testable and the connection handler only frames requests.
    """

    def __init__(self, issuers: Sequence[CaIdentity], *,
                 host: str = "127.0.0.1", port: int = 0):
        if not issuers:
            raise ConfigError("the pool needs at least one issuer")
        roots = {ca.chain_to_root().root.to_der() for ca in issuers}
        if len(roots) != 1:
            raise ConfigError("pool members must share one root")
        self._issuers = list(issuers)
        self._host = host
        self._port = port
        self._next = 0
        self._lock = threading.Lock()
        # Stable bytes for the GET endpoints, fixed at startup: repeated
        # fetches must compare equal, and CA lifetimes outlive the process.
        self._crl_pem = b"".join(ca.issue_blank_crl().to_pem() for ca in self._issuers)
        # Each member's chain, issuer to root, follows the leaf in /enroll.
        self._chain_pems = {ca: ca.chain_to_root().to_pem() for ca in self._issuers}
        self._server: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None
        self._serving = False  # a serve_forever loop runs or is about to

    @property
    def issuers(self) -> list:
        return list(self._issuers)

    def _next_active_issuer(self) -> Optional[CaIdentity]:
        with self._lock:
            for _ in range(len(self._issuers)):
                issuer = self._issuers[self._next % len(self._issuers)]
                self._next += 1
                if issuer.is_active:
                    return issuer
        return None

    @property
    def has_active_issuer(self) -> bool:
        return any(ca.is_active for ca in self._issuers)

    # -- endpoint logic ------------------------------------------------------

    def handle_enroll(self, body: bytes) -> Tuple[int, bytes]:
        try:
            csr = decode(body, SigningRequest)
        except (MalformedEncodingError, KindMismatchError) as exc:
            return 400, f"{exc.code}: {exc}".encode()
        issuer = self._next_active_issuer()
        if issuer is None:
            return 503, b"issuer-retired: no active issuer in the pool"
        try:
            leaf = issuer.issue_otc(csr)
        except (CaRetiredError, CaExpiredError) as exc:
            return 503, f"{exc.code}: {exc}".encode()
        except OtcError as exc:
            return 422, f"{exc.code}: {exc}".encode()
        return 200, leaf.to_pem() + self._chain_pems[issuer]

    def handle_crl(self) -> Tuple[int, bytes]:
        if not self.has_active_issuer:
            return 503, b"issuer-retired: no active issuer in the pool"
        return 200, self._crl_pem

    def handle_chain(self) -> Tuple[int, bytes]:
        return 200, self._chain_pems[self._issuers[0]]

    # -- HTTP plumbing -------------------------------------------------------

    @property
    def url(self) -> str:
        if self._server is None:
            raise RuntimeError("service is not bound")
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}"

    def bind(self) -> str:
        """Bind the listening socket (resolving port 0) without serving
        yet; returns the base URL."""
        if self._server is None:
            self._server = _Server((self._host, self._port), self)
        return self.url

    def start(self) -> str:
        """Serve on a background thread; returns the base URL."""
        self.bind()
        self._serving = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self.url

    def stop(self):
        """Stop accepting connections and join the serving thread. Handler
        threads are daemons; each ends when its client closes the connection
        or it idles for ``HANDLER_TIMEOUT_S``."""
        server, self._server = self._server, None
        if server is not None:
            if self._serving:  # shutdown() waits for the loop to end
                server.shutdown()
                self._serving = False
            server.server_close()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def serve_forever(self):
        """Run in the calling thread until interrupted (CLI entry point)."""
        self.bind()
        server = self._server
        self._serving = True
        try:
            server.serve_forever()
        finally:
            server.server_close()
            self._server = None
            self._serving = False
