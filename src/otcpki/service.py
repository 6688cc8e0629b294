"""HTTP enrollment front end for a pool of issuer CAs.

Three endpoints, all speaking PEM:

    POST /enroll   CSR in, full certificate chain out (leaf first)
    GET  /crl      the pool's blank CRLs, one PEM block per issuer
    GET  /chain    the CA chain clients should pin, issuer to root

Issuance rotates round-robin across the pool; every pool member hangs off
the same root, so which member signs is invisible to verifiers. Error
responses are a single ``code: message`` line with status 400 (unreadable
request), 422 (well-formed but unissuable), or 503 (no active issuer left).

Connections are kept alive (HTTP/1.1) and closed after ``HANDLER_TIMEOUT_S``
seconds without a byte from the client.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Optional, Sequence, Tuple, Union

from .ca import CaIdentity, load_ca, passphrase_from_env
from .certmodel import PEM_CONTENT_TYPE, CertificationChain, SigningRequest, decode
from .errors import (
    CaRetiredError,
    ConfigError,
    MalformedEncodingError,
    KindMismatchError,
    OtcError,
)

__all__ = [
    "ServiceConfig",
    "EnrollmentService",
    "load_pool",
]

LOGGER = logging.getLogger(__name__)

_MAX_REQUEST_BYTES = 1 << 20
# Socket timeout of every connection: an idle keep-alive connection, or a
# body that stops short of its Content-Length, frees its handler thread
# after this long. Handler threads are daemons that stop() does not join.
HANDLER_TIMEOUT_S = 30.0


class _Server(ThreadingHTTPServer):
    # A burst of concurrent enrollments must queue, not get reset.
    request_queue_size = 128


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
    unit-testable and the handler class stays thin.
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
        self._chain_pem = self._issuers[0].chain_to_root().to_pem()
        self._server: Optional[ThreadingHTTPServer] = None
        self._thread: Optional[threading.Thread] = None

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
        except CaRetiredError as exc:
            return 503, f"{exc.code}: {exc}".encode()
        except OtcError as exc:
            return 422, f"{exc.code}: {exc}".encode()
        chain = CertificationChain((leaf, *issuer.chain_to_root()))
        return 200, chain.to_pem()

    def handle_crl(self) -> Tuple[int, bytes]:
        if not self.has_active_issuer:
            return 503, b"issuer-retired: no active issuer in the pool"
        return 200, self._crl_pem

    def handle_chain(self) -> Tuple[int, bytes]:
        return 200, self._chain_pem

    # -- HTTP plumbing -------------------------------------------------------

    def _make_server(self) -> ThreadingHTTPServer:
        service = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # A response left in two sends stalls a keep-alive client: Nagle
            # holds the second segment until the client's delayed ACK of the
            # first, ~40 ms later. Buffer it whole; handle_one_request flushes
            # once per request.
            wbufsize = -1
            disable_nagle_algorithm = True
            timeout = HANDLER_TIMEOUT_S

            # Answer a request line that carries no HTTP version, or cannot be
            # parsed far enough to find one, with a status line and headers:
            # the stdlib default, HTTP/0.9, sends a bare body with neither.
            default_request_version = "HTTP/1.0"

            def _reply(self, status: int, body: bytes, close: bool = False):
                self.send_response(status)
                content_type = PEM_CONTENT_TYPE if status == 200 else "text/plain"
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                if close:
                    self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

            def _body_length(self) -> Optional[int]:
                """The declared body length (0 when none is declared), or
                None when the body cannot be framed: Transfer-Encoding, which
                this service does not decode (RFC 9112 §6.3), or anything but
                one Content-Length of 1*DIGIT."""
                if "Transfer-Encoding" in self.headers:
                    return None
                declared = self.headers.get_all("Content-Length", ["0"])
                if len(declared) != 1 or not (declared[0].isascii() and declared[0].isdigit()):
                    return None
                return int(declared[0])

            def do_POST(self):
                # Any early reply leaves the body unread, so the connection
                # cannot carry another request.
                if self.path != "/enroll":
                    self._reply(404, b"not-found: unknown endpoint", close=True)
                    return
                length = self._body_length()
                if length is None or not 0 < length <= _MAX_REQUEST_BYTES:
                    self._reply(400, b"malformed-encoding: missing, invalid or oversized"
                                     b" Content-Length", close=True)
                    return
                body = self.rfile.read(length)
                if len(body) < length:  # the client hung up mid-body
                    self.close_connection = True
                    return
                self._reply(*service.handle_enroll(body))

            def do_GET(self):
                # A GET body is never read, so it would be parsed as the next
                # request on the connection.
                if self._body_length() != 0:
                    self._reply(400, b"malformed-encoding: a GET request carries no body",
                                close=True)
                elif self.path == "/crl":
                    self._reply(*service.handle_crl())
                elif self.path == "/chain":
                    self._reply(*service.handle_chain())
                else:
                    self._reply(404, b"not-found: unknown endpoint")

            def log_message(self, fmt, *args):
                LOGGER.debug("%s %s", self.address_string(), fmt % args)

        return _Server((self._host, self._port), Handler)

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
            self._server = self._make_server()
        return self.url

    def start(self) -> str:
        """Serve on a background thread; returns the base URL."""
        self.bind()
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self.url

    def stop(self):
        """Stop accepting connections and join the serving thread. Handler
        threads are daemons; each ends when its client closes the connection
        or it idles for ``HANDLER_TIMEOUT_S``."""
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def serve_forever(self):
        """Run in the calling thread until interrupted (CLI entry point)."""
        self.bind()
        try:
            self._server.serve_forever()
        finally:
            self._server.server_close()
            self._server = None
