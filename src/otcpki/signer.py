"""The signer's side of the protocol: generate a key, enroll it against one
document digest, sign that digest, destroy the key, and package everything a
verifier needs into a portable bundle.

The destroy step is the point: once the key is gone, the certificate can
never vouch for anything except the one document it names, so there is
nothing left to revoke.
"""

from __future__ import annotations

import collections
import io
import os
import re
import socket
import ssl
import struct
import threading
import urllib.parse
import weakref
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Optional, Protocol, Tuple, Union

from .ca import CaIdentity
from .certmodel import (
    LAZY_READ_ERRORS,
    PEM_CONTENT_TYPE,
    CertificationChain,
    DistinguishedName,
    RevocationList,
    SigningRequest,
    build_csr,
    decode_crl,
)
from .crypto import (
    DEFAULT_SUITE,
    AlgorithmSuite,
    DocumentDigest,
    EphemeralKeyPair,
    digest_document,
    spki_der,
)
from .errors import (
    ConfigError,
    EnrollmentRejectedError,
    EnrollmentUnreachableError,
    KeyDestroyedError,
    MalformedEncodingError,
    OtcError,
)
from .framing import FramingError, MessageReader, read_reply

__all__ = [
    "SignedDocumentBundle",
    "EnrollmentClient",
    "HttpEnrollmentClient",
    "LocalEnrollmentClient",
    "one_shot_sign",
    "resign_with_existing_key",
]

_ARCHIVE_MEMBERS = ("signature.bin", "chain.pem", "crl.pem")
# Largest bundle member load() reads, in bytes.
_MAX_MEMBER_BYTES = 1 << 20
# Largest archive load() reads: the three members at the cap, and one cap more
# for headers, other members and deflate's overhead on incompressible data.
_MAX_ARCHIVE_BYTES = (len(_ARCHIVE_MEMBERS) + 1) * _MAX_MEMBER_BYTES
# Most central-directory entries load() lets zipfile read; save() writes 3.
_MAX_ARCHIVE_ENTRIES = 16
# The signature that opens a central-directory entry (PKWARE APPNOTE 4.3.12).
_CENTRAL_ENTRY = b"PK\x01\x02"
# Member flags load() refuses: encrypted (bits 0 and 6) and patched data (bit 5).
_REFUSED_FLAGS = 0x61
# A local file header (PKWARE APPNOTE 4.3.7): signature, 22 bytes load() does
# not read, then the lengths of the name and the extra field that follow it.
_LOCAL_HEADER = struct.Struct("<4s22xHH")
_PEM_TYPE = PEM_CONTENT_TYPE.encode()


# ---------------------------------------------------------------------------
# Enrollment transports
# ---------------------------------------------------------------------------

class EnrollmentClient(Protocol):
    """What the signing workflow needs from an enrollment channel."""

    def enroll(self, csr: SigningRequest) -> CertificationChain: ...

    def fetch_crl(self, chain: CertificationChain) -> RevocationList: ...


# A CRL block as RevocationList.to_pem() writes it.
_CRL_BLOCK = re.compile(rb"-----BEGIN X509 CRL-----\n[A-Za-z0-9+/=\n]*-----END X509 CRL-----\n")


_DEFAULT_PORTS = {"http": 80, "https": 443}
# Bytes that may not appear in a request target (http.client refuses the same).
_TARGET_REFUSED = re.compile(rb"[\x00-\x20\x7f]")


class _Connection:
    """One thread's kept-alive connection: its socket and the buffered
    reader that gives each reply its deadline."""

    def __init__(self, sock: socket.socket, timeout: float):
        self.sock = sock
        self.reader = MessageReader(sock, timeout)
        self.rfile = io.BufferedReader(self.reader)

    @property
    def closed(self) -> bool:
        return self.rfile.closed

    def close(self):
        self.rfile.close()
        self.sock.close()


class HttpEnrollmentClient:
    """Talks to the enrollment service over HTTP/1.1 with PEM bodies.

    Each calling thread keeps one persistent connection, so a client shared
    by threads still sends their requests in parallel. A request goes out in
    one send with Nagle off. Its reply is read under the limits of
    :mod:`otcpki.framing`, with a body of at most 1 MiB, within ``timeout``
    seconds of waiting for its first byte and ``timeout`` more for the rest.
    An ``/enroll`` reply carries the issuing CA's blank CRL after the chain,
    and ``fetch_crl`` answers from the last one the calling thread read, so
    each signature is one request. The client connects directly; proxy
    variables are not read. An ``https://`` service must present a
    certificate for the URL's host that the default trust store
    (``ssl.create_default_context()``) accepts.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self._base = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self._base)
        try:
            default_port = _DEFAULT_PORTS[url.scheme]
            port = url.port
            host = url.hostname.encode("idna") if url.hostname else b""
            self._target = url.path.encode("ascii")
        except (KeyError, ValueError):  # UnicodeError is a ValueError
            raise ConfigError(f"not an http:// or https:// URL: {base_url!r}") from None
        if not host:
            raise ConfigError(f"no host in enrollment URL {base_url!r}")
        if _TARGET_REFUSED.search(self._target):
            raise ConfigError(f"control character or space in enrollment URL {base_url!r}")
        # A request carries only the path, so these would be dropped unsent.
        if "@" in url.netloc or "?" in base_url or "#" in base_url:
            raise ConfigError(f"user name, query or fragment in enrollment URL {base_url!r}")
        self._address = (url.hostname, default_port if port is None else port)
        if b":" in host:
            host = b"[%s]" % host
        self._host = host if port is None else b"%s:%d" % (host, port)
        self._tls = ssl.create_default_context() if url.scheme == "https" else None
        self._timeout = timeout
        self._local = threading.local()
        # A connection is dropped with its thread or with the client;
        # close() closes those still open.
        self._connections = weakref.WeakSet()

    def _connect(self) -> socket.socket:
        sock = socket.create_connection(self._address, self._timeout)
        try:
            # A request is one send. With Nagle on, one over a segment would
            # have its short last segment held until the service ACKs the
            # others, which it may delay by ~40 ms.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, True)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        return sock

    def _open(self) -> _Connection:
        connection = self._local.connection = _Connection(self._connect(), self._timeout)
        self._connections.add(connection)
        # The thread-local holds the only strong reference; when it drops
        # the connection, its socket is closed then, not by the collector.
        weakref.finalize(connection, connection.sock.close)
        return connection

    def _exchange(self, connection: _Connection, request: bytes):
        """Send one request and read its final reply (see ``read_reply``)."""
        connection.reader.next_message()
        connection.sock.sendall(request)
        return read_reply(connection.rfile)

    def _request(self, body: bytes) -> bytes:
        """POST ``body`` to ``/enroll`` and return the reply's body."""
        request = (b"POST %s/enroll HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\n"
                   b"Content-Length: %d\r\n\r\n%s"
                   % (self._target, self._host, _PEM_TYPE, len(body), body))
        connection = getattr(self._local, "connection", None)
        reused = connection is not None and not connection.closed
        try:
            if not reused:
                connection = self._open()
            try:
                status, reason, payload, keep_alive = self._exchange(connection, request)
            except ConnectionError:
                # A kept-alive connection the service has since closed fails
                # so before any byte of the reply; the request is then sent
                # again once, on a new connection.
                if not reused or connection.reader.started:
                    raise
                connection.close()
                connection = self._open()
                status, reason, payload, keep_alive = self._exchange(connection, request)
        except (OSError, FramingError) as exc:
            if connection is not None:
                connection.close()
            raise EnrollmentUnreachableError(f"{self._base}: {exc}") from exc
        if not keep_alive:
            connection.close()
        if status != 200:
            detail = payload.decode("utf-8", "replace").strip()
            code, _, message = detail.partition(":")
            raise EnrollmentRejectedError(
                message.strip() or detail or reason.decode("latin-1"), ca_code=code.strip()
            )
        return payload

    def enroll(self, csr: SigningRequest) -> CertificationChain:
        reply = self._request(csr.to_pem())
        crl = _CRL_BLOCK.search(reply)
        self._local.crl = None if crl is None else crl.group()
        return CertificationChain.from_pem(reply)

    def fetch_crl(self, chain: CertificationChain) -> RevocationList:
        """The CRL of the CA that issued ``chain``, from the last ``/enroll``
        reply this thread read; no request is sent. It must name that CA by
        name and by key identifier, as two CAs can share a name."""
        issuing_ca = chain.issuing_ca
        block = getattr(self._local, "crl", None)
        crl = None if block is None else decode_crl(block)
        try:
            if (crl is not None and crl.raw.issuer == issuing_ca.raw.subject
                    and crl.names_key_of(issuing_ca)):
                return crl
        except LAZY_READ_ERRORS:
            pass  # a name or key identifier that cannot be read matches none
        try:
            named = issuing_ca.subject_text
        except LAZY_READ_ERRORS:
            named = "whose name cannot be read"
        raise EnrollmentRejectedError(f"no CRL published for issuer {named}",
                                      ca_code="no-matching-crl")

    def close(self):
        """Close every thread's connection; a later request reconnects."""
        for connection in list(self._connections):
            connection.close()


class LocalEnrollmentClient:
    """In-process enrollment against a CA object, with the HTTP client's
    error surface. It holds no CRL: ``fetch_crl`` returns the CA's one."""

    def __init__(self, issuer: CaIdentity):
        self._issuer = issuer

    def enroll(self, csr: SigningRequest) -> CertificationChain:
        try:
            leaf = self._issuer.issue_otc(csr)
        except OtcError as exc:
            raise EnrollmentRejectedError(str(exc), ca_code=exc.code) from exc
        return CertificationChain((leaf, *self._issuer.chain_to_root()))

    def fetch_crl(self, chain: Optional[CertificationChain]) -> RevocationList:
        try:
            return self._issuer.issue_blank_crl()
        except OtcError as exc:
            raise EnrollmentRejectedError(str(exc), ca_code=exc.code) from exc


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedDocumentBundle:
    """Everything a verifier needs, in one archive: the detached signature,
    the full chain, and the issuer's blank CRL. The document travels
    separately; the digest that was signed is the one the leaf binds."""

    document_digest: DocumentDigest
    signature: bytes
    chain: CertificationChain
    crl: Optional[RevocationList]

    def save(self, path: Union[str, Path]):
        path = Path(path)
        # Stored, not deflated: a bundle is ~1 KB larger and loads without
        # inflating anything.
        with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as archive:
            archive.writestr("signature.bin", self.signature)
            archive.writestr("chain.pem", self.chain.to_pem())
            if self.crl is not None:
                archive.writestr("crl.pem", self.crl.to_pem())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SignedDocumentBundle":
        """Read a bundle; its digest is the one its leaf binds. A bundle of
        earlier versions also holds ``meta.txt``, which is not read."""
        members = _read_members(Path(path))
        missing = {"signature.bin", "chain.pem"} - members.keys()
        if missing:
            raise MalformedEncodingError(f"bundle missing {', '.join(sorted(missing))}")
        chain = CertificationChain.from_pem(members["chain.pem"])
        try:
            binding = chain.leaf.binding
        except (MalformedEncodingError, *LAZY_READ_ERRORS) as exc:
            raise MalformedEncodingError(f"leaf binding cannot be read: {exc}") from exc
        if binding is None:
            raise MalformedEncodingError("leaf carries no document binding")
        crl = members.get("crl.pem")
        return cls(
            document_digest=binding.digest,
            signature=members["signature.bin"],
            chain=chain,
            crl=None if crl is None else decode_crl(crl),
        )


def _read_members(path: Path) -> dict:
    """The bytes of each bundle member in an archive, by name.

    The archive may be hostile. It is read into memory whole, up to
    ``_MAX_ARCHIVE_BYTES``, in one read sized by the file; zipfile parses
    only its central directory, and each known member is read from the
    buffer at the offset its entry gives. A member must be stored or
    deflated and not encrypted, its local header must carry its name, and it
    must inflate to a complete stream of its declared size and CRC-32, no
    further than one byte past ``_MAX_MEMBER_BYTES``. An archive over its
    cap or with more than ``_MAX_ARCHIVE_ENTRIES`` entries, a repeated
    member name and every failed check raise :class:`MalformedEncodingError`.
    """
    with open(path, "rb") as handle:  # a missing file stays an OSError
        # Sized by the file; the byte past the cap shows an archive over it.
        data = handle.read(min(os.fstat(handle.fileno()).st_size, _MAX_ARCHIVE_BYTES) + 1)
    if len(data) > _MAX_ARCHIVE_BYTES:
        raise MalformedEncodingError(f"bundle archive exceeds {_MAX_ARCHIVE_BYTES} bytes")
    # zipfile builds an object for every entry of the central directory
    # before any name is read, and it walks the directory by its size, not
    # by the count the end record declares. Each entry it reads opens with
    # the signature, so counting signatures bounds its work.
    if data.count(_CENTRAL_ENTRY) > _MAX_ARCHIVE_ENTRIES:
        raise MalformedEncodingError(
            f"bundle archive has more than {_MAX_ARCHIVE_ENTRIES} entries")
    try:
        with zipfile.ZipFile(io.BytesIO(data)) as archive:
            entries = archive.infolist()
    except (zipfile.BadZipFile, NotImplementedError, ValueError) as exc:
        # ValueError: a name flagged UTF-8 that does not decode
        raise MalformedEncodingError(f"not a bundle archive: {exc}") from exc
    counts = collections.Counter(entry.filename for entry in entries)
    repeated = sorted(name for name, count in counts.items() if count > 1)
    if repeated:
        raise MalformedEncodingError(f"bundle repeats member {', '.join(repeated)}")
    return {entry.filename: _read_member(data, entry)
            for entry in entries if entry.filename in _ARCHIVE_MEMBERS}


def _read_member(data: bytes, entry: zipfile.ZipInfo) -> bytes:
    name = entry.filename

    def unreadable(reason: str) -> MalformedEncodingError:
        return MalformedEncodingError(f"not a bundle archive: member {name} {reason}")

    if entry.flag_bits & _REFUSED_FLAGS or entry.compress_type not in (zipfile.ZIP_STORED,
                                                                       zipfile.ZIP_DEFLATED):
        raise unreadable(f"is not stored or deflated in the clear"
                         f" (method {entry.compress_type}, flags 0x{entry.flag_bits:04x})")
    start = entry.header_offset
    header = data[start:start + _LOCAL_HEADER.size] if start >= 0 else b""
    if len(header) < _LOCAL_HEADER.size or header[:4] != b"PK\x03\x04":
        raise unreadable(f"has no local header at offset {start}")
    _, name_length, extra_length = _LOCAL_HEADER.unpack(header)
    start += _LOCAL_HEADER.size
    # zipfile decodes the central name so; the encoding round-trips.
    encoding = "utf-8" if entry.flag_bits & 0x800 else "cp437"
    if data[start:start + name_length] != entry.orig_filename.encode(encoding):
        raise unreadable("has a local header naming another file")
    start += name_length + extra_length
    stored = data[start:start + entry.compress_size]
    if len(stored) < entry.compress_size:
        raise unreadable("is truncated")
    if entry.compress_type == zipfile.ZIP_STORED:
        content, ended = stored, True
    else:
        inflater = zlib.decompressobj(-zlib.MAX_WBITS)
        try:
            content = inflater.decompress(stored, _MAX_MEMBER_BYTES + 1)
        except zlib.error as exc:
            raise unreadable(f"does not inflate: {exc}") from exc
        ended = inflater.eof
    if len(content) > _MAX_MEMBER_BYTES:
        raise MalformedEncodingError(f"bundle member {name} exceeds {_MAX_MEMBER_BYTES} bytes")
    if not ended:
        raise unreadable("has a deflate stream that does not end")
    if len(content) != entry.file_size or zlib.crc32(content) != entry.CRC:
        raise unreadable("does not match its declared size and CRC-32")
    return content


# ---------------------------------------------------------------------------
# The one-shot workflow
# ---------------------------------------------------------------------------

def _enroll_and_sign(
    keypair: EphemeralKeyPair,
    digest: DocumentDigest,
    subject: DistinguishedName,
    enrollment: EnrollmentClient,
) -> SignedDocumentBundle:
    csr = build_csr(keypair, subject, digest)
    chain = enrollment.enroll(csr)
    try:
        public_key, binding = chain.leaf.public_key, chain.leaf.binding
    except (MalformedEncodingError, *LAZY_READ_ERRORS) as exc:
        raise EnrollmentRejectedError(f"issued certificate cannot be read: {exc}",
                                      ca_code="leaf-mismatch") from exc
    if spki_der(public_key) != spki_der(keypair.public_key):
        raise EnrollmentRejectedError(
            "issued certificate names a different key", ca_code="leaf-mismatch"
        )
    if binding is None or binding.digest != digest:
        raise EnrollmentRejectedError(
            "issued certificate does not bind the requested digest",
            ca_code="leaf-mismatch",
        )
    crl = enrollment.fetch_crl(chain)
    signature = keypair.sign_digest(digest)
    return SignedDocumentBundle(
        document_digest=digest,
        signature=signature,
        chain=chain,
        crl=crl,
    )


def one_shot_sign(
    document: Union[bytes, BinaryIO],
    subject: Union[str, DistinguishedName],
    enrollment: EnrollmentClient,
    *,
    suite: AlgorithmSuite = DEFAULT_SUITE,
    keep_key: bool = False,
) -> Union[SignedDocumentBundle, Tuple[SignedDocumentBundle, EphemeralKeyPair]]:
    """Sign one document under a certificate that exists only for it.

    Generates a keypair, enrolls it bound to the document's digest, signs
    the digest, and destroys the key. On any failure after the key exists,
    the key is destroyed before the error propagates, so no error path
    leaves signing capability behind.

    With ``keep_key=True`` the live keypair is returned alongside the
    bundle; the caller then owns its lifecycle (any further certificate
    still requires a fresh enrollment).
    """
    subject = DistinguishedName.requested(subject)
    digest = digest_document(document, suite.digest)
    keypair = EphemeralKeyPair.generate(suite)
    try:
        bundle = _enroll_and_sign(keypair, digest, subject, enrollment)
    except BaseException:
        keypair.destroy()
        raise
    if keep_key:
        return bundle, keypair
    keypair.destroy()
    return bundle


def resign_with_existing_key(
    keypair: EphemeralKeyPair,
    document: Union[bytes, BinaryIO],
    subject: Union[str, DistinguishedName],
    enrollment: EnrollmentClient,
) -> SignedDocumentBundle:
    """Enroll a kept key for another document, yielding a fresh certificate
    bound to the new digest.

    The caller owns the key (it came from ``keep_key=True``), so enrollment
    failures leave it alive; destroying it remains the caller's decision.
    """
    if not keypair.is_live:
        raise KeyDestroyedError("cannot re-enroll a destroyed key")
    subject = DistinguishedName.requested(subject)
    digest = digest_document(document, keypair.suite.digest)
    return _enroll_and_sign(keypair, digest, subject, enrollment)
