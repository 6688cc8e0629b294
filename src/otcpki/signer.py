"""The signer's side of the protocol: generate a key, enroll it against one
document digest, sign that digest, destroy the key, and package everything a
verifier needs into a portable bundle.

The destroy step is the point: once the key is gone, the certificate can
never vouch for anything except the one document it names, so there is
nothing left to revoke.
"""

from __future__ import annotations

import http.client
import threading
import urllib.parse
import weakref
import zipfile
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO, Optional, Protocol, Tuple, Union

from cryptography.hazmat.primitives import serialization

from .ca import CaIdentity
from .certmodel import (
    PEM_CONTENT_TYPE,
    CertificationChain,
    DistinguishedName,
    RevocationList,
    SigningRequest,
    build_csr,
    decode,
)
from .crypto import (
    DEFAULT_SUITE,
    AlgorithmSuite,
    DigestAlgorithm,
    DocumentDigest,
    EphemeralKeyPair,
    digest_document,
)
from .errors import (
    ConfigError,
    EnrollmentRejectedError,
    EnrollmentUnreachableError,
    KeyDestroyedError,
    MalformedEncodingError,
    OtcError,
)

__all__ = [
    "SignedDocumentBundle",
    "EnrollmentClient",
    "HttpEnrollmentClient",
    "LocalEnrollmentClient",
    "one_shot_sign",
    "resign_with_existing_key",
]

_ARCHIVE_MEMBERS = ("meta.txt", "signature.bin", "chain.pem", "crl.pem")


# ---------------------------------------------------------------------------
# Enrollment transports
# ---------------------------------------------------------------------------

class EnrollmentClient(Protocol):
    """What the signing workflow needs from an enrollment channel."""

    def enroll(self, csr: SigningRequest) -> CertificationChain: ...

    def fetch_crl(self, chain: CertificationChain) -> RevocationList: ...


def _pick_crl(pem: bytes, chain: CertificationChain) -> RevocationList:
    """From one or more PEM CRL blocks, pick the one published by the CA
    that issued the chain's leaf."""
    blocks = []
    current: list = []
    for line in pem.splitlines(keepends=True):
        current.append(line)
        if line.strip() == b"-----END X509 CRL-----":
            blocks.append(b"".join(current))
            current = []
    if not blocks:
        raise MalformedEncodingError("no CRL blocks in response")
    issuing_ca = chain.issuing_ca or chain.leaf
    for block in blocks:
        crl = decode(block, RevocationList)
        if crl.issuer == issuing_ca.subject:
            return crl
    raise EnrollmentRejectedError(
        f"no CRL published for issuer {issuing_ca.subject}", ca_code="no-matching-crl"
    )


# A kept-alive connection the service has since closed fails this way before
# any byte of the response arrives; the request is then sent again once.
_STALE_CONNECTION_ERRORS = (
    http.client.RemoteDisconnected,
    ConnectionResetError,
    BrokenPipeError,
)


class HttpEnrollmentClient:
    """Talks to the enrollment service over HTTP/1.1 with PEM bodies.

    Each calling thread keeps one persistent connection, so a client shared
    by threads still sends their requests in parallel. Each issuing CA's
    blank CRL is fetched once and cached: it stays the same until the chain
    expires. The client connects directly; proxy variables are not read.
    """

    def __init__(self, base_url: str, timeout: float = 10.0):
        self._base = base_url.rstrip("/")
        url = urllib.parse.urlsplit(self._base)
        connection_classes = {"http": http.client.HTTPConnection,
                              "https": http.client.HTTPSConnection}
        try:
            self._connection_class = connection_classes[url.scheme]
            self._address = (url.hostname, url.port)
        except (KeyError, ValueError):
            raise ConfigError(f"not an http:// or https:// URL: {base_url!r}") from None
        if not url.hostname:
            raise ConfigError(f"no host in enrollment URL {base_url!r}")
        self._path = url.path
        self._timeout = timeout
        self._local = threading.local()
        # A connection is dropped with its thread or with the client;
        # close() closes those still open.
        self._connections = weakref.WeakSet()
        self._crls: dict = {}  # issuing CA certificate DER -> RevocationList

    def _connection(self) -> http.client.HTTPConnection:
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._connection_class(*self._address, timeout=self._timeout)
            self._local.connection = connection
            self._connections.add(connection)
        return connection

    def _request(self, path: str, body: Optional[bytes] = None) -> bytes:
        connection = self._connection()
        method, target = ("GET" if body is None else "POST"), self._path + path
        headers = {} if body is None else {"Content-Type": PEM_CONTENT_TYPE}
        reused = connection.sock is not None
        try:
            try:
                connection.request(method, target, body, headers)
                response = connection.getresponse()
            except _STALE_CONNECTION_ERRORS:
                if not reused:
                    raise
                connection.close()
                connection.request(method, target, body, headers)
                response = connection.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException) as exc:
            connection.close()
            raise EnrollmentUnreachableError(f"{self._base}: {exc}") from exc
        if response.status != 200:
            detail = payload.decode("utf-8", "replace").strip()
            code, _, message = detail.partition(":")
            raise EnrollmentRejectedError(
                message.strip() or detail or response.reason, ca_code=code.strip()
            )
        return payload

    def enroll(self, csr: SigningRequest) -> CertificationChain:
        return CertificationChain.from_pem(self._request("/enroll", csr.to_pem()))

    def fetch_crl(self, chain: CertificationChain) -> RevocationList:
        issuer_der = (chain.issuing_ca or chain.leaf).to_der()
        crl = self._crls.get(issuer_der)
        if crl is None:
            crl = self._crls[issuer_der] = _pick_crl(self._request("/crl"), chain)
        return crl

    def fetch_chain(self) -> CertificationChain:
        return CertificationChain.from_pem(self._request("/chain"))

    def close(self):
        """Close every thread's connection; a later request reconnects."""
        for connection in list(self._connections):
            connection.close()


class LocalEnrollmentClient:
    """In-process enrollment against a CA object; the library-embedding
    counterpart of the HTTP client, with the same error surface."""

    def __init__(self, issuer: CaIdentity):
        self._issuer = issuer
        self._crl: Optional[RevocationList] = None

    def enroll(self, csr: SigningRequest) -> CertificationChain:
        try:
            leaf = self._issuer.issue_otc(csr)
        except OtcError as exc:
            raise EnrollmentRejectedError(str(exc), ca_code=exc.code) from exc
        return CertificationChain((leaf, *self._issuer.chain_to_root()))

    def fetch_crl(self, chain: CertificationChain) -> RevocationList:
        if self._crl is None:
            try:
                self._crl = self._issuer.issue_blank_crl()
            except OtcError as exc:
                raise EnrollmentRejectedError(str(exc), ca_code=exc.code) from exc
        return self._crl


# ---------------------------------------------------------------------------
# The bundle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedDocumentBundle:
    """Everything a verifier needs, in one archive: the digest that was
    signed, the detached signature, the full chain, and the issuer's blank
    CRL. The document travels separately; only its digest is baked in."""

    document_digest: DocumentDigest
    signature: bytes
    chain: CertificationChain
    crl: Optional[RevocationList]
    created_at: datetime
    document_locator: Optional[str] = None

    def __post_init__(self):
        moment = self.created_at
        if moment.tzinfo is None:
            moment = moment.replace(tzinfo=timezone.utc)
        object.__setattr__(
            self, "created_at", moment.astimezone(timezone.utc).replace(microsecond=0)
        )

    @property
    def subject(self) -> DistinguishedName:
        return self.chain.leaf.subject

    def _meta_text(self) -> str:
        return (
            f"digest-alg = {self.document_digest.algorithm.value}\n"
            f"digest-hex = {self.document_digest.hex()}\n"
            f"created-at = {self.created_at.strftime('%Y-%m-%dT%H:%M:%SZ')}\n"
            f"subject = {self.subject}\n"
        )

    def save(self, path: Union[str, Path]):
        path = Path(path)
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("meta.txt", self._meta_text())
            archive.writestr("signature.bin", self.signature)
            archive.writestr("chain.pem", self.chain.to_pem())
            if self.crl is not None:
                archive.writestr("crl.pem", self.crl.to_pem())

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SignedDocumentBundle":
        path = Path(path)
        try:
            with zipfile.ZipFile(path) as archive:
                names = set(archive.namelist())
                missing = {"meta.txt", "signature.bin", "chain.pem"} - names
                if missing:
                    raise MalformedEncodingError(
                        f"bundle missing {', '.join(sorted(missing))}"
                    )
                meta = _parse_meta(archive.read("meta.txt"))
                signature = archive.read("signature.bin")
                chain = CertificationChain.from_pem(archive.read("chain.pem"))
                crl = (
                    decode(archive.read("crl.pem"), RevocationList)
                    if "crl.pem" in names
                    else None
                )
        except zipfile.BadZipFile as exc:
            raise MalformedEncodingError(f"not a bundle archive: {exc}") from exc
        return cls(
            document_digest=meta["digest"],
            signature=signature,
            chain=chain,
            crl=crl,
            created_at=meta["created_at"],
        )


def _parse_meta(raw: bytes) -> dict:
    pairs = {}
    for lineno, line in enumerate(raw.decode("utf-8", "replace").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise MalformedEncodingError(f"meta.txt line {lineno}: expected key = value")
        pairs[key.strip()] = value.strip()
    try:
        algorithm = DigestAlgorithm(pairs["digest-alg"])
        digest = DocumentDigest.from_hex(algorithm, pairs["digest-hex"])
        created = datetime.strptime(pairs["created-at"], "%Y-%m-%dT%H:%M:%SZ").replace(
            tzinfo=timezone.utc
        )
    except KeyError as exc:
        raise MalformedEncodingError(f"meta.txt missing {exc.args[0]}") from exc
    except ValueError as exc:
        raise MalformedEncodingError(f"meta.txt: {exc}") from exc
    return {"digest": digest, "created_at": created}


# ---------------------------------------------------------------------------
# The one-shot workflow
# ---------------------------------------------------------------------------

def _as_subject(subject: Union[str, DistinguishedName]) -> DistinguishedName:
    """A string with ``=`` is a full subject (``CN=...,O=...``); any other
    string is a common name."""
    if isinstance(subject, DistinguishedName):
        return subject
    if "=" in subject:
        return DistinguishedName.from_string(subject)
    return DistinguishedName.from_common_name(subject)


def _enroll_and_sign(
    keypair: EphemeralKeyPair,
    digest: DocumentDigest,
    subject: DistinguishedName,
    enrollment: EnrollmentClient,
    document_locator: Optional[str],
) -> SignedDocumentBundle:
    csr = build_csr(keypair, subject, digest)
    chain = enrollment.enroll(csr)
    leaf = chain.leaf
    leaf_spki = leaf.public_key.public_bytes(
        serialization.Encoding.DER, serialization.PublicFormat.SubjectPublicKeyInfo
    )
    if leaf_spki != keypair.public_der():
        raise EnrollmentRejectedError(
            "issued certificate names a different key", ca_code="leaf-mismatch"
        )
    binding = leaf.binding
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
        created_at=datetime.now(timezone.utc),
        document_locator=document_locator,
    )


def one_shot_sign(
    document: Union[bytes, BinaryIO],
    subject: Union[str, DistinguishedName],
    enrollment: EnrollmentClient,
    *,
    suite: AlgorithmSuite = DEFAULT_SUITE,
    keep_key: bool = False,
    document_locator: Optional[str] = None,
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
    subject = _as_subject(subject)
    digest = digest_document(document, suite.digest)
    keypair = EphemeralKeyPair.generate(suite)
    try:
        bundle = _enroll_and_sign(keypair, digest, subject, enrollment, document_locator)
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
    *,
    document_locator: Optional[str] = None,
) -> SignedDocumentBundle:
    """Enroll a kept key for another document, yielding a fresh certificate
    bound to the new digest.

    The caller owns the key (it came from ``keep_key=True``), so enrollment
    failures leave it alive; destroying it remains the caller's decision.
    """
    if not keypair.is_live:
        raise KeyDestroyedError("cannot re-enroll a destroyed key")
    subject = _as_subject(subject)
    digest = digest_document(document, keypair.suite.digest)
    return _enroll_and_sign(keypair, digest, subject, enrollment, document_locator)
