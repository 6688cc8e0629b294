"""Certificate authorities for one-time issuance.

Three roles form a fixed hierarchy: root signs intermediates, intermediates
sign issuers, issuers sign end-entity certificates. Every certificate in a
chain shares one expiry instant, chosen once when the root is created: with
no revocation below the root, the only way to bound damage from a
compromised CA key is for the whole chain to age out together.

Retirement is key destruction. A retired CA can no longer issue, but
everything it signed stays verifiable until the shared expiry; that is the
entire lifecycle, since one-time certificates are never revoked. Each CA
still publishes a blank CRL so legacy validators that insist on fetching
one find a well-formed, empty answer.
"""

from __future__ import annotations

import enum
import os
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, Union

from cryptography import x509
from cryptography.hazmat.primitives import serialization

from .certmodel import (
    Certificate,
    CertificationChain,
    DistinguishedName,
    RevocationList,
    SigningRequest,
    decode,
    verify_csr_pop,
)
from .crypto import (
    DEFAULT_SUITE,
    AlgorithmSuite,
    EphemeralKeyPair,
    random_serial,
)
from .errors import (
    CaExpiredError,
    CaRetiredError,
    DuplicateBindingError,
    InvalidPolicyError,
    MalformedEncodingError,
    MissingBindingError,
    PopFailureError,
    RoleViolationError,
    UnsupportedSuiteError,
)

__all__ = [
    "CaRole",
    "CaState",
    "CaPolicy",
    "CaIdentity",
    "Hierarchy",
    "PASSPHRASE_ENV",
    "create_root",
    "create_subordinate",
    "spawn_issuer_pool",
    "init_hierarchy",
    "save_ca",
    "load_ca",
]

PASSPHRASE_ENV = "OTC_CA_PASSPHRASE"


class CaRole(enum.Enum):
    ROOT = "root"
    INTERMEDIATE = "intermediate"
    ISSUER = "issuer"

    @property
    def rank(self) -> int:
        return {CaRole.ROOT: 0, CaRole.INTERMEDIATE: 1, CaRole.ISSUER: 2}[self]

    @property
    def path_length(self) -> Optional[int]:
        # Root is unconstrained; an intermediate may sign one more CA tier;
        # an issuer signs only end-entity certificates.
        return {CaRole.ROOT: None, CaRole.INTERMEDIATE: 1, CaRole.ISSUER: 0}[self]


class CaState(enum.Enum):
    ACTIVE = "active"
    RETIRED = "retired"


def _utc(moment: datetime) -> datetime:
    """Normalize to tz-aware UTC; a naive moment is taken to be UTC."""
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


def _utc_second(moment: datetime) -> datetime:
    """Normalize to tz-aware UTC at whole-second precision, which is all
    that certificate validity fields can carry anyway."""
    return _utc(moment).replace(microsecond=0)


def _now() -> datetime:
    return _utc_second(datetime.now(timezone.utc))


@dataclass(frozen=True)
class CaPolicy:
    """Issuance parameters fixed at root creation time.

    ``chain_not_after`` is the single expiry instant shared by the root,
    every subordinate, and every end-entity certificate below it.
    """

    chain_not_after: datetime
    suite: AlgorithmSuite = DEFAULT_SUITE

    def __post_init__(self):
        object.__setattr__(self, "chain_not_after", _utc_second(self.chain_not_after))

    def check_usable(self):
        if self.chain_not_after <= _now():
            raise InvalidPolicyError(
                f"chain expiry {self.chain_not_after.isoformat()} is not in the future"
            )


class CaIdentity:
    """One certificate authority: a certificate and a live-or-destroyed key.

    All mutating operations take the per-CA lock, so a single identity can
    serve concurrent enrollment threads. Serials are drawn at random per
    issuance (see :func:`random_serial`); nothing records them.
    """

    def __init__(
        self,
        certificate: Certificate,
        keypair: EphemeralKeyPair,
        role: CaRole,
        policy: CaPolicy,
        lineage: Sequence[Certificate] = (),
    ):
        self.certificate = certificate
        self._keypair = keypair
        self.role = role
        self.policy = policy
        # Ancestors, nearest parent first, ending at the root. Empty for roots.
        self.lineage = tuple(lineage)
        self._lock = threading.Lock()

    # -- introspection ------------------------------------------------------

    @property
    def name(self) -> DistinguishedName:
        return self.certificate.subject

    @property
    def state(self) -> CaState:
        return CaState.ACTIVE if self._keypair.is_live else CaState.RETIRED

    @property
    def is_active(self) -> bool:
        return self._keypair.is_live

    @property
    def suite(self) -> AlgorithmSuite:
        return self.policy.suite

    @property
    def not_after(self) -> datetime:
        return self.certificate.not_after

    def chain_to_root(self) -> CertificationChain:
        """This CA's certificate followed by its ancestors up to the root."""
        return CertificationChain((self.certificate, *self.lineage))

    def __repr__(self) -> str:
        return f"<CaIdentity {self.role.value} {self._subject_text} {self.state.value}>"

    # -- internals ----------------------------------------------------------

    @property
    def _subject_text(self) -> str:
        """The subject as RFC 4514 text, which any name has; ``name`` needs
        the CN that ``DistinguishedName`` requires."""
        return self.certificate.raw.subject.rfc4514_string()

    def _require_active(self, role: str, now: datetime):
        """Raise unless this CA can sign at ``now``: its key is live and its
        certificate has not expired. ``role`` starts the error code."""
        if not self._keypair.is_live:
            raise CaRetiredError(f"{self._subject_text} is retired", code=f"{role}-retired")
        if now > self.not_after:
            raise CaExpiredError(f"{self._subject_text} expired at {self.not_after.isoformat()}",
                                 code=f"{role}-expired")

    def _sign_child_certificate(self, builder: x509.CertificateBuilder) -> Certificate:
        return Certificate(self._keypair.sign_builder(builder))

    # -- operations ---------------------------------------------------------

    def issue_otc(self, csr: SigningRequest) -> Certificate:
        """Issue a one-time certificate for a request.

        The request must prove possession of its key, a key of a suite on
        the menu, and carry exactly one document binding in its canonical encoding, the only one that
        decodes, so the certificate carries the request's binding bytes
        unchanged. The certificate expires when the whole chain does.
        """
        if self.role is not CaRole.ISSUER:
            raise RoleViolationError(
                f"{self.role.value} CA cannot issue end-entity certificates"
            )
        # Checked first as well, so that a retired or expired CA says so
        # whatever the request; the check that counts is under the lock.
        now = _now()
        self._require_active("issuer", now)
        if not verify_csr_pop(csr):
            raise PopFailureError("request signature does not prove key possession")
        try:
            binding = csr.binding
        except x509.DuplicateExtension as exc:
            raise DuplicateBindingError(str(exc)) from exc
        except ValueError as exc:  # cryptography parses extensions lazily
            raise MalformedEncodingError(f"request extensions: {exc}") from exc
        if binding is None:
            raise MissingBindingError("request carries no document binding")
        try:
            subject = csr.raw.subject
        except ValueError as exc:  # an empty RDN, say, is refused only when read
            raise MalformedEncodingError(f"request subject: {exc}") from exc
        public_key = csr.public_key
        AlgorithmSuite.of_key(public_key)
        builder = (
            x509.CertificateBuilder()
            .subject_name(subject)
            .issuer_name(self.certificate.raw.subject)
            .public_key(public_key)
            .serial_number(random_serial())
            .not_valid_before(max(now, self.certificate.not_before))
            .not_valid_after(self.certificate.not_after)
            .add_extension(binding.to_x509(), critical=binding.critical)
        )
        # retire() takes the lock to destroy the key, so once it returns no
        # signature is in progress and none can start.
        with self._lock:
            self._require_active("issuer", now)
            return self._sign_child_certificate(builder)

    def issue_blank_crl(self) -> RevocationList:
        """Publish an empty revocation list, valid until the chain expiry.

        One-time certificates are never revoked; the list exists so legacy
        validators that demand a CRL get a well-formed empty one.
        """
        with self._lock:
            now = _now()
            self._require_active("issuer", now)
            builder = (
                x509.CertificateRevocationListBuilder()
                .issuer_name(self.certificate.raw.subject)
                .last_update(max(now, self.certificate.not_before))
                .next_update(self.certificate.not_after)
            )
            return RevocationList(self._keypair.sign_builder(builder))

    def retire(self) -> str:
        """Destroy the private key. Idempotent. Previously issued
        certificates keep verifying; new issuance becomes impossible."""
        with self._lock:
            return self._keypair.destroy()


# ---------------------------------------------------------------------------
# Hierarchy construction
# ---------------------------------------------------------------------------

def _as_name(name: Union[str, DistinguishedName]) -> DistinguishedName:
    return DistinguishedName.from_common_name(name) if isinstance(name, str) else name


def _ca_builder(
    subject: x509.Name,
    issuer: x509.Name,
    public_key,
    serial: int,
    not_before: datetime,
    not_after: datetime,
    role: CaRole,
) -> x509.CertificateBuilder:
    return (
        x509.CertificateBuilder()
        .subject_name(subject)
        .issuer_name(issuer)
        .public_key(public_key)
        .serial_number(serial)
        .not_valid_before(not_before)
        .not_valid_after(not_after)
        .add_extension(
            x509.BasicConstraints(ca=True, path_length=role.path_length), critical=True
        )
        .add_extension(
            x509.KeyUsage(
                digital_signature=False,
                content_commitment=False,
                key_encipherment=False,
                data_encipherment=False,
                key_agreement=False,
                key_cert_sign=True,
                crl_sign=True,
                encipher_only=False,
                decipher_only=False,
            ),
            critical=True,
        )
    )


def create_root(name: Union[str, DistinguishedName], policy: CaPolicy) -> CaIdentity:
    """Create a self-signed root whose expiry fixes the whole hierarchy's."""
    policy.check_usable()
    subject = _as_name(name)
    keypair = EphemeralKeyPair.generate(policy.suite)
    builder = _ca_builder(
        subject.to_x509(),
        subject.to_x509(),
        keypair.public_key,
        random_serial(),
        _now(),
        policy.chain_not_after,
        CaRole.ROOT,
    )
    return CaIdentity(Certificate(keypair.sign_builder(builder)), keypair, CaRole.ROOT, policy)


def create_subordinate(
    parent: CaIdentity,
    name: Union[str, DistinguishedName],
    role: CaRole,
) -> CaIdentity:
    """Create a CA one tier below ``parent``, expiring at the same instant."""
    if role.rank <= parent.role.rank:
        raise RoleViolationError(
            f"a {parent.role.value} CA cannot create a {role.value} CA"
        )
    subject = _as_name(name)
    keypair = EphemeralKeyPair.generate(parent.suite)
    with parent._lock:
        now = _now()
        parent._require_active("parent", now)
        builder = _ca_builder(
            subject.to_x509(),
            parent.certificate.raw.subject,
            keypair.public_key,
            random_serial(),
            max(now, parent.certificate.not_before),
            parent.certificate.not_after,
            role,
        )
        certificate = parent._sign_child_certificate(builder)
    lineage = (parent.certificate, *parent.lineage)
    return CaIdentity(certificate, keypair, role, parent.policy, lineage)


def spawn_issuer_pool(
    parent: CaIdentity,
    count: int,
    name_prefix: Optional[str] = None,
) -> list:
    """Create ``count`` issuer CAs under one parent, each with its own key,
    so enrollment load can be spread without changing what verifiers see."""
    if count < 0:
        raise ValueError("pool size cannot be negative")
    prefix = name_prefix or f"{parent.name.common_name} Issuer"
    return [
        create_subordinate(parent, f"{prefix} {index:02d}", CaRole.ISSUER)
        for index in range(1, count + 1)
    ]


@dataclass
class Hierarchy:
    """A freshly bootstrapped PKI: one root, its intermediates, and the
    issuer pools hanging off each intermediate."""

    root: CaIdentity
    intermediates: list = field(default_factory=list)
    issuers: list = field(default_factory=list)  # parallel to intermediates

    def all_cas(self) -> list:
        cas = [self.root, *self.intermediates]
        for pool in self.issuers:
            cas.extend(pool)
        return cas

    def first_issuer(self) -> CaIdentity:
        return self.issuers[0][0]


def init_hierarchy(
    root_name: Union[str, DistinguishedName],
    policy: CaPolicy,
    intermediates: int = 1,
    issuers_per_intermediate: int = 1,
) -> Hierarchy:
    """Bootstrap root -> intermediates -> issuer pools in one call."""
    if intermediates < 1 or issuers_per_intermediate < 1:
        raise ValueError("need at least one intermediate and one issuer each")
    root = create_root(root_name, policy)
    base = _as_name(root_name).common_name
    hierarchy = Hierarchy(root)
    for i in range(1, intermediates + 1):
        intermediate = create_subordinate(
            root, f"{base} Intermediate {i:02d}", CaRole.INTERMEDIATE
        )
        pool = spawn_issuer_pool(
            intermediate,
            issuers_per_intermediate,
            name_prefix=f"{base} Int{i:02d} Issuer",
        )
        hierarchy.intermediates.append(intermediate)
        hierarchy.issuers.append(pool)
    return hierarchy


# ---------------------------------------------------------------------------
# Persistence
#
# Directory layout per CA (see save_ca/load_ca):
#   cert.pem      the CA certificate
#   key.pem       encrypted PKCS#8 private key
#   chain.pem     own certificate followed by ancestors up to the root
#   crl.pem       the blank CRL
# Directories written by older versions may also hold serials.txt, a journal
# of issued serials; it is ignored.
# ---------------------------------------------------------------------------

def passphrase_from_env() -> bytes:
    """Read the CA key passphrase from $OTC_CA_PASSPHRASE."""
    value = os.environ.get(PASSPHRASE_ENV, "")
    if not value:
        raise InvalidPolicyError(
            f"set {PASSPHRASE_ENV} to protect CA private keys on disk"
        )
    return value.encode()


def _write_key_file(path: Union[str, Path], key_pem: bytes) -> None:
    """Write an encrypted private key to a file that only its owner can
    read, from before its first byte. The mode ``os.open`` takes applies only
    to a file it creates, so an existing file gets it from ``fchmod``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    with open(fd, "wb") as stream:
        os.fchmod(fd, 0o600)
        stream.write(key_pem)


def save_ca(ca: CaIdentity, directory: Union[str, Path], passphrase: bytes):
    """Write a CA's certificate, encrypted key, chain and blank CRL to its
    directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    key_pem = ca._keypair.export_private_pem(passphrase)
    (directory / "cert.pem").write_bytes(ca.certificate.to_pem())
    _write_key_file(directory / "key.pem", key_pem)
    (directory / "chain.pem").write_bytes(ca.chain_to_root().to_pem())
    (directory / "crl.pem").write_bytes(ca.issue_blank_crl().to_pem())


def _role_of(certificate: Certificate) -> CaRole:
    if not certificate.is_ca:
        raise RoleViolationError("certificate is not a CA certificate")
    if certificate.raw.subject == certificate.raw.issuer:
        return CaRole.ROOT
    return CaRole.ISSUER if certificate.path_length == 0 else CaRole.INTERMEDIATE


def load_ca(directory: Union[str, Path], passphrase: bytes) -> CaIdentity:
    """Load a CA saved by :func:`save_ca`; role and suite are recovered
    from the certificate itself. A key that is not the certificate's raises
    :class:`InvalidPolicyError`, and a ``chain.pem`` whose links do not
    verify up to a self-signed root :class:`RoleViolationError`."""
    directory = Path(directory)
    certificate = decode((directory / "cert.pem").read_bytes(), Certificate)
    try:
        key = serialization.load_pem_private_key(
            (directory / "key.pem").read_bytes(), password=passphrase
        )
    except (ValueError, TypeError) as exc:
        raise InvalidPolicyError(f"cannot unlock CA key: {exc}") from exc
    suite = AlgorithmSuite.of_key(certificate.public_key)
    hash_alg = certificate.raw.signature_hash_algorithm
    hash_name = hash_alg.name if hash_alg is not None else ""
    if suite.digest.hash_primitive().name != hash_name:
        raise UnsupportedSuiteError(
            f"CA certificate hash {hash_name} does not match suite {suite.label}"
        )
    role = _role_of(certificate)
    keypair = EphemeralKeyPair(suite, key)
    if keypair.public_der() != certificate.public_der():
        raise InvalidPolicyError(f"{directory / 'key.pem'} is not the key of"
                                 f" {directory / 'cert.pem'}")
    chain = CertificationChain.from_pem((directory / "chain.pem").read_bytes())
    if chain.leaf != certificate:
        raise RoleViolationError("chain.pem does not start with this CA's certificate")
    if not chain.links_verify():
        raise RoleViolationError("chain.pem does not chain to a self-signed root")
    policy = CaPolicy(chain_not_after=certificate.not_after, suite=suite)
    return CaIdentity(certificate, keypair, role, policy, lineage=chain.certificates[1:])
