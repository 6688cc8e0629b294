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
    LAZY_READ_ERRORS,
    OTC_EXTENSION_OID,
    Certificate,
    CertificationChain,
    DistinguishedName,
    RevocationList,
    SigningRequest,
    _path_failure,
    decode,
    verify_csr_pop,
)
from .crypto import (
    DEFAULT_SUITE,
    AlgorithmSuite,
    EphemeralKeyPair,
    spki_der,
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
    "CaPolicy",
    "CaIdentity",
    "Hierarchy",
    "PASSPHRASE_ENV",
    "create_root",
    "create_subordinate",
    "init_hierarchy",
    "save_ca",
    "load_ca",
    "save_hierarchy",
    "check_hierarchy_directory",
    "issuer_directories",
]

PASSPHRASE_ENV = "OTC_CA_PASSPHRASE"


class CaRole(enum.Enum):
    """Each tier with the pathLenConstraint its certificates carry: a root
    is unconstrained, an intermediate may sign one more CA tier, an issuer
    signs only end-entity certificates."""

    ROOT = ("root", None)
    INTERMEDIATE = ("intermediate", 1)
    ISSUER = ("issuer", 0)

    def __init__(self, label: str, path_length: Optional[int]):
        self.label = label
        self.path_length = path_length


_ROLE_OF_PATH_LENGTH = {role.path_length: role for role in CaRole}


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
    """One certificate authority: a certificate, a live-or-destroyed key and
    the certificates above it. The tier is read from the certificate's
    pathLenConstraint, the expiry from its notAfter, the suite from the key.

    All mutating operations take the per-CA lock, so a single identity can
    serve concurrent enrollment threads. Serials are drawn at random per
    issuance (see :func:`_certificate_builder`); nothing records them.
    """

    def __init__(
        self,
        certificate: Certificate,
        keypair: EphemeralKeyPair,
        lineage: Sequence[Certificate] = (),
    ):
        role = _ROLE_OF_PATH_LENGTH.get(certificate.path_length) if certificate.is_ca else None
        # Only a root is unconstrained, and only a root is self-issued.
        if role is None or (role is CaRole.ROOT) != certificate.is_self_issued:
            raise RoleViolationError(f"{certificate.subject_text} is not a CA certificate"
                                     " of any tier")
        self.certificate = certificate
        self._keypair = keypair
        self.role = role
        # Ancestors, nearest parent first, ending at the root. Empty for roots.
        self.lineage = tuple(lineage)
        self._lock = threading.Lock()
        # Names this CA's key in all it signs (RFC 5280 §4.2.1.1, §5.2.1).
        # It is made from the key, not read from the certificate, so CAs
        # whose certificates carry no subjectKeyIdentifier still sign with it.
        self._key_identifier = x509.AuthorityKeyIdentifier(certificate.key_identifier, None, None)
        self._blank_crl: Optional[RevocationList] = None

    # -- introspection ------------------------------------------------------

    @property
    def is_active(self) -> bool:
        return self._keypair.is_live

    @property
    def suite(self) -> AlgorithmSuite:
        return self._keypair.suite

    @property
    def not_after(self) -> datetime:
        return self.certificate.not_after

    def chain_to_root(self) -> CertificationChain:
        """This CA's certificate followed by its ancestors up to the root."""
        return CertificationChain((self.certificate, *self.lineage))

    def __repr__(self) -> str:
        state = "active" if self.is_active else "retired"
        return f"<CaIdentity {self.role.label} {self.certificate.subject_text} {state}>"

    # -- internals ----------------------------------------------------------

    def _require_active(self, role: str, now: datetime):
        """Raise unless this CA can sign at ``now``: its key is live and its
        certificate has not expired. ``role`` starts the error code."""
        if not self._keypair.is_live:
            raise CaRetiredError(f"{self.certificate.subject_text} is retired",
                                 code=f"{role}-retired")
        if now > self.not_after:
            raise CaExpiredError(f"{self.certificate.subject_text} expired at"
                                 f" {self.not_after.isoformat()}", code=f"{role}-expired")

    def _certify(self, subject: x509.Name, public_key, extensions: list,
                 role: str) -> Certificate:
        """Sign ``public_key``'s certificate for ``subject`` with ``extensions``,
        ``(extension, critical)`` pairs, then this CA's key identifier. It is
        valid from now, or this CA's later notBefore, to the chain's one
        expiry. ``role`` starts the error code if this CA cannot sign.
        retire() takes the lock to destroy the key: none is signed once it returns."""
        with self._lock:
            now = _now()
            self._require_active(role, now)
            return Certificate(self._keypair.sign_builder(_certificate_builder(
                subject, self.certificate.raw.subject, public_key,
                max(now, self.certificate.not_before), self.not_after,
                [*extensions, (self._key_identifier, False)])))

    # -- operations ---------------------------------------------------------

    def issue_otc(self, csr: SigningRequest) -> Certificate:
        """Issue a one-time certificate for a request.

        The request's key must be of a suite on the menu, the request must
        prove possession of it, and it must carry exactly one document
        binding in its canonical encoding, the only one that decodes, so the
        certificate carries the request's binding bytes unchanged. The
        certificate expires when the whole chain does.
        """
        if self.role is not CaRole.ISSUER:
            raise RoleViolationError(
                f"{self.role.label} CA cannot issue end-entity certificates"
            )
        # Checked first as well, so that a retired or expired CA says so
        # whatever the request; the check that counts is under the lock.
        self._require_active("issuer", _now())
        # The suite is read first, so that a key off the menu costs no
        # public-key operation.
        try:
            public_key = csr.public_key
        except Exception as exc:  # an unknown key type, or a point off its curve
            raise UnsupportedSuiteError(f"request key cannot be read: {exc}") from exc
        AlgorithmSuite.of_key(public_key)
        if not verify_csr_pop(csr):
            raise PopFailureError("request signature does not prove key possession")
        try:
            binding = csr.binding
            if binding is None:
                raise MissingBindingError("request carries no document binding")
            subject = csr.raw.subject
        except LAZY_READ_ERRORS as exc:
            if isinstance(exc, x509.DuplicateExtension) and exc.oid == OTC_EXTENSION_OID:
                raise DuplicateBindingError(str(exc)) from exc
            raise MalformedEncodingError(f"request cannot be read: {exc}") from exc
        return self._certify(subject, public_key, [(binding.to_x509(), binding.critical)],
                             "issuer")

    def issue_blank_crl(self) -> RevocationList:
        """This CA's one blank CRL, in force from its certificate's notBefore
        to its notAfter. It is signed on the first call and returned again on
        later ones, while the CA can sign. What it signs is fixed by the
        certificate, so each process that loads the CA publishes it alike,
        with CRL number 1. One-time certificates are never revoked; the list
        exists so legacy validators that demand a CRL get a well-formed one."""
        with self._lock:
            self._require_active("issuer", _now())
            if self._blank_crl is None:
                self._blank_crl = RevocationList(self._keypair.sign_builder(
                    x509.CertificateRevocationListBuilder()
                    .issuer_name(self.certificate.raw.subject)
                    .last_update(self.certificate.not_before)
                    .next_update(self.certificate.not_after)
                    .add_extension(self._key_identifier, critical=False)
                    .add_extension(x509.CRLNumber(1), critical=False)))
            return self._blank_crl

    def retire(self) -> str:
        """Destroy the private key. Idempotent. Previously issued
        certificates keep verifying; new issuance becomes impossible."""
        with self._lock:
            return self._keypair.destroy()


# ---------------------------------------------------------------------------
# Hierarchy construction
# ---------------------------------------------------------------------------

def _derived_name(base: str, suffix: str) -> DistinguishedName:
    """The common name ``base + suffix`` of a CA named after another name,
    with ``base`` cut short to fit a CN's 64 characters. The suffix is kept
    whole, so names with distinct suffixes stay distinct, and the length is
    never ``base``'s, so the name differs from a CN it was derived from."""
    keep = min(len(base), 64 - len(suffix) - (len(base) == 64))
    return DistinguishedName.from_common_name(base[:keep] + suffix)


def _certificate_builder(subject: x509.Name, issuer: x509.Name, public_key,
                         not_before: datetime, not_after: datetime,
                         extensions: list) -> x509.CertificateBuilder:
    """The one template of every certificate a CA signs: a fresh serial,
    then ``extensions``, ``(extension, critical)`` pairs, in order."""
    builder = (
        x509.CertificateBuilder()
        .subject_name(subject)
        .issuer_name(issuer)
        .public_key(public_key)
        # 159 random bits from the OS CSPRNG. Uniqueness rests on them alone:
        # after 10**7 draws a repeat has a chance of about 10**-34, so no
        # record of earlier serials is kept (RFC 5280 §4.1.2.2).
        .serial_number(x509.random_serial_number())
        .not_valid_before(not_before)
        .not_valid_after(not_after)
    )
    for extension, critical in extensions:
        builder = builder.add_extension(extension, critical=critical)
    return builder


def _ca_extensions(role: CaRole, public_key) -> list:
    """A CA certificate's own extensions with their criticality: its tier's
    basicConstraints, its key's identifier, and a keyUsage that signs only
    certificates and CRLs."""
    return [
        (x509.BasicConstraints(ca=True, path_length=role.path_length), True),
        (x509.SubjectKeyIdentifier.from_public_key(public_key), False),
        (x509.KeyUsage(
            digital_signature=False,
            content_commitment=False,
            key_encipherment=False,
            data_encipherment=False,
            key_agreement=False,
            key_cert_sign=True,
            crl_sign=True,
            encipher_only=False,
            decipher_only=False,
        ), True),
    ]


def create_root(name: Union[str, DistinguishedName], policy: CaPolicy) -> CaIdentity:
    """Create a self-signed root whose expiry fixes the whole hierarchy's."""
    policy.check_usable()
    subject = DistinguishedName.requested(name)
    keypair = EphemeralKeyPair.generate(policy.suite)
    builder = _certificate_builder(subject.name, subject.name, keypair.public_key, _now(),
                                   policy.chain_not_after,
                                   _ca_extensions(CaRole.ROOT, keypair.public_key))
    return CaIdentity(Certificate(keypair.sign_builder(builder)), keypair)


def create_subordinate(
    parent: CaIdentity,
    name: Union[str, DistinguishedName],
    role: CaRole,
) -> CaIdentity:
    """Create a CA of a tier below ``parent``'s, expiring at the same
    instant."""
    limit = parent.role.path_length  # None: unconstrained
    if role.path_length is None or (limit is not None and role.path_length >= limit):
        raise RoleViolationError(
            f"a {parent.role.label} CA cannot create a {role.label} CA"
        )
    subject = DistinguishedName.requested(name)
    # Checked before keygen as well; the check that counts is under the lock.
    parent._require_active("parent", _now())
    keypair = EphemeralKeyPair.generate(parent.suite)
    certificate = parent._certify(subject.name, keypair.public_key,
                                  _ca_extensions(role, keypair.public_key), "parent")
    return CaIdentity(certificate, keypair, (parent.certificate, *parent.lineage))


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
    """Bootstrap root -> intermediates -> issuer pools in one call.
    ``root_name`` is read by :meth:`DistinguishedName.requested`; the other
    CAs are named after its CN, as ``<CN> Intermediate NN`` and
    ``<CN> IntNN Issuer MM``."""
    if intermediates < 1 or issuers_per_intermediate < 1:
        raise ValueError("need at least one intermediate and one issuer each")
    root_name = DistinguishedName.requested(root_name)
    hierarchy = Hierarchy(create_root(root_name, policy))
    base = root_name.common_name
    for i in range(1, intermediates + 1):
        intermediate = create_subordinate(
            hierarchy.root, _derived_name(base, f" Intermediate {i:02d}"), CaRole.INTERMEDIATE
        )
        hierarchy.intermediates.append(intermediate)
        hierarchy.issuers.append([
            create_subordinate(intermediate, _derived_name(base, f" Int{i:02d} Issuer {j:02d}"),
                               CaRole.ISSUER)
            for j in range(1, issuers_per_intermediate + 1)
        ])
    return hierarchy


# ---------------------------------------------------------------------------
# Persistence
#
# A hierarchy (see save_hierarchy) keeps the root in root/, intermediate NN
# in int-NN/ and its issuer MM in int-NN/iss-MM/, each numbered from 01. It
# is saved only into a new or empty directory, so that no CA key is written
# over and no CA of another hierarchy is left beside it.
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


def check_hierarchy_directory(directory: Union[str, Path]) -> None:
    """Raise :class:`FileExistsError` unless ``directory`` is absent or an
    empty directory, the only places a hierarchy is saved into."""
    directory = Path(directory)
    if directory.exists() and (not directory.is_dir() or any(directory.iterdir())):
        raise FileExistsError(f"{directory} exists and is not empty; a hierarchy is"
                              " saved only into a new or empty directory")


def save_hierarchy(hierarchy: Hierarchy, directory: Union[str, Path],
                   passphrase: bytes) -> list:
    """Save every CA of a hierarchy under ``directory``, each with
    :func:`save_ca`; returns the ``(ca, directory)`` rows, root first.
    ``directory`` must pass :func:`check_hierarchy_directory`."""
    check_hierarchy_directory(directory)
    directory = Path(directory)
    rows = [(hierarchy.root, directory / "root")]
    for i, (intermediate, pool) in enumerate(zip(hierarchy.intermediates, hierarchy.issuers), 1):
        int_dir = directory / f"int-{i:02d}"
        rows.append((intermediate, int_dir))
        rows.extend((issuer, int_dir / f"iss-{j:02d}") for j, issuer in enumerate(pool, 1))
    for ca, ca_dir in rows:
        save_ca(ca, ca_dir, passphrase)
    return rows


def issuer_directories(directory: Union[str, Path]) -> list:
    """The issuer directories under a hierarchy saved by
    :func:`save_hierarchy`, in order."""
    return sorted(Path(directory).glob("int-*/iss-*"))


def load_ca(directory: Union[str, Path], passphrase: bytes) -> CaIdentity:
    """Load a CA saved by :func:`save_ca`; role and suite are recovered
    from the certificate itself. A key that is not the certificate's raises
    :class:`InvalidPolicyError`, and a ``chain.pem`` that chain-trust's
    path rule refuses :class:`RoleViolationError`."""
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
    keypair = EphemeralKeyPair(suite, key)
    if spki_der(keypair.public_key) != spki_der(certificate.public_key):
        raise InvalidPolicyError(f"{directory / 'key.pem'} is not the key of"
                                 f" {directory / 'cert.pem'}")
    chain = CertificationChain.from_pem((directory / "chain.pem").read_bytes())
    if chain.leaf != certificate:
        raise RoleViolationError("chain.pem does not start with this CA's certificate")
    failure = _path_failure(chain.certificates)
    if failure is not None:
        raise RoleViolationError(f"chain.pem does not chain to a self-signed root: {failure}")
    return CaIdentity(certificate, keypair, lineage=chain.certificates[1:])
