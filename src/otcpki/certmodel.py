"""X.509 object model: the digest-binding extension, names, CSRs,
certificates, CRLs, chains, and the PEM decoder.

The binding payload's exact bytes are the contract that makes a certificate a
one-time certificate, so they are authored here rather than delegated:

    OtcBinding ::= SEQUENCE {
        digestAlgorithm   AlgorithmIdentifier,   -- no parameters
        digestValue       OCTET STRING
    }

DER is canonical (X.690 §10), so each digest algorithm fixes every byte but
the digest: ``302f300b06096086480165030402010420`` then 32 bytes for SHA-256,
``303f300b06096086480165030402020430`` then 48 for SHA-384. The codec is that
table, so a binding has exactly one accepted encoding. It rides under a
private-enterprise OID as a non-critical extension, so standard validators
ignore it while aware verifiers enforce it.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Type, TypeVar, Union

from cryptography import x509
from cryptography.exceptions import UnsupportedAlgorithm
from cryptography.hazmat.primitives import serialization
from cryptography.x509.oid import ExtensionOID

from .crypto import (
    AlgorithmSuite,
    DigestAlgorithm,
    DocumentDigest,
    EphemeralKeyPair,
    PublicKey,
)
from .errors import (
    InvalidNameError,
    MalformedEncodingError,
)

__all__ = [
    "OTC_EXTENSION_OID",
    "OtcExtension",
    "DistinguishedName",
    "SigningRequest",
    "Certificate",
    "RevocationList",
    "CertificationChain",
    "PEM_CONTENT_TYPE",
    "build_csr",
    "verify_csr_pop",
    "decode",
    "load_certificates",
]

# Private-enterprise arc; nothing else in the certificate profile uses it.
OTC_EXTENSION_OID = x509.ObjectIdentifier("1.3.6.1.4.1.55555.1.1")

# Each algorithm's payload bytes before the digest (see the module docstring).
_PAYLOAD_PREFIXES = {
    DigestAlgorithm.SHA256: bytes.fromhex("302f300b06096086480165030402010420"),
    DigestAlgorithm.SHA384: bytes.fromhex("303f300b06096086480165030402020430"),
}
# The AlgorithmIdentifier is payload bytes 2..14 under either algorithm.
_ALG_ID = slice(2, 15)
_DIGEST_BY_ALG_ID = {prefix[_ALG_ID]: alg for alg, prefix in _PAYLOAD_PREFIXES.items()}

# Entries in each module's memo: this one's of decoded CA certificates and
# CRLs below, and the verifier's of passed checks.
MEMO_LIMIT = 1024

# Most PEM bytes a decoded object is remembered by. The largest honest key is
# an /enroll reply's tail after its leaf: the three CA certificates and the
# CRL of an rsa-3072 hierarchy with 64-character CNs, 5693 bytes. A larger
# blob is decoded on every call, so that a bundle member of up to 1 MiB cannot
# keep its bytes and its decoded objects in the memo.
_MEMO_KEY_BYTES = 8192

# What cryptography raises when a field it parses lazily (extensions, names,
# keys) is first read.
LAZY_READ_ERRORS = (ValueError, x509.DuplicateExtension, x509.UnsupportedGeneralNameType,
                    UnsupportedAlgorithm)


@functools.lru_cache(maxsize=MEMO_LIMIT)
def _remembered_decode(pem: bytes, kind: type):
    """``decode(pem, kind)``, or for ``CertificationChain`` every certificate
    in ``pem``, remembered by both when it returns; a call that raises is
    not remembered."""
    return load_certificates(pem) if kind is CertificationChain else decode(pem, kind)


# ---------------------------------------------------------------------------
# The binding extension
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OtcExtension:
    """The document binding carried inside a certificate or CSR.

    Non-critical by default: software that does not know the OID still
    accepts the certificate, which is what keeps legacy validators working.
    """

    digest: DocumentDigest
    critical: bool = False

    def payload(self) -> bytes:
        """DER-encode the binding structure."""
        return _PAYLOAD_PREFIXES[self.digest.algorithm] + self.digest.value

    @classmethod
    def from_payload(cls, data: bytes, critical: bool = False) -> "OtcExtension":
        """Decode a binding payload. Only the canonical encoding of a known
        algorithm's binding is accepted; any other bytes raise
        :class:`MalformedEncodingError` naming the offset at fault."""
        algorithm = _DIGEST_BY_ALG_ID.get(data[_ALG_ID])
        if algorithm is None:
            raise MalformedEncodingError(f"binding payload at offset {_ALG_ID.start}:"
                                         f" unknown digest algorithm {data[_ALG_ID].hex()!r}")
        prefix = _PAYLOAD_PREFIXES[algorithm]
        size = len(prefix) + algorithm.digest_length
        if len(data) != size:
            raise MalformedEncodingError(
                f"binding payload at offset {min(len(data), size)}: {algorithm.value} takes a"
                f" {algorithm.digest_length}-byte digest, {size} bytes in all; got {len(data)}")
        if not data.startswith(prefix):  # the scan only names the offset at fault
            for offset, (found, wanted) in enumerate(zip(data, prefix)):
                if found != wanted:
                    raise MalformedEncodingError(f"binding payload at offset {offset}:"
                                                 f" expected 0x{wanted:02x}, found 0x{found:02x}")
        return cls(DocumentDigest(algorithm, data[len(prefix):]), critical=critical)

    def to_x509(self) -> x509.UnrecognizedExtension:
        return x509.UnrecognizedExtension(OTC_EXTENSION_OID, self.payload())


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistinguishedName:
    """A name the program asks for: a CA's or a signer's, which must carry a
    non-empty common name. It holds the ``x509.Name`` it was parsed or built
    from. Names read from certificates, requests and CRLs stay the
    ``x509.Name`` that cryptography parsed, CN or not."""

    name: x509.Name

    def __post_init__(self):
        if not self.common_name:
            raise InvalidNameError("a non-empty common name (2.5.4.3) is required")

    @property
    def common_name(self) -> str:
        common_names = self.name.get_attributes_for_oid(x509.NameOID.COMMON_NAME)
        return common_names[0].value if common_names else ""

    @classmethod
    def from_common_name(cls, common_name: str) -> "DistinguishedName":
        try:
            name = x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, common_name)])
        except ValueError as exc:  # cryptography refuses a CN outside 1-64 characters
            raise InvalidNameError(f"cannot use common name {common_name!r}: {exc}") from exc
        return cls(name)

    @classmethod
    def from_string(cls, text: str) -> "DistinguishedName":
        """Parse an RFC 4514 string such as ``CN=Alice,O=Example``, a
        multi-valued RDN such as ``CN=Alice+O=Example`` included."""
        try:
            name = x509.Name.from_rfc4514_string(text)
        except (ValueError, TypeError) as exc:
            raise InvalidNameError(f"cannot parse name {text!r}: {exc}") from exc
        return cls(name)

    @classmethod
    def requested(cls, name: Union[str, DistinguishedName]) -> "DistinguishedName":
        """Read a name a caller asks for: a string with ``=`` is an RFC 4514
        name (``CN=...,O=...``), any other string is a common name."""
        if isinstance(name, DistinguishedName):
            return name
        return cls.from_string(name) if "=" in name else cls.from_common_name(name)

    def __str__(self) -> str:
        return self.name.rfc4514_string()


# ---------------------------------------------------------------------------
# Wrappers over parsed X.509 objects
# ---------------------------------------------------------------------------

class _Wrapper:
    """A parsed X.509 object. Two wrappers of one kind are equal when their
    DER is."""

    def __init__(self, raw):
        self._raw = raw
        self._der: Optional[bytes] = None

    @property
    def raw(self):
        return self._raw

    def to_der(self) -> bytes:
        if self._der is None:
            self._der = self._raw.public_bytes(serialization.Encoding.DER)
        return self._der

    def to_pem(self) -> bytes:
        return self._raw.public_bytes(serialization.Encoding.PEM)

    def _extension(self, oid: x509.ObjectIdentifier) -> Optional[x509.Extension]:
        """The extension ``oid`` names, or None when there is none."""
        try:
            return self._raw.extensions.get_extension_for_oid(oid)
        except x509.ExtensionNotFound:
            return None

    def _signed_by(self, issuer: "Certificate") -> bool:
        """True when the signature verifies under ``issuer``'s key, which must
        be on the suite menu, and the authorityKeyIdentifier, if any, names
        that key (RFC 5280 §4.2.1.1), as OpenSSL requires. A verify under a
        key off the menu may cost what a signature does, so none is run."""
        try:
            # The object ends with its signature BIT STRING, whose first
            # content octet counts unused bits. OpenSSL refuses any, and so
            # does this PKI, though cryptography verifies the bytes anyway.
            if self.to_der()[-len(self._raw.signature) - 1] != 0:
                return False
            named = self._extension(ExtensionOID.AUTHORITY_KEY_IDENTIFIER)
            if named is not None and named.value.key_identifier != issuer.key_identifier:
                return False
            AlgorithmSuite.of_key(issuer.public_key)
            return self._verifies_under(issuer)
        except Exception:
            return False

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.to_der() == other.to_der()

    def __hash__(self) -> int:
        return hash(self.to_der())


class _Subject(_Wrapper):
    """A CSR or a certificate: a subject, its public key, and the document
    binding if there is one."""

    @property
    def subject_text(self) -> str:
        """The subject as RFC 4514 text, which any name has, CN or not."""
        return self._raw.subject.rfc4514_string()

    @property
    def public_key(self) -> PublicKey:
        return self._raw.public_key()

    @property
    def binding(self) -> Optional[OtcExtension]:
        ext = self._extension(OTC_EXTENSION_OID)
        # cryptography has no parser for this OID, so the value is always an
        # UnrecognizedExtension holding the raw payload.
        return None if ext is None else OtcExtension.from_payload(ext.value.value,
                                                                  critical=ext.critical)


class SigningRequest(_Subject):
    """A certification request binding a public key, a subject, and (for
    the one-time flow) a document digest, self-signed as proof of
    possession."""


# What a certificate without a BasicConstraints extension asserts.
_NOT_A_CA = x509.BasicConstraints(ca=False, path_length=None)


class Certificate(_Subject):
    """A parsed certificate with the fields this PKI cares about."""

    @property
    def serial(self) -> int:
        return self._raw.serial_number

    @functools.cached_property
    def key_identifier(self) -> bytes:
        """The SHA-1 of the subjectPublicKey, the identifier by which this
        PKI's CAs name their keys (RFC 5280 §4.2.1.2)."""
        return x509.SubjectKeyIdentifier.from_public_key(self.public_key).digest

    @property
    def not_before(self) -> datetime:
        return self._raw.not_valid_before_utc

    @property
    def not_after(self) -> datetime:
        return self._raw.not_valid_after_utc

    @property
    def _basic_constraints(self) -> x509.BasicConstraints:
        ext = self._extension(ExtensionOID.BASIC_CONSTRAINTS)
        return _NOT_A_CA if ext is None else ext.value

    @property
    def is_ca(self) -> bool:
        return self._basic_constraints.ca

    @property
    def path_length(self) -> Optional[int]:
        return self._basic_constraints.path_length

    def asserts_key_usage(self, purpose: str) -> bool:
        """Whether a keyUsage extension asserts ``purpose``, an
        ``x509.KeyUsage`` attribute such as ``"key_cert_sign"``. RFC 5280
        §4.2.1.3 makes keyUsage a MUST for a CA, so its absence asserts none."""
        usage = self._extension(ExtensionOID.KEY_USAGE)
        return usage is not None and getattr(usage.value, purpose)

    @property
    def is_self_issued(self) -> bool:
        """Subject and issuer names are the same (RFC 5280 §3.2)."""
        return self._raw.subject == self._raw.issuer

    @property
    def is_self_signed(self) -> bool:
        return self.is_self_issued and self.verify_signed_by(self)

    verify_signed_by = _Wrapper._signed_by

    def _verifies_under(self, issuer: "Certificate") -> bool:
        # cryptography checks that the names line up, then the signature.
        self._raw.verify_directly_issued_by(issuer._raw)
        return True

    def __repr__(self) -> str:
        return f"<Certificate {self.subject_text} serial={self.serial:x}>"


class RevocationList(_Wrapper):
    """A parsed CRL. This PKI only ever publishes blank ones; non-blank
    input still parses so a verifier can inspect and reject it."""

    @property
    def last_update(self) -> datetime:
        """thisUpdate: the instant from which the list is in force."""
        return self._raw.last_update_utc

    @property
    def next_update(self) -> Optional[datetime]:
        return self._raw.next_update_utc

    @property
    def revoked_serials(self) -> tuple:
        return tuple(entry.serial_number for entry in self._raw)

    @property
    def is_blank(self) -> bool:
        return len(self._raw) == 0

    def names_key_of(self, issuer: Certificate) -> bool:
        """The authorityKeyIdentifier names ``issuer``'s key as this PKI's
        CAs write it (RFC 5280 §4.2.1.1); False when it names none. Reading
        the extension may raise one of ``LAZY_READ_ERRORS``."""
        named = self._extension(ExtensionOID.AUTHORITY_KEY_IDENTIFIER)
        return named is not None and named.value.key_identifier == issuer.key_identifier

    is_signed_by = _Wrapper._signed_by

    def _verifies_under(self, issuer: Certificate) -> bool:
        return self._raw.is_signature_valid(issuer.public_key)


# The extensions a path check processes. A certificate with any other
# critical extension must be refused (RFC 5280 §6.1.4 (o) and §6.1.5 (f)).
_PROCESSED_EXTENSIONS = frozenset(
    (ExtensionOID.BASIC_CONSTRAINTS, ExtensionOID.KEY_USAGE, OTC_EXTENSION_OID))


def _extension_failure(certificate: Certificate) -> Optional[str]:
    """Why a path check refuses the certificate's extensions, or None: a
    critical extension it does not process, or name constraints on a CA
    (RFC 5280 §4.2.1.10), critical or not. This PKI never issues name
    constraints, so it refuses them rather than process them."""
    for extension in certificate.raw.extensions:
        if extension.oid == ExtensionOID.NAME_CONSTRAINTS and certificate.is_ca:
            return f"{certificate.subject_text} carries nameConstraints"
        if extension.critical and extension.oid not in _PROCESSED_EXTENSIONS:
            return (f"{certificate.subject_text} carries the critical extension"
                    f" {extension.oid.dotted_string}, which is not processed")
    return None


def _path_failure(certificates: tuple) -> Optional[str]:
    """Why the links from the first certificate up to a self-signed root
    fail RFC 5280 §6.1, or None. Each issuer must be a CA, pass
    ``_extension_failure``, assert keyCertSign in a keyUsage extension, have
    no more CA certificates below it than its pathLenConstraint allows, and
    sign the certificate below it. A first certificate that is a CA, as in a
    CA's own chain, is an issuer too."""
    for depth, (child, issuer) in enumerate(zip((None, *certificates), certificates)):
        if child is None and not issuer.is_ca:
            continue  # a leaf
        if not issuer.is_ca:
            return f"{issuer.subject_text} is not a CA certificate"
        failure = _extension_failure(issuer)
        if failure is not None:
            return failure
        if not issuer.asserts_key_usage("key_cert_sign"):
            return f"{issuer.subject_text} keyUsage does not assert keyCertSign"
        # depth certificates sit below issuer; only the CA certificates that
        # are not self-issued count against the constraint.
        limit = issuer.path_length
        if limit is not None and depth > limit:
            below = sum(cert.is_ca and not cert.is_self_issued for cert in certificates[:depth])
            if below > limit:
                return (f"{issuer.subject_text} pathLenConstraint {limit}"
                        f" exceeded by {below} CA certificates below it")
        if child is not None and not child.verify_signed_by(issuer):
            return f"{child.subject_text} is not signed by {issuer.subject_text}"
    if not certificates[-1].is_self_signed:
        return "chain does not end in a self-signed root"
    return None


@dataclass(frozen=True)
class CertificationChain:
    """Certificates ordered leaf first, root last."""

    certificates: tuple

    def __post_init__(self):
        object.__setattr__(self, "certificates", tuple(self.certificates))
        if not self.certificates:
            raise MalformedEncodingError("a chain needs at least one certificate")

    def __len__(self) -> int:
        return len(self.certificates)

    def __getitem__(self, index):
        return self.certificates[index]

    def __iter__(self):
        return iter(self.certificates)

    @property
    def leaf(self) -> Certificate:
        return self.certificates[0]

    @property
    def root(self) -> Certificate:
        return self.certificates[-1]

    @property
    def issuing_ca(self) -> Certificate:
        """The certificate that issued the leaf: the next one, or the leaf
        itself in a chain of one."""
        return self.certificates[1] if len(self.certificates) > 1 else self.leaf

    def not_after_values(self) -> tuple:
        return tuple(cert.not_after for cert in self.certificates)

    def has_uniform_not_after(self) -> bool:
        return len({cert.not_after for cert in self.certificates}) == 1

    def links_verify(self) -> bool:
        """The chain is an RFC 5280 path: ``_path_failure`` finds no fault."""
        return _path_failure(self.certificates) is None

    def to_pem(self) -> bytes:
        return b"".join(cert.to_pem() for cert in self.certificates)

    @classmethod
    def from_pem(cls, data: bytes) -> "CertificationChain":
        """The certificates in a PEM blob, in order of appearance. Leaves
        are new each time while the CA certificates after them repeat, so
        when the blob opens with a certificate block, the certificates after
        that block come from the memo, keyed by their exact PEM bytes when
        those are at most ``_MEMO_KEY_BYTES``. A blob of more than
        ``_MAX_CHAIN_BLOCKS`` PEM blocks raises
        :class:`MalformedEncodingError` before any block is parsed."""
        blocks = data.count(b"-----BEGIN")
        if blocks > _MAX_CHAIN_BLOCKS:
            raise MalformedEncodingError(f"a chain of {blocks} PEM blocks; at most"
                                         f" {_MAX_CHAIN_BLOCKS} are read")
        leaf = _LEAF_BLOCK.match(data)
        if leaf is not None and len(data) - leaf.end() <= _MEMO_KEY_BYTES:
            try:
                return cls(load_certificates(leaf.group())
                           + _remembered_decode(bytes(data[leaf.end():]), CertificationChain))
            except MalformedEncodingError:
                pass  # a tail with no certificate, say: the whole blob decides
        return cls(load_certificates(data))


# Most PEM blocks a chain is read from. The hierarchy makes chains of 4
# certificates, and an /enroll reply follows them with one CRL. A longer chain
# is refused as it is loaded, so that neither its parsing nor the memo of its
# decoded certificates grows with a length that only a hostile chain has.
_MAX_CHAIN_BLOCKS = 8

# A certificate block as cryptography writes it, opening a PEM blob. A PEM
# parser reads whatever follows such a block as it would read it alone.
_LEAF_BLOCK = re.compile(
    rb"-----BEGIN CERTIFICATE-----\n[A-Za-z0-9+/=\n]*-----END CERTIFICATE-----\n")


def load_certificates(pem: bytes) -> tuple:
    """Every certificate in a PEM blob, in order of appearance."""
    try:
        raw_certs = x509.load_pem_x509_certificates(pem)
    except ValueError as exc:
        raise MalformedEncodingError(f"cannot parse certificate PEM: {exc}") from exc
    return tuple(Certificate(raw) for raw in raw_certs)


# ---------------------------------------------------------------------------
# CSR construction and proof of possession
# ---------------------------------------------------------------------------

def build_csr(
    keypair: EphemeralKeyPair,
    subject: DistinguishedName,
    digest: DocumentDigest,
) -> SigningRequest:
    """Build a self-signed request carrying the document binding as a
    non-critical extension.

    The self-signature is the proof of possession: it can only exist if the
    requester holds the private key at request time. A destroyed key raises
    :class:`KeyDestroyedError`.
    """
    builder = (
        x509.CertificateSigningRequestBuilder()
        .subject_name(subject.name)
        .add_extension(OtcExtension(digest).to_x509(), critical=False)
    )
    return SigningRequest(keypair.sign_builder(builder))


def verify_csr_pop(csr: SigningRequest) -> bool:
    """Proof-of-possession check: the request signature must verify under
    the public key inside the request."""
    try:
        return csr.raw.is_signature_valid
    except Exception:
        return False


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

# Media type of every PEM body the enrollment service and its clients exchange.
PEM_CONTENT_TYPE = "application/x-pem-file"


_T = TypeVar("_T", SigningRequest, Certificate, RevocationList)

_LOADERS = {
    SigningRequest: (x509.load_pem_x509_csr, "CSR"),
    Certificate: (x509.load_pem_x509_certificate, "certificate"),
    RevocationList: (x509.load_pem_x509_crl, "CRL"),
}


def decode_crl(data: bytes) -> RevocationList:
    """``decode(data, RevocationList)``, from the memo when these exact bytes
    were decoded before: an issuer's blank CRL rides in every bundle it
    signs for. Bytes over ``_MEMO_KEY_BYTES`` are not remembered."""
    if len(data) > _MEMO_KEY_BYTES:
        return decode(data, RevocationList)
    return _remembered_decode(bytes(data), RevocationList)


def decode(data: bytes, kind: Type[_T]) -> _T:
    """Parse PEM bytes as the requested kind; DER is not read. Bytes that do
    not parse as that kind, another kind's PEM among them, raise
    :class:`MalformedEncodingError` with cryptography's reason, which names
    the kind it expected."""
    loader, kind_name = _LOADERS[kind]
    try:
        return kind(loader(data))
    except Exception as exc:
        raise MalformedEncodingError(f"cannot parse {kind_name}: {exc}") from exc
