"""X.509 object model: the digest-binding extension, names, CSRs,
certificates, CRLs, chains, and the DER/PEM codec.

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

import re
import threading
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Type, TypeVar

from cryptography import x509
from cryptography.hazmat.primitives import serialization

from .crypto import (
    DigestAlgorithm,
    DocumentDigest,
    EphemeralKeyPair,
    PublicKey,
)
from .errors import (
    InvalidNameError,
    KindMismatchError,
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

# Entries in each bounded memo: the decoded CA certificates and CRLs below,
# and the verifier's passed checks.
MEMO_LIMIT = 1024


class BoundedMemo:
    """A map shared between threads that holds at most ``MEMO_LIMIT``
    entries; adding one more drops the oldest."""

    def __init__(self):
        self._entries: dict = {}
        self._lock = threading.Lock()

    def get(self, key):
        return self._entries.get(key)

    def put(self, key, value=None) -> None:
        with self._lock:
            if len(self._entries) >= MEMO_LIMIT:
                del self._entries[next(iter(self._entries))]
            self._entries[key] = value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)


# Decoded objects by exact PEM bytes: (CertificationChain, the PEM after a
# chain's leaf block) -> its certificates, (RevocationList, PEM) -> the CRL.
_decoded = BoundedMemo()


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

    @property
    def oid(self) -> x509.ObjectIdentifier:
        return OTC_EXTENSION_OID

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


def _extract_binding(extensions: x509.Extensions) -> Optional[OtcExtension]:
    """Pull the binding out of a parsed extension set, or None."""
    try:
        ext = extensions.get_extension_for_oid(OTC_EXTENSION_OID)
    except x509.ExtensionNotFound:
        return None
    # cryptography has no parser for this OID, so the value is always an
    # UnrecognizedExtension holding the raw payload.
    return OtcExtension.from_payload(ext.value.value, critical=ext.critical)


# ---------------------------------------------------------------------------
# Names
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistinguishedName:
    """An ordered set of (dotted OID, value) attributes; CN is mandatory."""

    attributes: tuple  # of (str, str)

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(tuple(a) for a in self.attributes))
        if not self.common_name:
            raise InvalidNameError("a non-empty common name (2.5.4.3) is required")

    @property
    def common_name(self) -> str:
        for oid, value in self.attributes:
            if oid == x509.NameOID.COMMON_NAME.dotted_string:
                return value
        return ""

    @classmethod
    def from_common_name(cls, common_name: str) -> "DistinguishedName":
        return cls(((x509.NameOID.COMMON_NAME.dotted_string, common_name),))

    def to_x509(self) -> x509.Name:
        return x509.Name(
            [x509.NameAttribute(x509.ObjectIdentifier(oid), value) for oid, value in self.attributes]
        )

    @classmethod
    def from_x509(cls, name: x509.Name) -> "DistinguishedName":
        attrs = []
        for rdn in name.rdns:
            for attr in rdn:
                attrs.append((attr.oid.dotted_string, attr.value))
        return cls(tuple(attrs))

    @classmethod
    def from_string(cls, text: str) -> "DistinguishedName":
        """Parse an RFC 4514 string such as ``CN=Alice,O=Example``."""
        try:
            return cls.from_x509(x509.Name.from_rfc4514_string(text))
        except (ValueError, TypeError) as exc:
            raise InvalidNameError(f"cannot parse name {text!r}: {exc}") from exc

    def __str__(self) -> str:
        return self.to_x509().rfc4514_string()


# ---------------------------------------------------------------------------
# Wrappers over parsed X.509 objects
# ---------------------------------------------------------------------------

def _claims_unused_bits(der: bytes, signature: bytes) -> bool:
    """A certificate or CRL ends with its signature BIT STRING, whose first
    content octet counts the unused bits of the last. cryptography verifies
    the signature bytes whatever that count says; OpenSSL refuses a
    signature that leaves any bit unused, and so does this PKI."""
    return der[-len(signature) - 1] != 0


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

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.to_der() == other.to_der()

    def __hash__(self) -> int:
        return hash(self.to_der())


class _Subject(_Wrapper):
    """A CSR or a certificate: a subject, its public key, and the document
    binding if there is one."""

    @property
    def subject(self) -> DistinguishedName:
        return DistinguishedName.from_x509(self._raw.subject)

    @property
    def public_key(self) -> PublicKey:
        return self._raw.public_key()

    def public_der(self) -> bytes:
        """The public key as DER SubjectPublicKeyInfo."""
        return self.public_key.public_bytes(serialization.Encoding.DER,
                                            serialization.PublicFormat.SubjectPublicKeyInfo)

    @property
    def binding(self) -> Optional[OtcExtension]:
        return _extract_binding(self._raw.extensions)


class SigningRequest(_Subject):
    """A certification request binding a public key, a subject, and (for
    the one-time flow) a document digest, self-signed as proof of
    possession."""

    @property
    def is_signature_valid(self) -> bool:
        try:
            return self._raw.is_signature_valid
        except Exception:
            return False


# What a certificate without a BasicConstraints extension asserts.
_NOT_A_CA = x509.BasicConstraints(ca=False, path_length=None)


class Certificate(_Subject):
    """A parsed certificate with the fields this PKI cares about."""

    @property
    def serial(self) -> int:
        return self._raw.serial_number

    @property
    def issuer(self) -> DistinguishedName:
        return DistinguishedName.from_x509(self._raw.issuer)

    @property
    def not_before(self) -> datetime:
        return self._raw.not_valid_before_utc

    @property
    def not_after(self) -> datetime:
        return self._raw.not_valid_after_utc

    @property
    def _basic_constraints(self) -> x509.BasicConstraints:
        try:
            return self._raw.extensions.get_extension_for_class(x509.BasicConstraints).value
        except x509.ExtensionNotFound:
            return _NOT_A_CA

    @property
    def is_ca(self) -> bool:
        return self._basic_constraints.ca

    @property
    def path_length(self) -> Optional[int]:
        return self._basic_constraints.path_length

    @property
    def may_sign_certificates(self) -> bool:
        """False when a keyUsage extension is present without keyCertSign
        (RFC 5280 §4.2.1.3)."""
        try:
            usage = self._raw.extensions.get_extension_for_class(x509.KeyUsage)
        except x509.ExtensionNotFound:
            return True
        return usage.value.key_cert_sign

    @property
    def is_self_issued(self) -> bool:
        """Subject and issuer names are the same (RFC 5280 §3.2)."""
        return self._raw.subject == self._raw.issuer

    @property
    def is_self_signed(self) -> bool:
        return self.is_self_issued and self.verify_signed_by(self)

    def verify_signed_by(self, issuer: "Certificate") -> bool:
        """True when this certificate's signature verifies under the given
        issuer certificate and the names line up."""
        try:
            if _claims_unused_bits(self.to_der(), self._raw.signature):
                return False
            self._raw.verify_directly_issued_by(issuer._raw)
            return True
        except Exception:
            return False

    def __repr__(self) -> str:
        return f"<Certificate {self._raw.subject.rfc4514_string()} serial={self.serial:x}>"


class RevocationList(_Wrapper):
    """A parsed CRL. This PKI only ever publishes blank ones; non-blank
    input still parses so a verifier can inspect and reject it."""

    @property
    def issuer(self) -> DistinguishedName:
        return DistinguishedName.from_x509(self._raw.issuer)

    @property
    def next_update(self) -> Optional[datetime]:
        return self._raw.next_update_utc

    @property
    def revoked_serials(self) -> tuple:
        return tuple(entry.serial_number for entry in self._raw)

    @property
    def is_blank(self) -> bool:
        return len(self._raw) == 0

    def is_signed_by(self, issuer: Certificate) -> bool:
        try:
            if _claims_unused_bits(self.to_der(), self._raw.signature):
                return False
            return self._raw.is_signature_valid(issuer.public_key)
        except Exception:
            return False


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
    def issuing_ca(self) -> Optional[Certificate]:
        return self.certificates[1] if len(self.certificates) > 1 else None

    def not_after_values(self) -> tuple:
        return tuple(cert.not_after for cert in self.certificates)

    def has_uniform_not_after(self) -> bool:
        return len({cert.not_after for cert in self.certificates}) == 1

    def links_verify(self) -> bool:
        """Each certificate signed by its successor, and the root by itself."""
        for child, parent in zip(self.certificates, self.certificates[1:]):
            if not child.verify_signed_by(parent):
                return False
        return self.root.is_self_signed

    def to_pem(self) -> bytes:
        return b"".join(cert.to_pem() for cert in self.certificates)

    @classmethod
    def from_pem(cls, data: bytes) -> "CertificationChain":
        """The certificates in a PEM blob, in order of appearance. Leaves
        are new each time while the CA certificates after them repeat, so
        when the blob opens with a certificate block, the certificates after
        that block come from the memo, keyed by their exact PEM bytes."""
        leaf = _LEAF_BLOCK.match(data)
        if leaf is None:
            return cls(load_certificates(data))
        key = (CertificationChain, bytes(data[leaf.end():]))
        above = _decoded.get(key)
        if above is None:
            certificates = load_certificates(data)
            _decoded.put(key, certificates[1:])
            return cls(certificates)
        return cls(load_certificates(leaf.group()) + above)


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
        .subject_name(subject.to_x509())
        .add_extension(OtcExtension(digest).to_x509(), critical=False)
    )
    return SigningRequest(keypair.sign_builder(builder))


def verify_csr_pop(csr: SigningRequest) -> bool:
    """Proof-of-possession check: the request signature must verify under
    the public key inside the request."""
    return csr.is_signature_valid


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

# Media type of every PEM body the enrollment service and its clients exchange.
PEM_CONTENT_TYPE = "application/x-pem-file"


_T = TypeVar("_T", SigningRequest, Certificate, RevocationList)

_LOADERS = {
    SigningRequest: (x509.load_der_x509_csr, x509.load_pem_x509_csr, "CSR"),
    Certificate: (x509.load_der_x509_certificate, x509.load_pem_x509_certificate, "certificate"),
    RevocationList: (x509.load_der_x509_crl, x509.load_pem_x509_crl, "CRL"),
}


def decode_crl(data: bytes) -> RevocationList:
    """``decode(data, RevocationList)``, from the memo when these exact bytes
    were decoded before: an issuer's blank CRL rides in every bundle it
    signs for."""
    key = (RevocationList, bytes(data))
    crl = _decoded.get(key)
    if crl is None:
        crl = decode(data, RevocationList)
        _decoded.put(key, crl)
    return crl


def decode(data: bytes, kind: Type[_T]) -> _T:
    """Parse DER or PEM bytes as the requested kind.

    Raises :class:`KindMismatchError` when the bytes are a valid X.509
    object of a different kind, and :class:`MalformedEncodingError` (with
    the parser's offset detail where available) otherwise.
    """
    if kind not in _LOADERS:
        raise TypeError(f"cannot decode into {kind!r}")
    der_loader, pem_loader, kind_name = _LOADERS[kind]
    is_pem = b"-----BEGIN" in data[:1024]
    loader = pem_loader if is_pem else der_loader
    try:
        return kind(loader(data))
    except Exception as exc:
        # Distinguish "wrong kind" from "not parseable at all".
        for other_kind, (other_der, other_pem, other_name) in _LOADERS.items():
            if other_kind is kind:
                continue
            try:
                (other_pem if is_pem else other_der)(data)
            except Exception:
                continue
            raise KindMismatchError(
                f"expected a {kind_name}, found a {other_name}"
            ) from None
        raise MalformedEncodingError(f"cannot parse {kind_name}: {exc}") from exc
