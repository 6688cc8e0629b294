"""X.509 object model: the digest-binding extension, names, CSRs,
certificates, CRLs, chains, and the DER/PEM codec.

The extension payload is a small DER structure authored here rather than
delegated, because its exact byte layout is the contract that makes a
certificate a one-time certificate:

    OtcBinding ::= SEQUENCE {
        digestAlgorithm   AlgorithmIdentifier,   -- no parameters
        digestValue       OCTET STRING
    }

carried under a private-enterprise OID as a non-critical extension, so
standard validators ignore it while aware verifiers enforce it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from datetime import datetime
from typing import Optional, Type, TypeVar, Union

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
    "EncodingFormat",
    "PEM_CONTENT_TYPE",
    "build_csr",
    "verify_csr_pop",
    "encode",
    "decode",
    "load_certificates",
]

# Private-enterprise arc; nothing else in the certificate profile uses it.
OTC_EXTENSION_OID = x509.ObjectIdentifier("1.3.6.1.4.1.55555.1.1")

_TAG_SEQUENCE = 0x30
_TAG_OID = 0x06
_TAG_OCTET_STRING = 0x04

_DIGEST_OIDS = {
    DigestAlgorithm.SHA256: "2.16.840.1.101.3.4.2.1",
    DigestAlgorithm.SHA384: "2.16.840.1.101.3.4.2.2",
}
_DIGEST_BY_OID = {v: k for k, v in _DIGEST_OIDS.items()}


# ---------------------------------------------------------------------------
# Minimal DER encode/decode, enough for the binding payload
# ---------------------------------------------------------------------------

def _der_length(length: int) -> bytes:
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def _der_tlv(tag: int, content: bytes) -> bytes:
    return bytes([tag]) + _der_length(len(content)) + content


def _der_oid(dotted: str) -> bytes:
    arcs = [int(part) for part in dotted.split(".")]
    body = bytearray([arcs[0] * 40 + arcs[1]])
    for arc in arcs[2:]:
        chunk = bytearray([arc & 0x7F])
        arc >>= 7
        while arc:
            chunk.append(0x80 | (arc & 0x7F))
            arc >>= 7
        body.extend(reversed(chunk))
    return _der_tlv(_TAG_OID, bytes(body))


class _DerReader:
    """Strict cursor over a DER buffer; errors carry the byte offset."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    @property
    def offset(self) -> int:
        return self._pos

    def _fail(self, why: str):
        raise MalformedEncodingError(f"DER error at offset {self._pos}: {why}")

    def _take(self, count: int) -> bytes:
        if self._pos + count > len(self._data):
            self._fail(f"needed {count} more bytes")
        out = self._data[self._pos : self._pos + count]
        self._pos += count
        return out

    def read_tlv(self, expected_tag: int) -> bytes:
        start = self._pos
        tag = self._take(1)[0]
        if tag != expected_tag:
            self._pos = start
            self._fail(f"expected tag 0x{expected_tag:02x}, found 0x{tag:02x}")
        first = self._take(1)[0]
        if first < 0x80:
            length = first
        else:
            n = first & 0x7F
            if n == 0 or n > 4:
                self._fail("unsupported DER length form")
            raw = self._take(n)
            length = int.from_bytes(raw, "big")
            if length < 0x80 or raw[0] == 0:
                self._fail("non-minimal DER length")
        return self._take(length)

    def expect_end(self):
        if self._pos != len(self._data):
            self._fail(f"{len(self._data) - self._pos} trailing bytes")


def _decode_oid(body: bytes) -> str:
    if not body:
        raise MalformedEncodingError("empty OID body")
    arcs = [body[0] // 40, body[0] % 40]
    value = 0
    pending = False
    for byte in body[1:]:
        value = (value << 7) | (byte & 0x7F)
        pending = bool(byte & 0x80)
        if not pending:
            arcs.append(value)
            value = 0
    if pending:
        raise MalformedEncodingError("truncated OID arc")
    return ".".join(str(a) for a in arcs)


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
        alg_id = _der_tlv(_TAG_SEQUENCE, _der_oid(_DIGEST_OIDS[self.digest.algorithm]))
        value = _der_tlv(_TAG_OCTET_STRING, self.digest.value)
        return _der_tlv(_TAG_SEQUENCE, alg_id + value)

    @classmethod
    def from_payload(cls, data: bytes, critical: bool = False) -> "OtcExtension":
        """Decode a binding payload; rejects trailing garbage and any digest
        whose length disagrees with the declared algorithm."""
        outer = _DerReader(data)
        body = outer.read_tlv(_TAG_SEQUENCE)
        outer.expect_end()
        inner = _DerReader(body)
        alg_body = inner.read_tlv(_TAG_SEQUENCE)
        digest_value = inner.read_tlv(_TAG_OCTET_STRING)
        inner.expect_end()
        alg = _DerReader(alg_body)
        oid = _decode_oid(alg.read_tlv(_TAG_OID))
        alg.expect_end()  # AlgorithmIdentifier for these hashes has no params
        algorithm = _DIGEST_BY_OID.get(oid)
        if algorithm is None:
            raise MalformedEncodingError(f"unknown digest algorithm OID {oid}")
        if len(digest_value) != algorithm.digest_length:
            raise MalformedEncodingError(
                f"{algorithm.value} digest must be {algorithm.digest_length}"
                f" bytes, got {len(digest_value)}"
            )
        return cls(DocumentDigest(algorithm, digest_value), critical=critical)

    def to_x509(self) -> x509.UnrecognizedExtension:
        return x509.UnrecognizedExtension(OTC_EXTENSION_OID, self.payload())


def _extract_binding(extensions: x509.Extensions) -> Optional[OtcExtension]:
    """Pull the binding out of a parsed extension set, or None."""
    try:
        ext = extensions.get_extension_for_oid(OTC_EXTENSION_OID)
    except x509.ExtensionNotFound:
        return None
    value = ext.value
    payload = value.value if isinstance(value, x509.UnrecognizedExtension) else bytes(value.public_bytes())
    return OtcExtension.from_payload(payload, critical=ext.critical)


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

class SigningRequest:
    """A certification request binding a public key, a subject, and (for
    the one-time flow) a document digest, self-signed as proof of
    possession."""

    def __init__(self, raw: x509.CertificateSigningRequest):
        self._raw = raw

    @property
    def raw(self) -> x509.CertificateSigningRequest:
        return self._raw

    @property
    def subject(self) -> DistinguishedName:
        return DistinguishedName.from_x509(self._raw.subject)

    @property
    def public_key(self) -> PublicKey:
        return self._raw.public_key()

    @property
    def binding(self) -> Optional[OtcExtension]:
        return _extract_binding(self._raw.extensions)

    @property
    def is_signature_valid(self) -> bool:
        try:
            return self._raw.is_signature_valid
        except Exception:
            return False

    def to_der(self) -> bytes:
        return self._raw.public_bytes(serialization.Encoding.DER)

    def to_pem(self) -> bytes:
        return self._raw.public_bytes(serialization.Encoding.PEM)

    def __eq__(self, other) -> bool:
        return isinstance(other, SigningRequest) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self.to_der())


class Certificate:
    """A parsed certificate with the fields this PKI cares about."""

    def __init__(self, raw: x509.Certificate):
        self._raw = raw

    @property
    def raw(self) -> x509.Certificate:
        return self._raw

    @property
    def serial(self) -> int:
        return self._raw.serial_number

    @property
    def subject(self) -> DistinguishedName:
        return DistinguishedName.from_x509(self._raw.subject)

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
    def public_key(self) -> PublicKey:
        return self._raw.public_key()

    @property
    def binding(self) -> Optional[OtcExtension]:
        return _extract_binding(self._raw.extensions)

    @property
    def is_ca(self) -> bool:
        try:
            bc = self._raw.extensions.get_extension_for_class(x509.BasicConstraints)
        except x509.ExtensionNotFound:
            return False
        return bc.value.ca

    @property
    def path_length(self) -> Optional[int]:
        try:
            bc = self._raw.extensions.get_extension_for_class(x509.BasicConstraints)
        except x509.ExtensionNotFound:
            return None
        return bc.value.path_length

    @property
    def is_self_signed(self) -> bool:
        return self._raw.subject == self._raw.issuer and self.verify_signed_by(self)

    def verify_signed_by(self, issuer: "Certificate") -> bool:
        """True when this certificate's signature verifies under the given
        issuer certificate and the names line up."""
        try:
            self._raw.verify_directly_issued_by(issuer._raw)
            return True
        except Exception:
            return False

    def to_der(self) -> bytes:
        return self._raw.public_bytes(serialization.Encoding.DER)

    def to_pem(self) -> bytes:
        return self._raw.public_bytes(serialization.Encoding.PEM)

    def __eq__(self, other) -> bool:
        return isinstance(other, Certificate) and self._raw == other._raw

    def __hash__(self) -> int:
        return hash(self.to_der())

    def __repr__(self) -> str:
        return f"<Certificate {self.subject} serial={self.serial:x}>"


class RevocationList:
    """A parsed CRL. This PKI only ever publishes blank ones; non-blank
    input still parses so a verifier can inspect and reject it."""

    def __init__(self, raw: x509.CertificateRevocationList):
        self._raw = raw

    @property
    def raw(self) -> x509.CertificateRevocationList:
        return self._raw

    @property
    def issuer(self) -> DistinguishedName:
        return DistinguishedName.from_x509(self._raw.issuer)

    @property
    def this_update(self) -> datetime:
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

    def is_signed_by(self, issuer: Certificate) -> bool:
        try:
            return self._raw.is_signature_valid(issuer.public_key)
        except Exception:
            return False

    def to_der(self) -> bytes:
        return self._raw.public_bytes(serialization.Encoding.DER)

    def to_pem(self) -> bytes:
        return self._raw.public_bytes(serialization.Encoding.PEM)

    def __eq__(self, other) -> bool:
        return isinstance(other, RevocationList) and self.to_der() == other.to_der()

    def __hash__(self) -> int:
        return hash(self.to_der())


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
        return cls(load_certificates(data))


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
    *,
    critical: bool = False,
) -> SigningRequest:
    """Build a self-signed request carrying the document binding.

    The self-signature is the proof of possession: it can only exist if the
    requester holds the private key at request time.
    """
    binding = OtcExtension(digest, critical=critical)
    builder = (
        x509.CertificateSigningRequestBuilder()
        .subject_name(subject.to_x509())
        .add_extension(binding.to_x509(), critical=critical)
    )
    key = keypair._signing_key()  # raises KeyDestroyedError when destroyed
    return SigningRequest(builder.sign(key, keypair.suite.digest.hash_primitive()))


def verify_csr_pop(csr: SigningRequest) -> bool:
    """Proof-of-possession check: the request signature must verify under
    the public key inside the request."""
    return csr.is_signature_valid


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------

class EncodingFormat(enum.Enum):
    DER = "der"
    PEM = "pem"


# Media type of every PEM body the enrollment service and its clients exchange.
PEM_CONTENT_TYPE = "application/x-pem-file"


_T = TypeVar("_T", SigningRequest, Certificate, RevocationList)

_LOADERS = {
    SigningRequest: (x509.load_der_x509_csr, x509.load_pem_x509_csr, "CSR"),
    Certificate: (x509.load_der_x509_certificate, x509.load_pem_x509_certificate, "certificate"),
    RevocationList: (x509.load_der_x509_crl, x509.load_pem_x509_crl, "CRL"),
}


def encode(obj: Union[SigningRequest, Certificate, RevocationList],
           fmt: EncodingFormat = EncodingFormat.PEM) -> bytes:
    return obj.to_pem() if fmt is EncodingFormat.PEM else obj.to_der()


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
