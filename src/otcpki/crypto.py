"""Key generation, document digesting, and one-shot signing primitives.

The central object is :class:`EphemeralKeyPair`: a keypair created for a
single signature and then destroyed. Destruction drops the only reference to
the private key object, after which no code path in this package can reach
it again; the public half stays readable so verification keeps working.

Signing operates on precomputed digests (the document itself may be huge and
is hashed in a streaming pass), so the signature schemes run in prehashed
mode: ECDSA over the named curve, or RSA PKCS#1 v1.5.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import secrets
from dataclasses import dataclass
from typing import BinaryIO, Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes, serialization
from cryptography.hazmat.primitives.asymmetric import ec, padding, rsa, utils

from .errors import DigestMismatchError, KeyDestroyedError, UnsupportedSuiteError

__all__ = [
    "DigestAlgorithm",
    "SignatureAlgorithm",
    "AlgorithmSuite",
    "DEFAULT_SUITE",
    "SUITES",
    "DocumentDigest",
    "EphemeralKeyPair",
    "KeyState",
    "digest_document",
    "verify_signature",
]

LOGGER = logging.getLogger(__name__)

_CHUNK_SIZE = 1 << 20

PublicKey = Union[rsa.RSAPublicKey, ec.EllipticCurvePublicKey]
PrivateKey = Union[rsa.RSAPrivateKey, ec.EllipticCurvePrivateKey]


class DigestAlgorithm(enum.Enum):
    """Hash functions a certificate may bind a document with."""

    SHA256 = "sha-256"
    SHA384 = "sha-384"

    @property
    def digest_length(self) -> int:
        return {DigestAlgorithm.SHA256: 32, DigestAlgorithm.SHA384: 48}[self]

    def new_hasher(self):
        return hashlib.new(self.value.replace("-", ""))

    def hash_primitive(self) -> hashes.HashAlgorithm:
        if self is DigestAlgorithm.SHA256:
            return hashes.SHA256()
        return hashes.SHA384()


class SignatureAlgorithm(enum.Enum):
    """Key types on the supported menu."""

    RSA_2048 = "rsa-2048"
    RSA_3072 = "rsa-3072"
    ECDSA_P256 = "ecdsa-p256"
    ECDSA_P384 = "ecdsa-p384"

    @property
    def is_rsa(self) -> bool:
        return self in (SignatureAlgorithm.RSA_2048, SignatureAlgorithm.RSA_3072)


@dataclass(frozen=True)
class AlgorithmSuite:
    """A (signature algorithm, digest algorithm) pairing."""

    signature: SignatureAlgorithm
    digest: DigestAlgorithm

    @property
    def label(self) -> str:
        return self.signature.value

    @classmethod
    def from_label(cls, label: str) -> "AlgorithmSuite":
        try:
            return SUITES[label]
        except KeyError:
            raise UnsupportedSuiteError(
                f"unknown suite {label!r}; choose from {', '.join(sorted(SUITES))}"
            ) from None


# Each key type is paired with its conventional hash strength.
SUITES = {
    "rsa-2048": AlgorithmSuite(SignatureAlgorithm.RSA_2048, DigestAlgorithm.SHA256),
    "rsa-3072": AlgorithmSuite(SignatureAlgorithm.RSA_3072, DigestAlgorithm.SHA256),
    "ecdsa-p256": AlgorithmSuite(SignatureAlgorithm.ECDSA_P256, DigestAlgorithm.SHA256),
    "ecdsa-p384": AlgorithmSuite(SignatureAlgorithm.ECDSA_P384, DigestAlgorithm.SHA384),
}

DEFAULT_SUITE = SUITES["ecdsa-p256"]


@dataclass(frozen=True)
class DocumentDigest:
    """A hash value tagged with the algorithm that produced it."""

    algorithm: DigestAlgorithm
    value: bytes

    def __post_init__(self):
        expected = self.algorithm.digest_length
        if len(self.value) != expected:
            raise DigestMismatchError(
                f"{self.algorithm.value} digest must be {expected} bytes,"
                f" got {len(self.value)}"
            )

    def hex(self) -> str:
        return self.value.hex()

    @classmethod
    def from_hex(cls, algorithm: DigestAlgorithm, hex_value: str) -> "DocumentDigest":
        try:
            raw = bytes.fromhex(hex_value)
        except ValueError:
            raise DigestMismatchError(f"not a hex digest: {hex_value!r}") from None
        return cls(algorithm, raw)


def digest_document(
    source: Union[bytes, bytearray, memoryview, BinaryIO],
    algorithm: DigestAlgorithm = DigestAlgorithm.SHA256,
) -> DocumentDigest:
    """Hash a document given as bytes or as a readable binary stream.

    Streams are consumed in fixed-size chunks so arbitrarily large inputs
    never have to fit in memory. I/O errors from the stream propagate.
    """
    hasher = algorithm.new_hasher()
    if isinstance(source, (bytes, bytearray, memoryview)):
        hasher.update(source)
    else:
        while True:
            chunk = source.read(_CHUNK_SIZE)
            if not chunk:
                break
            hasher.update(chunk)
    return DocumentDigest(algorithm, hasher.digest())


class KeyState(enum.Enum):
    LIVE = "live"
    DESTROYED = "destroyed"


class EphemeralKeyPair:
    """A keypair meant to sign exactly once and then be destroyed.

    ``destroy()`` drops the only reference to the private-key object; the
    bindings free the underlying key material once it is unreferenced. After
    that, every private-key operation raises :class:`KeyDestroyedError`,
    while the public key remains available for verification.
    """

    def __init__(self, suite: AlgorithmSuite, private_key: PrivateKey):
        self._suite = suite
        self._private_key: PrivateKey | None = private_key
        self._public_key: PublicKey = private_key.public_key()
        self._state = KeyState.LIVE

    @classmethod
    def generate(cls, suite: AlgorithmSuite = DEFAULT_SUITE) -> "EphemeralKeyPair":
        if suite not in SUITES.values():
            raise UnsupportedSuiteError(f"unsupported suite: {suite!r}")
        sig = suite.signature
        if sig is SignatureAlgorithm.RSA_2048:
            key: PrivateKey = rsa.generate_private_key(public_exponent=65537, key_size=2048)
        elif sig is SignatureAlgorithm.RSA_3072:
            key = rsa.generate_private_key(public_exponent=65537, key_size=3072)
        elif sig is SignatureAlgorithm.ECDSA_P256:
            key = ec.generate_private_key(ec.SECP256R1())
        else:
            key = ec.generate_private_key(ec.SECP384R1())
        return cls(suite, key)

    @property
    def suite(self) -> AlgorithmSuite:
        return self._suite

    @property
    def state(self) -> KeyState:
        return self._state

    @property
    def is_live(self) -> bool:
        return self._state is KeyState.LIVE

    @property
    def public_key(self) -> PublicKey:
        return self._public_key

    def public_der(self) -> bytes:
        """The public key as DER SubjectPublicKeyInfo."""
        return self._public_key.public_bytes(
            serialization.Encoding.DER,
            serialization.PublicFormat.SubjectPublicKeyInfo,
        )

    def _signing_key(self) -> PrivateKey:
        """Internal accessor; the only gate to the private key."""
        if self._private_key is None:
            raise KeyDestroyedError("private key has been destroyed")
        return self._private_key

    def sign_digest(self, digest: DocumentDigest) -> bytes:
        """Sign a precomputed digest. Raises if the key is destroyed or the
        digest algorithm disagrees with the suite."""
        if digest.algorithm is not self._suite.digest:
            raise DigestMismatchError(
                f"suite {self._suite.label} signs {self._suite.digest.value},"
                f" got a {digest.algorithm.value} digest"
            )
        key = self._signing_key()
        prehashed = utils.Prehashed(digest.algorithm.hash_primitive())
        if self._suite.signature.is_rsa:
            return key.sign(digest.value, padding.PKCS1v15(), prehashed)
        return key.sign(digest.value, ec.ECDSA(prehashed))

    def export_private_pem(self, passphrase: bytes) -> bytes:
        """Serialize the private key, encrypted. Only meaningful for the
        keep-key workflow; the one-shot path never calls this."""
        if not passphrase:
            raise ValueError("a non-empty passphrase is required")
        return self._signing_key().private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.BestAvailableEncryption(passphrase),
        )

    def destroy(self) -> str:
        """Destroy the private key. Idempotent; reports which case ran."""
        if self._state is KeyState.DESTROYED:
            return "already-destroyed"
        self._private_key = None
        self._state = KeyState.DESTROYED
        return "destroyed"


def _as_public_key(public_key: Union[PublicKey, bytes]) -> PublicKey:
    if isinstance(public_key, (bytes, bytearray)):
        loaded = serialization.load_der_public_key(bytes(public_key))
        if not isinstance(loaded, (rsa.RSAPublicKey, ec.EllipticCurvePublicKey)):
            raise UnsupportedSuiteError(f"unsupported key type: {type(loaded).__name__}")
        return loaded
    return public_key


def verify_signature(
    public_key: Union[PublicKey, bytes],
    digest: DocumentDigest,
    signature: bytes,
) -> bool:
    """Check a signature over a digest. Returns False for every failure
    cause; diagnostic detail goes to debug logging only."""
    try:
        key = _as_public_key(public_key)
        prehashed = utils.Prehashed(digest.algorithm.hash_primitive())
        if isinstance(key, rsa.RSAPublicKey):
            key.verify(signature, digest.value, padding.PKCS1v15(), prehashed)
        elif isinstance(key, ec.EllipticCurvePublicKey):
            key.verify(signature, digest.value, ec.ECDSA(prehashed))
        else:
            LOGGER.debug("verify: unsupported key type %s", type(key).__name__)
            return False
    except InvalidSignature:
        LOGGER.debug("verify: signature mismatch")
        return False
    except Exception as exc:  # malformed keys, garbage signatures, ...
        LOGGER.debug("verify: %s", exc)
        return False
    return True


def random_serial() -> int:
    """A fresh 159-bit random certificate serial.

    159 bits keeps the DER INTEGER encoding non-negative within the 20-octet
    ceiling certificates allow for serials. Uniqueness rests on the CSPRNG
    alone: after 10**7 draws the chance of any repeat is about 10**-34, so
    no record of earlier serials is kept (RFC 5280 §4.1.2.2 and the CA/B
    Forum Baseline Requirements §7.1 ask for at least 64 random bits).
    """
    while True:
        serial = secrets.randbits(159)
        if serial > 0:
            return serial
