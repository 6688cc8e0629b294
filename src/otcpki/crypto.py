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


class AlgorithmSuite(enum.Enum):
    """The menu of key types, each paired with its conventional hash
    strength. A member's key parameter is an RSA modulus size or an EC
    curve; the menu has exactly these four members."""

    RSA_2048 = ("rsa-2048", DigestAlgorithm.SHA256, 2048)
    RSA_3072 = ("rsa-3072", DigestAlgorithm.SHA256, 3072)
    ECDSA_P256 = ("ecdsa-p256", DigestAlgorithm.SHA256, ec.SECP256R1)
    ECDSA_P384 = ("ecdsa-p384", DigestAlgorithm.SHA384, ec.SECP384R1)

    def __init__(self, label: str, digest: DigestAlgorithm, key_parameter):
        self.label = label
        self.digest = digest
        self.key_parameter = key_parameter

    @classmethod
    def from_label(cls, label: str) -> "AlgorithmSuite":
        try:
            return SUITES[label]
        except KeyError:
            raise UnsupportedSuiteError(
                f"unknown suite {label!r}; choose from {', '.join(sorted(SUITES))}"
            ) from None

    @classmethod
    def of_key(cls, public_key: PublicKey) -> "AlgorithmSuite":
        """The suite whose keys ``public_key`` is one of. Raises
        :class:`UnsupportedSuiteError` for a key off the menu."""
        if isinstance(public_key, rsa.RSAPublicKey):
            parameter = public_key.key_size
        elif isinstance(public_key, ec.EllipticCurvePublicKey):
            parameter = type(public_key.curve)
        else:
            parameter = None
        try:
            return _SUITE_OF_KEY_PARAMETER[parameter]
        except KeyError:
            shown = f" ({getattr(parameter, 'name', parameter)})" if parameter else ""
            raise UnsupportedSuiteError(
                f"unsupported key {type(public_key).__name__}{shown};"
                f" choose from {', '.join(sorted(SUITES))}"
            ) from None


SUITES = {suite.label: suite for suite in AlgorithmSuite}
_SUITE_OF_KEY_PARAMETER = {suite.key_parameter: suite for suite in AlgorithmSuite}

DEFAULT_SUITE = AlgorithmSuite.ECDSA_P256


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

    @classmethod
    def generate(cls, suite: AlgorithmSuite = DEFAULT_SUITE) -> "EphemeralKeyPair":
        parameter = suite.key_parameter
        if isinstance(parameter, int):
            return cls(suite, rsa.generate_private_key(public_exponent=65537, key_size=parameter))
        return cls(suite, ec.generate_private_key(parameter()))

    @property
    def suite(self) -> AlgorithmSuite:
        return self._suite

    @property
    def state(self) -> KeyState:
        return KeyState.LIVE if self.is_live else KeyState.DESTROYED

    @property
    def is_live(self) -> bool:
        return self._private_key is not None

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
        return key.sign(digest.value, *_scheme(key, digest.algorithm))

    def sign_builder(self, builder):
        """Sign an X.509 certificate, CSR or CRL builder with the suite's
        hash. Raises :class:`KeyDestroyedError` if the key is destroyed."""
        return builder.sign(self._signing_key(), self._suite.digest.hash_primitive())

    def export_private_pem(self, passphrase: bytes) -> bytes:
        """Serialize the private key, encrypted, for a kept key or a CA's
        key on disk; the one-shot path never calls this."""
        if not passphrase:
            raise ValueError("a non-empty passphrase is required")
        return self._signing_key().private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.BestAvailableEncryption(passphrase),
        )

    def destroy(self) -> str:
        """Destroy the private key. Idempotent; reports which case ran."""
        if self._private_key is None:
            return "already-destroyed"
        self._private_key = None
        return "destroyed"


def _scheme(key: Union[PrivateKey, PublicKey], algorithm: DigestAlgorithm) -> tuple:
    """The arguments after the data that ``sign`` and ``verify`` take to
    sign or check a digest of ``algorithm`` under ``key``, in prehashed
    mode."""
    prehashed = utils.Prehashed(algorithm.hash_primitive())
    if isinstance(key, (rsa.RSAPrivateKey, rsa.RSAPublicKey)):
        return padding.PKCS1v15(), prehashed
    return (ec.ECDSA(prehashed),)


def verify_signature(public_key: PublicKey, digest: DocumentDigest, signature: bytes) -> bool:
    """Check a signature over a digest. Returns False for every failure
    cause; diagnostic detail goes to debug logging only."""
    if not isinstance(public_key, (rsa.RSAPublicKey, ec.EllipticCurvePublicKey)):
        LOGGER.debug("verify: unsupported key type %s", type(public_key).__name__)
        return False
    try:
        public_key.verify(signature, digest.value, *_scheme(public_key, digest.algorithm))
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
