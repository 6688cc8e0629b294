"""Shared fixtures.

Key generation dominates test runtime, so a small session-scoped hierarchy
is shared by everything that only reads from it; tests that retire CAs or
otherwise mutate state build their own.
"""

import contextlib
import math
import os
import stat
import sys
import threading
from datetime import datetime, timedelta, timezone

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import dsa, ec, ed25519, rsa
from hypothesis import settings
from hypothesis import strategies as st

from otcpki import ca, certmodel, verifier
from otcpki.ca import CaIdentity, CaPolicy, CaRole, create_subordinate, init_hierarchy
from otcpki.certmodel import Certificate, DistinguishedName, OtcExtension, SigningRequest
from otcpki.crypto import DEFAULT_SUITE, DocumentDigest, EphemeralKeyPair

# With CI set, Hypothesis loads its own derandomized "ci" profile, which
# prints the blob that replays a failure; a local run prints it too.
if "CI" not in os.environ:
    settings.register_profile("local", print_blob=True)
    settings.load_profile("local")

# A SHA-256 binding payload whose OID arc 840 is padded with a leading 0x80
# octet, which X.690 §8.19.2 forbids even in BER: a second encoding of the
# binding of bytes(range(32)).
PADDED_OID_PAYLOAD = (bytes.fromhex("3030300c060a608086480165030402010420")
                      + bytes(range(32)))


# Every memo in the package: certmodel's of decoded CA certificates and CRLs,
# and the verifier's of passed checks.
MEMOS = (certmodel._remembered_decode, verifier._remembered_pass)


def clear_memos():
    """Empty every memo, so that the next load decodes and the next verify
    checks as if nothing was seen before."""
    for memo in MEMOS:
        memo.cache_clear()


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record the first argument of each call to ``owner.name`` in the
    returned list; the call itself goes through."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def utcnow():
    return datetime.now(timezone.utc)


def fresh_policy(days=365):
    return CaPolicy(chain_not_after=utcnow() + timedelta(days=days))


def csr_with_extension(keypair, extension) -> SigningRequest:
    """A request signed by ``keypair`` (so POP holds) carrying one extension."""
    raw = (
        x509.CertificateSigningRequestBuilder()
        .subject_name(DistinguishedName.from_common_name("Odd Extension").name)
        .add_extension(extension, critical=False)
        .sign(keypair._signing_key(), hashes.SHA256())
    )
    return SigningRequest(raw)


def huge_exponent_rsa_key(key_size: int) -> rsa.RSAPrivateKey:
    """A valid RSA key whose public exponent is one bit shorter than its
    modulus, so that a verify under it costs about what a signature does."""
    numbers = rsa.generate_private_key(public_exponent=65537, key_size=key_size).private_numbers()
    p, q = numbers.p, numbers.q
    order = math.lcm(p - 1, q - 1)
    e = 1 << (key_size - 2) | 1
    while math.gcd(e, order) != 1:
        e += 2
    d = pow(e, -1, order)
    return rsa.RSAPrivateNumbers(p, q, d, d % (p - 1), d % (q - 1), rsa.rsa_crt_iqmp(p, q),
                                 rsa.RSAPublicNumbers(e, p * q)).private_key()


# Key types a request can carry that are not on the suite menu.
OFF_MENU_KEYS = {
    "rsa-1024": lambda: rsa.generate_private_key(public_exponent=65537, key_size=1024),
    "rsa-4096": lambda: rsa.generate_private_key(public_exponent=65537, key_size=4096),
    # The menu's modulus size, with an exponent other than 65537.
    "rsa-3072-huge-exponent": lambda: huge_exponent_rsa_key(3072),
    "dsa-2048": lambda: dsa.generate_private_key(key_size=2048),
    "ed25519": ed25519.Ed25519PrivateKey.generate,
    "p-521": lambda: ec.generate_private_key(ec.SECP521R1()),
    "secp256k1": lambda: ec.generate_private_key(ec.SECP256K1()),
}


def bound_csr(private_key, digest: DocumentDigest) -> SigningRequest:
    """A request for any key type, signed by ``private_key`` so POP holds,
    carrying the binding of ``digest``."""
    builder = (
        x509.CertificateSigningRequestBuilder()
        .subject_name(DistinguishedName.from_common_name("Off Menu").name)
        .add_extension(OtcExtension(digest).to_x509(), critical=False)
    )
    algorithm = None if isinstance(private_key, ed25519.Ed25519PrivateKey) else hashes.SHA256()
    return SigningRequest(builder.sign(private_key, algorithm))


def ca_named(name: x509.Name, role: CaRole, policy, parent=None) -> CaIdentity:
    """A CA whose subject is any X.509 name, even one without the CN that
    ``DistinguishedName`` requires, built as ``ca.create_root`` and
    ``ca.create_subordinate`` build theirs."""
    keypair = EphemeralKeyPair.generate(policy.suite)
    extensions = ca._ca_extensions(role, keypair.public_key)
    if parent is None:
        builder = ca._certificate_builder(name, name, keypair.public_key,
                                          datetime.now(timezone.utc), policy.chain_not_after,
                                          extensions)
        return CaIdentity(Certificate(keypair.sign_builder(builder)), keypair)
    certificate = parent._certify(name, keypair.public_key, extensions, "parent")
    return CaIdentity(certificate, keypair, (parent.certificate, *parent.lineage))


def no_cn_issuer() -> CaIdentity:
    """A fresh issuer named only ``O=No CN Issuer``, under an intermediate
    with a CN and a root named only ``O=No CN Root``."""
    policy = fresh_policy()
    organization = x509.NameOID.ORGANIZATION_NAME
    root = ca_named(x509.Name([x509.NameAttribute(organization, "No CN Root")]),
                    CaRole.ROOT, policy)
    intermediate = create_subordinate(root, "CN Intermediate", CaRole.INTERMEDIATE)
    return ca_named(x509.Name([x509.NameAttribute(organization, "No CN Issuer")]),
                    CaRole.ISSUER, policy, intermediate)


def set_clock_past(monkeypatch, not_after: datetime):
    """Move the clock that CAs issue by to 10 s past ``not_after``."""
    monkeypatch.setattr(ca, "_now", lambda: not_after + timedelta(seconds=10))


@contextlib.contextmanager
def modes_at_write(path, umask=0o022):
    """Under ``umask``, record the mode of the file at ``path`` each time
    this thread starts a write to it through a file object."""
    modes = []

    def profile(frame, event, arg):
        stream = getattr(arg, "__self__", None)
        if event != "c_call" or getattr(arg, "__name__", "") != "write" or stream is None:
            return
        try:
            written = os.fstat(stream.fileno())
            if os.path.samestat(written, os.stat(path)):
                modes.append(stat.S_IMODE(written.st_mode))
        except (AttributeError, OSError, ValueError):
            pass  # not a file, or not the file at path

    previous_umask, previous_profile = os.umask(umask), sys.getprofile()
    sys.setprofile(profile)
    try:
        yield modes
    finally:
        sys.setprofile(previous_profile)
        os.umask(previous_umask)


@st.composite
def overwritten(draw, data: bytes, max_edits: int = 3) -> bytes:
    """``data`` with up to ``max_edits`` runs of 0-2 bytes replaced by 0-3
    arbitrary bytes."""
    data = bytearray(data)
    for _ in range(draw(st.integers(0, max_edits))):
        at = draw(st.integers(0, len(data)))
        data[at:at + draw(st.integers(0, 2))] = draw(st.binary(max_size=3))
    return bytes(data)


def patch_central_entry(archive: bytes, name: bytes, offset: int, value: int) -> bytes:
    """Overwrite a 2-byte little-endian field in the zip central directory
    entry of member ``name`` (offset 8: flags, 10: compression method)."""
    data = bytearray(archive)
    at = -1
    while True:
        at = data.index(b"PK\x01\x02", at + 1)  # ValueError once past the last entry
        if data[at + 46 : at + 46 + len(name)] == name:
            break
    data[at + offset : at + offset + 2] = value.to_bytes(2, "little")
    return bytes(data)


@pytest.fixture(scope="session")
def shared_hierarchy():
    """Read-only: root -> 1 intermediate -> pool of 2 issuers."""
    return init_hierarchy(
        "Fixture Root", fresh_policy(), intermediates=1, issuers_per_intermediate=2
    )


@pytest.fixture(scope="session")
def shared_issuer(shared_hierarchy):
    return shared_hierarchy.first_issuer()


@pytest.fixture(scope="session")
def trust_anchors(shared_hierarchy):
    return [shared_hierarchy.root.certificate]


@pytest.fixture(scope="session")
def off_menu_keys():
    """One private key of each type in ``OFF_MENU_KEYS``."""
    return {kind: make() for kind, make in OFF_MENU_KEYS.items()}


@pytest.fixture(scope="session")
def keypair_pool():
    """Pre-generated EC keypairs for property tests that would otherwise
    spend their whole budget in key generation. Never destroyed."""
    return [EphemeralKeyPair.generate(DEFAULT_SUITE) for _ in range(8)]


class KeyLedger:
    """Record every keypair the code under test generates, to audit
    destruction afterwards."""

    def __init__(self):
        self.keypairs = []
        self._lock = threading.Lock()

    def live(self):
        return [kp for kp in self.keypairs if kp.is_live]


@pytest.fixture
def key_ledger(monkeypatch):
    ledger = KeyLedger()
    original = EphemeralKeyPair.generate.__func__

    def recording_generate(cls, suite=DEFAULT_SUITE):
        keypair = original(cls, suite)
        with ledger._lock:
            ledger.keypairs.append(keypair)
        return keypair

    monkeypatch.setattr(EphemeralKeyPair, "generate", classmethod(recording_generate))
    return ledger
