"""Primitives: digesting, one-shot keys, sign/verify, destruction."""

import hashlib
import io
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcpki.crypto import (
    DEFAULT_SUITE,
    SUITES,
    AlgorithmSuite,
    DigestAlgorithm,
    DocumentDigest,
    EphemeralKeyPair,
    KeyState,
    SignatureAlgorithm,
    digest_document,
    random_serial,
    verify_signature,
)
from otcpki.errors import DigestMismatchError, KeyDestroyedError, UnsupportedSuiteError

# Standard SHA test vectors (NIST FIPS 180 examples).
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
SHA384_ABC = (
    "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
    "8086072ba1e7cc2358baeca134c825a7"
)

# Independently computed with a standalone hashlib loop before this package
# existed; exercises the streaming path on input too big to buffer naively.
SHA256_GIB_ZEROS = "49bc20df15e412a64472421e13fe86ff1c5165e18b2afccf160d4dc19fe68a14"

ALL_SUITES = sorted(SUITES.values(), key=lambda s: s.label)


class TestDigestDocument:
    def test_empty_input_matches_published_vector(self):
        assert digest_document(b"").hex() == SHA256_EMPTY

    def test_abc_matches_published_vector(self):
        assert digest_document(b"abc").hex() == SHA256_ABC

    def test_sha384_matches_published_vector(self):
        digest = digest_document(b"abc", DigestAlgorithm.SHA384)
        assert digest.hex() == SHA384_ABC
        assert len(digest.value) == 48

    def test_streaming_gigabyte_of_zeros(self):
        class Zeros(io.RawIOBase):
            def __init__(self, total):
                self.remaining = total

            def readable(self):
                return True

            def readinto(self, buffer):
                count = min(len(buffer), self.remaining)
                buffer[: count] = bytes(count)
                self.remaining -= count
                return count

        stream = io.BufferedReader(Zeros(1 << 30), buffer_size=1 << 20)
        assert digest_document(stream).hex() == SHA256_GIB_ZEROS

    def test_stream_and_bytes_agree(self):
        payload = os.urandom(3 * (1 << 20) + 17)
        assert digest_document(io.BytesIO(payload)) == digest_document(payload)

    @given(st.binary(max_size=4096))
    def test_matches_hashlib(self, payload):
        assert digest_document(payload).value == hashlib.sha256(payload).digest()

    def test_stream_io_error_propagates(self):
        class Broken(io.RawIOBase):
            def readable(self):
                return True

            def readinto(self, buffer):
                raise OSError("disk went away")

        with pytest.raises(OSError):
            digest_document(io.BufferedReader(Broken()))


class TestDocumentDigest:
    def test_wrong_length_rejected(self):
        with pytest.raises(DigestMismatchError):
            DocumentDigest(DigestAlgorithm.SHA256, b"\x00" * 31)
        with pytest.raises(DigestMismatchError):
            DocumentDigest(DigestAlgorithm.SHA384, b"\x00" * 32)

    def test_hex_roundtrip(self):
        digest = digest_document(b"roundtrip")
        assert DocumentDigest.from_hex(DigestAlgorithm.SHA256, digest.hex()) == digest

    def test_from_hex_garbage(self):
        with pytest.raises(DigestMismatchError):
            DocumentDigest.from_hex(DigestAlgorithm.SHA256, "not hex at all")


class TestSuites:
    def test_menu_is_exactly_four(self):
        assert set(SUITES) == {"rsa-2048", "rsa-3072", "ecdsa-p256", "ecdsa-p384"}

    def test_default_is_p256_sha256(self):
        assert DEFAULT_SUITE.signature is SignatureAlgorithm.ECDSA_P256
        assert DEFAULT_SUITE.digest is DigestAlgorithm.SHA256

    def test_from_label_rejects_unknown(self):
        with pytest.raises(UnsupportedSuiteError):
            AlgorithmSuite.from_label("rsa-1024")

    def test_generate_rejects_handcrafted_suite(self):
        bogus = AlgorithmSuite(SignatureAlgorithm.RSA_2048, DigestAlgorithm.SHA384)
        assert bogus.label not in SUITES or SUITES[bogus.label] != bogus
        with pytest.raises(UnsupportedSuiteError):
            EphemeralKeyPair.generate(bogus)


@pytest.mark.parametrize("suite", ALL_SUITES, ids=lambda s: s.label)
def test_sign_verify_roundtrip(suite):
    keypair = EphemeralKeyPair.generate(suite)
    digest = digest_document(b"the document", suite.digest)
    signature = keypair.sign_digest(digest)
    assert verify_signature(keypair.public_key, digest, signature)
    assert verify_signature(keypair.public_der(), digest, signature)


def test_rsa_modulus_size():
    keypair = EphemeralKeyPair.generate(SUITES["rsa-2048"])
    assert keypair.public_key.key_size == 2048


def test_distinct_keypairs():
    a = EphemeralKeyPair.generate()
    b = EphemeralKeyPair.generate()
    assert a.public_der() != b.public_der()


def test_digest_algorithm_must_match_suite():
    keypair = EphemeralKeyPair.generate(SUITES["ecdsa-p384"])
    wrong = digest_document(b"x", DigestAlgorithm.SHA256)
    with pytest.raises(DigestMismatchError):
        keypair.sign_digest(wrong)


class TestDestruction:
    def test_lifecycle(self):
        keypair = EphemeralKeyPair.generate()
        digest = digest_document(b"once")
        signature = keypair.sign_digest(digest)
        assert keypair.state is KeyState.LIVE
        assert keypair.destroy() == "destroyed"
        assert keypair.state is KeyState.DESTROYED
        assert not keypair.is_live
        # the one signature made before destruction stays valid
        assert verify_signature(keypair.public_key, digest, signature)

    def test_sign_after_destroy_raises(self):
        keypair = EphemeralKeyPair.generate()
        keypair.destroy()
        with pytest.raises(KeyDestroyedError):
            keypair.sign_digest(digest_document(b"again"))

    def test_export_after_destroy_raises(self):
        keypair = EphemeralKeyPair.generate()
        keypair.destroy()
        with pytest.raises(KeyDestroyedError):
            keypair.export_private_pem(b"pw")

    def test_destroy_is_idempotent(self):
        keypair = EphemeralKeyPair.generate()
        assert keypair.destroy() == "destroyed"
        assert keypair.destroy() == "already-destroyed"

    def test_public_half_survives(self):
        keypair = EphemeralKeyPair.generate()
        spki = keypair.public_der()
        keypair.destroy()
        assert keypair.public_der() == spki

    def test_no_private_reference_survives(self):
        keypair = EphemeralKeyPair.generate()
        keypair.destroy()
        assert keypair._private_key is None
        with pytest.raises(KeyDestroyedError):
            keypair._signing_key()


class TestVerifyFailures:
    def test_garbage_signature(self, keypair_pool):
        keypair = keypair_pool[0]
        digest = digest_document(b"doc")
        assert not verify_signature(keypair.public_key, digest, b"\x00" * 70)
        assert not verify_signature(keypair.public_key, digest, b"")

    def test_wrong_key(self, keypair_pool):
        signer, other = keypair_pool[0], keypair_pool[1]
        digest = digest_document(b"doc")
        signature = signer.sign_digest(digest)
        assert not verify_signature(other.public_key, digest, signature)

    def test_wrong_digest(self, keypair_pool):
        keypair = keypair_pool[0]
        signature = keypair.sign_digest(digest_document(b"doc"))
        assert not verify_signature(keypair.public_key, digest_document(b"Doc"), signature)

    def test_undecodable_key_bytes(self):
        digest = digest_document(b"doc")
        assert not verify_signature(b"not a key", digest, b"sig")

    @settings(max_examples=60, deadline=None)
    @given(
        position=st.integers(min_value=0, max_value=31),
        bit=st.integers(min_value=0, max_value=7),
        data=st.data(),
    )
    def test_any_flipped_digest_bit_fails(self, keypair_pool, position, bit, data):
        keypair = data.draw(st.sampled_from(keypair_pool))
        digest = digest_document(b"property document")
        signature = keypair.sign_digest(digest)
        mutated = bytearray(digest.value)
        mutated[position] ^= 1 << bit
        tampered = DocumentDigest(DigestAlgorithm.SHA256, bytes(mutated))
        assert not verify_signature(keypair.public_key, tampered, signature)


class TestRandomSerial:
    def test_fits_in_twenty_octets_positive(self):
        for _ in range(200):
            serial = random_serial()
            assert 0 < serial < (1 << 159)

    def test_distinct_across_draws(self):
        assert len({random_serial() for _ in range(10_000)}) == 10_000
