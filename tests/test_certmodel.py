"""Certificate model: binding-extension codec, names, CSR proof of
possession, and the PEM decoder.

The binding payload's expected bytes were derived by hand from the DER
rules and cross-checked with `openssl asn1parse` before the codec was
written; they are frozen here as golden vectors.
"""

import shutil
import subprocess

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.serialization import Encoding
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otcpki import certmodel
from otcpki.certmodel import (
    MEMO_LIMIT,
    OTC_EXTENSION_OID,
    Certificate,
    CertificationChain,
    DistinguishedName,
    OtcExtension,
    RevocationList,
    SigningRequest,
    build_csr,
    decode,
    decode_crl,
    verify_csr_pop,
)
from otcpki.crypto import (
    DigestAlgorithm,
    DocumentDigest,
    EphemeralKeyPair,
    digest_document,
    spki_der,
)
from otcpki.errors import (
    InvalidNameError,
    KeyDestroyedError,
    MalformedEncodingError,
)

from conftest import MEMOS, PADDED_OID_PAYLOAD, clear_memos, no_cn_issuer, overwritten

# Golden vectors: header bytes for SEQUENCE { AlgorithmIdentifier, OCTET
# STRING } with the NIST hash OIDs, followed by the raw digest.
SHA256_PAYLOAD_PREFIX = bytes.fromhex("302f300b06096086480165030402010420")
SHA384_PAYLOAD_PREFIX = bytes.fromhex("303f300b06096086480165030402020430")

# Offset of each length octet in a binding payload and the span it measures
# (outer SEQUENCE, AlgorithmIdentifier, OID, OCTET STRING).
_LENGTH_FIELDS = ((1, 2, None), (3, 4, 15), (5, 6, 15), (16, 17, None))

OPENSSL = shutil.which("openssl")


def sha256_digest(seed: bytes = b"doc") -> DocumentDigest:
    return digest_document(seed)


valid_payloads = st.one_of(
    st.binary(min_size=32, max_size=32).map(
        lambda raw: OtcExtension(DocumentDigest(DigestAlgorithm.SHA256, raw)).payload()),
    st.binary(min_size=48, max_size=48).map(
        lambda raw: OtcExtension(DocumentDigest(DigestAlgorithm.SHA384, raw)).payload()),
)


@st.composite
def mutated_payloads(draw):
    """A valid payload with bytes flipped, deleted, or inserted; an insertion
    may also grow every length octet whose span covers it, so the result
    still parses as DER-shaped TLVs."""
    data = bytearray(draw(valid_payloads))
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, 17) | st.integers(0, len(data)))  # mostly the header
        byte = draw(st.sampled_from([0x00, 0x80, 0xFF]) | st.integers(0, 255))
        kind = draw(st.sampled_from(["flip", "delete", "insert", "insert-fixed"]))
        if kind == "flip" and at < len(data):
            data[at] = byte
        elif kind == "delete" and at < len(data):
            del data[at]
        elif kind.startswith("insert"):
            data.insert(at, byte)
            if kind == "insert-fixed":
                for offset, start, end in _LENGTH_FIELDS:
                    if start <= at <= (len(data) if end is None else end) and offset < len(data):
                        data[offset] = (data[offset] + 1) % 256
    return bytes(data)


class TestExtensionCodec:
    def test_sha256_payload_golden_vector(self):
        digest = DocumentDigest(DigestAlgorithm.SHA256, bytes(range(32)))
        assert OtcExtension(digest).payload() == SHA256_PAYLOAD_PREFIX + bytes(range(32))

    def test_sha384_payload_golden_vector(self):
        digest = DocumentDigest(DigestAlgorithm.SHA384, bytes(range(48)))
        assert OtcExtension(digest).payload() == SHA384_PAYLOAD_PREFIX + bytes(range(48))

    def test_oid_value(self):
        assert OTC_EXTENSION_OID.dotted_string == "1.3.6.1.4.1.55555.1.1"

    def test_non_critical_by_default(self):
        assert OtcExtension(sha256_digest()).critical is False

    @given(raw=st.binary(min_size=32, max_size=32))
    def test_roundtrip_sha256(self, raw):
        ext = OtcExtension(DocumentDigest(DigestAlgorithm.SHA256, raw))
        assert OtcExtension.from_payload(ext.payload()) == ext

    @given(raw=st.binary(min_size=48, max_size=48))
    def test_roundtrip_sha384(self, raw):
        ext = OtcExtension(DocumentDigest(DigestAlgorithm.SHA384, raw))
        assert OtcExtension.from_payload(ext.payload()) == ext

    def test_trailing_garbage_rejected(self):
        payload = OtcExtension(sha256_digest()).payload()
        with pytest.raises(MalformedEncodingError):
            OtcExtension.from_payload(payload + b"\x00")

    def test_truncation_rejected(self):
        payload = OtcExtension(sha256_digest()).payload()
        for cut in (1, 5, len(payload) - 1):
            with pytest.raises(MalformedEncodingError):
                OtcExtension.from_payload(payload[:cut])

    def test_unknown_digest_oid_rejected(self):
        payload = bytearray(OtcExtension(sha256_digest()).payload())
        payload[14] = 0x05  # turn ...3.4.2.1 (sha256) into ...3.4.2.5
        with pytest.raises(MalformedEncodingError, match="unknown digest"):
            OtcExtension.from_payload(bytes(payload))

    def test_length_algorithm_disagreement_rejected(self):
        # declare sha-384 but carry 32 bytes
        digest32 = bytes(range(32))
        forged = bytes.fromhex("302f300b06096086480165030402020420") + digest32
        with pytest.raises(MalformedEncodingError, match="48"):
            OtcExtension.from_payload(forged)

    def test_error_carries_offset(self):
        with pytest.raises(MalformedEncodingError, match="offset"):
            OtcExtension.from_payload(b"\x31\x03abc")

    def test_padded_oid_arc_rejected(self):
        with pytest.raises(MalformedEncodingError, match="offset 2"):
            OtcExtension.from_payload(PADDED_OID_PAYLOAD)

    @settings(max_examples=1000)
    @given(data=st.one_of(mutated_payloads(), st.binary(max_size=80)))
    def test_accepts_only_canonical_payloads(self, data):
        try:
            ext = OtcExtension.from_payload(data)
        except MalformedEncodingError:
            return
        assert ext.payload() == data


class TestDistinguishedName:
    def test_requires_common_name(self):
        with pytest.raises(InvalidNameError):
            DistinguishedName(x509.Name([x509.NameAttribute(x509.NameOID.ORGANIZATION_NAME,
                                                            "Org Only")]))

    def test_rejects_empty_common_name(self):
        with pytest.raises(InvalidNameError):
            DistinguishedName.from_common_name("")

    def test_rfc4514_roundtrip(self):
        name = DistinguishedName.from_string("CN=Alice Example,O=Example Corp,C=SE")
        assert DistinguishedName.from_string(str(name)) == name
        assert name.common_name == "Alice Example"

    def test_x509_roundtrip_preserves_order(self):
        raw = x509.Name([x509.NameAttribute(x509.ObjectIdentifier(oid), value) for oid, value
                         in (("2.5.4.6", "SE"), ("2.5.4.10", "Example"), ("2.5.4.3", "Alice"))])
        name = DistinguishedName(raw)
        assert name.name == raw
        assert DistinguishedName(name.name) == name
        assert [attr.oid.dotted_string for attr in name.name] == [
            "2.5.4.6", "2.5.4.10", "2.5.4.3"]

    def test_unparseable_string(self):
        with pytest.raises(InvalidNameError):
            DistinguishedName.from_string("not-a-dn")

    def test_common_name_out_of_range(self):
        with pytest.raises(InvalidNameError):
            DistinguishedName.from_common_name("x" * 65)

    @pytest.mark.parametrize("text,expected", [
        ("Pat Example", x509.Name([x509.NameAttribute(x509.NameOID.COMMON_NAME, "Pat Example")])),
        ("CN=Example,O=Org", x509.Name.from_rfc4514_string("CN=Example,O=Org")),
        ("CN=a+O=b", x509.Name.from_rfc4514_string("CN=a+O=b")),
    ])
    def test_requested_string(self, text, expected):
        """A string with ``=`` is an RFC 4514 name; any other, a CN."""
        assert DistinguishedName.requested(text).name == expected

    def test_requested_name_as_is(self):
        name = DistinguishedName.from_common_name("O=I")
        assert DistinguishedName.requested(name) is name


class TestBuildCsr:
    def test_multi_valued_rdn_kept_as_written(self, keypair_pool):
        csr = build_csr(keypair_pool[0], DistinguishedName.from_string("CN=a+O=b"),
                        sha256_digest())
        assert csr.raw.subject == x509.Name.from_rfc4514_string("CN=a+O=b")
        assert csr.subject_text == "CN=a+O=b"

    def test_binding_embedded_verbatim(self, keypair_pool):
        digest = sha256_digest(b"csr doc")
        csr = build_csr(keypair_pool[0], DistinguishedName.from_common_name("A"), digest)
        assert csr.binding == OtcExtension(digest)
        raw_ext = csr.raw.extensions.get_extension_for_oid(OTC_EXTENSION_OID)
        assert raw_ext.value.value == OtcExtension(digest).payload()
        assert raw_ext.critical is False

    def test_pop_valid(self, keypair_pool):
        csr = build_csr(keypair_pool[0], DistinguishedName.from_common_name("A"),
                        sha256_digest())
        assert verify_csr_pop(csr)

    def test_destroyed_key_refuses(self):
        keypair = EphemeralKeyPair.generate()
        keypair.destroy()
        with pytest.raises(KeyDestroyedError):
            build_csr(keypair, DistinguishedName.from_common_name("A"), sha256_digest())

    def test_pem_label(self, keypair_pool):
        csr = build_csr(keypair_pool[0], DistinguishedName.from_common_name("A"),
                        sha256_digest())
        assert csr.to_pem().startswith(b"-----BEGIN CERTIFICATE REQUEST-----")


class TestPopForgery:
    """Proof of possession must fail when the signed bytes are altered."""

    def test_mutated_subject_invalidates_pop(self, keypair_pool):
        marker = "MutationTargetName"
        csr = build_csr(keypair_pool[0],
                        DistinguishedName.from_common_name(marker), sha256_digest())
        der = bytearray(csr.to_der())
        index = der.find(marker.encode())
        assert index > 0
        der[index] ^= 0x01
        reloaded = SigningRequest(x509.load_der_x509_csr(bytes(der)))
        assert not verify_csr_pop(reloaded)

    def test_swapped_public_key_invalidates_pop(self, keypair_pool):
        owner, thief = keypair_pool[0], keypair_pool[1]
        csr = build_csr(owner, DistinguishedName.from_common_name("Owner"),
                        sha256_digest())
        der = csr.to_der()
        assert spki_der(owner.public_key) in der
        swapped = der.replace(spki_der(owner.public_key), spki_der(thief.public_key))
        reloaded = SigningRequest(x509.load_der_x509_csr(swapped))
        assert reloaded.public_key.public_numbers() == thief.public_key.public_numbers()
        assert not verify_csr_pop(reloaded)


class TestCodec:
    def test_decode_wrong_kind(self, shared_issuer, keypair_pool):
        csr = build_csr(keypair_pool[0], DistinguishedName.from_common_name("A"),
                        sha256_digest())
        cert = shared_issuer.certificate
        with pytest.raises(MalformedEncodingError, match="Are you sure this is a CSR"):
            decode(cert.to_pem(), SigningRequest)
        with pytest.raises(MalformedEncodingError, match="Are you sure this is a certificate"):
            decode(csr.to_pem(), Certificate)
        with pytest.raises(MalformedEncodingError, match="Are you sure this is a CRL"):
            decode(cert.to_pem(), RevocationList)

    def test_decode_garbage(self):
        with pytest.raises(MalformedEncodingError):
            decode(b"\x30\x82\xff\xff nope", Certificate)
        with pytest.raises(MalformedEncodingError):
            decode(b"-----BEGIN CERTIFICATE-----\nnope\n-----END CERTIFICATE-----\n",
                   Certificate)

    def test_der_is_refused(self, shared_issuer, keypair_pool):
        """Only PEM is read: the DER of a valid object of the asked kind is
        malformed, not another kind."""
        csr = build_csr(keypair_pool[0], DistinguishedName.from_common_name("A"),
                        sha256_digest())
        for obj in (csr, shared_issuer.certificate, shared_issuer.issue_blank_crl()):
            with pytest.raises(MalformedEncodingError, match="cannot parse"):
                decode(obj.to_der(), type(obj))

    def test_pem_labels(self, shared_issuer):
        cert_pem = shared_issuer.certificate.to_pem()
        assert cert_pem.startswith(b"-----BEGIN CERTIFICATE-----")
        crl_pem = shared_issuer.issue_blank_crl().to_pem()
        assert crl_pem.startswith(b"-----BEGIN X509 CRL-----")


def _subject_names():
    alphabet = st.characters(min_codepoint=32, max_codepoint=126, blacklist_characters="\\")
    return st.text(alphabet=alphabet, min_size=1, max_size=24).filter(
        lambda s: s.strip() == s and s
    )


class TestRoundtripProperty:
    """encode -> decode identity over hundreds of generated objects."""

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        data=st.data(),
        name=_subject_names(),
        payload=st.binary(min_size=0, max_size=64),
        kind=st.sampled_from(["csr", "certificate", "crl"]),
    )
    def test_encode_decode_identity(self, data, name, payload, kind,
                                    keypair_pool, shared_issuer):
        keypair = data.draw(st.sampled_from(keypair_pool))
        digest = digest_document(payload)
        csr = build_csr(keypair, DistinguishedName.from_common_name(name), digest)
        if kind == "csr":
            obj, cls = csr, SigningRequest
        elif kind == "certificate":
            obj, cls = shared_issuer.issue_otc(csr), Certificate
        else:
            obj, cls = shared_issuer.issue_blank_crl(), RevocationList
        again = decode(obj.to_pem(), cls)
        assert again == obj
        if kind == "certificate":
            assert again.binding == OtcExtension(digest)


class TestCertificateProperties:
    def test_binding_survives_issuance_byte_exact(self, shared_issuer, keypair_pool):
        digest = sha256_digest(b"fidelity")
        csr = build_csr(keypair_pool[2], DistinguishedName.from_common_name("Fidelity"),
                        digest)
        cert = shared_issuer.issue_otc(csr)
        csr_ext = csr.raw.extensions.get_extension_for_oid(OTC_EXTENSION_OID)
        cert_ext = cert.raw.extensions.get_extension_for_oid(OTC_EXTENSION_OID)
        assert csr_ext.value.value == cert_ext.value.value
        assert cert.binding.digest == digest

    def test_chain_helpers(self, shared_hierarchy, shared_issuer, keypair_pool):
        csr = build_csr(keypair_pool[3], DistinguishedName.from_common_name("Chained"),
                        sha256_digest(b"chain"))
        leaf = shared_issuer.issue_otc(csr)
        chain = CertificationChain((leaf, *shared_issuer.chain_to_root()))
        assert chain.leaf == leaf
        assert chain.root == shared_hierarchy.root.certificate
        assert chain.issuing_ca == shared_issuer.certificate
        assert chain.links_verify()
        assert chain.has_uniform_not_after()
        again = CertificationChain.from_pem(chain.to_pem())
        assert tuple(again) == tuple(chain)

    def test_empty_chain_rejected(self):
        with pytest.raises(MalformedEncodingError):
            CertificationChain(())

    def test_repr_needs_no_common_name(self):
        certificate = no_cn_issuer().certificate
        assert repr(certificate) == f"<Certificate O=No CN Issuer serial={certificate.serial:x}>"


@pytest.fixture(scope="module")
def pem_blocks(shared_issuer, keypair_pool):
    """PEM blocks to build chains from: three leaves under one issuer, the
    issuer's path to the root, and the issuer's CRL."""
    leaves = [shared_issuer.issue_otc(build_csr(keypair, DistinguishedName.from_common_name(
        f"Chain Leaf {n}"), sha256_digest(b"%d" % n))).to_pem()
        for n, keypair in enumerate(keypair_pool[:3])]
    cas = [cert.to_pem() for cert in shared_issuer.chain_to_root()]
    return leaves, cas, shared_issuer.issue_blank_crl().to_pem()


def assert_parses_as_cryptography_does(blob: bytes):
    """``CertificationChain.from_pem`` yields the certificates that
    ``x509.load_pem_x509_certificates`` finds, and raises where it raises."""
    try:
        expected = [cert.public_bytes(Encoding.DER)
                    for cert in x509.load_pem_x509_certificates(blob)]
    except ValueError:
        with pytest.raises(MalformedEncodingError):
            CertificationChain.from_pem(blob)
        return
    assert [cert.to_der() for cert in CertificationChain.from_pem(blob)] == expected


class TestChainFromPem:
    """The CA certificates after a chain's first block come from a memo
    keyed by their PEM bytes; for any input the chain must still be what
    decoding the whole blob gives. Each blob is parsed twice, so the second
    parse of a blob that opens with a certificate block is a memo hit."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_same_certificates_as_cryptography(self, pem_blocks, data):
        leaves, cas, crl = pem_blocks
        separators = st.sampled_from([b"", b"\n", b"\r\n", b" ", b"junk\n", b"-----"])
        pieces = [data.draw(st.sampled_from(leaves), label="leaf")]
        for block in data.draw(st.lists(st.sampled_from([*cas, crl]), max_size=4),
                               label="after the leaf"):
            pieces += [data.draw(separators), block]
        pieces.append(data.draw(st.binary(max_size=8), label="trailing junk"))
        blob = data.draw(overwritten(b"".join(pieces)), label="blob")
        for _ in range(2):
            assert_parses_as_cryptography_does(blob)

    @pytest.mark.parametrize("pieces", [
        ["leaf", "crl"], ["leaf"], ["leaf", "crl", "ca"], ["crl", "leaf", "ca"],
        ["leaf", "ca", "junk"], ["junk", "leaf", "ca"],
    ])
    def test_examples(self, pem_blocks, pieces):
        """A leaf followed by only a CRL block is one certificate, whether or
        not the CRL block was seen after another leaf first."""
        leaves, cas, crl = pem_blocks
        blocks = {"crl": crl, "ca": cas[0], "junk": b"trailing junk\n"}
        for leaf in leaves[:2]:
            blob = b"".join(leaf if piece == "leaf" else blocks[piece] for piece in pieces)
            assert_parses_as_cryptography_does(blob)

    @pytest.mark.parametrize("blocks", [8, 9])
    def test_chain_over_eight_blocks_is_refused_before_parsing(self, pem_blocks, blocks,
                                                               monkeypatch):
        """A chain of 9 PEM blocks is refused before any block is decoded
        or remembered. A chain of 1400 certificates, under a bundle
        member's 1 MiB cap, used to be decoded whole and kept in the memo,
        about 1.4 MiB a bundle."""
        leaves, cas, crl = pem_blocks
        blob = leaves[0] + b"".join(cas[n % len(cas)] for n in range(blocks - 2)) + crl
        decoded = []
        load_certificates = certmodel.load_certificates

        def counted(pem):
            decoded.append(pem)
            return load_certificates(pem)

        monkeypatch.setattr(certmodel, "load_certificates", counted)
        clear_memos()
        if blocks <= 8:
            assert len(CertificationChain.from_pem(blob)) == blocks - 1
            return
        with pytest.raises(MalformedEncodingError, match="9 PEM blocks"):
            CertificationChain.from_pem(blob)
        assert decoded == []
        assert certmodel._remembered_decode.cache_info().currsize == 0

    def test_ca_certificates_are_reused(self, pem_blocks):
        leaves, cas, _ = pem_blocks
        first, second = (CertificationChain.from_pem(leaf + b"".join(cas))
                         for leaf in leaves[:2])
        assert first.leaf != second.leaf
        assert all(a is b for a, b in zip(first[1:], second[1:]))


class TestDecodedMemo:
    def test_every_memo_holds_at_most_memo_limit(self):
        assert [memo.cache_info().maxsize for memo in MEMOS] == [MEMO_LIMIT] * len(MEMOS)

    def test_revocation_list_caches_its_der(self, shared_issuer):
        crl = decode_crl(shared_issuer.issue_blank_crl().to_pem())
        assert crl.to_der() is crl.to_der()


@pytest.mark.skipif(OPENSSL is None, reason="openssl CLI not installed")
class TestOpensslInterop:
    """An independent X.509 toolchain must accept what we emit."""

    def test_certificate_parses(self, shared_issuer, keypair_pool, tmp_path):
        csr = build_csr(keypair_pool[0], DistinguishedName.from_common_name("Interop"),
                        sha256_digest(b"interop"))
        cert = shared_issuer.issue_otc(csr)
        path = tmp_path / "leaf.pem"
        path.write_bytes(cert.to_pem())
        output = subprocess.run(
            [OPENSSL, "x509", "-in", str(path), "-noout", "-text"],
            capture_output=True, text=True, check=True,
        ).stdout
        assert "1.3.6.1.4.1.55555.1.1" in output

    def test_csr_pop_verifies(self, keypair_pool, tmp_path):
        csr = build_csr(keypair_pool[1], DistinguishedName.from_common_name("Interop"),
                        sha256_digest())
        path = tmp_path / "req.pem"
        path.write_bytes(csr.to_pem())
        result = subprocess.run(
            [OPENSSL, "req", "-in", str(path), "-noout", "-verify"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0

    def test_payload_asn1_structure(self, tmp_path):
        payload = OtcExtension(sha256_digest(b"asn1")).payload()
        path = tmp_path / "payload.der"
        path.write_bytes(payload)
        output = subprocess.run(
            [OPENSSL, "asn1parse", "-inform", "DER", "-in", str(path)],
            capture_output=True, text=True, check=True,
        ).stdout
        assert "sha256" in output
        assert "OCTET STRING" in output
