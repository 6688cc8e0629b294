"""Signing workflow: the one-shot protocol, key lifecycle on every path,
the kept-key variant, and the bundle archive format."""

import io
import warnings
import zipfile
from datetime import timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcpki.ca import init_hierarchy
from otcpki.certmodel import CertificationChain
from otcpki.crypto import SUITES, digest_document, verify_signature
from otcpki.errors import (
    EnrollmentRejectedError,
    KeyDestroyedError,
    MalformedEncodingError,
)
from otcpki.signer import (
    LocalEnrollmentClient,
    SignedDocumentBundle,
    one_shot_sign,
    resign_with_existing_key,
)
from otcpki.verifier import RecencyPolicy, verify_bundle

from conftest import fresh_policy, overwritten, patch_central_entry

DOC = b"An agreement between two parties, signed exactly once."
POLICY = RecencyPolicy(max_age=timedelta(hours=1))


@pytest.fixture
def client(shared_issuer):
    return LocalEnrollmentClient(shared_issuer)


class TestOneShotSign:
    def test_bundle_is_complete_and_verifiable(self, client, trust_anchors):
        bundle = one_shot_sign(DOC, "Bundle Author", client)
        assert bundle.document_digest == digest_document(DOC)
        assert bundle.subject.common_name == "Bundle Author"
        assert bundle.chain.leaf.binding.digest == bundle.document_digest
        assert len(bundle.chain) == 4
        assert bundle.crl.is_blank
        assert bundle.created_at.tzinfo is timezone.utc
        assert verify_bundle(bundle, DOC, trust_anchors, POLICY).accepted

    def test_accepts_a_stream(self, client):
        bundle = one_shot_sign(io.BytesIO(DOC), "Stream Author", client)
        assert bundle.document_digest == digest_document(DOC)

    def test_key_is_destroyed_after_success(self, client, key_ledger):
        one_shot_sign(DOC, "Tidy Author", client)
        assert len(key_ledger.keypairs) == 1
        assert key_ledger.live() == []

    def test_signature_is_by_the_fresh_key(self, client):
        bundle = one_shot_sign(DOC, "Fresh Key", client)
        assert verify_signature(
            bundle.chain.leaf.public_key, bundle.document_digest, bundle.signature
        )

    def test_one_enrollment_per_signature(self, client):
        calls = []
        real_enroll = client.enroll
        client.enroll = lambda csr: (calls.append(1), real_enroll(csr))[1]
        one_shot_sign(DOC, "Counted", client)
        one_shot_sign(DOC, "Counted", client)
        assert len(calls) == 2

    def test_rsa_suite_end_to_end(self, trust_anchors):
        hierarchy = init_hierarchy("RSA Root", fresh_policy())
        client = LocalEnrollmentClient(hierarchy.first_issuer())
        bundle = one_shot_sign(DOC, "RSA Author", client, suite=SUITES["rsa-2048"])
        assert verify_bundle(
            bundle, DOC, [hierarchy.root.certificate], POLICY
        ).accepted


class TestErrorPathHygiene:
    """No failure mode may leave a live key behind."""

    def test_rejected_enrollment_destroys_key(self, key_ledger):
        hierarchy = init_hierarchy("Reject Root", fresh_policy())
        issuer = hierarchy.first_issuer()
        issuer.retire()
        client = LocalEnrollmentClient(issuer)
        baseline = len(key_ledger.keypairs)  # skip the CA keys made above
        with pytest.raises(EnrollmentRejectedError) as excinfo:
            one_shot_sign(DOC, "Refused", client)
        assert excinfo.value.ca_code == "issuer-retired"
        signing_keys = key_ledger.keypairs[baseline:]
        assert signing_keys and all(not kp.is_live for kp in signing_keys)

    def test_transport_explosion_destroys_key(self, key_ledger):
        class ExplodingClient:
            def enroll(self, csr):
                raise ConnectionError("wire cut")

            def fetch_crl(self, chain):
                raise AssertionError("never reached")

        with pytest.raises(ConnectionError):
            one_shot_sign(DOC, "Unlucky", ExplodingClient())
        assert key_ledger.keypairs and key_ledger.live() == []

    def test_crl_fetch_failure_destroys_key(self, shared_issuer, key_ledger):
        class NoCrlClient(LocalEnrollmentClient):
            def fetch_crl(self, chain):
                raise EnrollmentRejectedError("crl store down", ca_code="no-crl")

        with pytest.raises(EnrollmentRejectedError):
            one_shot_sign(DOC, "CrlLess", NoCrlClient(shared_issuer))
        assert key_ledger.keypairs and key_ledger.live() == []

    def test_rogue_chain_destroys_key(self, shared_issuer, key_ledger, keypair_pool):
        """A CA answering with a certificate for some other key must not
        be silently accepted."""
        from otcpki.certmodel import DistinguishedName, build_csr

        class SwappingClient(LocalEnrollmentClient):
            def enroll(self, csr):
                other = build_csr(
                    keypair_pool[7], DistinguishedName.from_common_name("Imposter"),
                    csr.binding.digest,
                )
                return super().enroll(other)

        with pytest.raises(EnrollmentRejectedError, match="different key"):
            one_shot_sign(DOC, "Victim", SwappingClient(shared_issuer))
        live = [kp for kp in key_ledger.live() if kp not in keypair_pool]
        assert not live


class TestKeepKey:
    def test_returns_live_key(self, client, key_ledger):
        bundle, keypair = one_shot_sign(DOC, "Keeper", client, keep_key=True)
        assert keypair.is_live
        assert key_ledger.live() == [keypair]
        keypair.destroy()

    def test_kept_key_can_resign_other_documents(self, client, trust_anchors):
        bundle, keypair = one_shot_sign(DOC, "Keeper", client, keep_key=True)
        other = b"a different contract"
        second = resign_with_existing_key(keypair, other, "Keeper", client)
        assert keypair.is_live
        assert second.chain.leaf.serial != bundle.chain.leaf.serial
        assert second.chain.leaf.binding.digest == digest_document(other)
        # both bundles stand on their own
        assert verify_bundle(bundle, DOC, trust_anchors, POLICY).accepted
        assert verify_bundle(second, other, trust_anchors, POLICY).accepted
        keypair.destroy()

    def test_extra_signature_without_enrollment_is_worthless(
        self, client, trust_anchors
    ):
        """The compromise scenario: a raw signature over a new document,
        made with a kept key but without re-enrollment, must not verify as
        a bundle."""
        bundle, keypair = one_shot_sign(DOC, "Compromised", client, keep_key=True)
        other = b"forged payroll"
        rogue_signature = keypair.sign_digest(digest_document(other))
        forged = SignedDocumentBundle(
            document_digest=digest_document(other),
            signature=rogue_signature,
            chain=bundle.chain,
            crl=bundle.crl,
            created_at=bundle.created_at,
        )
        report = verify_bundle(forged, other, trust_anchors, POLICY)
        assert not report.accepted
        assert "binding-mismatch" in report.failure_codes
        keypair.destroy()

    def test_same_document_twice_gets_distinct_serials(self, client, trust_anchors):
        bundle, keypair = one_shot_sign(DOC, "Repeat", client, keep_key=True)
        again = resign_with_existing_key(keypair, DOC, "Repeat", client)
        assert again.chain.leaf.serial != bundle.chain.leaf.serial
        assert again.chain.leaf.binding.digest == bundle.chain.leaf.binding.digest
        assert verify_bundle(again, DOC, trust_anchors, POLICY).accepted
        keypair.destroy()

    def test_resign_refuses_destroyed_key(self, client):
        bundle, keypair = one_shot_sign(DOC, "Gone", client, keep_key=True)
        keypair.destroy()
        with pytest.raises(KeyDestroyedError):
            resign_with_existing_key(keypair, b"more", "Gone", client)

    def test_resign_failure_leaves_key_alive(self, client):
        bundle, keypair = one_shot_sign(DOC, "Survivor", client, keep_key=True)

        class DownClient:
            def enroll(self, csr):
                raise EnrollmentRejectedError("maintenance", ca_code="issuer-retired")

            def fetch_crl(self, chain):
                raise AssertionError("never reached")

        with pytest.raises(EnrollmentRejectedError):
            resign_with_existing_key(keypair, b"more", "Survivor", DownClient())
        assert keypair.is_live
        keypair.destroy()


def zip_members(members: dict) -> bytes:
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w") as archive:
        for name, data in members.items():
            archive.writestr(name, data)
    return buffer.getvalue()


@pytest.fixture(scope="module")
def archive_variants(shared_issuer, tmp_path_factory):
    """A strategy for hostile .otcb bytes made from one honest bundle, and a
    path to write them to."""
    bundle = one_shot_sign(DOC, "Fuzzed", LocalEnrollmentClient(shared_issuer))
    path = tmp_path_factory.mktemp("fuzz") / "fuzzed.otcb"
    bundle.save(path)
    saved = path.read_bytes()
    with zipfile.ZipFile(path) as archive:
        parts = {name: archive.read(name) for name in archive.namelist()}
    stored = st.fixed_dictionaries(
        {}, optional={name: overwritten(data) for name, data in parts.items()})
    return st.one_of(
        overwritten(saved),  # the deflated archive as saved
        st.integers(0, len(saved)).map(lambda size: saved[:size]),
        stored.map(zip_members),  # stored members, some missing or edited
        st.binary(max_size=300),
    ), path


class TestBundleArchive:
    def test_roundtrip(self, client, trust_anchors, tmp_path):
        bundle = one_shot_sign(DOC, "Archived", client)
        path = tmp_path / "contract.otcb"
        bundle.save(path)
        loaded = SignedDocumentBundle.load(path)
        assert loaded.document_digest == bundle.document_digest
        assert loaded.signature == bundle.signature
        assert tuple(loaded.chain) == tuple(bundle.chain)
        assert loaded.crl == bundle.crl
        assert loaded.created_at == bundle.created_at
        assert verify_bundle(loaded, DOC, trust_anchors, POLICY).accepted

    def test_archive_layout(self, client, tmp_path):
        bundle = one_shot_sign(DOC, "Layout", client)
        path = tmp_path / "layout.otcb"
        bundle.save(path)
        with zipfile.ZipFile(path) as archive:
            assert sorted(archive.namelist()) == [
                "chain.pem", "crl.pem", "meta.txt", "signature.bin",
            ]
            meta = archive.read("meta.txt").decode()
        keys = [line.split("=")[0].strip() for line in meta.splitlines() if line.strip()]
        assert keys == ["digest-alg", "digest-hex", "created-at", "subject"]
        assert f"digest-hex = {bundle.document_digest.hex()}" in meta
        assert "digest-alg = sha-256" in meta
        assert str(bundle.subject) in meta

    def test_created_at_is_utc_second_precision(self, client, tmp_path):
        bundle = one_shot_sign(DOC, "Clock", client)
        assert bundle.created_at.microsecond == 0
        path = tmp_path / "clock.otcb"
        bundle.save(path)
        assert SignedDocumentBundle.load(path).created_at == bundle.created_at

    def test_not_a_zip(self, tmp_path):
        path = tmp_path / "junk.otcb"
        path.write_bytes(b"this is no archive")
        with pytest.raises(MalformedEncodingError):
            SignedDocumentBundle.load(path)

    def test_missing_member(self, client, tmp_path):
        bundle = one_shot_sign(DOC, "Partial", client)
        full = tmp_path / "full.otcb"
        bundle.save(full)
        broken = tmp_path / "broken.otcb"
        with zipfile.ZipFile(full) as src, zipfile.ZipFile(broken, "w") as dst:
            for name in src.namelist():
                if name != "signature.bin":
                    dst.writestr(name, src.read(name))
        with pytest.raises(MalformedEncodingError, match="signature.bin"):
            SignedDocumentBundle.load(broken)

    def test_duplicate_member_rejected(self, client, tmp_path):
        bundle = one_shot_sign(DOC, "Twice", client)
        path = tmp_path / "twice.otcb"
        bundle.save(path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # zipfile warns on a duplicate name
            with zipfile.ZipFile(path, "a") as archive:
                archive.writestr("signature.bin", b"the second signature wins")
        with pytest.raises(MalformedEncodingError, match="signature.bin"):
            SignedDocumentBundle.load(path)

    def test_oversized_member_rejected(self, client, tmp_path):
        bundle = one_shot_sign(DOC, "Padded", client)
        path = tmp_path / "padded.otcb"
        with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
            archive.writestr("meta.txt", bundle._meta_text())
            archive.writestr("signature.bin", bundle.signature)
            archive.writestr("chain.pem", bundle.chain.to_pem() + b"\n" * (2 << 20))
        assert path.stat().st_size < 16 << 10
        with pytest.raises(MalformedEncodingError, match="chain.pem"):
            SignedDocumentBundle.load(path)

    @pytest.mark.parametrize("field_offset,value", [(8, 0x0001), (10, 99)],
                             ids=["encrypted-flag", "compression-method-99"])
    def test_unreadable_member_is_malformed(self, client, tmp_path, field_offset, value):
        bundle = one_shot_sign(DOC, "Unreadable", client)
        path = tmp_path / "unreadable.otcb"
        bundle.save(path)
        path.write_bytes(patch_central_entry(path.read_bytes(), b"meta.txt",
                                             field_offset, value))
        with pytest.raises(MalformedEncodingError):
            SignedDocumentBundle.load(path)

    def test_bad_digest_hex_is_malformed(self, client, tmp_path):
        bundle = one_shot_sign(DOC, "Hexless", client)
        path = tmp_path / "hexless.otcb"
        with zipfile.ZipFile(path, "w") as archive:
            archive.writestr("meta.txt", bundle._meta_text().replace(
                bundle.document_digest.hex(), "zz"))
            archive.writestr("signature.bin", bundle.signature)
            archive.writestr("chain.pem", bundle.chain.to_pem())
        with pytest.raises(MalformedEncodingError, match="digest"):
            SignedDocumentBundle.load(path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_archive_bytes_load_or_are_malformed(self, archive_variants, data):
        variants, path = archive_variants
        path.write_bytes(data.draw(variants))
        try:
            assert isinstance(SignedDocumentBundle.load(path), SignedDocumentBundle)
        except MalformedEncodingError:
            pass

    def test_locator_is_not_persisted(self, client, tmp_path):
        bundle = one_shot_sign(DOC, "Located", client, document_locator="s3://x/y")
        assert bundle.document_locator == "s3://x/y"
        path = tmp_path / "loc.otcb"
        bundle.save(path)
        assert SignedDocumentBundle.load(path).document_locator is None
