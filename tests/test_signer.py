"""Signing workflow: the one-shot protocol, key lifecycle on every path,
the kept-key variant, and the bundle archive format."""

import io
import struct
import warnings
import zipfile
import zlib
from datetime import timedelta, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcpki import certmodel, signer
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

from conftest import (
    fresh_policy,
    no_cn_issuer,
    overwritten,
    patch_central_entry,
    set_clock_past,
)

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

    def test_expired_issuer_is_rejected(self, shared_issuer, key_ledger, monkeypatch):
        """It used to raise a bare ValueError from cryptography's builder."""
        set_clock_past(monkeypatch, shared_issuer.not_after)
        with pytest.raises(EnrollmentRejectedError) as excinfo:
            one_shot_sign(DOC, "Too Late", LocalEnrollmentClient(shared_issuer))
        assert excinfo.value.ca_code == "issuer-expired"
        assert key_ledger.keypairs and key_ledger.live() == []

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


class TestPickCrl:
    def test_no_match_names_an_issuer_without_cn(self, shared_issuer, keypair_pool):
        chain = LocalEnrollmentClient(no_cn_issuer()).enroll(certmodel.build_csr(
            keypair_pool[0], certmodel.DistinguishedName.from_common_name("Picky"),
            digest_document(DOC)))
        with pytest.raises(EnrollmentRejectedError,
                           match="^no CRL published for issuer O=No CN Issuer$") as excinfo:
            signer._pick_crl(shared_issuer.issue_blank_crl().to_pem(), chain)
        assert excinfo.value.ca_code == "no-matching-crl"


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


def save_deflated(bundle: SignedDocumentBundle, path):
    """Write the bundle as save() wrote it before members were stored."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("meta.txt", bundle._meta_text())
        archive.writestr("signature.bin", bundle.signature)
        archive.writestr("chain.pem", bundle.chain.to_pem())
        archive.writestr("crl.pem", bundle.crl.to_pem())


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
    save_deflated(bundle, path)
    return st.one_of(
        overwritten(saved),  # the stored archive as saved
        overwritten(path.read_bytes()),  # the same bundle deflated, as written before
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

    def test_members_are_stored(self, client, tmp_path):
        path = tmp_path / "stored.otcb"
        one_shot_sign(DOC, "Stored", client).save(path)
        with zipfile.ZipFile(path) as archive:
            assert {entry.compress_type for entry in archive.infolist()} == {zipfile.ZIP_STORED}

    def test_deflated_archive_still_loads(self, client, trust_anchors, tmp_path):
        bundle = one_shot_sign(DOC, "Deflated", client)
        stored, deflated = tmp_path / "stored.otcb", tmp_path / "deflated.otcb"
        bundle.save(stored)
        save_deflated(bundle, deflated)
        assert deflated.stat().st_size < stored.stat().st_size
        loaded = SignedDocumentBundle.load(deflated)
        assert loaded == SignedDocumentBundle.load(stored)
        at = bundle.chain.leaf.not_before
        assert (verify_bundle(loaded, DOC, trust_anchors, POLICY, at).to_text()
                == verify_bundle(bundle, DOC, trust_anchors, POLICY, at).to_text())

    def test_load_reads_at_most_the_file_size_and_one_byte(self, client, tmp_path,
                                                          monkeypatch):
        path = tmp_path / "sized.otcb"
        one_shot_sign(DOC, "Sized", client).save(path)
        asked = []

        class SpiedHandle(io.FileIO):
            def read(self, size=-1):
                asked.append(size)
                return super().read(size)

        monkeypatch.setattr(signer, "open", SpiedHandle, raising=False)
        SignedDocumentBundle.load(path)
        assert asked and all(0 <= size <= path.stat().st_size + 1 for size in asked)

    def test_file_over_the_cap(self, tmp_path):
        path = tmp_path / "huge.otcb"
        with open(path, "wb") as handle:
            handle.truncate(signer._MAX_ARCHIVE_BYTES + 4096)  # sparse: nothing written
        with pytest.raises(MalformedEncodingError, match="archive exceeds"):
            SignedDocumentBundle.load(path)

    def test_endless_file(self):
        """/dev/zero has size 0 and never ends: one byte of it is read."""
        with pytest.raises(MalformedEncodingError, match="not a bundle archive"):
            SignedDocumentBundle.load("/dev/zero")


def deflated(data: bytes, *, ended: bool = True) -> bytes:
    """A raw deflate stream of ``data``; with ``ended=False`` every byte of
    ``data`` is in it but the final block never comes."""
    deflater = zlib.compressobj(6, zlib.DEFLATED, -zlib.MAX_WBITS)
    return deflater.compress(data) + deflater.flush(zlib.Z_FINISH if ended
                                                    else zlib.Z_SYNC_FLUSH)


def raw_zip(members: list) -> bytes:
    """A zip archive built field by field (PKWARE APPNOTE 4.3), so each
    member's headers can say what its bytes do not. A member is a dict with
    ``name`` and ``content``; ``stored`` (the bytes written, default the
    deflated content), ``method`` (default 8, deflate), ``crc``, ``size``
    and ``local_name`` override what would be honest."""
    body, directory = bytearray(), bytearray()
    for member in members:
        name, content = member["name"], member["content"]
        stored = member.get("stored", deflated(content))
        fields = (member.get("method", zipfile.ZIP_DEFLATED), 0, 0x21,
                  member.get("crc", zlib.crc32(content)), len(stored),
                  member.get("size", len(content)))
        local_name = member.get("local_name", name)
        offset = len(body)
        body += struct.pack("<4s3H2H3L2H", b"PK\x03\x04", 20, 0, *fields,
                            len(local_name), 0) + local_name + stored
        directory += struct.pack("<4s4H2H3L5H2L", b"PK\x01\x02", 20, 20, 0, *fields,
                                 len(name), 0, 0, 0, 0, 0, offset) + name
    return bytes(body + directory + struct.pack(
        "<4s4H2LH", b"PK\x05\x06", 0, 0, len(members), len(members), len(directory),
        len(body), 0))


@pytest.fixture(scope="module")
def bundle_members(shared_issuer):
    bundle = one_shot_sign(DOC, "Hand Zipped", LocalEnrollmentClient(shared_issuer))
    return {b"meta.txt": bundle._meta_text().encode(), b"signature.bin": bundle.signature,
            b"chain.pem": bundle.chain.to_pem(), b"crl.pem": bundle.crl.to_pem()}


def archive_with(bundle_members: dict, **meta_overrides) -> bytes:
    """The bundle's members as a hand-built archive, meta.txt's entry
    overridden as given."""
    return raw_zip([{"name": name, "content": content,
                     **(meta_overrides if name == b"meta.txt" else {})}
                    for name, content in bundle_members.items()])


class TestArchiveReader:
    """Each case the bundle reader decides for itself, now that zipfile
    parses only the central directory. Each docstring says what the earlier
    zipfile-based reader did; where it loaded the archive, refusing it is a
    tightening."""

    def load_bytes(self, tmp_path, data: bytes):
        path = tmp_path / "hand.otcb"
        path.write_bytes(data)
        return SignedDocumentBundle.load(path)

    def test_hand_built_honest_archive_loads(self, bundle_members, tmp_path):
        loaded = self.load_bytes(tmp_path, archive_with(bundle_members))
        assert loaded.signature == bundle_members[b"signature.bin"]
        stored = archive_with(bundle_members, stored=bundle_members[b"meta.txt"],
                              method=zipfile.ZIP_STORED)
        assert self.load_bytes(tmp_path, stored).created_at == loaded.created_at

    def test_local_name_differs_from_central_entry(self, bundle_members, tmp_path):
        """zipfile refused this too."""
        with pytest.raises(MalformedEncodingError, match="local header naming another"):
            self.load_bytes(tmp_path, archive_with(bundle_members, local_name=b"meta.txx"))

    @pytest.mark.parametrize("override", [
        pytest.param(lambda meta: {"crc": zlib.crc32(meta) ^ 1}, id="crc-zipfile-refused"),
        pytest.param(lambda meta: {"size": len(meta) - 1}, id="smaller-size-zipfile-refused"),
        pytest.param(lambda meta: {"size": len(meta) + 1}, id="larger-size-zipfile-loaded"),
        pytest.param(lambda meta: {"size": len(meta) + 1, "stored": meta, "method": 0},
                     id="stored-larger-size-zipfile-loaded"),
    ])
    def test_size_or_crc_mismatch(self, bundle_members, tmp_path, override):
        """zipfile caught a wrong CRC-32 and any size that cut the content
        short, but loaded a member whose declared size exceeded its content."""
        meta = bundle_members[b"meta.txt"]
        with pytest.raises(MalformedEncodingError, match="declared size and CRC-32"):
            self.load_bytes(tmp_path, archive_with(bundle_members, **override(meta)))

    def test_deflate_stream_without_its_final_block(self, bundle_members, tmp_path):
        """zipfile loaded this: every byte of the content inflates and the
        CRC-32 matches, but the stream never ends."""
        unended = deflated(bundle_members[b"meta.txt"], ended=False)
        with pytest.raises(MalformedEncodingError, match="does not end"):
            self.load_bytes(tmp_path, archive_with(bundle_members, stored=unended))

    def test_deflate_stream_cut_short(self, bundle_members, tmp_path):
        """zipfile refused this on its CRC-32."""
        cut = deflated(bundle_members[b"meta.txt"])[:-4]
        with pytest.raises(MalformedEncodingError, match="does not end"):
            self.load_bytes(tmp_path, archive_with(bundle_members, stored=cut))

    @pytest.mark.parametrize("over", [0, 1])
    def test_archive_cap(self, bundle_members, tmp_path, over):
        """An archive one byte over the cap is refused. zipfile loaded it:
        the padding is a member load() never reads."""
        members = [{"name": name, "content": content}
                   for name, content in bundle_members.items()]

        def padded(size: int) -> bytes:
            return raw_zip(members + [{"name": b"padding.bin", "content": b"",
                                       "method": zipfile.ZIP_STORED, "stored": bytes(size)}])

        data = padded(signer._MAX_ARCHIVE_BYTES - len(padded(0)) + over)
        assert len(data) == signer._MAX_ARCHIVE_BYTES + over
        if over:
            with pytest.raises(MalformedEncodingError, match="archive exceeds"):
                self.load_bytes(tmp_path, data)
        else:
            assert self.load_bytes(tmp_path, data).signature == bundle_members[b"signature.bin"]

    @pytest.mark.parametrize("method", [zipfile.ZIP_BZIP2, zipfile.ZIP_LZMA],
                             ids=["bzip2", "lzma"])
    def test_members_other_than_stored_or_deflated(self, bundle_members, tmp_path, method):
        """zipfile loaded both; save() writes neither."""
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            for name, content in bundle_members.items():
                archive.writestr(name.decode(), content, compress_type=method)
        with pytest.raises(MalformedEncodingError, match="not stored or deflated"):
            self.load_bytes(tmp_path, buffer.getvalue())

    def test_created_at_without_padding(self, bundle_members, tmp_path):
        """zipfile's reader went on to strptime, which read this as
        2026-01-05T08:00:00Z; only the YYYY-MM-DDTHH:MM:SSZ form save()
        writes is read now."""
        meta = bundle_members[b"meta.txt"].decode()
        written = meta.split("created-at = ")[1].split("\n")[0]
        short = meta.replace(written, "2026-1-5T8:0:0Z").encode()
        with pytest.raises(MalformedEncodingError, match="created-at"):
            self.load_bytes(tmp_path, archive_with(bundle_members, content=short))

    def test_second_bundle_under_a_seen_chain_decodes_only_its_leaf(
            self, client, tmp_path, monkeypatch):
        paths = []
        for n in range(2):
            paths.append(tmp_path / f"seen-{n}.otcb")
            one_shot_sign(DOC, f"Seen Chain {n}", client).save(paths[-1])
        first = SignedDocumentBundle.load(paths[0])
        decoded = []
        load_certificates, decode = certmodel.load_certificates, certmodel.decode

        def counted_certificates(pem):
            certificates = load_certificates(pem)
            decoded.extend(certificates)
            return certificates

        def counted_decode(data, kind):
            decoded.append(kind)
            return decode(data, kind)

        monkeypatch.setattr(certmodel, "load_certificates", counted_certificates)
        monkeypatch.setattr(certmodel, "decode", counted_decode)
        second = SignedDocumentBundle.load(paths[1])
        assert decoded == [second.chain.leaf]
        assert second.chain.leaf != first.chain.leaf
        assert second.chain[1:] == first.chain[1:]
        assert second.crl is first.crl
