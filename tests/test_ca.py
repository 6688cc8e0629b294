"""CA engine: hierarchy rules, uniform expiry, one-time issuance, blank
CRLs, retirement-by-key-destruction, pools, and disk persistence."""

import itertools
import os
import subprocess
import sys
import threading
import time
from datetime import timedelta
from pathlib import Path

import pytest
from cryptography import x509
from cryptography.hazmat.primitives import hashes, serialization
from hypothesis import given, settings
from hypothesis import strategies as st

import otcpki
from otcpki import ca as ca_module
from otcpki.ca import (
    CaIdentity,
    CaPolicy,
    CaRole,
    CaState,
    create_root,
    create_subordinate,
    init_hierarchy,
    load_ca,
    save_ca,
    spawn_issuer_pool,
)
from otcpki.certmodel import (
    OTC_EXTENSION_OID,
    Certificate,
    CertificationChain,
    DistinguishedName,
    SigningRequest,
    build_csr,
)
from otcpki.crypto import EphemeralKeyPair, digest_document, random_serial
from otcpki.errors import (
    CaExpiredError,
    CaRetiredError,
    DuplicateBindingError,
    InvalidPolicyError,
    MalformedEncodingError,
    MissingBindingError,
    PopFailureError,
    RoleViolationError,
    UnsupportedSuiteError,
)

from conftest import (
    PADDED_OID_PAYLOAD,
    bound_csr,
    csr_with_extension,
    fresh_policy,
    modes_at_write,
    no_cn_issuer,
    set_clock_past,
    utcnow,
)
from dersurgery import forge_duplicate_binding_csr


# Load an issuer saved on disk and print the serials of N fresh leaves.
_ISSUE_FROM_DISK = """
import sys
from otcpki.ca import load_ca
from otcpki.certmodel import DistinguishedName, build_csr
from otcpki.crypto import EphemeralKeyPair, digest_document
issuer = load_ca(sys.argv[1], sys.argv[2].encode())
keypair = EphemeralKeyPair.generate()
name = DistinguishedName.from_common_name("Process Leaf")
for i in range(int(sys.argv[3])):
    print(issuer.issue_otc(build_csr(keypair, name, digest_document(b"%d" % i))).serial)
"""


def make_csr(keypair, name="Leaf", payload=b"document"):
    return build_csr(keypair, DistinguishedName.from_common_name(name),
                     digest_document(payload))


class TestCreateRoot:
    def test_self_signed_with_requested_expiry(self):
        policy = fresh_policy(days=30)
        root = create_root("Root A", policy)
        assert root.certificate.is_self_signed
        assert root.certificate.not_after == policy.chain_not_after
        assert root.role is CaRole.ROOT
        assert root.state is CaState.ACTIVE

    def test_past_expiry_rejected(self):
        policy = CaPolicy(chain_not_after=utcnow() - timedelta(hours=1))
        with pytest.raises(InvalidPolicyError):
            create_root("Backdated", policy)

    def test_ca_markers(self):
        root = create_root("Root B", fresh_policy())
        assert root.certificate.is_ca
        usage = root.certificate.raw.extensions.get_extension_for_class(x509.KeyUsage)
        assert usage.value.key_cert_sign and usage.value.crl_sign


class TestHierarchyRules:
    def test_three_tiers_share_one_expiry(self):
        root = create_root("Uniform Root", fresh_policy())
        intermediate = create_subordinate(root, "Uniform Int", CaRole.INTERMEDIATE)
        issuer = create_subordinate(intermediate, "Uniform Iss", CaRole.ISSUER)
        assert (
            root.not_after
            == intermediate.not_after
            == issuer.not_after
        )
        assert issuer.chain_to_root().links_verify()

    def test_role_must_strictly_descend(self):
        root = create_root("Strict Root", fresh_policy())
        with pytest.raises(RoleViolationError):
            create_subordinate(root, "Another Root", CaRole.ROOT)
        issuer = create_subordinate(root, "Direct Issuer", CaRole.ISSUER)
        for role in CaRole:
            with pytest.raises(RoleViolationError):
                create_subordinate(issuer, "Below Issuer", role)

    def test_retired_parent_refuses(self):
        root = create_root("Retiring Root", fresh_policy())
        root.retire()
        with pytest.raises(CaRetiredError) as excinfo:
            create_subordinate(root, "Orphan", CaRole.INTERMEDIATE)
        assert excinfo.value.code == "parent-retired"

    def test_expired_parent_refuses(self, monkeypatch):
        root = create_root("Expired Root", fresh_policy())
        set_clock_past(monkeypatch, root.not_after)
        with pytest.raises(CaExpiredError) as excinfo:
            create_subordinate(root, "Too Late", CaRole.INTERMEDIATE)
        assert excinfo.value.code == "parent-expired"

    def test_path_length_tightens_down_the_chain(self):
        hierarchy = init_hierarchy("PathLen Root", fresh_policy())
        assert hierarchy.root.certificate.path_length is None
        assert hierarchy.intermediates[0].certificate.path_length == 1
        assert hierarchy.first_issuer().certificate.path_length == 0

    @settings(max_examples=25, deadline=None)
    @given(
        intermediates=st.integers(min_value=1, max_value=3),
        issuers=st.integers(min_value=1, max_value=3),
        lifetime_days=st.integers(min_value=1, max_value=9125),
    )
    def test_any_shape_has_uniform_expiry(self, intermediates, issuers, lifetime_days):
        policy = fresh_policy(days=lifetime_days)
        hierarchy = init_hierarchy(
            "Shape Root", policy,
            intermediates=intermediates,
            issuers_per_intermediate=issuers,
        )
        cas = hierarchy.all_cas()
        assert len(cas) == 1 + intermediates * (1 + issuers)
        assert {ca.not_after for ca in cas} == {policy.chain_not_after}


class TestIssueOtc:
    def test_leaf_inherits_expiry_and_echoes_binding(self, shared_issuer, keypair_pool):
        digest = digest_document(b"issued doc")
        csr = build_csr(keypair_pool[4], DistinguishedName.from_common_name("Echo"),
                        digest)
        leaf = shared_issuer.issue_otc(csr)
        assert leaf.not_after == shared_issuer.not_after
        assert leaf.binding.digest == digest
        assert leaf.not_before >= shared_issuer.certificate.not_before
        assert not leaf.is_ca
        assert leaf.verify_signed_by(shared_issuer.certificate)

    def test_missing_binding_rejected(self, shared_issuer, keypair_pool):
        from cryptography.hazmat.primitives import hashes

        bare = (
            x509.CertificateSigningRequestBuilder()
            .subject_name(DistinguishedName.from_common_name("No Binding").to_x509())
            .sign(keypair_pool[0]._signing_key(), hashes.SHA256())
        )
        from otcpki.certmodel import SigningRequest

        with pytest.raises(MissingBindingError):
            shared_issuer.issue_otc(SigningRequest(bare))

    def test_duplicate_binding_rejected(self, shared_issuer, keypair_pool):
        keypair = keypair_pool[5]
        forged = forge_duplicate_binding_csr(make_csr(keypair), keypair)
        assert forged.is_signature_valid  # POP holds, so the dup check is what fires
        with pytest.raises(DuplicateBindingError):
            shared_issuer.issue_otc(forged)

    def test_non_canonical_binding_rejected(self, shared_issuer, keypair_pool):
        csr = csr_with_extension(keypair_pool[6], x509.UnrecognizedExtension(
            OTC_EXTENSION_OID, PADDED_OID_PAYLOAD))
        assert csr.is_signature_valid
        with pytest.raises(MalformedEncodingError, match="offset"):
            shared_issuer.issue_otc(csr)

    def test_unparseable_extension_rejected(self, shared_issuer, keypair_pool):
        # A basicConstraints value that is not DER fails when first read.
        csr = csr_with_extension(keypair_pool[6], x509.UnrecognizedExtension(
            x509.oid.ExtensionOID.BASIC_CONSTRAINTS, b"\xff\x00"))
        with pytest.raises(MalformedEncodingError):
            shared_issuer.issue_otc(csr)

    def test_broken_pop_rejected(self, shared_issuer, keypair_pool):
        from otcpki.certmodel import SigningRequest, decode

        marker = "PopVictim"
        csr = make_csr(keypair_pool[6], name=marker)
        der = bytearray(csr.to_der())
        index = der.find(marker.encode())
        der[index] ^= 0x01
        with pytest.raises(PopFailureError):
            shared_issuer.issue_otc(decode(bytes(der), SigningRequest))

    def test_key_off_the_menu_checked_after_pop_and_binding(self, shared_issuer,
                                                            off_menu_keys):
        key = off_menu_keys["rsa-1024"]
        csr = bound_csr(key, digest_document(b"off the menu"))
        with pytest.raises(UnsupportedSuiteError):
            shared_issuer.issue_otc(csr)
        bare = (x509.CertificateSigningRequestBuilder()
                .subject_name(DistinguishedName.from_common_name("Bare").to_x509())
                .sign(key, hashes.SHA256()))
        with pytest.raises(MissingBindingError):
            shared_issuer.issue_otc(SigningRequest(bare))

    def test_expired_issuer_refuses(self, shared_issuer, keypair_pool, monkeypatch):
        set_clock_past(monkeypatch, shared_issuer.not_after)
        for operation in (lambda: shared_issuer.issue_otc(make_csr(keypair_pool[0])),
                          shared_issuer.issue_blank_crl):
            with pytest.raises(CaExpiredError) as excinfo:
                operation()
            assert excinfo.value.code == "issuer-expired"

    def test_non_issuer_roles_refuse(self, shared_hierarchy, keypair_pool):
        csr = make_csr(keypair_pool[0])
        with pytest.raises(RoleViolationError):
            shared_hierarchy.root.issue_otc(csr)
        with pytest.raises(RoleViolationError):
            shared_hierarchy.intermediates[0].issue_otc(csr)

    def test_serials_never_repeat_under_concurrency(self):
        hierarchy = init_hierarchy("Serial Root", fresh_policy())
        issuer = hierarchy.first_issuer()
        keypair = EphemeralKeyPair.generate()
        serials = []
        lock = threading.Lock()

        def issue_batch(count):
            for i in range(count):
                leaf = issuer.issue_otc(make_csr(keypair, payload=b"x"))
                with lock:
                    serials.append(leaf.serial)

        threads = [threading.Thread(target=issue_batch, args=(25,)) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(serials) == 200
        assert len(set(serials)) == 200
        assert all(0 < serial < (1 << 159) for serial in serials)


class TestBlankCrl:
    def test_blank_and_bounded_by_chain_expiry(self, shared_issuer):
        crl = shared_issuer.issue_blank_crl()
        assert crl.is_blank
        assert crl.revoked_serials == ()
        assert crl.next_update == shared_issuer.not_after
        assert crl.issuer == shared_issuer.name
        assert crl.is_signed_by(shared_issuer.certificate)

    def test_not_signed_by_other_ca(self, shared_hierarchy, shared_issuer):
        crl = shared_issuer.issue_blank_crl()
        assert not crl.is_signed_by(shared_hierarchy.root.certificate)

    def test_every_tier_publishes_one(self, shared_hierarchy):
        for ca in shared_hierarchy.all_cas():
            assert ca.issue_blank_crl().is_blank


class TestRetirement:
    def test_issuance_stops_but_history_stands(self, keypair_pool):
        hierarchy = init_hierarchy("Retire Root", fresh_policy())
        issuer = hierarchy.first_issuer()
        leaf = issuer.issue_otc(make_csr(keypair_pool[0]))
        crl = issuer.issue_blank_crl()
        assert issuer.retire() == "destroyed"
        assert issuer.state is CaState.RETIRED
        with pytest.raises(CaRetiredError) as excinfo:
            issuer.issue_otc(make_csr(keypair_pool[1]))
        assert excinfo.value.code == "issuer-retired"
        with pytest.raises(CaRetiredError):
            issuer.issue_blank_crl()
        # everything signed before retirement still verifies
        assert leaf.verify_signed_by(issuer.certificate)
        assert crl.is_signed_by(issuer.certificate)

    def test_no_certificate_is_signed_after_retire_returns(self, keypair_pool, monkeypatch):
        """Issuers racing retire() either get a certificate signed before
        retire() returned or CaRetiredError; nothing is signed afterwards and
        nothing else is raised. Only the signature is under the CA's lock."""
        hierarchy = init_hierarchy("Racing Retire Root", fresh_policy())
        issuer = hierarchy.first_issuer()
        csrs = [make_csr(keypair_pool[i % len(keypair_pool)], payload=b"%d" % i)
                for i in range(64)]
        ticks = itertools.count()
        signed_at = []
        sign = CaIdentity._sign_child_certificate

        def stamped_sign(ca, builder):
            certificate = sign(ca, builder)
            signed_at.append(next(ticks))
            return certificate

        monkeypatch.setattr(CaIdentity, "_sign_child_certificate", stamped_sign)
        unexpected = []

        def issue_until_retired():
            try:
                while True:
                    issuer.issue_otc(csrs[len(signed_at) % len(csrs)])
            except CaRetiredError:
                pass
            except Exception as exc:
                unexpected.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=issue_until_retired, daemon=True)
                       for _ in range(4)]
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 10
            while len(signed_at) < 20 and time.monotonic() < deadline:
                time.sleep(0.001)
            issuer.retire()  # also stops the threads when the deadline passed
            retired_at = next(ticks)
            for thread in threads:
                thread.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert len(signed_at) >= 20, f"{len(signed_at)} of 20 signatures seen within 10 s"
        assert not any(thread.is_alive() for thread in threads)
        assert unexpected == []
        assert signed_at and max(signed_at) < retired_at

    def test_idempotent(self):
        root = create_root("Twice Retired", fresh_policy())
        assert root.retire() == "destroyed"
        assert root.retire() == "already-destroyed"


class TestNamesWithoutCommonName:
    """A CA needs no CN, so messages print its subject as RFC 4514 text."""

    def test_repr(self):
        assert repr(no_cn_issuer()) == "<CaIdentity issuer O=No CN Issuer active>"

    def test_retired_issuer_names_itself(self, keypair_pool):
        issuer = no_cn_issuer()
        issuer.retire()
        with pytest.raises(CaRetiredError, match="^O=No CN Issuer is retired$") as excinfo:
            issuer.issue_otc(make_csr(keypair_pool[0]))
        assert excinfo.value.code == "issuer-retired"


class TestIssuerPool:
    def test_distinct_keys_same_root_same_expiry(self, keypair_pool):
        hierarchy = init_hierarchy("Pool Root", fresh_policy())
        pool = spawn_issuer_pool(hierarchy.intermediates[0], 3)
        assert len(pool) == 3
        assert len({ca.certificate.public_key.public_numbers() for ca in pool}) == 3
        assert len({ca.name.common_name for ca in pool}) == 3
        for issuer in pool:
            assert issuer.not_after == hierarchy.root.not_after
            chain = CertificationChain(
                (issuer.issue_otc(make_csr(keypair_pool[0])), *issuer.chain_to_root())
            )
            assert chain.links_verify()
            assert chain.root == hierarchy.root.certificate

    def test_zero_is_allowed(self, shared_hierarchy):
        assert spawn_issuer_pool(shared_hierarchy.intermediates[0], 0) == []

    def test_negative_rejected(self, shared_hierarchy):
        with pytest.raises(ValueError):
            spawn_issuer_pool(shared_hierarchy.intermediates[0], -1)


class TestPersistence:
    @pytest.fixture
    def passphrase(self, monkeypatch):
        monkeypatch.setenv("OTC_CA_PASSPHRASE", "unit-test-pw")
        return b"unit-test-pw"

    def test_roundtrip_all_roles(self, tmp_path, passphrase, keypair_pool):
        hierarchy = init_hierarchy("Disk Root", fresh_policy())
        layout = {
            "root": hierarchy.root,
            "int-01": hierarchy.intermediates[0],
            "int-01/iss-01": hierarchy.first_issuer(),
        }
        for relative, ca in layout.items():
            save_ca(ca, tmp_path / relative, passphrase)
        for relative, ca in layout.items():
            loaded = load_ca(tmp_path / relative, passphrase)
            assert loaded.certificate == ca.certificate
            assert loaded.role is ca.role
            assert loaded.suite == ca.suite
            assert tuple(loaded.chain_to_root()) == tuple(ca.chain_to_root())
        reloaded_issuer = load_ca(tmp_path / "int-01/iss-01", passphrase)
        leaf = reloaded_issuer.issue_otc(make_csr(keypair_pool[0]))
        assert leaf.verify_signed_by(hierarchy.first_issuer().certificate)

    def test_wrong_passphrase_refused(self, tmp_path, passphrase):
        root = create_root("Locked Root", fresh_policy())
        save_ca(root, tmp_path, passphrase)
        with pytest.raises(InvalidPolicyError):
            load_ca(tmp_path, b"wrong")

    def test_key_of_another_ca_refused(self, tmp_path, passphrase):
        """A CA loaded with another CA's key would sign what no chain
        through its own certificate verifies."""
        for name in ("Our Root", "Their Root"):
            save_ca(create_root(name, fresh_policy()), tmp_path / name, passphrase)
        (tmp_path / "Our Root" / "key.pem").write_bytes(
            (tmp_path / "Their Root" / "key.pem").read_bytes())
        with pytest.raises(InvalidPolicyError, match="is not the key of"):
            load_ca(tmp_path / "Our Root", passphrase)

    def test_key_file_is_encrypted_and_private(self, tmp_path, passphrase):
        root = create_root("Enc Root", fresh_policy())
        save_ca(root, tmp_path, passphrase)
        key_pem = (tmp_path / "key.pem").read_bytes()
        assert b"ENCRYPTED PRIVATE KEY" in key_pem
        assert (tmp_path / "key.pem").stat().st_mode & 0o077 == 0

    @pytest.mark.parametrize("existing", [False, True], ids=["new-file", "existing-file"])
    def test_key_file_is_private_when_written(self, tmp_path, passphrase, existing):
        root = create_root("Umask Root", fresh_policy())
        key_path = tmp_path / "key.pem"
        if existing:
            key_path.write_bytes(b"an earlier save")
            key_path.chmod(0o644)
        with modes_at_write(key_path) as modes:
            save_ca(root, tmp_path, passphrase)
        assert modes and set(modes) == {0o600}

    def _save_self_signed(self, directory, key, algorithm, passphrase):
        """Save a root CA made from ``key``, signed with ``algorithm``, in
        the layout ``save_ca`` writes."""
        name = DistinguishedName.from_common_name("Hand Made Root").to_x509()
        builder = ca_module._ca_builder(name, name, key.public_key(), random_serial(), utcnow(),
                                 utcnow() + timedelta(days=1), CaRole.ROOT)
        certificate = Certificate(builder.sign(key, algorithm))
        (directory / "cert.pem").write_bytes(certificate.to_pem())
        (directory / "chain.pem").write_bytes(certificate.to_pem())
        (directory / "key.pem").write_bytes(key.private_bytes(
            serialization.Encoding.PEM, serialization.PrivateFormat.PKCS8,
            serialization.BestAvailableEncryption(passphrase)))

    def test_key_off_the_menu_refused(self, tmp_path, passphrase, off_menu_keys):
        self._save_self_signed(tmp_path, off_menu_keys["p-521"], hashes.SHA512(), passphrase)
        with pytest.raises(UnsupportedSuiteError, match="unsupported key"):
            load_ca(tmp_path, passphrase)

    def test_hash_off_the_suite_refused(self, tmp_path, passphrase, keypair_pool):
        self._save_self_signed(tmp_path, keypair_pool[0]._signing_key(), hashes.SHA384(),
                               passphrase)
        with pytest.raises(UnsupportedSuiteError,
                           match="hash sha384 does not match suite ecdsa-p256"):
            load_ca(tmp_path, passphrase)

    def test_chain_from_another_hierarchy_refused(self, tmp_path, passphrase):
        ours, theirs = (init_hierarchy(name, fresh_policy()) for name in ("A Root", "B Root"))
        save_ca(ours.first_issuer(), tmp_path, passphrase)
        foreign_tail = theirs.first_issuer().chain_to_root().certificates[1:]
        (tmp_path / "chain.pem").write_bytes(
            CertificationChain((ours.first_issuer().certificate, *foreign_tail)).to_pem())
        with pytest.raises(RoleViolationError, match="does not chain to a self-signed root"):
            load_ca(tmp_path, passphrase)

    def test_serials_distinct_across_save_and_reload(self, tmp_path, passphrase,
                                                     keypair_pool):
        hierarchy = init_hierarchy("Reload Root", fresh_policy())
        issuer = hierarchy.first_issuer()
        save_ca(issuer, tmp_path, passphrase)
        serials = [issuer.issue_otc(make_csr(keypair_pool[i % 8])).serial for i in range(20)]
        issuer.retire()
        for _ in range(2):
            loaded = load_ca(tmp_path, passphrase)
            serials += [loaded.issue_otc(make_csr(keypair_pool[i % 8])).serial
                        for i in range(20)]
        serials.append(issuer.certificate.serial)
        assert len(set(serials)) == len(serials) == 61

    def test_serials_distinct_across_processes(self, tmp_path, passphrase):
        hierarchy = init_hierarchy("Two Process Root", fresh_policy())
        save_ca(hierarchy.first_issuer(), tmp_path, passphrase)
        env = dict(os.environ, PYTHONPATH=str(Path(otcpki.__file__).resolve().parents[1]))
        command = [sys.executable, "-c", _ISSUE_FROM_DISK, str(tmp_path), "unit-test-pw", "40"]
        processes = [subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True)
                     for _ in range(2)]
        outputs = [process.communicate(timeout=60)[0].split() for process in processes]
        assert [process.returncode for process in processes] == [0, 0]
        assert [len(serials) for serials in outputs] == [40, 40]
        assert len(set(outputs[0]) | set(outputs[1])) == 80

    def test_legacy_serial_journal_is_ignored(self, tmp_path, passphrase, keypair_pool):
        issuer = init_hierarchy("Legacy Root", fresh_policy()).first_issuer()
        save_ca(issuer, tmp_path, passphrase)
        journal = tmp_path / "serials.txt"
        journal.write_text(f"{issuer.certificate.serial:x}\nnot hex\n")
        loaded = load_ca(tmp_path, passphrase)
        leaf = loaded.issue_otc(make_csr(keypair_pool[0]))
        assert leaf.verify_signed_by(issuer.certificate)
        assert journal.read_text() == f"{issuer.certificate.serial:x}\nnot hex\n"

    def test_expected_files_on_disk(self, tmp_path, passphrase):
        root = create_root("Layout Root", fresh_policy())
        save_ca(root, tmp_path, passphrase)
        names = {path.name for path in tmp_path.iterdir()}
        assert names == {"cert.pem", "key.pem", "chain.pem", "crl.pem"}
