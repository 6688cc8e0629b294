"""CA engine: hierarchy rules, uniform expiry, one-time issuance, blank
CRLs, retirement-by-key-destruction, pools, and disk persistence."""

import itertools
import os
import shutil
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
    create_root,
    create_subordinate,
    init_hierarchy,
    issuer_directories,
    load_ca,
    save_ca,
    save_hierarchy,
)
from otcpki.certmodel import (
    OTC_EXTENSION_OID,
    Certificate,
    CertificationChain,
    DistinguishedName,
    SigningRequest,
    build_csr,
    verify_csr_pop,
)
from otcpki.crypto import EphemeralKeyPair, digest_document
from otcpki.signer import LocalEnrollmentClient, one_shot_sign
from otcpki.verifier import RecencyPolicy, verify_bundle
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
from dersurgery import forge_duplicate_extension_csr
from forge import reissue_ca, with_chain, with_extension

OPENSSL = shutil.which("openssl")


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


def count_keygens(monkeypatch) -> list:
    """A list that gains the arguments of each later EphemeralKeyPair.generate
    call. A parent that cannot sign used to have the child's key made first
    and then dropped it: 159 ms for rsa-3072."""
    generated = []
    generate = EphemeralKeyPair.generate
    monkeypatch.setattr(EphemeralKeyPair, "generate",
                        lambda *args: generated.append(args) or generate(*args))
    return generated


class TestCreateRoot:
    def test_self_signed_with_requested_expiry(self):
        policy = fresh_policy(days=30)
        root = create_root("Root A", policy)
        assert root.certificate.is_self_signed
        assert root.certificate.not_after == policy.chain_not_after
        assert root.role is CaRole.ROOT
        assert root.is_active

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

    def test_retired_parent_refuses(self, monkeypatch):
        root = create_root("Retiring Root", fresh_policy())
        root.retire()
        generated = count_keygens(monkeypatch)
        with pytest.raises(CaRetiredError) as excinfo:
            create_subordinate(root, "Orphan", CaRole.INTERMEDIATE)
        assert excinfo.value.code == "parent-retired"
        assert generated == []

    def test_expired_parent_refuses(self, monkeypatch):
        root = create_root("Expired Root", fresh_policy())
        set_clock_past(monkeypatch, root.not_after)
        generated = count_keygens(monkeypatch)
        with pytest.raises(CaExpiredError) as excinfo:
            create_subordinate(root, "Too Late", CaRole.INTERMEDIATE)
        assert excinfo.value.code == "parent-expired"
        assert generated == []

    @pytest.mark.parametrize("child", ["leaf", "subordinate"])
    def test_child_validity_is_its_issuers(self, keypair_pool, monkeypatch, child):
        """A certificate signed while the clock reads before its issuer's
        notBefore starts at that notBefore, and every child ends when its
        issuer does."""
        hierarchy = init_hierarchy("Clamp Root", fresh_policy())
        ca = hierarchy.first_issuer() if child == "leaf" else hierarchy.intermediates[0]
        not_before = ca.certificate.not_before
        monkeypatch.setattr(ca_module, "_now", lambda: not_before - timedelta(hours=1))
        if child == "leaf":
            certificate = ca.issue_otc(make_csr(keypair_pool[0]))
        else:
            certificate = create_subordinate(ca, "Clamped", CaRole.ISSUER).certificate
        assert (certificate.not_before, certificate.not_after) == (not_before, ca.not_after)

    def test_path_length_tightens_down_the_chain(self):
        hierarchy = init_hierarchy("PathLen Root", fresh_policy())
        assert hierarchy.root.certificate.path_length is None
        assert hierarchy.intermediates[0].certificate.path_length == 1
        assert hierarchy.first_issuer().certificate.path_length == 0

    @pytest.mark.parametrize("role", list(CaRole), ids=lambda role: role.name.lower())
    def test_role_read_back_from_certificate(self, keypair_pool, role):
        """The table that writes a tier's pathLenConstraint reads it back."""
        keypair = keypair_pool[0]
        subject = DistinguishedName.from_common_name("Tier").name
        issuer = subject if role is CaRole.ROOT else DistinguishedName.from_common_name(
            "Above").name
        builder = ca_module._certificate_builder(
            subject, issuer, keypair.public_key, utcnow(), utcnow() + timedelta(days=1),
            ca_module._ca_extensions(role, keypair.public_key))
        identity = CaIdentity(Certificate(keypair.sign_builder(builder)), keypair)
        assert identity.role is role
        assert identity.certificate.path_length == role.path_length

    def test_leaf_certificate_is_no_ca(self, shared_issuer, keypair_pool):
        leaf = shared_issuer.issue_otc(make_csr(keypair_pool[0]))
        with pytest.raises(RoleViolationError, match="not a CA certificate"):
            CaIdentity(leaf, keypair_pool[0])

    @pytest.mark.parametrize("path_length,self_issued", [(None, False), (0, True), (1, True),
                                                         (2, False)])
    def test_certificate_of_no_tier_refused(self, keypair_pool, path_length, self_issued):
        """Only a root is unconstrained and self-issued, and no tier has a
        pathLenConstraint above 1."""
        keypair = keypair_pool[0]
        subject = DistinguishedName.from_common_name("No Tier").name
        issuer = subject if self_issued else DistinguishedName.from_common_name(
            "Above").name
        builder = (
            x509.CertificateBuilder()
            .subject_name(subject)
            .issuer_name(issuer)
            .public_key(keypair.public_key)
            .serial_number(x509.random_serial_number())
            .not_valid_before(utcnow())
            .not_valid_after(utcnow() + timedelta(days=1))
            .add_extension(x509.BasicConstraints(ca=True, path_length=path_length),
                           critical=True)
        )
        with pytest.raises(RoleViolationError, match="is not a CA certificate of any tier"):
            CaIdentity(Certificate(keypair.sign_builder(builder)), keypair)

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
            .subject_name(DistinguishedName.from_common_name("No Binding").name)
            .sign(keypair_pool[0]._signing_key(), hashes.SHA256())
        )
        from otcpki.certmodel import SigningRequest

        with pytest.raises(MissingBindingError):
            shared_issuer.issue_otc(SigningRequest(bare))

    def test_duplicate_binding_rejected(self, shared_issuer, keypair_pool):
        keypair = keypair_pool[5]
        forged = forge_duplicate_extension_csr(make_csr(keypair), keypair)
        assert verify_csr_pop(forged)  # POP holds, so the dup check is what fires
        with pytest.raises(DuplicateBindingError):
            shared_issuer.issue_otc(forged)

    def test_non_canonical_binding_rejected(self, shared_issuer, keypair_pool):
        csr = csr_with_extension(keypair_pool[6], x509.UnrecognizedExtension(
            OTC_EXTENSION_OID, PADDED_OID_PAYLOAD))
        assert verify_csr_pop(csr)
        with pytest.raises(MalformedEncodingError, match="offset"):
            shared_issuer.issue_otc(csr)

    def test_unparseable_extension_rejected(self, shared_issuer, keypair_pool):
        # A basicConstraints value that is not DER fails when first read.
        csr = csr_with_extension(keypair_pool[6], x509.UnrecognizedExtension(
            x509.oid.ExtensionOID.BASIC_CONSTRAINTS, b"\xff\x00"))
        with pytest.raises(MalformedEncodingError):
            shared_issuer.issue_otc(csr)

    def test_broken_pop_rejected(self, shared_issuer, keypair_pool):
        from otcpki.certmodel import SigningRequest

        marker = "PopVictim"
        csr = make_csr(keypair_pool[6], name=marker)
        der = bytearray(csr.to_der())
        index = der.find(marker.encode())
        der[index] ^= 0x01
        with pytest.raises(PopFailureError):
            shared_issuer.issue_otc(SigningRequest(x509.load_der_x509_csr(bytes(der))))

    def test_key_off_the_menu_refused_before_pop(self, shared_issuer, off_menu_keys,
                                                 monkeypatch):
        """The key's suite is read first, so a key off the menu costs no
        public-key operation, and a request that is also bare reads
        unsupported-suite. An RSA-16384 request used to cost 1.4 ms before
        its refusal, and a 3071-bit exponent was on the menu."""
        pop_checks = []
        monkeypatch.setattr(ca_module, "verify_csr_pop", pop_checks.append)
        for kind in ("rsa-1024", "rsa-3072-huge-exponent"):
            key = off_menu_keys[kind]
            bare = (x509.CertificateSigningRequestBuilder()
                    .subject_name(DistinguishedName.from_common_name("Bare").name)
                    .sign(key, hashes.SHA256()))
            for csr in (bound_csr(key, digest_document(b"off the menu")), SigningRequest(bare)):
                with pytest.raises(UnsupportedSuiteError):
                    shared_issuer.issue_otc(csr)
        assert pop_checks == []

    def test_unreadable_key_is_off_the_menu(self, shared_issuer, keypair_pool):
        """A point off its curve is read only when the key is. It used to
        fail the POP check; now it fails the suite check, which reads the
        key first."""
        csr = make_csr(keypair_pool[6], name="Off Curve")
        point = csr.public_key.public_bytes(serialization.Encoding.X962,
                                            serialization.PublicFormat.UncompressedPoint)
        der = csr.to_der().replace(point, point[:-1] + bytes([point[-1] ^ 1]))
        with pytest.raises(UnsupportedSuiteError):
            shared_issuer.issue_otc(SigningRequest(x509.load_der_x509_csr(der)))

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
        assert crl.raw.issuer == shared_issuer.certificate.raw.subject
        assert crl.is_signed_by(shared_issuer.certificate)

    def test_not_signed_by_other_ca(self, shared_hierarchy, shared_issuer):
        crl = shared_issuer.issue_blank_crl()
        assert not crl.is_signed_by(shared_hierarchy.root.certificate)

    def test_every_tier_publishes_one(self, shared_hierarchy):
        for ca in shared_hierarchy.all_cas():
            assert ca.issue_blank_crl().is_blank

    def test_one_crl_fixed_by_the_certificate(self, shared_issuer, monkeypatch):
        """Each call used to sign a new CRL dated now, numbered 1 all the
        same; the first is now the only one, dated at the CA's notBefore."""
        crl = shared_issuer.issue_blank_crl()
        assert shared_issuer.issue_blank_crl() is crl
        assert crl.last_update == shared_issuer.certificate.not_before
        assert crl.next_update == shared_issuer.not_after
        assert crl.raw.extensions.get_extension_for_class(x509.CRLNumber).value.crl_number == 1
        set_clock_past(monkeypatch, shared_issuer.not_after)
        with pytest.raises(CaExpiredError) as excinfo:
            shared_issuer.issue_blank_crl()
        assert excinfo.value.code == "issuer-expired"

    def test_one_crl_under_concurrent_first_calls(self):
        issuer = init_hierarchy("Concurrent CRL Root", fresh_policy()).first_issuer()
        barrier = threading.Barrier(8)
        crls = []

        def first_call():
            barrier.wait(timeout=10)
            crls.append(issuer.issue_blank_crl())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_call) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(crls) == 8 and all(crl is crls[0] for crl in crls)


class TestRetirement:
    def test_issuance_stops_but_history_stands(self, keypair_pool):
        hierarchy = init_hierarchy("Retire Root", fresh_policy())
        issuer = hierarchy.first_issuer()
        leaf = issuer.issue_otc(make_csr(keypair_pool[0]))
        crl = issuer.issue_blank_crl()
        assert issuer.retire() == "destroyed"
        assert not issuer.is_active
        with pytest.raises(CaRetiredError) as excinfo:
            issuer.issue_otc(make_csr(keypair_pool[1]))
        assert excinfo.value.code == "issuer-retired"
        with pytest.raises(CaRetiredError):
            issuer.issue_blank_crl()
        # everything signed before retirement still verifies
        assert leaf.verify_signed_by(issuer.certificate)
        assert crl.is_signed_by(issuer.certificate)

    @pytest.mark.parametrize("child", ["leaf", "subordinate"])
    def test_no_certificate_is_signed_after_retire_returns(self, keypair_pool, monkeypatch,
                                                           child):
        """Threads racing retire() to issue leaves, or to create CAs below
        the retiring one, either get a certificate signed before retire()
        returned or CaRetiredError; nothing is signed afterwards and nothing
        else is raised. Each signature is stamped under the CA's lock."""
        hierarchy = init_hierarchy("Racing Retire Root", fresh_policy())
        if child == "leaf":
            ca = hierarchy.first_issuer()
            csrs = [make_csr(keypair_pool[i % len(keypair_pool)], payload=b"%d" % i)
                    for i in range(64)]

            def sign_child(i):
                ca.issue_otc(csrs[i % len(csrs)])
        else:
            ca = hierarchy.intermediates[0]

            def sign_child(i):
                create_subordinate(ca, f"Racing Issuer {i}", CaRole.ISSUER)
        ticks = itertools.count()
        signed_at = []
        sign = ca._keypair.sign_builder

        def stamped_sign(builder):
            signed = sign(builder)
            signed_at.append(next(ticks))
            return signed

        monkeypatch.setattr(ca._keypair, "sign_builder", stamped_sign)
        unexpected = []

        def issue_until_retired():
            try:
                while True:
                    sign_child(len(signed_at))
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
            ca.retire()  # also stops the threads when the deadline passed
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
        issuer = no_cn_issuer()
        assert repr(issuer) == "<CaIdentity issuer O=No CN Issuer active>"
        issuer.retire()
        assert repr(issuer) == "<CaIdentity issuer O=No CN Issuer retired>"

    def test_retired_issuer_names_itself(self, keypair_pool):
        issuer = no_cn_issuer()
        issuer.retire()
        with pytest.raises(CaRetiredError, match="^O=No CN Issuer is retired$") as excinfo:
            issuer.issue_otc(make_csr(keypair_pool[0]))
        assert excinfo.value.code == "issuer-retired"


class TestIssuerPool:
    def test_distinct_keys_same_root_same_expiry(self, keypair_pool):
        hierarchy = init_hierarchy("Pool Root", fresh_policy(), 1, 3)
        pool = hierarchy.issuers[0]
        assert len(pool) == 3
        assert len({ca.certificate.public_key.public_numbers() for ca in pool}) == 3
        assert len({ca.certificate.subject_text for ca in pool}) == 3
        for issuer in pool:
            assert issuer.not_after == hierarchy.root.not_after
            chain = CertificationChain(
                (issuer.issue_otc(make_csr(keypair_pool[0])), *issuer.chain_to_root())
            )
            assert chain.links_verify()
            assert chain.root == hierarchy.root.certificate

    def test_negative_rejected(self):
        """A hierarchy has at least one intermediate and one issuer under each."""
        for intermediates, issuers in ((0, 1), (1, 0), (1, -1)):
            with pytest.raises(ValueError):
                init_hierarchy("Empty Root", fresh_policy(), intermediates, issuers)


def key_identifier(signed, kind) -> bytes:
    """The key identifier a certificate or CRL carries in the extension
    ``kind``."""
    value = signed.raw.extensions.get_extension_for_class(kind).value
    return value.key_identifier if kind is x509.AuthorityKeyIdentifier else value.digest


def openssl_verify(tmp_path, root: Certificate, untrusted: list, leaf: Certificate,
                   *options: str) -> subprocess.CompletedProcess:
    files = {"root": [root], "untrusted": untrusted, "leaf": [leaf]}
    for name, certificates in files.items():
        (tmp_path / name).write_bytes(b"".join(cert.to_pem() for cert in certificates))
    return subprocess.run(
        [OPENSSL, "verify", "-x509_strict", *options, "-CAfile", str(tmp_path / "root"),
         "-untrusted", str(tmp_path / "untrusted"), str(tmp_path / "leaf")],
        capture_output=True, text=True, timeout=30)


class TestKeyIdentifiers:
    """RFC 5280: each CA certificate carries a subjectKeyIdentifier
    (§4.2.1.2); each certificate a CA signs, and each CRL, an
    authorityKeyIdentifier naming the signing key (§4.2.1.1, §5.2.1); and a
    CRL its number (§5.2.3). None was carried before, so ``openssl verify
    -x509_strict`` refused every chain (error 85)."""

    def test_each_signature_names_the_signing_key(self, shared_issuer, keypair_pool):
        leaf = shared_issuer.issue_otc(make_csr(keypair_pool[0]))
        chain = [leaf, *shared_issuer.chain_to_root()]
        for child, parent in zip(chain, chain[1:]):
            assert (key_identifier(child, x509.AuthorityKeyIdentifier)
                    == key_identifier(parent, x509.SubjectKeyIdentifier))
        crl = shared_issuer.issue_blank_crl()
        assert (key_identifier(crl, x509.AuthorityKeyIdentifier)
                == key_identifier(shared_issuer.certificate, x509.SubjectKeyIdentifier))
        assert crl.raw.extensions.get_extension_for_class(x509.CRLNumber).value.crl_number == 1

    def test_ca_saved_without_identifiers_still_loads_and_signs(self, shared_hierarchy,
                                                                 shared_issuer, tmp_path,
                                                                 keypair_pool):
        """A CA certificate from before key identifiers carries none; its
        leaves name its key all the same."""
        old = CaIdentity(reissue_ca(shared_issuer, shared_hierarchy.intermediates[0],
                                    path_length=0),
                         shared_issuer._keypair, shared_issuer.lineage)
        with pytest.raises(x509.ExtensionNotFound):
            key_identifier(old.certificate, x509.SubjectKeyIdentifier)
        save_ca(old, tmp_path, b"old-pw")
        loaded = load_ca(tmp_path, b"old-pw")
        leaf = loaded.issue_otc(make_csr(keypair_pool[0]))
        assert leaf.verify_signed_by(old.certificate)
        assert (key_identifier(leaf, x509.AuthorityKeyIdentifier)
                == x509.SubjectKeyIdentifier.from_public_key(old.certificate.public_key).digest)

    @pytest.mark.skipif(OPENSSL is None, reason="openssl CLI not installed")
    def test_openssl_strict_accepts_an_honest_bundle(self, shared_issuer, tmp_path):
        bundle = one_shot_sign(b"strict", "Strict Signer", LocalEnrollmentClient(shared_issuer))
        chain = bundle.chain
        (tmp_path / "crl").write_bytes(bundle.crl.to_pem())
        openssl = openssl_verify(tmp_path, chain.root, list(chain[1:-1]), chain.leaf,
                                 "-crl_check", "-CRLfile", str(tmp_path / "crl"))
        assert openssl.returncode == 0, openssl.stdout + openssl.stderr

    @pytest.mark.skipif(OPENSSL is None, reason="openssl CLI not installed")
    def test_same_named_issuers_told_apart(self, tmp_path, keypair_pool):
        """Two issuers created under one parent with one name. By name
        alone, OpenSSL took whichever came first and failed on the second's
        leaf (error 7)."""
        hierarchy = init_hierarchy("Twin Issuers Root", fresh_policy())
        intermediate = hierarchy.intermediates[0]
        first, second = (create_subordinate(intermediate, "Twin Issuer", CaRole.ISSUER)
                         for _ in range(2))
        assert first.certificate.raw.subject == second.certificate.raw.subject
        leaf = second.issue_otc(make_csr(keypair_pool[0]))
        for issuers in ([first, second], [second, first]):
            untrusted = [issuer.certificate for issuer in issuers] + [intermediate.certificate]
            openssl = openssl_verify(tmp_path, hierarchy.root.certificate, untrusted, leaf)
            assert openssl.returncode == 0, openssl.stdout + openssl.stderr


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

    def test_hierarchy_layout(self, tmp_path, passphrase):
        hierarchy = init_hierarchy("Layout Root", fresh_policy(), intermediates=2,
                                   issuers_per_intermediate=2)
        rows = save_hierarchy(hierarchy, tmp_path, passphrase)
        assert [(ca, directory.relative_to(tmp_path).as_posix()) for ca, directory in rows] == [
            (hierarchy.root, "root"),
            (hierarchy.intermediates[0], "int-01"),
            (hierarchy.issuers[0][0], "int-01/iss-01"),
            (hierarchy.issuers[0][1], "int-01/iss-02"),
            (hierarchy.intermediates[1], "int-02"),
            (hierarchy.issuers[1][0], "int-02/iss-01"),
            (hierarchy.issuers[1][1], "int-02/iss-02"),
        ]
        for ca, directory in rows:
            assert load_ca(directory, passphrase).certificate == ca.certificate
        assert issuer_directories(tmp_path) == [directory for ca, directory in rows
                                                if ca.role is CaRole.ISSUER]

    def test_hierarchy_not_saved_over_another(self, tmp_path, passphrase, shared_hierarchy):
        (tmp_path / "root").mkdir()
        with pytest.raises(FileExistsError, match="is not empty"):
            save_hierarchy(shared_hierarchy, tmp_path, passphrase)
        assert [path.name for path in tmp_path.rglob("*")] == ["root"]

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
        name = DistinguishedName.from_common_name("Hand Made Root").name
        builder = ca_module._certificate_builder(
            name, name, key.public_key(), utcnow(), utcnow() + timedelta(days=1),
            ca_module._ca_extensions(CaRole.ROOT, key.public_key()))
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

    def test_chain_of_another_ca_refused(self, tmp_path, passphrase, shared_hierarchy):
        """chain.pem holds the issuer's intermediate and root, not itself."""
        issuer = shared_hierarchy.first_issuer()
        save_ca(issuer, tmp_path, passphrase)
        (tmp_path / "chain.pem").write_bytes(
            CertificationChain(issuer.chain_to_root().certificates[1:]).to_pem())
        with pytest.raises(RoleViolationError,
                           match="^chain.pem does not start with this CA's certificate$"):
            load_ca(tmp_path, passphrase)

    def test_chain_without_its_root_refused(self, tmp_path, passphrase, shared_hierarchy):
        issuer = shared_hierarchy.first_issuer()
        save_ca(issuer, tmp_path, passphrase)
        (tmp_path / "chain.pem").write_bytes(
            CertificationChain(issuer.chain_to_root().certificates[:-1]).to_pem())
        with pytest.raises(RoleViolationError, match=": chain does not end in a self-signed root$"):
            load_ca(tmp_path, passphrase)

    # Each case re-signs one certificate of an issuer's chain, its own (0)
    # or its intermediate's (1), with the same name and key, so what that CA
    # signed still verifies under it.
    FORGED_CHAINS = {
        "intermediate-without-key-cert-sign": (1, lambda h: reissue_ca(
            h.intermediates[0], h.root, path_length=1, key_cert_sign=False)),
        "intermediate-path-length": (1, lambda h: reissue_ca(
            h.intermediates[0], h.root, path_length=0)),
        "intermediate-critical-extension": (1, lambda h: with_extension(
            h.intermediates[0].certificate, h.root,
            x509.UnrecognizedExtension(x509.ObjectIdentifier("1.3.6.1.4.1.55555.1"), b"\x05\x00"),
            critical=True)),
        "issuer-without-key-cert-sign": (0, lambda h: reissue_ca(
            h.first_issuer(), h.intermediates[0], path_length=0, key_cert_sign=False)),
    }

    @pytest.mark.parametrize("case", FORGED_CHAINS)
    def test_chain_that_chain_trust_refuses_is_refused(self, tmp_path, passphrase,
                                                       shared_hierarchy, case):
        """load_ca used to check only the signatures of chain.pem's links,
        so each of these issuers loaded, and every bundle it then signed
        failed chain-trust. Both apply one rule now, and say the same."""
        issuer = shared_hierarchy.first_issuer()
        position, forge = self.FORGED_CHAINS[case]
        certificates = list(issuer.chain_to_root())
        certificates[position] = forge(shared_hierarchy)
        save_ca(issuer, tmp_path, passphrase)
        (tmp_path / "cert.pem").write_bytes(certificates[0].to_pem())
        (tmp_path / "chain.pem").write_bytes(CertificationChain(certificates).to_pem())
        with pytest.raises(RoleViolationError) as excinfo:
            load_ca(tmp_path, passphrase)
        bundle = one_shot_sign(b"forged chain", "Forged Chain", LocalEnrollmentClient(issuer))
        chain = CertificationChain((bundle.chain.leaf, *certificates))
        report = verify_bundle(with_chain(bundle, chain), b"forged chain",
                               [shared_hierarchy.root.certificate],
                               RecencyPolicy(max_age=timedelta(hours=1)))
        assert report.failure_codes == ("untrusted-chain",)
        assert str(excinfo.value) == ("chain.pem does not chain to a self-signed root: "
                                      + report.checks[0].detail)

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
