"""Verifier: the full check battery, one test per failure code, boundary
behavior of the recency window, legacy mode, and soundness fuzzing."""

import dataclasses
import itertools
import shutil
import subprocess
from datetime import datetime, timedelta, timezone

import pytest
from cryptography import x509
from cryptography.hazmat.primitives.asymmetric import ec
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from otcpki import ca as ca_module
from otcpki import verifier
from otcpki.ca import init_hierarchy
from otcpki.certmodel import (
    OTC_EXTENSION_OID,
    Certificate,
    CertificationChain,
    DistinguishedName,
    OtcExtension,
    RevocationList,
    SigningRequest,
    build_csr,
)
from otcpki.crypto import EphemeralKeyPair, digest_document, spki_der
from otcpki.signer import LocalEnrollmentClient, one_shot_sign
from otcpki.verifier import (
    DEFAULT_CLOCK_SKEW,
    FailureCode,
    RecencyPolicy,
    check_recency,
    verify_bundle,
)

from conftest import PADDED_OID_PAYLOAD, clear_memos, count_calls, fresh_policy, no_cn_issuer
from forge import (
    break_certificate_signature,
    forge_blank_crl,
    forge_bundle,
    forge_leaf,
    forge_nonblank_crl,
    reissue_ca,
    swap_leaf,
    with_chain,
    with_crl,
    with_extension,
    with_signature,
)

DOC = b"the agreed text"
HOUR = timedelta(hours=1)
DAY = timedelta(days=1)
POLICY = RecencyPolicy(max_age=HOUR)

CHECK_ORDER = (
    "chain-trust",
    "validity-window",
    "uniform-validity",
    "binding-presence",
    "binding-match",
    "signature",
    "recency",
    "crl",
)


def _invalid_validity(*_):
    raise ValueError("invalid validity")


@pytest.fixture
def client(shared_issuer):
    return LocalEnrollmentClient(shared_issuer)


@pytest.fixture
def bundle(client):
    return one_shot_sign(DOC, "Verified Author", client)


class TestHappyPath:
    def test_accepts_and_records_every_check(self, bundle, trust_anchors):
        report = verify_bundle(bundle, DOC, trust_anchors, POLICY)
        assert report.accepted
        assert tuple(check.name for check in report.checks) == CHECK_ORDER
        assert all(check.passed for check in report.checks)
        assert report.failure_codes == ()

    def test_deterministic_given_a_time(self, bundle, trust_anchors):
        at = datetime.now(timezone.utc)
        first = verify_bundle(bundle, DOC, trust_anchors, POLICY, at)
        second = verify_bundle(bundle, DOC, trust_anchors, POLICY, at)
        assert first == second

    def test_report_text_format(self, bundle, trust_anchors):
        text = verify_bundle(bundle, DOC, trust_anchors, POLICY).to_text()
        assert text.startswith("verdict: accepted")
        for name in CHECK_ORDER:
            assert f"  {name}: pass" in text

    def test_all_checks_still_run_after_a_failure(self, bundle, trust_anchors):
        report = verify_bundle(bundle, b"tampered", trust_anchors, POLICY)
        assert tuple(check.name for check in report.checks) == CHECK_ORDER
        assert report.checks[0].passed  # chain trust unaffected


class TestFailureCodes:
    """Each code, provoked in isolation."""

    def test_untrusted_chain_wrong_anchor(self, bundle):
        stranger = init_hierarchy("Stranger Root", fresh_policy()).root
        report = verify_bundle(bundle, DOC, [stranger.certificate], POLICY)
        assert not report.accepted
        assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)

    def test_untrusted_chain_broken_link(self, bundle, trust_anchors):
        certs = list(bundle.chain.certificates)
        certs[1] = break_certificate_signature(certs[1])
        report = verify_bundle(
            with_chain(bundle, CertificationChain(certs)), DOC, trust_anchors, POLICY
        )
        assert FailureCode.UNTRUSTED_CHAIN.value in report.failure_codes

    def test_untrusted_chain_no_anchors(self, bundle):
        report = verify_bundle(bundle, DOC, [], POLICY)
        assert FailureCode.UNTRUSTED_CHAIN.value in report.failure_codes

    def test_expired(self, bundle, trust_anchors):
        beyond = bundle.chain.root.not_after + timedelta(seconds=1)
        report = verify_bundle(bundle, DOC, trust_anchors, POLICY, at_time=beyond)
        assert FailureCode.EXPIRED.value in report.failure_codes

    def test_not_yet_valid_counts_as_expired_code(self, bundle, trust_anchors):
        before = bundle.chain.leaf.not_before - timedelta(seconds=10)
        report = verify_bundle(bundle, DOC, trust_anchors, POLICY, at_time=before)
        assert FailureCode.EXPIRED.value in report.failure_codes

    def test_non_uniform_validity(self, shared_issuer, bundle, trust_anchors,
                                  keypair_pool):
        csr = build_csr(keypair_pool[0], DistinguishedName.from_common_name("Short"),
                        bundle.document_digest)
        short_leaf = forge_leaf(
            shared_issuer, csr,
            not_after=shared_issuer.not_after - timedelta(days=1),
        )
        report = verify_bundle(
            swap_leaf(bundle, short_leaf), DOC, trust_anchors, POLICY
        )
        assert FailureCode.NON_UNIFORM_VALIDITY.value in report.failure_codes

    def test_missing_binding(self, shared_issuer, client, trust_anchors, keypair_pool):
        keypair = EphemeralKeyPair.generate()
        csr = build_csr(keypair, DistinguishedName.from_common_name("Bare"),
                        digest_document(DOC))
        bare_leaf = forge_leaf(shared_issuer, csr, include_binding=False)
        signature = keypair.sign_digest(digest_document(DOC))
        keypair.destroy()
        from otcpki.signer import SignedDocumentBundle

        forged = SignedDocumentBundle(
            document_digest=digest_document(DOC),
            signature=signature,
            chain=CertificationChain((bare_leaf, *shared_issuer.chain_to_root())),
            crl=client.fetch_crl(None),
        )
        report = verify_bundle(forged, DOC, trust_anchors, POLICY)
        codes = report.failure_codes
        assert FailureCode.MISSING_BINDING.value in codes
        assert FailureCode.BAD_SIGNATURE.value not in codes  # signature itself is fine

    def test_undecodable_binding(self, shared_issuer, bundle, trust_anchors):
        """A binding that cryptography reads but from_payload refuses (its
        OID arc is padded) fails both binding checks through their guard."""
        keypair = EphemeralKeyPair.generate()
        csr = build_csr(keypair, DistinguishedName.from_common_name("Padded"),
                        bundle.document_digest)
        leaf = with_extension(forge_leaf(shared_issuer, csr, include_binding=False),
                              shared_issuer,
                              x509.UnrecognizedExtension(OTC_EXTENSION_OID, PADDED_OID_PAYLOAD),
                              critical=False)
        forged = with_signature(swap_leaf(bundle, leaf),
                                keypair.sign_digest(bundle.document_digest))
        keypair.destroy()
        report = verify_bundle(forged, DOC, trust_anchors, POLICY)
        assert not report.accepted
        checks = {check.name: check for check in report.checks}
        for name in ("binding-presence", "binding-match"):
            assert checks[name].failure_code is FailureCode.MISSING_BINDING
            assert checks[name].detail.startswith("cannot decode: ")

    @pytest.mark.parametrize("owner,attribute,unreadable,name,code", [
        (CertificationChain, "not_after_values", _invalid_validity, "uniform-validity",
         FailureCode.NON_UNIFORM_VALIDITY),
        (Certificate, "not_before", property(_invalid_validity), "recency", FailureCode.STALE),
    ], ids=["uniform-validity", "recency"])
    def test_undecodable_dates(self, bundle, trust_anchors, monkeypatch, owner, attribute,
                               unreadable, name, code):
        """A date that raises when read fails its check through the same
        guard as the other checks. It used to escape verify_bundle."""
        monkeypatch.setattr(owner, attribute, unreadable)
        report = verify_bundle(bundle, DOC, trust_anchors, POLICY)
        assert f"  {name}: FAIL [{code.value}] (cannot decode: ValueError(" in report.to_text()

    def test_binding_mismatch(self, bundle, trust_anchors):
        report = verify_bundle(bundle, DOC + b"!", trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.BINDING_MISMATCH.value,)

    def test_bad_signature(self, bundle, trust_anchors):
        report = verify_bundle(
            with_signature(bundle, b"\x00" * len(bundle.signature)),
            DOC, trust_anchors, POLICY,
        )
        assert report.failure_codes == (FailureCode.BAD_SIGNATURE.value,)

    def test_stale(self, bundle, trust_anchors):
        late = bundle.chain.leaf.not_before + HOUR + DEFAULT_CLOCK_SKEW + timedelta(seconds=1)
        report = verify_bundle(bundle, DOC, trust_anchors, POLICY, at_time=late)
        assert report.failure_codes == (FailureCode.STALE.value,)

    def test_bad_crl_nonblank(self, shared_issuer, bundle, trust_anchors):
        angry_crl = forge_nonblank_crl(shared_issuer, bundle.chain.leaf.serial)
        report = verify_bundle(with_crl(bundle, angry_crl), DOC, trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.BAD_CRL.value,)

    def test_bad_crl_absent(self, bundle, trust_anchors):
        report = verify_bundle(with_crl(bundle, None), DOC, trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.BAD_CRL.value,)

    def test_bad_crl_foreign_issuer(self, shared_hierarchy, bundle, trust_anchors):
        root_crl = shared_hierarchy.root.issue_blank_crl()
        report = verify_bundle(with_crl(bundle, root_crl), DOC, trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.BAD_CRL.value,)


def ca_leaf_bundle(shared_issuer, bundle):
    """The bundle re-signed under a leaf that carries the binding and is
    also marked as a CA."""
    keypair = EphemeralKeyPair.generate()
    csr = build_csr(keypair, DistinguishedName.from_common_name("CA Leaf"),
                    bundle.document_digest)
    leaf = forge_leaf(shared_issuer, csr, ca=True)
    signature = keypair.sign_digest(bundle.document_digest)
    keypair.destroy()
    return with_signature(swap_leaf(bundle, leaf), signature)


def reissued_path_bundle(shared_hierarchy, bundle, position, **constraints):
    """The bundle with chain certificate ``position`` (1: issuing CA, 2:
    intermediate) re-signed by its parent under other constraints."""
    issuer = shared_hierarchy.first_issuer()
    intermediate = shared_hierarchy.intermediates[0]
    ca, parent = {1: (issuer, intermediate), 2: (intermediate, shared_hierarchy.root)}[position]
    certs = list(bundle.chain.certificates)
    certs[position] = reissue_ca(ca, parent, **constraints)
    return with_chain(bundle, CertificationChain(certs))


# An extension that no validator processes: the arc above the binding's OID.
UNKNOWN_EXTENSION = x509.UnrecognizedExtension(x509.ObjectIdentifier("1.3.6.1.4.1.55555.1"),
                                               b"\x05\x00")
# Name constraints that no certificate under the fixture root satisfies.
SOMEONE_ELSE_ONLY = x509.NameConstraints(
    permitted_subtrees=[x509.DirectoryName(x509.Name(
        [x509.NameAttribute(x509.NameOID.COMMON_NAME, "Someone Else")]))],
    excluded_subtrees=None)


def extended_bundle(shared_hierarchy, bundle, position, extension, critical=True):
    """The bundle with chain certificate ``position`` (0: leaf, 1: issuing
    CA) re-signed by its issuer with one more extension."""
    signer = (shared_hierarchy.first_issuer(), shared_hierarchy.intermediates[0])[position]
    certs = list(bundle.chain.certificates)
    certs[position] = with_extension(certs[position], signer, extension, critical=critical)
    return with_chain(bundle, CertificationChain(certs))


def critical_binding_bundle(shared_issuer, bundle):
    """The bundle re-signed under a leaf issued for a CSR whose binding is
    critical; ``issue_otc`` copies the binding's criticality."""
    keypair = EphemeralKeyPair.generate()
    builder = (
        x509.CertificateSigningRequestBuilder()
        .subject_name(DistinguishedName.from_common_name("Critical Binding").name)
        .add_extension(OtcExtension(bundle.document_digest).to_x509(), critical=True)
    )
    leaf = shared_issuer.issue_otc(SigningRequest(keypair.sign_builder(builder)))
    signature = keypair.sign_digest(bundle.document_digest)
    keypair.destroy()
    assert leaf.binding.critical
    return with_signature(swap_leaf(bundle, leaf), signature)


class TestPathConstraints:
    """RFC 5280 §6.1 checks beyond the CA flag and the signatures. Each case
    is a chain whose every signature verifies."""

    def test_leaf_that_is_a_ca(self, shared_issuer, bundle, trust_anchors):
        report = verify_bundle(ca_leaf_bundle(shared_issuer, bundle), DOC, trust_anchors,
                               POLICY)
        assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)
        assert report.checks[0].detail == "leaf CN=CA Leaf is a CA certificate"

    def test_issuer_key_usage_without_key_cert_sign(self, shared_hierarchy, bundle,
                                                    trust_anchors):
        forged = reissued_path_bundle(shared_hierarchy, bundle, 1, path_length=0,
                                      key_cert_sign=False)
        report = verify_bundle(forged, DOC, trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)
        assert report.checks[0].detail.endswith("keyUsage does not assert keyCertSign")

    def test_issuing_certificate_that_is_not_a_ca(self, shared_hierarchy, bundle,
                                                  trust_anchors):
        """The path above the leaf passes the walk when its first certificate
        is taken for a leaf; it is refused, with the memo cold or warm."""
        forged = reissued_path_bundle(shared_hierarchy, bundle, 1, path_length=None,
                                      is_ca=False)
        for _ in range(2):
            report = verify_bundle(forged, DOC, trust_anchors, POLICY)
            assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)
            assert report.checks[0].detail.endswith(" is not a CA certificate")

    def test_path_length_constraint_exceeded(self, shared_hierarchy, bundle, trust_anchors):
        # An intermediate that may have no CA below it, above the issuing CA.
        forged = reissued_path_bundle(shared_hierarchy, bundle, 2, path_length=0)
        report = verify_bundle(forged, DOC, trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)
        assert report.checks[0].detail.endswith(
            "pathLenConstraint 0 exceeded by 1 CA certificates below it")

    @pytest.mark.parametrize("position, extension, critical, detail", [
        (0, UNKNOWN_EXTENSION, True,
         "CN=Verified Author carries the critical extension 1.3.6.1.4.1.55555.1,"
         " which is not processed"),
        (1, UNKNOWN_EXTENSION, True,
         " carries the critical extension 1.3.6.1.4.1.55555.1, which is not processed"),
        (1, SOMEONE_ELSE_ONLY, True, " carries nameConstraints"),
        (1, SOMEONE_ELSE_ONLY, False, " carries nameConstraints"),
    ], ids=["leaf-unknown-critical", "issuer-unknown-critical",
            "issuer-name-constraints-critical", "issuer-name-constraints"])
    def test_unprocessed_extension_refused_in_both_modes(
            self, shared_hierarchy, bundle, trust_anchors, position, extension, critical,
            detail):
        forged = extended_bundle(shared_hierarchy, bundle, position, extension, critical)
        for legacy in (False, True):
            report = verify_bundle(forged, DOC, trust_anchors, POLICY, legacy=legacy)
            assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)
            assert report.checks[0].detail.endswith(detail)

    def test_critical_binding_passes_in_both_modes(self, shared_issuer, bundle,
                                                   trust_anchors):
        signed = critical_binding_bundle(shared_issuer, bundle)
        for legacy in (False, True):
            report = verify_bundle(signed, DOC, trust_anchors, POLICY, legacy=legacy)
            assert report.accepted, report.to_text()

    def test_self_issued_ca_not_counted_against_path_length(self, shared_hierarchy, bundle,
                                                            trust_anchors):
        # The intermediate (pathLenConstraint 1) re-certifies its own key, as
        # in a key rollover; with it, two CA certificates sit below the
        # intermediate, but only the issuing CA counts (RFC 5280 §6.1.4 (l)).
        intermediate = shared_hierarchy.intermediates[0]
        certs = list(bundle.chain.certificates)
        certs.insert(2, reissue_ca(intermediate, intermediate, path_length=1))
        report = verify_bundle(with_chain(bundle, CertificationChain(certs)), DOC,
                               trust_anchors, POLICY)
        assert report.accepted, report.to_text()


# cryptography's loader for the DER of each kind; otcpki reads only PEM.
DER_LOADERS = {Certificate: x509.load_der_x509_certificate,
               RevocationList: x509.load_der_x509_crl}


def unused_bit_variant(make, kind):
    """Call ``make()`` for (bundle, certificate or CRL) pairs until the
    signature's last bit is zero. Return that bundle and the object with its
    signature BIT STRING re-encoded to claim that bit unused: the same
    signature bytes under an unused-bits count of 1 instead of 0."""
    for _ in range(64):
        bundle, honest = make()
        signature = honest.raw.signature
        if signature[-1] & 1 == 0:  # a claimed unused bit must be zero to parse
            der = bytearray(honest.to_der())
            der[-len(signature) - 1] = 1
            return bundle, kind(DER_LOADERS[kind](bytes(der)))
    raise AssertionError("64 signatures in a row ended in a one bit")


class TestSignatureBitString:
    """cryptography verifies a signature's bytes whatever the unused-bits
    count of its BIT STRING says, so each of these passed chain-trust or
    the CRL check; OpenSSL refuses them. TestMemo's byte-edit fuzz found
    the CA and CRL cases."""

    def test_leaf(self, client, trust_anchors):
        def make():
            signed = one_shot_sign(DOC, "Unused Bit Leaf", client)
            return signed, signed.chain.leaf

        signed, leaf = unused_bit_variant(make, Certificate)
        report = verify_bundle(swap_leaf(signed, leaf), DOC, trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)

    def test_issuing_ca(self, shared_hierarchy, bundle, trust_anchors):
        def make():
            reissued = reissued_path_bundle(shared_hierarchy, bundle, 1, path_length=None)
            return reissued, reissued.chain[1]

        reissued, issuing_ca = unused_bit_variant(make, Certificate)
        assert verify_bundle(reissued, DOC, trust_anchors, POLICY).accepted
        certs = list(reissued.chain.certificates)
        certs[1] = issuing_ca
        report = verify_bundle(with_chain(reissued, CertificationChain(certs)), DOC,
                               trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)

    def test_crl(self, shared_issuer, bundle, trust_anchors):
        # issue_blank_crl() returns one CRL, so fresh signatures are forged.
        honest = bundle.crl
        _, crl = unused_bit_variant(
            lambda: (bundle, forge_blank_crl(shared_issuer, honest.last_update,
                                             honest.next_update)),
            RevocationList)
        report = verify_bundle(with_crl(bundle, crl), DOC, trust_anchors, POLICY)
        assert report.failure_codes == (FailureCode.BAD_CRL.value,)


OPENSSL = shutil.which("openssl")


def unused_bit_leaf_bundle(client):
    """A bundle whose leaf's signature BIT STRING claims an unused bit."""
    def make():
        signed = one_shot_sign(DOC, "Unused Bit Leaf", client)
        return signed, signed.chain.leaf

    signed, leaf = unused_bit_variant(make, Certificate)
    return swap_leaf(signed, leaf)


def another_key(h):
    """An authorityKeyIdentifier that names the root's key, which issued
    neither the leaf nor the issuing CA."""
    return x509.AuthorityKeyIdentifier.from_issuer_public_key(h.root.certificate.public_key)


def another_certificate(h):
    """An authorityKeyIdentifier with no keyIdentifier, naming by issuer and
    serial a certificate that issued nothing in the chain."""
    return x509.AuthorityKeyIdentifier(
        None, [x509.DirectoryName(h.root.certificate.raw.subject)], 12345)


def blank_crl_bundle(h, bundle, *extensions):
    """The bundle with a blank CRL that its issuing CA signs, in force when
    the bundle's is, carrying only ``extensions``."""
    crl = forge_blank_crl(h.first_issuer(), bundle.crl.last_update, bundle.crl.next_update,
                          extensions)
    return with_crl(bundle, crl)


def leaf_without_authority_key(shared_issuer, bundle):
    """The bundle re-signed under a leaf issued without an
    authorityKeyIdentifier, as ``forge_leaf`` issues it."""
    keypair = EphemeralKeyPair.generate()
    csr = build_csr(keypair, DistinguishedName.from_common_name("No AKI"),
                    bundle.document_digest)
    signature = keypair.sign_digest(bundle.document_digest)
    keypair.destroy()
    return with_signature(swap_leaf(bundle, forge_leaf(shared_issuer, csr)), signature)


@pytest.mark.skipif(OPENSSL is None, reason="openssl CLI not installed")
class TestAgainstOpensslVerify:
    """Differential check of chain-trust against ``openssl verify
    -x509_strict -CAfile root -untrusted CAs leaf``: wherever OpenSSL
    rejects a chain, chain-trust rejects it too. ``-x509_strict`` became the
    reference once CA certificates carried subject key identifiers and every
    certificate an authority key identifier; before, it rejected every chain
    this PKI issued. Three differences are tolerated, each one way:
    OpenSSL accepts a leaf that is a CA, which chain-trust refuses;
    OpenSSL refuses a leaf whose binding is critical (error 34), which
    chain-trust processes and accepts in both modes; and OpenSSL refuses a
    leaf without an authorityKeyIdentifier (error 85), which chain-trust
    accepts, so that a forged leaf without a binding fails binding-presence
    alone. An authorityKeyIdentifier that names another key, or that names
    none, is refused by both, and so is a CA certificate without keyUsage
    (errors 92 and 81). Under ``-crl_check``, both refuse a blank CRL whose
    issuing CA's keyUsage does not assert cRLSign (error 35)."""

    CASES = {
        "honest": lambda h, client, bundle: bundle,
        "leaf-is-a-ca": lambda h, client, bundle: ca_leaf_bundle(h.first_issuer(), bundle),
        "issuer-without-keycertsign": lambda h, client, bundle: reissued_path_bundle(
            h, bundle, 1, path_length=0, key_cert_sign=False),
        "issuer-without-key-usage": lambda h, client, bundle: reissued_path_bundle(
            h, bundle, 1, path_length=0, key_usage=False),
        "intermediate-pathlen-0": lambda h, client, bundle: reissued_path_bundle(
            h, bundle, 2, path_length=0),
        "broken-leaf-signature": lambda h, client, bundle: swap_leaf(
            bundle, break_certificate_signature(bundle.chain.leaf)),
        "signature-claims-unused-bits": lambda h, client, bundle: unused_bit_leaf_bundle(client),
        "leaf-unknown-critical": lambda h, client, bundle: extended_bundle(
            h, bundle, 0, UNKNOWN_EXTENSION),
        "issuer-unknown-critical": lambda h, client, bundle: extended_bundle(
            h, bundle, 1, UNKNOWN_EXTENSION),
        "issuer-name-constraints": lambda h, client, bundle: extended_bundle(
            h, bundle, 1, SOMEONE_ELSE_ONLY),
        "leaf-names-another-key": lambda h, client, bundle: extended_bundle(
            h, bundle, 0, another_key(h), critical=False),
        "issuer-names-another-key": lambda h, client, bundle: extended_bundle(
            h, bundle, 1, another_key(h), critical=False),
        "leaf-names-another-certificate": lambda h, client, bundle: extended_bundle(
            h, bundle, 0, another_certificate(h), critical=False),
    }

    @staticmethod
    def openssl_verify(chain: CertificationChain, tmp_path,
                       *options: str) -> subprocess.CompletedProcess:
        files = {"root": chain.certificates[-1:], "untrusted": chain.certificates[1:-1],
                 "leaf": chain.certificates[:1]}
        for name, certificates in files.items():
            (tmp_path / name).write_bytes(b"".join(cert.to_pem() for cert in certificates))
        return subprocess.run(
            [OPENSSL, "verify", "-x509_strict", *options, "-CAfile", str(tmp_path / "root"),
             "-untrusted", str(tmp_path / "untrusted"), str(tmp_path / "leaf")],
            capture_output=True, text=True, timeout=30)

    @pytest.mark.parametrize("case", CASES)
    def test_chain_trust_rejects_what_openssl_rejects(self, case, shared_hierarchy, client,
                                                      bundle, trust_anchors, tmp_path):
        chain = self.CASES[case](shared_hierarchy, client, bundle).chain
        openssl = self.openssl_verify(chain, tmp_path)
        openssl_accepts = openssl.returncode == 0
        chain_trust = verify_bundle(with_chain(bundle, chain), DOC, trust_anchors,
                                    POLICY).checks[0]
        assert chain_trust.name == "chain-trust"
        if case == "honest":
            assert openssl_accepts and chain_trust.passed, openssl.stdout + openssl.stderr
        assert openssl_accepts or not chain_trust.passed, openssl.stdout + openssl.stderr

    def test_critical_binding_is_a_tolerated_difference(self, shared_issuer, bundle,
                                                       tmp_path):
        openssl = self.openssl_verify(critical_binding_bundle(shared_issuer, bundle).chain,
                                      tmp_path)
        assert "error 34 " in openssl.stdout + openssl.stderr

    def test_missing_authority_key_is_a_tolerated_difference(self, shared_issuer, bundle,
                                                            trust_anchors, tmp_path):
        signed = leaf_without_authority_key(shared_issuer, bundle)
        openssl = self.openssl_verify(signed.chain, tmp_path)
        assert "error 85 " in openssl.stdout + openssl.stderr
        assert verify_bundle(signed, DOC, trust_anchors, POLICY).accepted

    # How each bundle's blank CRL, signed by the issuing CA, reads under
    # ``-crl_check`` and in the verifier: the bundle, OpenSSL's outcome, and
    # whether the CRL check passes.
    CRL_CASES = {
        "another-key": (lambda h, bundle: blank_crl_bundle(h, bundle, another_key(h)),
                        "error 3 ", False),
        "another-certificate": (lambda h, bundle: blank_crl_bundle(
            h, bundle, another_certificate(h)), "error 3 ", False),
        "no-authority-key": (blank_crl_bundle, "OK", True),
        "issuer-without-crl-sign": (lambda h, bundle: reissued_path_bundle(
            h, bundle, 1, path_length=0, crl_sign=False), "error 35 ", False),
    }

    @pytest.mark.parametrize("case", CRL_CASES)
    def test_crl_check_rejects_what_openssl_rejects(self, case, shared_hierarchy, bundle,
                                                    trust_anchors, tmp_path):
        """The CRL check accepted a CRL whose authorityKeyIdentifier names
        another key or another certificate, and one whose issuing CA's
        keyUsage does not assert cRLSign."""
        make, openssl_says, passes = self.CRL_CASES[case]
        forged = make(shared_hierarchy, bundle)
        (tmp_path / "crl").write_bytes(forged.crl.to_pem())
        openssl = self.openssl_verify(forged.chain, tmp_path, "-crl_check",
                                      "-CRLfile", str(tmp_path / "crl"))
        assert openssl_says in openssl.stdout + openssl.stderr
        report = verify_bundle(forged, DOC, trust_anchors, POLICY)
        assert report.failure_codes == (() if passes else (FailureCode.BAD_CRL.value,))

    def test_self_signed_leaf_as_its_own_anchor(self, tmp_path):
        """A chain of one: a self-signed end-entity certificate that is its
        own trust anchor, which OpenSSL accepts too."""
        keypair = EphemeralKeyPair.generate()
        name = DistinguishedName.from_common_name("Self Signed Leaf").name
        now = datetime.now(timezone.utc).replace(microsecond=0)
        leaf = Certificate(keypair.sign_builder(
            x509.CertificateBuilder().subject_name(name).issuer_name(name)
            .public_key(keypair.public_key).serial_number(x509.random_serial_number())
            .not_valid_before(now - HOUR).not_valid_after(now + DAY)))
        (tmp_path / "leaf").write_bytes(leaf.to_pem())
        openssl = subprocess.run([OPENSSL, "verify", "-x509_strict", "-CAfile",
                                  str(tmp_path / "leaf"), str(tmp_path / "leaf")],
                                 capture_output=True, text=True, timeout=30)
        assert openssl.returncode == 0, openssl.stdout + openssl.stderr
        result = verifier._check_chain_trust(CertificationChain((leaf,)), [leaf])
        assert (result.passed, result.detail) == (True, "chain of 1 anchored at CN=Self Signed Leaf")


class TestOffMenuKeys:
    """No public-key operation runs under a key off the suite menu, at any
    depth of a chain, anchored or not. A bundle whose CA and leaf keys were
    RSA-3072 with an exponent one bit shorter than the modulus cost an
    acceptor about 15 times an honest one: its signature and CRL checks
    verified under those keys after chain-trust had refused the chain."""

    # The checks that fail with the key at each depth of a four-certificate
    # chain under an anchor; an unanchored chain fails chain-trust as well.
    FAILING = {
        "leaf": ("signature",),
        "issuing-ca": ("chain-trust", "crl"),
        "intermediate": ("chain-trust",),
        "root": ("chain-trust",),
    }

    @pytest.mark.parametrize("anchored", [True, False], ids=["anchored", "unanchored"])
    @pytest.mark.parametrize("depth,failing", enumerate(FAILING.values()), ids=FAILING)
    def test_no_public_key_operation_under_the_key(self, off_menu_keys, trust_anchors,
                                                   depth, failing, anchored, monkeypatch):
        keys = [ec.generate_private_key(ec.SECP256R1()) for _ in range(4)]
        keys[depth] = off_menu_keys["rsa-3072-huge-exponent"]
        forged = forge_bundle(keys, DOC)
        # Each public-key operation's key: the signature rule's one call to
        # cryptography for a certificate or CRL, and the document signature.
        used = []
        for owner in (Certificate, RevocationList):
            def counted(signed, issuer, verify=owner._verifies_under):
                used.append(spki_der(issuer.public_key))
                return verify(signed, issuer)

            monkeypatch.setattr(owner, "_verifies_under", counted)
        documents = count_calls(monkeypatch, verifier, "verify_signature")
        clear_memos()
        report = verify_bundle(forged, DOC, [forged.chain.root] if anchored else trust_anchors,
                               POLICY)
        used += map(spki_der, documents)
        assert used and spki_der(keys[depth].public_key()) not in used
        if not anchored:
            failing = tuple(name for name in CHECK_ORDER
                            if name == "chain-trust" or name in failing)
        assert tuple(check.name for check in report.checks if not check.passed) == failing
        for check in report.checks:
            if check.name in ("signature", "crl") and not check.passed:
                assert "key refused: unsupported key" in check.detail
                assert "exponent not 65537" in check.detail


@pytest.fixture(scope="module")
def ticking_stack():
    """A fresh hierarchy whose CAs read a clock that moves one second per
    read, the blank CRLs of its root and intermediate, and a bundle signed
    under its first issuer through ``LocalEnrollmentClient``. Every CRL is
    in force from its CA's notBefore, so all are at the leaf's."""
    start = ca_module._now()
    ticks = itertools.count()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ca_module, "_now", lambda: start + timedelta(seconds=next(ticks)))
        hierarchy = init_hierarchy("Ticking Root", fresh_policy())
        ca_crls = [ca.issue_blank_crl() for ca in (hierarchy.root, *hierarchy.intermediates)]
        bundle = one_shot_sign(DOC, "Ticking Author",
                               LocalEnrollmentClient(hierarchy.first_issuer()))
    return hierarchy, ca_crls, bundle


class TestCrlValidityWindow:
    """The CRL must be in force at the verification instant, as
    ``openssl verify -crl_check_all`` requires (errors 11 and 12)."""

    CASES = {
        "honest": (None, "OK"),
        "expired": (lambda at: (at - 2 * DAY, at - DAY), "error 12 "),
        "not-yet-in-force": (lambda at: (at + DAY, at + 2 * DAY), "error 11 "),
    }

    @staticmethod
    def case_bundle(case, ticking_stack):
        hierarchy, _, bundle = ticking_stack
        window = TestCrlValidityWindow.CASES[case][0]
        if window is None:
            return bundle
        at_time = bundle.chain.leaf.not_before
        return with_crl(bundle, forge_blank_crl(hierarchy.first_issuer(), *window(at_time)))

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("legacy", [False, True], ids=["aware", "legacy"])
    def test_at_the_leaf_not_before(self, case, legacy, ticking_stack):
        hierarchy, _, _ = ticking_stack
        bundle = self.case_bundle(case, ticking_stack)
        report = verify_bundle(bundle, DOC, [hierarchy.root.certificate], POLICY,
                               bundle.chain.leaf.not_before, legacy=legacy)
        expected = () if case == "honest" else (FailureCode.BAD_CRL.value,)
        assert report.failure_codes == expected, report.to_text()

    @pytest.mark.skipif(OPENSSL is None, reason="openssl CLI not installed")
    @pytest.mark.parametrize("case", CASES)
    def test_openssl_agrees(self, case, ticking_stack, tmp_path):
        _, ca_crls, _ = ticking_stack
        bundle = self.case_bundle(case, ticking_stack)
        crls = tmp_path / "crls"
        crls.write_bytes(b"".join(crl.to_pem() for crl in (*ca_crls, bundle.crl)))
        openssl = TestAgainstOpensslVerify.openssl_verify(
            bundle.chain, tmp_path, "-crl_check_all", "-CRLfile", str(crls),
            "-attime", str(int(bundle.chain.leaf.not_before.timestamp())))
        assert self.CASES[case][1] in openssl.stdout + openssl.stderr
        assert (openssl.returncode == 0) is (case == "honest")


class TestRecencyBoundary:
    def test_age_exactly_at_limit_passes(self, bundle, trust_anchors):
        exactly = bundle.chain.leaf.not_before + HOUR + DEFAULT_CLOCK_SKEW
        report = verify_bundle(bundle, DOC, trust_anchors, POLICY, at_time=exactly)
        assert report.accepted

    def test_one_second_past_limit_fails(self, bundle):
        leaf = bundle.chain.leaf
        at = leaf.not_before + HOUR + DEFAULT_CLOCK_SKEW + timedelta(seconds=1)
        result = check_recency(leaf, POLICY, at)
        assert not result.passed
        assert result.failure_code is FailureCode.STALE

    def test_zero_max_age_with_zero_skew(self, bundle):
        strict = RecencyPolicy(max_age=timedelta(0), clock_skew_allowance=timedelta(0))
        leaf = bundle.chain.leaf
        assert check_recency(leaf, strict, leaf.not_before).passed
        assert not check_recency(leaf, strict, leaf.not_before + timedelta(seconds=1)).passed

    def test_negative_policy_values_rejected(self):
        with pytest.raises(ValueError):
            RecencyPolicy(max_age=timedelta(seconds=-1))
        with pytest.raises(ValueError):
            RecencyPolicy(max_age=HOUR, clock_skew_allowance=timedelta(seconds=-1))


def check_binding(certificate: Certificate, digest):
    """The binding-match check of ``verify_bundle`` for one certificate."""
    return verifier._match_binding(certificate, digest)


class TestCheckBinding:
    def test_match(self, bundle):
        result = check_binding(bundle.chain.leaf, bundle.document_digest)
        assert result.passed

    def test_same_value_different_algorithm_fails(self, shared_issuer, keypair_pool):
        from otcpki.crypto import DigestAlgorithm, DocumentDigest

        value = bytes(range(48))
        digest384 = DocumentDigest(DigestAlgorithm.SHA384, value)
        csr = build_csr(keypair_pool[0], DistinguishedName.from_common_name("Alg"),
                        digest384)
        leaf = shared_issuer.issue_otc(csr)
        fake256 = DocumentDigest(DigestAlgorithm.SHA256, value[:32])
        result = check_binding(leaf, fake256)
        assert not result.passed
        assert result.failure_code is FailureCode.BINDING_MISMATCH

    def test_absent_binding(self, shared_issuer, keypair_pool):
        csr = build_csr(keypair_pool[1], DistinguishedName.from_common_name("None"),
                        digest_document(DOC))
        bare = forge_leaf(shared_issuer, csr, include_binding=False)
        result = check_binding(bare, digest_document(DOC))
        assert result.failure_code is FailureCode.MISSING_BINDING


class TestLegacyMode:
    def test_honest_bundle_accepted_with_fewer_checks(self, bundle, trust_anchors):
        report = verify_bundle(bundle, DOC, trust_anchors, POLICY, legacy=True)
        assert report.accepted
        names = {check.name for check in report.checks}
        assert names == {"chain-trust", "validity-window", "signature", "crl"}

    def test_legacy_rejects_tampering(self, bundle, trust_anchors):
        """A validator that ignores the binding still checks the detached
        signature over the document it is given, as CMS validators do, so
        a replayed bundle over a different document fails its signature."""
        full = verify_bundle(bundle, b"other document", trust_anchors, POLICY)
        legacy = verify_bundle(bundle, b"other document", trust_anchors, POLICY,
                               legacy=True)
        assert not full.accepted
        assert legacy.failure_codes == (FailureCode.BAD_SIGNATURE.value,)

    def test_legacy_still_enforces_trust(self, bundle):
        stranger = init_hierarchy("Legacy Stranger", fresh_policy()).root
        report = verify_bundle(bundle, DOC, [stranger.certificate], POLICY, legacy=True)
        assert not report.accepted


class TestSoundnessFuzz:
    @settings(max_examples=80, deadline=None)
    @given(
        position=st.integers(min_value=0, max_value=len(DOC) - 1),
        mask=st.integers(min_value=1, max_value=255),
    )
    def test_any_single_byte_change_is_rejected(self, verifier_fuzz_setup,
                                                position, mask):
        bundle, anchors = verifier_fuzz_setup
        mutated = bytearray(DOC)
        mutated[position] ^= mask
        report = verify_bundle(bundle, bytes(mutated), anchors, POLICY)
        assert not report.accepted
        assert FailureCode.BINDING_MISMATCH.value in report.failure_codes

    def test_replayed_bundle_cannot_cover_new_document(self, bundle, trust_anchors):
        report = verify_bundle(bundle, b"an entirely different text", trust_anchors,
                               POLICY)
        assert not report.accepted
        # the signature itself is internally consistent; only the binding fails
        assert report.failure_codes == (FailureCode.BINDING_MISMATCH.value,)


@pytest.fixture(scope="module")
def kept_key_bundle(shared_issuer):
    """An honest bundle over ``contract v2`` and the key that signed it, kept
    alive to sign other digests."""
    bundle, keypair = one_shot_sign(b"contract v2", "Kept Key Author",
                                    LocalEnrollmentClient(shared_issuer), keep_key=True)
    yield bundle, keypair
    keypair.destroy()


def signed_over(bundle, keypair, document: bytes):
    """``bundle`` with its digest and signature replaced by ones over
    ``document``, made with the leaf's own key."""
    digest = digest_document(document)
    return dataclasses.replace(bundle, document_digest=digest,
                               signature=keypair.sign_digest(digest))


class TestSignatureCoversPresentedDocument:
    def test_signature_over_another_digest_is_rejected(self, kept_key_bundle,
                                                       trust_anchors):
        """The signature used to be checked over the digest in meta.txt,
        which nothing compared with the document: this bundle was accepted
        with every check passing."""
        bundle, keypair = kept_key_bundle
        forged = signed_over(bundle, keypair, b"contract v3")
        report = verify_bundle(forged, b"contract v2", trust_anchors, POLICY)
        assert not report.accepted
        assert report.failure_codes == (FailureCode.BAD_SIGNATURE.value,)

    @settings(max_examples=40, deadline=None)
    @given(documents=st.lists(st.one_of(st.just(b"contract v2"), st.binary(max_size=64)),
                              min_size=2, max_size=2, unique=True))
    def test_signature_over_one_document_never_covers_another(self, kept_key_bundle,
                                                              trust_anchors, documents):
        covered, presented = documents
        bundle, keypair = kept_key_bundle
        report = verify_bundle(signed_over(bundle, keypair, covered), presented,
                               trust_anchors, POLICY)
        assert not report.accepted


class TestMemo:
    """The memo of passed CA paths and CRL signatures changes no report."""

    @pytest.mark.filterwarnings("ignore::UserWarning")  # cryptography on odd fields
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_edited_ca_or_crl_rejected_with_a_warm_memo(self, verifier_fuzz_setup, data):
        bundle, anchors = verifier_fuzz_setup
        at = bundle.chain.leaf.not_before
        assert verify_bundle(bundle, DOC, anchors, POLICY, at).accepted  # warms the memo
        parts = [*bundle.chain.certificates[1:], bundle.crl]
        index = data.draw(st.integers(0, len(parts) - 1), label="part")
        der = bytearray(parts[index].to_der())
        position = data.draw(st.integers(0, len(der) - 1), label="position")
        der[position] = data.draw(st.integers(0, 255).filter(lambda v: v != der[position]),
                                  label="value")
        kind = RevocationList if parts[index] is bundle.crl else Certificate
        try:
            edited = kind(DER_LOADERS[kind](bytes(der)))
        except (ValueError, x509.InvalidVersion):
            assume(False)
        if kind is RevocationList:
            mutated = with_crl(bundle, edited)
        else:
            certs = list(bundle.chain.certificates)
            certs[1 + index] = edited
            mutated = with_chain(bundle, CertificationChain(certs))
        warm = verify_bundle(mutated, DOC, anchors, POLICY, at)
        clear_memos()
        cold = verify_bundle(mutated, DOC, anchors, POLICY, at)
        assert not warm.accepted
        assert warm.to_text() == cold.to_text()

    def test_foreign_crl_after_the_honest_pair_is_remembered(self, shared_hierarchy,
                                                               shared_issuer, bundle,
                                                               trust_anchors):
        """A remembered CRL skips the issuer-name comparison, which only a
        pair with matching names could have passed. Another CRL under the
        same chain is compared, and its failure is not remembered."""
        clear_memos()
        assert verify_bundle(bundle, DOC, trust_anchors, POLICY).accepted
        assert verifier._remembered_pass.cache_info().currsize == 2  # the CA path and the CRL
        root = shared_hierarchy.root
        report = verify_bundle(with_crl(bundle, root.issue_blank_crl()), DOC, trust_anchors,
                               POLICY)
        assert report.failure_codes == (FailureCode.BAD_CRL.value,)
        assert report.checks[-1].detail == (
            f"CRL issued by {root.certificate.raw.subject.rfc4514_string()},"
            f" leaf issued by {shared_issuer.certificate.raw.subject.rfc4514_string()}")
        assert verifier._remembered_pass.cache_info().currsize == 2

    def test_one_crl_entry_per_issuer(self, client, shared_issuer, trust_anchors):
        """64 signatures through one LocalEnrollmentClient carry one CRL
        object, the CA's own; the client used to hold a copy of its own."""
        bundles = [one_shot_sign(DOC, f"Counted {i}", client) for i in range(64)]
        crl = shared_issuer.issue_blank_crl()
        assert all(bundle.crl is crl for bundle in bundles)
        clear_memos()
        for bundle in bundles:
            assert verify_bundle(bundle, DOC, trust_anchors, POLICY).accepted
        # One CA path and one CRL, each asked about once per bundle.
        memo = verifier._remembered_pass.cache_info()
        assert (memo.currsize, memo.misses, memo.hits) == (2, 2, 2 * len(bundles) - 2)

    def test_warm_verify_checks_one_link_and_one_signature(self, bundle, trust_anchors,
                                                           monkeypatch):
        """Once its CA path and CRL are remembered, a bundle costs two
        public-key operations: the leaf's link and the document signature."""
        assert verify_bundle(bundle, DOC, trust_anchors, POLICY).accepted  # warms the memo
        links = count_calls(monkeypatch, Certificate, "verify_signed_by")
        signatures = count_calls(monkeypatch, verifier, "verify_signature")
        crl_signatures = count_calls(monkeypatch, RevocationList, "is_signed_by")
        assert verify_bundle(bundle, DOC, trust_anchors, POLICY).accepted
        assert (links, len(signatures), crl_signatures) == ([bundle.chain.leaf], 1, [])

    def test_unanchored_chain_checks_no_signature_and_is_not_remembered(
            self, bundle, monkeypatch):
        """The root is compared with the anchors before any link. An
        unanchored chain used to cost 4 verify_signed_by calls, its links
        and the root's self-signature, and to add its CA path and CRL to the
        memo, so that chains under any root could push out honest ones."""
        stranger = init_hierarchy("Unanchored Stranger", fresh_policy()).root
        calls = count_calls(monkeypatch, Certificate, "verify_signed_by")
        clear_memos()
        report = verify_bundle(bundle, DOC, [stranger.certificate], POLICY)
        assert report.failure_codes == (FailureCode.UNTRUSTED_CHAIN.value,)
        assert report.checks[0].detail == (f"root {bundle.chain.root.subject_text}"
                                           " is not a trust anchor")
        assert calls == []
        assert verifier._remembered_pass.cache_info().currsize == 0

    def test_unanchored_broken_chain_reports_its_root(self, bundle):
        """A chain under a root no anchor names is refused for that root,
        whatever its links; a broken link used to be reported first."""
        stranger = init_hierarchy("Broken Stranger", fresh_policy()).root
        certs = list(bundle.chain.certificates)
        certs[1] = break_certificate_signature(certs[1])
        report = verify_bundle(with_chain(bundle, CertificationChain(certs)), DOC,
                               [stranger.certificate], POLICY)
        assert report.checks[0].detail == (f"root {bundle.chain.root.subject_text}"
                                           " is not a trust anchor")

    def test_reports_match_cold_and_warm(self, shared_hierarchy, shared_issuer, bundle,
                                         trust_anchors):
        """Each bundle and setting this module verifies, with the memo
        emptied, then after the honest bundle has filled it."""
        stranger = init_hierarchy("Memo Stranger", fresh_policy()).root
        sibling = one_shot_sign(DOC, "Sibling Issuer Leaf",
                                LocalEnrollmentClient(shared_hierarchy.issuers[0][1]))
        keypair = EphemeralKeyPair.generate()
        csr = build_csr(keypair, DistinguishedName.from_common_name("Memo Bare"),
                        bundle.document_digest)
        bare = with_signature(swap_leaf(bundle, forge_leaf(shared_issuer, csr,
                                                           include_binding=False)),
                              keypair.sign_digest(bundle.document_digest))
        keypair.destroy()
        short = forge_leaf(shared_issuer, csr,
                           not_after=shared_issuer.not_after - timedelta(days=1))
        certs = list(bundle.chain.certificates)
        certs[1] = break_certificate_signature(certs[1])
        leaf = bundle.chain.leaf
        now = datetime.now(timezone.utc)

        def case(checked=bundle, document=DOC, anchors=trust_anchors, at=now, legacy=False):
            return dict(bundle=checked, document=document, trust_anchors=anchors,
                        policy=POLICY, at_time=at, legacy=legacy)

        cases = {
            "honest": case(),
            "legacy": case(document=b"other", legacy=True),
            "wrong-anchor": case(anchors=[stranger.certificate]),
            "no-anchors": case(anchors=[]),
            "broken-link": case(with_chain(bundle, CertificationChain(certs))),
            "leaf-of-another-issuer": case(swap_leaf(bundle, sibling.chain.leaf)),
            "expired": case(at=bundle.chain.root.not_after + timedelta(seconds=1)),
            "not-yet-valid": case(at=leaf.not_before - timedelta(seconds=10)),
            "non-uniform": case(swap_leaf(bundle, short)),
            "missing-binding": case(bare),
            "binding-mismatch": case(document=DOC + b"!"),
            "bad-signature": case(with_signature(bundle, b"\x00" * len(bundle.signature))),
            "stale": case(at=leaf.not_before + HOUR + DEFAULT_CLOCK_SKEW
                          + timedelta(seconds=1)),
            "nonblank-crl": case(with_crl(bundle, forge_nonblank_crl(shared_issuer,
                                                                     leaf.serial))),
            "no-crl": case(with_crl(bundle, None)),
            "foreign-crl": case(with_crl(bundle, shared_hierarchy.root.issue_blank_crl())),
            "ca-leaf": case(ca_leaf_bundle(shared_issuer, bundle)),
            "no-key-cert-sign": case(reissued_path_bundle(shared_hierarchy, bundle, 1,
                                                          path_length=0,
                                                          key_cert_sign=False)),
            "path-length": case(reissued_path_bundle(shared_hierarchy, bundle, 2,
                                                     path_length=0)),
            "issuing-certificate-not-a-ca": case(reissued_path_bundle(
                shared_hierarchy, bundle, 1, path_length=None, is_ca=False)),
        }
        for name, arguments in cases.items():
            clear_memos()
            cold = verify_bundle(**arguments)
            verify_bundle(bundle, DOC, trust_anchors, POLICY)
            assert verifier._remembered_pass.cache_info().currsize, "the honest bundle fills it"
            warm = verify_bundle(**arguments)
            assert warm.to_text() == cold.to_text(), name


class TestNamesWithoutCommonName:
    """Before chain trust and the CRL check compared and printed names as
    X.509 names, this chain failed chain-trust and crl with "cannot decode:
    InvalidNameError(...)": a CA needs no CN."""

    @pytest.fixture(scope="class")
    def no_cn(self):
        issuer = no_cn_issuer()
        return issuer.lineage[-1], one_shot_sign(DOC, "No CN Leaf", LocalEnrollmentClient(issuer))

    def test_chain_under_a_root_without_cn_is_accepted(self, no_cn):
        root, bundle = no_cn
        report = verify_bundle(bundle, DOC, [root], POLICY)
        assert report.accepted, report.to_text()
        assert "anchored at O=No CN Root" in report.to_text()

    def test_failure_details_name_cas_without_cn(self, no_cn, trust_anchors):
        _, bundle = no_cn
        report = verify_bundle(bundle, DOC, trust_anchors, POLICY)
        assert report.failure_codes == ("untrusted-chain",)
        assert report.checks[0].detail == "root O=No CN Root is not a trust anchor"


@pytest.fixture(scope="module")
def verifier_fuzz_setup(request):
    hierarchy = init_hierarchy("Fuzz Root", fresh_policy())
    client = LocalEnrollmentClient(hierarchy.first_issuer())
    bundle = one_shot_sign(DOC, "Fuzz Author", client)
    return bundle, [hierarchy.root.certificate]
