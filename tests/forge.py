"""Adversarial artifact builders for verifier tests.

These deliberately bypass the library's issuance rules, using the CA's raw
private key the way a buggy or hostile CA could, so the verifier can be
shown rejecting things the honest code paths refuse to produce.
"""

from datetime import datetime, timedelta, timezone

from cryptography import x509

from otcpki.ca import CaIdentity
from otcpki.certmodel import (
    Certificate,
    CertificationChain,
    RevocationList,
    SigningRequest,
)
from otcpki.signer import SignedDocumentBundle


def forge_leaf(
    issuer: CaIdentity,
    csr: SigningRequest,
    *,
    not_after: datetime = None,
    include_binding: bool = True,
    ca: bool = False,
) -> Certificate:
    """Issue a leaf the way a misbehaving CA might: optionally without the
    binding extension, optionally with its own expiry, optionally marked as
    a CA."""
    builder = (
        x509.CertificateBuilder()
        .subject_name(csr.raw.subject)
        .issuer_name(issuer.certificate.raw.subject)
        .public_key(csr.public_key)
        .serial_number(x509.random_serial_number())
        .not_valid_before(datetime.now(timezone.utc).replace(microsecond=0))
        .not_valid_after(not_after or issuer.certificate.not_after)
    )
    if include_binding:
        binding = csr.binding
        builder = builder.add_extension(binding.to_x509(), critical=binding.critical)
    if ca:
        builder = builder.add_extension(x509.BasicConstraints(ca=True, path_length=None),
                                        critical=True)
    key = issuer._keypair._signing_key()
    return Certificate(builder.sign(key, issuer.suite.digest.hash_primitive()))


def reissue_ca(ca: CaIdentity, parent: CaIdentity, *, path_length, key_cert_sign: bool = True,
               is_ca: bool = True) -> Certificate:
    """``ca``'s certificate re-signed by ``parent`` with the same name, key
    and validity but the given constraints, as a careless parent CA might
    issue it; ``is_ca=False`` makes it an end-entity certificate. What ``ca``
    signed still verifies under the new certificate."""
    original = ca.certificate.raw
    builder = (
        x509.CertificateBuilder()
        .subject_name(original.subject)
        .issuer_name(parent.certificate.raw.subject)
        .public_key(original.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(original.not_valid_before_utc)
        .not_valid_after(original.not_valid_after_utc)
        .add_extension(x509.BasicConstraints(ca=is_ca, path_length=path_length), critical=True)
        .add_extension(
            x509.KeyUsage(
                digital_signature=True,
                content_commitment=False,
                key_encipherment=False,
                data_encipherment=False,
                key_agreement=False,
                key_cert_sign=key_cert_sign,
                crl_sign=True,
                encipher_only=False,
                decipher_only=False,
            ),
            critical=True,
        )
    )
    key = parent._keypair._signing_key()
    return Certificate(builder.sign(key, parent.suite.digest.hash_primitive()))


def with_extension(certificate: Certificate, signer: CaIdentity, extension, *, critical: bool
                   ) -> Certificate:
    """``certificate`` with ``extension`` in place of any of its type, or
    added, re-signed by ``signer``, its issuer. Name and key are unchanged,
    so what it signed still verifies under the new certificate."""
    original = certificate.raw
    builder = (
        x509.CertificateBuilder()
        .subject_name(original.subject)
        .issuer_name(original.issuer)
        .public_key(original.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(original.not_valid_before_utc)
        .not_valid_after(original.not_valid_after_utc)
    )
    for present in original.extensions:
        if present.oid != extension.oid:
            builder = builder.add_extension(present.value, critical=present.critical)
    builder = builder.add_extension(extension, critical=critical)
    key = signer._keypair._signing_key()
    return Certificate(builder.sign(key, signer.suite.digest.hash_primitive()))


def forge_nonblank_crl(issuer: CaIdentity, serial: int) -> RevocationList:
    """A CRL with one revoked entry, properly signed by the issuer."""
    revoked = (
        x509.RevokedCertificateBuilder()
        .serial_number(serial)
        .revocation_date(datetime.now(timezone.utc))
        .build()
    )
    builder = (
        x509.CertificateRevocationListBuilder()
        .issuer_name(issuer.certificate.raw.subject)
        .last_update(datetime.now(timezone.utc))
        .next_update(issuer.certificate.not_after)
        .add_revoked_certificate(revoked)
    )
    key = issuer._keypair._signing_key()
    return RevocationList(builder.sign(key, issuer.suite.digest.hash_primitive()))


def forge_blank_crl(issuer: CaIdentity, last_update: datetime,
                    next_update: datetime, extensions=()) -> RevocationList:
    """A blank CRL signed by the issuer, with the given thisUpdate and
    nextUpdate and non-critical ``extensions``."""
    builder = (
        x509.CertificateRevocationListBuilder()
        .issuer_name(issuer.certificate.raw.subject)
        .last_update(last_update)
        .next_update(next_update)
    )
    for extension in extensions:
        builder = builder.add_extension(extension, critical=False)
    return RevocationList(issuer._keypair.sign_builder(builder))


def break_certificate_signature(certificate: Certificate) -> Certificate:
    """The same certificate with the last byte of its signature flipped;
    still parses, no longer verifies under its issuer."""
    der = bytearray(certificate.to_der())
    der[-1] ^= 0xFF
    return Certificate(x509.load_der_x509_certificate(bytes(der)))


def with_chain(bundle: SignedDocumentBundle, chain: CertificationChain) -> SignedDocumentBundle:
    return SignedDocumentBundle(
        document_digest=bundle.document_digest,
        signature=bundle.signature,
        chain=chain,
        crl=bundle.crl,
    )


def with_crl(bundle: SignedDocumentBundle, crl) -> SignedDocumentBundle:
    return SignedDocumentBundle(
        document_digest=bundle.document_digest,
        signature=bundle.signature,
        chain=bundle.chain,
        crl=crl,
    )


def with_signature(bundle: SignedDocumentBundle, signature: bytes) -> SignedDocumentBundle:
    return SignedDocumentBundle(
        document_digest=bundle.document_digest,
        signature=signature,
        chain=bundle.chain,
        crl=bundle.crl,
    )


def swap_leaf(bundle: SignedDocumentBundle, leaf: Certificate) -> SignedDocumentBundle:
    chain = CertificationChain((leaf, *bundle.chain.certificates[1:]))
    return with_chain(bundle, chain)
