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
    decode,
)
from otcpki.crypto import random_serial
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
        .serial_number(random_serial())
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


def reissue_ca(ca: CaIdentity, parent: CaIdentity, *, path_length, key_cert_sign: bool = True
               ) -> Certificate:
    """``ca``'s certificate re-signed by ``parent`` with the same name, key
    and validity but the given constraints, as a careless parent CA might
    issue it. What ``ca`` signed still verifies under the new certificate."""
    original = ca.certificate.raw
    builder = (
        x509.CertificateBuilder()
        .subject_name(original.subject)
        .issuer_name(parent.certificate.raw.subject)
        .public_key(original.public_key())
        .serial_number(random_serial())
        .not_valid_before(original.not_valid_before_utc)
        .not_valid_after(original.not_valid_after_utc)
        .add_extension(x509.BasicConstraints(ca=True, path_length=path_length), critical=True)
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


def break_certificate_signature(certificate: Certificate) -> Certificate:
    """The same certificate with the last byte of its signature flipped;
    still parses, no longer verifies under its issuer."""
    der = bytearray(certificate.to_der())
    der[-1] ^= 0xFF
    return decode(bytes(der), Certificate)


def with_chain(bundle: SignedDocumentBundle, chain: CertificationChain) -> SignedDocumentBundle:
    return SignedDocumentBundle(
        document_digest=bundle.document_digest,
        signature=bundle.signature,
        chain=chain,
        crl=bundle.crl,
        created_at=bundle.created_at,
    )


def with_crl(bundle: SignedDocumentBundle, crl) -> SignedDocumentBundle:
    return SignedDocumentBundle(
        document_digest=bundle.document_digest,
        signature=bundle.signature,
        chain=bundle.chain,
        crl=crl,
        created_at=bundle.created_at,
    )


def with_signature(bundle: SignedDocumentBundle, signature: bytes) -> SignedDocumentBundle:
    return SignedDocumentBundle(
        document_digest=bundle.document_digest,
        signature=signature,
        chain=bundle.chain,
        crl=bundle.crl,
        created_at=bundle.created_at,
    )


def swap_leaf(bundle: SignedDocumentBundle, leaf: Certificate) -> SignedDocumentBundle:
    chain = CertificationChain((leaf, *bundle.chain.certificates[1:]))
    return with_chain(bundle, chain)
