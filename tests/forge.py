"""Adversarial artifact builders for verifier tests.

These deliberately bypass the library's issuance rules, using the CA's raw
private key the way a buggy or hostile CA could, so the verifier can be
shown rejecting things the honest code paths refuse to produce.
"""

from datetime import datetime, timedelta, timezone

from cryptography import x509
from cryptography.hazmat.primitives import hashes

from otcpki.ca import CaIdentity, CaRole, _ca_extensions, _certificate_builder
from otcpki.certmodel import (
    Certificate,
    CertificationChain,
    DistinguishedName,
    OtcExtension,
    RevocationList,
    SigningRequest,
)
from otcpki.crypto import _scheme, digest_document
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
               crl_sign: bool = True, key_usage: bool = True, is_ca: bool = True
               ) -> Certificate:
    """``ca``'s certificate re-signed by ``parent`` with the same name, key
    and validity but the given constraints, as a careless parent CA might
    issue it; ``key_usage=False`` leaves out the keyUsage extension and
    ``is_ca=False`` makes it an end-entity certificate. What ``ca`` signed
    still verifies under the new certificate."""
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
    )
    if key_usage:
        builder = builder.add_extension(
            x509.KeyUsage(
                digital_signature=True,
                content_commitment=False,
                key_encipherment=False,
                data_encipherment=False,
                key_agreement=False,
                key_cert_sign=key_cert_sign,
                crl_sign=crl_sign,
                encipher_only=False,
                decipher_only=False,
            ),
            critical=True,
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


def forge_bundle(keys, document: bytes) -> SignedDocumentBundle:
    """A bundle made with no CA's checks, under four private ``keys`` of any
    type: the leaf's, the issuing CA's, the intermediate's and the root's.
    Each certificate carries the extensions this PKI gives its tier and an
    authorityKeyIdentifier, and is signed by the next key, the root by its
    own; the blank CRL is signed by the issuing CA's key and the document's
    SHA-256 by the leaf's."""
    digest = digest_document(document)
    names = [DistinguishedName.from_common_name(f"Forged Depth {depth}").name
             for depth in range(len(keys))]
    own = [[(OtcExtension(digest).to_x509(), False)],
           *(_ca_extensions(role, key.public_key())
             for role, key in zip((CaRole.ISSUER, CaRole.INTERMEDIATE, CaRole.ROOT), keys[1:]))]
    now = datetime.now(timezone.utc).replace(microsecond=0)
    certificates = []
    for depth, key in enumerate(keys):
        above = min(depth + 1, len(keys) - 1)
        named = x509.AuthorityKeyIdentifier.from_issuer_public_key(keys[above].public_key())
        builder = _certificate_builder(names[depth], names[above], key.public_key(),
                                       now - timedelta(hours=1), now + timedelta(days=1),
                                       [*own[depth], (named, False)])
        certificates.append(Certificate(builder.sign(keys[above], hashes.SHA256())))
    crl = (
        x509.CertificateRevocationListBuilder()
        .issuer_name(names[1])
        .last_update(now - timedelta(hours=1))
        .next_update(now + timedelta(days=1))
        .add_extension(x509.AuthorityKeyIdentifier.from_issuer_public_key(
            keys[1].public_key()), critical=False)
        .sign(keys[1], hashes.SHA256())
    )
    return SignedDocumentBundle(
        document_digest=digest,
        signature=keys[0].sign(digest.value, *_scheme(keys[0], digest.algorithm)),
        chain=CertificationChain(certificates),
        crl=RevocationList(crl),
    )
