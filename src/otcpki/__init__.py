"""One-time certificates: X.509 certificates bound to a single document
digest, issued for keys that are destroyed after one signature.

Because the key dies and the certificate can vouch for nothing but the one
digest it names, revocation disappears from the trust model: acceptors
check the binding, a uniform chain expiry, and their own recency policy
instead of CRLs or OCSP.

Submodules are re-exported lazily; importing :mod:`otcpki` is cheap.
"""

__version__ = "0.1.0"

_EXPORTS = {
    # crypto
    "AlgorithmSuite": "crypto",
    "DEFAULT_SUITE": "crypto",
    "DigestAlgorithm": "crypto",
    "DocumentDigest": "crypto",
    "EphemeralKeyPair": "crypto",
    "SUITES": "crypto",
    "digest_document": "crypto",
    "verify_signature": "crypto",
    # certmodel
    "Certificate": "certmodel",
    "CertificationChain": "certmodel",
    "DistinguishedName": "certmodel",
    "OtcExtension": "certmodel",
    "RevocationList": "certmodel",
    "SigningRequest": "certmodel",
    "build_csr": "certmodel",
    "decode": "certmodel",
    # ca
    "CaIdentity": "ca",
    "CaPolicy": "ca",
    "CaRole": "ca",
    "Hierarchy": "ca",
    "create_root": "ca",
    "create_subordinate": "ca",
    "init_hierarchy": "ca",
    "spawn_issuer_pool": "ca",
    # signer
    "HttpEnrollmentClient": "signer",
    "LocalEnrollmentClient": "signer",
    "SignedDocumentBundle": "signer",
    "one_shot_sign": "signer",
    "resign_with_existing_key": "signer",
    # verifier
    "FailureCode": "verifier",
    "RecencyPolicy": "verifier",
    "VerificationReport": "verifier",
    "verify_bundle": "verifier",
    # service
    "EnrollmentService": "service",
    "ServiceConfig": "service",
    # errors
    "OtcError": "errors",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
