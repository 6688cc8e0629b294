"""Acceptance-side policy: decide whether a signed-document bundle proves
what it claims, and say exactly why when it does not.

Revocation never enters the decision. A one-time certificate vouches for a
single digest and its key no longer exists, so the acceptor's controls are
structural instead: the binding must match the presented document, the whole
chain must share one expiry, and the certificate must be recent enough for
the acceptor's taste. Recency is the acceptor's knob, not the CA's: each
verifier picks the maximum certificate age it will honor.

Every check runs and is recorded even after the first failure, so a report
always shows the full picture.

Acceptors see many leaves under a few issuer chains, so the module keeps a
bounded memo of the checks that do not depend on the leaf: a CA path whose
links all verify, and a CRL whose signature verifies under its issuing CA.
Entries are keyed by exact DER bytes and only passes are stored, so a report
reads the same whether or not its chain was seen before.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import BinaryIO, Iterable, Optional, Tuple, Union

from .certmodel import BoundedMemo, Certificate, CertificationChain, OtcExtension
from .crypto import digest_document, verify_signature
from .signer import SignedDocumentBundle

__all__ = [
    "RecencyPolicy",
    "Verdict",
    "FailureCode",
    "CheckResult",
    "VerificationReport",
    "check_binding",
    "check_recency",
    "verify_bundle",
]

DEFAULT_CLOCK_SKEW = timedelta(seconds=300)

# The memo of passed leaf-independent checks, at most certmodel.MEMO_LIMIT
# entries. An entry holds the DER it is keyed by, under 2 KB for a
# three-certificate ECDSA path. Keys: ("ca-path", *DER of each certificate
# above the leaf) for a path that passed _path_failure, ("crl", CRL DER,
# issuing CA DER) for a CRL whose signature verified.
_passed = BoundedMemo()


class Verdict(enum.Enum):
    ACCEPTED = "accepted"
    REJECTED = "rejected"


class FailureCode(enum.Enum):
    UNTRUSTED_CHAIN = "untrusted-chain"
    EXPIRED = "expired"
    NON_UNIFORM_VALIDITY = "non-uniform-validity"
    MISSING_BINDING = "missing-binding"
    BINDING_MISMATCH = "binding-mismatch"
    BAD_SIGNATURE = "bad-signature"
    STALE = "stale"
    BAD_CRL = "bad-crl"


@dataclass(frozen=True)
class RecencyPolicy:
    """How old a certificate may be before this acceptor refuses it.

    ``max_age`` bounds (verification time - certificate notBefore);
    ``clock_skew_allowance`` absorbs clock disagreement between the issuing
    CA and the verifier. The comparison is inclusive: an age of exactly
    ``max_age + clock_skew_allowance`` still passes.
    """

    max_age: timedelta
    clock_skew_allowance: timedelta = DEFAULT_CLOCK_SKEW

    def __post_init__(self):
        if self.max_age < timedelta(0):
            raise ValueError("max_age cannot be negative")
        if self.clock_skew_allowance < timedelta(0):
            raise ValueError("clock_skew_allowance cannot be negative")

    @property
    def limit(self) -> timedelta:
        return self.max_age + self.clock_skew_allowance


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    failure_code: Optional[FailureCode] = None


@dataclass(frozen=True)
class VerificationReport:
    verdict: Verdict
    checks: Tuple[CheckResult, ...]
    at_time: datetime

    @property
    def accepted(self) -> bool:
        return self.verdict is Verdict.ACCEPTED

    @property
    def failure_codes(self) -> Tuple[str, ...]:
        return tuple(
            check.failure_code.value
            for check in self.checks
            if not check.passed and check.failure_code is not None
        )

    def to_text(self) -> str:
        lines = [f"verdict: {self.verdict.value}"]
        for check in self.checks:
            status = "pass" if check.passed else f"FAIL [{check.failure_code.value}]"
            suffix = f" ({check.detail})" if check.detail else ""
            lines.append(f"  {check.name}: {status}{suffix}")
        return "\n".join(lines)


def _utc(moment: datetime) -> datetime:
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return moment.astimezone(timezone.utc)


# ---------------------------------------------------------------------------
# Individual checks (the composable ones)
# ---------------------------------------------------------------------------

def _read_binding(certificate: Certificate) -> Union[OtcExtension, None, Exception]:
    """The certificate's binding, None when it has none, or the exception
    that reading it raised (a duplicate or undecodable extension)."""
    try:
        return certificate.binding
    except Exception as exc:
        return exc


def _match_binding(binding: Union[OtcExtension, None, Exception], digest) -> CheckResult:
    if isinstance(binding, Exception):
        return CheckResult(
            "binding-match", False, f"unreadable binding: {binding}",
            FailureCode.MISSING_BINDING,
        )
    if binding is None:
        return CheckResult(
            "binding-match", False, "certificate carries no document binding",
            FailureCode.MISSING_BINDING,
        )
    if binding.digest.algorithm is not digest.algorithm:
        return CheckResult(
            "binding-match", False,
            f"bound with {binding.digest.algorithm.value},"
            f" presented {digest.algorithm.value}",
            FailureCode.BINDING_MISMATCH,
        )
    if binding.digest.value != digest.value:
        return CheckResult(
            "binding-match", False, "digest differs from the bound value",
            FailureCode.BINDING_MISMATCH,
        )
    return CheckResult("binding-match", True, "document digest matches the binding")


def check_binding(certificate: Certificate, digest) -> CheckResult:
    """Does this certificate bind exactly the given digest? Algorithm and
    value must both match; a right value under the wrong algorithm fails."""
    return _match_binding(_read_binding(certificate), digest)


def check_recency(leaf: Certificate, policy: RecencyPolicy, at_time: datetime) -> CheckResult:
    age = _utc(at_time) - leaf.not_before
    if age <= policy.limit:
        return CheckResult("recency", True, f"certificate age {age} within {policy.limit}")
    return CheckResult(
        "recency", False,
        f"certificate age {age} exceeds {policy.limit}",
        FailureCode.STALE,
    )


# ---------------------------------------------------------------------------
# Full bundle verification
# ---------------------------------------------------------------------------

def _name(certificate: Certificate) -> str:
    """The subject as RFC 4514 text. Any name will do: a CA need not have
    the CN that ``DistinguishedName`` requires."""
    return certificate.raw.subject.rfc4514_string()


def _fails_undecodable(name: str, code: FailureCode):
    """Turn an exception from a check into its failure. cryptography decodes
    names, extensions and keys when they are first read, so a certificate or
    CRL that loads can still raise from a check."""
    def decorate(check):
        @functools.wraps(check)
        def guarded(*args) -> CheckResult:
            try:
                return check(*args)
            except Exception as exc:
                return CheckResult(name, False, f"cannot decode: {exc!r}", code)
        return guarded
    return decorate


def _path_failure(certificates: tuple) -> Optional[str]:
    """Why the links from the leaf up to a self-signed root fail RFC 5280
    §6.1, or None. Each issuer must be a CA, assert keyCertSign if it has a
    keyUsage extension, have no more CA certificates below it than its
    pathLenConstraint allows, and sign the certificate below it."""
    for depth, (child, parent) in enumerate(zip(certificates, certificates[1:])):
        if not parent.is_ca:
            return f"{_name(parent)} is not a CA certificate"
        if not parent.may_sign_certificates:
            return f"{_name(parent)} keyUsage does not assert keyCertSign"
        # depth CA certificates sit between the leaf and parent; only those
        # that are not self-issued count against the constraint.
        limit = parent.path_length
        if limit is not None and depth > limit:
            below = sum(not cert.is_self_issued for cert in certificates[1:depth + 1])
            if below > limit:
                return (f"{_name(parent)} pathLenConstraint {limit}"
                        f" exceeded by {below} CA certificates below it")
        if not child.verify_signed_by(parent):
            return f"{_name(child)} is not signed by {_name(parent)}"
    if not certificates[-1].is_self_signed:
        return "chain does not end in a self-signed root"
    return None


@_fails_undecodable("chain-trust", FailureCode.UNTRUSTED_CHAIN)
def _check_chain_trust(chain: CertificationChain, anchors: Iterable[Certificate]) -> CheckResult:
    name = "chain-trust"
    anchors = tuple(anchors)
    if not anchors:
        return CheckResult(name, False, "no trust anchors supplied", FailureCode.UNTRUSTED_CHAIN)
    leaf, path = chain.leaf, chain.certificates[1:]
    if leaf.is_ca:
        return CheckResult(name, False, f"leaf {_name(leaf)} is a CA certificate",
                           FailureCode.UNTRUSTED_CHAIN)
    path_key = ("ca-path", *(cert.to_der() for cert in path))
    if path and path_key in _passed:
        # Every check of the path above the leaf passed before; only the
        # leaf's own link is new.
        failure = None
        if not leaf.verify_signed_by(path[0]):
            failure = f"{_name(leaf)} is not signed by {_name(path[0])}"
    else:
        failure = _path_failure(chain.certificates)
        if failure is None and path:
            _passed.put(path_key)
    if failure is not None:
        return CheckResult(name, False, failure, FailureCode.UNTRUSTED_CHAIN)
    root_der = chain.root.to_der()
    if not any(anchor.to_der() == root_der for anchor in anchors):
        return CheckResult(name, False, f"root {_name(chain.root)} is not a trust anchor",
                           FailureCode.UNTRUSTED_CHAIN)
    return CheckResult(name, True, f"chain of {len(chain)} anchored at {_name(chain.root)}")


@_fails_undecodable("validity-window", FailureCode.EXPIRED)
def _check_validity_window(chain: CertificationChain, at_time: datetime) -> CheckResult:
    name = "validity-window"
    for cert in chain:
        if at_time < cert.not_before:
            return CheckResult(name, False, f"{_name(cert)} not valid until"
                               f" {cert.not_before.isoformat()}", FailureCode.EXPIRED)
        if at_time > cert.not_after:
            return CheckResult(name, False, f"{_name(cert)} expired"
                               f" {cert.not_after.isoformat()}", FailureCode.EXPIRED)
    return CheckResult(name, True, "every certificate valid at the verification instant")


def _check_uniform_validity(chain: CertificationChain) -> CheckResult:
    name = "uniform-validity"
    values = chain.not_after_values()
    if len(set(values)) == 1:
        return CheckResult(name, True, f"all certificates expire {values[0].isoformat()}")
    spread = ", ".join(sorted({v.isoformat() for v in values}))
    return CheckResult(name, False, f"expiries differ: {spread}",
                       FailureCode.NON_UNIFORM_VALIDITY)


def _check_binding_presence(binding: Union[OtcExtension, None, Exception]) -> CheckResult:
    name = "binding-presence"
    if isinstance(binding, Exception):
        return CheckResult(name, False, f"unreadable binding: {binding}",
                           FailureCode.MISSING_BINDING)
    if binding is None:
        return CheckResult(name, False, "leaf carries no document binding",
                           FailureCode.MISSING_BINDING)
    return CheckResult(name, True, "leaf carries one document binding")


@_fails_undecodable("signature", FailureCode.BAD_SIGNATURE)
def _check_signature(bundle: SignedDocumentBundle, digest) -> CheckResult:
    name = "signature"
    if verify_signature(bundle.chain.leaf.public_key, digest, bundle.signature):
        return CheckResult(name, True, "signature verifies under the leaf key")
    return CheckResult(name, False, "signature does not verify under the leaf key",
                       FailureCode.BAD_SIGNATURE)


@_fails_undecodable("crl", FailureCode.BAD_CRL)
def _check_crl(bundle: SignedDocumentBundle) -> CheckResult:
    name = "crl"
    crl = bundle.crl
    if crl is None:
        return CheckResult(name, False, "bundle carries no CRL", FailureCode.BAD_CRL)
    issuing_ca = bundle.chain.issuing_ca or bundle.chain.leaf
    if crl.raw.issuer != issuing_ca.raw.subject:
        return CheckResult(name, False,
                           f"CRL issued by {crl.raw.issuer.rfc4514_string()},"
                           f" leaf issued by {_name(issuing_ca)}",
                           FailureCode.BAD_CRL)
    crl_key = ("crl", crl.to_der(), issuing_ca.to_der())
    if crl_key not in _passed:
        if not crl.is_signed_by(issuing_ca):
            return CheckResult(name, False, "CRL signature does not verify under the issuing CA",
                               FailureCode.BAD_CRL)
        _passed.put(crl_key)
    if not crl.is_blank:
        return CheckResult(name, False,
                           f"CRL lists {len(crl.revoked_serials)} entries;"
                           " nothing under this root is ever revoked",
                           FailureCode.BAD_CRL)
    return CheckResult(name, True, "blank CRL verifies under the issuing CA")


def verify_bundle(
    bundle: SignedDocumentBundle,
    document: Union[bytes, BinaryIO],
    trust_anchors: Iterable[Certificate],
    policy: RecencyPolicy,
    at_time: Optional[datetime] = None,
    *,
    legacy: bool = False,
) -> VerificationReport:
    """Run the acceptance checks for a bundle against the actual document.

    ``legacy=True`` reproduces what a validator ignorant of one-time
    semantics would conclude: the binding, uniform-expiry, and recency
    checks are skipped (the binding extension is non-critical precisely so
    such validators accept these certificates), leaving chain trust, the
    validity window, the signature, and the blank CRL.
    """
    moment = _utc(at_time if at_time is not None else datetime.now(timezone.utc))
    chain = bundle.chain
    leaf = chain.leaf

    checks = [
        _check_chain_trust(chain, trust_anchors),
        _check_validity_window(chain, moment),
    ]
    # The signature must cover the presented document. When that document
    # does not match the binding, binding-match already fails, and the
    # signature is checked over the bundle's own digest so that it reports
    # only on itself.
    signed = bundle.document_digest
    if not legacy:
        checks.append(_check_uniform_validity(chain))
        binding = _read_binding(leaf)
        checks.append(_check_binding_presence(binding))
        presented = digest_document(document, bundle.document_digest.algorithm)
        checks.append(_match_binding(binding, presented))
        if checks[-1].passed:
            signed = presented
    checks.append(_check_signature(bundle, signed))
    if not legacy:
        checks.append(check_recency(leaf, policy, moment))
    checks.append(_check_crl(bundle))

    verdict = Verdict.ACCEPTED if all(c.passed for c in checks) else Verdict.REJECTED
    return VerificationReport(verdict=verdict, checks=tuple(checks), at_time=moment)
