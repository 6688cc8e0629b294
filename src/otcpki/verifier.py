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
links all verify up to a trust anchor, and a CRL whose signature verifies
under the issuing CA of such a path.
Entries are keyed by certificates and CRLs, which compare by their exact DER,
and only passes are stored, so a report reads the same whether or not its
chain was seen before.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import BinaryIO, Iterable, Optional, Tuple, Union

from .ca import _utc
from .certmodel import (
    MEMO_LIMIT,
    Certificate,
    CertificationChain,
    RevocationList,
    _extension_failure,
    _path_failure,
)
from .crypto import AlgorithmSuite, digest_document, verify_signature
from .errors import UnsupportedSuiteError
from .signer import SignedDocumentBundle

__all__ = [
    "RecencyPolicy",
    "FailureCode",
    "CheckResult",
    "VerificationReport",
    "check_recency",
    "verify_bundle",
]

DEFAULT_CLOCK_SKEW = timedelta(seconds=300)

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
        if self.max_age > timedelta.max - self.clock_skew_allowance:
            raise ValueError("max_age plus clock_skew_allowance is out of range")

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
    checks: Tuple[CheckResult, ...]
    at_time: datetime

    @property
    def accepted(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def failure_codes(self) -> Tuple[str, ...]:
        return tuple(
            check.failure_code.value
            for check in self.checks
            if not check.passed and check.failure_code is not None
        )

    def to_text(self) -> str:
        lines = [f"verdict: {'accepted' if self.accepted else 'rejected'}"]
        for check in self.checks:
            status = "pass" if check.passed else f"FAIL [{check.failure_code.value}]"
            suffix = f" ({check.detail})" if check.detail else ""
            lines.append(f"  {check.name}: {status}{suffix}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The checks
# ---------------------------------------------------------------------------

class _Failed(Exception):
    """A check's failure: its detail, and its code when that is not the
    check's own."""

    def __init__(self, detail: str, code: Optional[FailureCode] = None):
        super().__init__(detail)
        self.detail = detail
        self.code = code


def _check(name: str, code: FailureCode):
    """Run a check as ``name``, failing with ``code``. The check returns the
    detail of its pass or raises :class:`_Failed`, or UnsupportedSuiteError
    for a key off the menu. Any other exception is a failure too:
    cryptography decodes names, extensions and keys when they are first
    read, so a certificate or CRL that loads can still raise."""
    def decorate(check):
        @functools.wraps(check)
        def run(*args) -> CheckResult:
            try:
                return CheckResult(name, True, check(*args))
            except _Failed as failed:
                return CheckResult(name, False, failed.detail, failed.code or code)
            except UnsupportedSuiteError as refused:
                return CheckResult(name, False, f"key refused: {refused}", code)
            except Exception as exc:
                return CheckResult(name, False, f"cannot decode: {exc!r}", code)
        return run
    return decorate


@functools.lru_cache(maxsize=MEMO_LIMIT)
def _remembered_pass(check, *args):
    """``check(*args)``, remembered once it passes. It is asked only about
    chains under a trust anchor, so that other roots cannot fill the memo."""
    return check(*args)


def _ca_path_root(path: tuple) -> str:
    """The root's name when ``path``, the certificates above a leaf, is a
    path of CAs that ``_path_failure`` passes; raises otherwise. The walk
    takes a first certificate that is not a CA for a leaf, so it is refused
    here."""
    if not path or not path[0].is_ca or _path_failure(path) is not None:
        raise _Failed("the CA path above the leaf fails")
    return path[-1].subject_text


def _crl_issued_by(crl: RevocationList, issuing_ca: Certificate) -> None:
    """Raise :class:`_Failed` unless ``issuing_ca`` issued and signed ``crl``
    and its keyUsage asserts cRLSign (RFC 5280 §4.2.1.3 and §6.3.3 (f))."""
    if crl.raw.issuer != issuing_ca.raw.subject:
        raise _Failed(f"CRL issued by {crl.raw.issuer.rfc4514_string()},"
                      f" leaf issued by {issuing_ca.subject_text}")
    if not issuing_ca.asserts_key_usage("crl_sign"):
        raise _Failed(f"{issuing_ca.subject_text} keyUsage does not assert cRLSign")
    AlgorithmSuite.of_key(issuing_ca.public_key)  # no verify under a key off the menu
    if not crl.is_signed_by(issuing_ca):
        raise _Failed("CRL signature does not verify under the issuing CA")


@_check("recency", FailureCode.STALE)
def check_recency(leaf: Certificate, policy: RecencyPolicy, at_time: datetime) -> str:
    """The ``recency`` check's result: the leaf's age at ``at_time`` against
    ``policy``."""
    age = _utc(at_time) - leaf.not_before
    if age > policy.limit:
        raise _Failed(f"certificate age {age} exceeds {policy.limit}")
    return f"certificate age {age} within {policy.limit}"


@_check("chain-trust", FailureCode.UNTRUSTED_CHAIN)
def _check_chain_trust(chain: CertificationChain, anchors: Iterable[Certificate]) -> str:
    anchors = tuple(anchors)
    if not anchors:
        raise _Failed("no trust anchors supplied")
    leaf = chain.leaf
    if leaf.is_ca:
        raise _Failed(f"leaf {leaf.subject_text} is a CA certificate")
    failure = _extension_failure(leaf)
    if failure is not None:
        raise _Failed(failure)
    # The root is compared first, so that a chain under a root no anchor
    # names costs no signature check and leaves nothing in the memo.
    if chain.root not in anchors:
        raise _Failed(f"root {chain.root.subject_text} is not a trust anchor")
    try:
        root_name = _remembered_pass(_ca_path_root, chain.certificates[1:])
    except Exception:  # the path fails or cannot be read, or the chain is one certificate
        # The report names the first fault of the whole walk, leaf included.
        failure = _path_failure(chain.certificates)
        if failure is not None:
            raise _Failed(failure)
        root_name = chain.root.subject_text
    else:
        if not leaf.verify_signed_by(chain.issuing_ca):
            raise _Failed(f"{leaf.subject_text} is not signed by"
                          f" {chain.issuing_ca.subject_text}")
    return f"chain of {len(chain)} anchored at {root_name}"


@_check("validity-window", FailureCode.EXPIRED)
def _check_validity_window(chain: CertificationChain, at_time: datetime) -> str:
    for cert in chain:
        if at_time < cert.not_before:
            raise _Failed(f"{cert.subject_text} not valid until {cert.not_before.isoformat()}")
        if at_time > cert.not_after:
            raise _Failed(f"{cert.subject_text} expired {cert.not_after.isoformat()}")
    return "every certificate valid at the verification instant"


@_check("uniform-validity", FailureCode.NON_UNIFORM_VALIDITY)
def _check_uniform_validity(chain: CertificationChain) -> str:
    values = chain.not_after_values()
    if len(set(values)) != 1:
        raise _Failed(f"expiries differ: {', '.join(sorted({v.isoformat() for v in values}))}")
    return f"all certificates expire {values[0].isoformat()}"


@_check("binding-presence", FailureCode.MISSING_BINDING)
def _check_binding_presence(leaf: Certificate) -> str:
    if leaf.binding is None:
        raise _Failed("leaf carries no document binding")
    return "leaf carries one document binding"


@_check("binding-match", FailureCode.MISSING_BINDING)
def _match_binding(leaf: Certificate, digest) -> str:
    """Does the leaf's binding name exactly the given digest? Algorithm and
    value must both match; a right value under the wrong algorithm fails."""
    binding = leaf.binding
    if binding is None:
        raise _Failed("certificate carries no document binding")
    if binding.digest.algorithm is not digest.algorithm:
        raise _Failed(f"bound with {binding.digest.algorithm.value},"
                      f" presented {digest.algorithm.value}", FailureCode.BINDING_MISMATCH)
    if binding.digest.value != digest.value:
        raise _Failed("digest differs from the bound value", FailureCode.BINDING_MISMATCH)
    return "document digest matches the binding"


@_check("signature", FailureCode.BAD_SIGNATURE)
def _check_signature(bundle: SignedDocumentBundle, digest) -> str:
    key = bundle.chain.leaf.public_key
    AlgorithmSuite.of_key(key)  # no verify under a key off the menu
    if not verify_signature(key, digest, bundle.signature):
        raise _Failed("signature does not verify under the leaf key")
    return "signature verifies under the leaf key"


@_check("crl", FailureCode.BAD_CRL)
def _check_crl(bundle: SignedDocumentBundle, at_time: datetime, trusted: bool) -> str:
    """``trusted``: chain-trust passed, so a CRL that passes is remembered."""
    crl = bundle.crl
    if crl is None:
        raise _Failed("bundle carries no CRL")
    if trusted:
        _remembered_pass(_crl_issued_by, crl, bundle.chain.issuing_ca)
    else:
        _crl_issued_by(crl, bundle.chain.issuing_ca)
    # The memo holds no instant, so the window is checked on every verify.
    if at_time < crl.last_update:
        raise _Failed(f"CRL not in force until {crl.last_update.isoformat()}")
    next_update = crl.next_update
    if next_update is not None and at_time > next_update:
        raise _Failed(f"CRL expired {next_update.isoformat()}")
    if not crl.is_blank:
        raise _Failed(f"CRL lists {len(crl.revoked_serials)} entries;"
                      " nothing under this root is ever revoked")
    return "blank CRL verifies under the issuing CA"


# ---------------------------------------------------------------------------
# Full bundle verification
# ---------------------------------------------------------------------------

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
    validity window, the blank CRL in force at the instant, and the
    signature, which a detached-signature validator checks over the
    presented document.
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
    signed = digest_document(document, bundle.document_digest.algorithm)
    if not legacy:
        checks.append(_check_uniform_validity(chain))
        checks.append(_check_binding_presence(leaf))
        checks.append(_match_binding(leaf, signed))
        if not checks[-1].passed:
            signed = bundle.document_digest
    checks.append(_check_signature(bundle, signed))
    if not legacy:
        checks.append(check_recency(leaf, policy, moment))
    checks.append(_check_crl(bundle, moment, checks[0].passed))
    return VerificationReport(checks=tuple(checks), at_time=moment)
