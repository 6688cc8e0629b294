"""Domain exceptions.

Every error carries a stable machine-readable ``code`` so callers (the
enrollment service, the CLI) can map failures onto wire responses and exit
statuses without string-matching messages.
"""

from __future__ import annotations

__all__ = [
    "OtcError",
    "UnsupportedSuiteError",
    "KeyDestroyedError",
    "DigestMismatchError",
    "MalformedEncodingError",
    "InvalidNameError",
    "InvalidPolicyError",
    "RoleViolationError",
    "CaRetiredError",
    "CaExpiredError",
    "PopFailureError",
    "MissingBindingError",
    "DuplicateBindingError",
    "EnrollmentRejectedError",
    "EnrollmentUnreachableError",
    "ConfigError",
]


class OtcError(Exception):
    """Base class for all errors raised by this package."""

    code = "otc-error"

    def __init__(self, message: str = "", *, code: str | None = None):
        if code is not None:
            self.code = code
        super().__init__(message or self.code)


class UnsupportedSuiteError(OtcError):
    """An algorithm or parameter set outside the supported menu."""

    code = "unsupported-suite"


class KeyDestroyedError(OtcError):
    """A signing operation was attempted on a destroyed private key."""

    code = "key-destroyed"


class DigestMismatchError(OtcError):
    """A digest value does not fit the declared algorithm (wrong length)."""

    code = "digest-mismatch"


class MalformedEncodingError(OtcError):
    """Bytes that do not decode as the expected DER or PEM structure."""

    code = "malformed-encoding"


class InvalidNameError(OtcError):
    """A distinguished name missing a common name, or one that cannot be
    parsed."""

    code = "invalid-name"


class InvalidPolicyError(OtcError):
    """A CA policy with an unusable expiry or other bad parameter."""

    code = "invalid-policy"


class RoleViolationError(OtcError):
    """A CA asked to do something its role does not permit."""

    code = "role-violation"


class CaRetiredError(OtcError):
    """Operation on a CA whose private key has been destroyed.

    The default code is ``issuer-retired``; creation of subordinates under a
    retired parent reports ``parent-retired``.
    """

    code = "issuer-retired"


class CaExpiredError(OtcError):
    """Operation on a CA past its certificate's expiry, which is the whole
    chain's.

    The default code is ``issuer-expired``; creation of subordinates under
    an expired parent reports ``parent-expired``.
    """

    code = "issuer-expired"


class PopFailureError(OtcError):
    """A CSR whose self-signature does not verify: the requester has not
    proven possession of the private key."""

    code = "pop-failure"


class MissingBindingError(OtcError):
    """A CSR with no document-digest extension."""

    code = "missing-otc-extension"


class DuplicateBindingError(OtcError):
    """A CSR carrying more than one document-digest extension."""

    code = "duplicate-otc-extension"


class EnrollmentRejectedError(OtcError):
    """The enrollment endpoint refused to issue. ``ca_code`` preserves the
    CA-side error code from the response."""

    code = "enrollment-rejected"

    def __init__(self, message: str = "", *, ca_code: str = ""):
        self.ca_code = ca_code
        super().__init__(message)


class EnrollmentUnreachableError(OtcError):
    """The enrollment endpoint could not be reached at all."""

    code = "enrollment-unreachable"


class ConfigError(OtcError):
    """A service configuration file that cannot be used."""

    code = "bad-config"
