"""Exception hierarchy with machine-readable error codes.

Every error carries a short ``code`` string that the CLI emits verbatim in
JSON error reports, so callers can dispatch on codes instead of messages.
"""

from __future__ import annotations


class FreesumError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class InputError(FreesumError):
    """Malformed input data: bad JSON, bad rationals, dimension mismatch."""

    code = "input-error"


class PreconditionError(FreesumError):
    """An operation was called outside its stated domain."""

    code = "precondition"


class ClassificationError(FreesumError):
    """A pair of polytopes is not a free sum / affine free sum."""

    code = "not-a-free-sum"


class TruncationError(FreesumError):
    """A series truncation bound is too small for the requested result."""

    code = "truncation-too-small"


class InternalCheckError(FreesumError):
    """An identity that is guaranteed by theory failed; signals a bug."""

    code = "internal-check"
