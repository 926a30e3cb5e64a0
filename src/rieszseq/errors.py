"""Exception types shared across the package, one per CLI exit code.

InputError exits 2, SearchFailed exits 3 and PropertyViolation exits 1; the
message says what went wrong.  InputError is also a ValueError.
"""


class RieszSeqError(Exception):
    """Base class for all package-specific errors."""


class InputError(RieszSeqError, ValueError):
    """Input that cannot be processed: a malformed or degenerate set, an arc
    out of canonical form, out-of-range parameters, a coefficient table too
    short for a search, or an eigensolver that did not converge on it."""


class SearchFailed(RieszSeqError):
    """A shift scan or block search ended without meeting its target, or a
    stored certificate failed re-verification."""


class PropertyViolation(RieszSeqError):
    """A mathematical property that must hold was violated numerically."""
