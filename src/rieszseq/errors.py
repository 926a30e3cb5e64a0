"""Exception types shared across the package.

The CLI maps these onto exit codes: validation problems exit 2, failed
searches and certificate mismatches exit 3, violated mathematical
properties exit 1.
"""


class RieszSeqError(Exception):
    """Base class for all package-specific errors."""


# --- arc-union construction ---

class EmptyInput(RieszSeqError):
    """Input describes a set of measure zero."""


class InvalidArc(RieszSeqError):
    """An arc is malformed or non-finite, reduces to a point, has negative
    length, or exceeds the circle."""


class OverlapError(RieszSeqError):
    """Pieces required to be disjoint are not."""


class ResolutionError(RieszSeqError):
    """Quadrature grid too coarse for the requested frequency."""


# --- spectral computations ---

class DegenerateSet(RieszSeqError):
    """Operation requires a set of positive measure."""


class ConvergenceError(RieszSeqError):
    """Eigensolver failed to converge."""


class DimensionMismatch(RieszSeqError):
    """Vector length does not match the matrix size."""


# --- constructions and searches ---

class ScheduleError(RieszSeqError):
    """Width schedule parameters are out of range for the requested build."""


class TableTooSmall(RieszSeqError):
    """Precomputed coefficient powers do not cover the indices a search needs."""


class ScanExhausted(RieszSeqError):
    """Shift scan hit its cap without meeting the target bound."""


class NotEnoughBlocks(RieszSeqError):
    """Fewer usable blocks were found than the build requested."""


class CertificateMismatch(RieszSeqError):
    """A stored lower-bound certificate failed re-verification."""


class PropertyViolation(RieszSeqError):
    """A mathematical property that must hold was violated numerically."""
