"""Exception types shared across the package.

The CLI maps these onto exit codes: usage errors exit 1, mathematical
domain errors exit 2, internal inconsistencies (identities that must hold
by theorem failing to hold) exit 3.  A y-specialization is an error only
where a value reads a y_j that a window without a tail rule lacks.
"""


class DomainError(ValueError):
    """Input outside an operation's mathematical domain."""


class RankTooSmallError(DomainError):
    """Number of x-variables too small for the requested computation."""


class AsymmetricInputError(DomainError):
    """Polynomial fed to a basis expansion is not (shifted-)symmetric."""


class UnresolvableIndexError(DomainError):
    """A sequence index fell outside a window with no tail rule."""


class InternalInconsistencyError(RuntimeError):
    """An identity guaranteed by theorem failed; indicates a bug, not bad data."""


class InexactDivisionError(InternalInconsistencyError):
    """Polynomial division that must be exact left a nonzero remainder."""


class UsageError(Exception):
    """Malformed command line."""
