"""Exception hierarchy shared across the package, and the CLI exit codes.

Exit-code mapping used by the CLI (EXIT_CODES, first match wins):
    ValueError (bad arguments)                      -> 2
    GuardExceededError                              -> 3
    CertificationError                              -> 4
    any other ExpanderForgeError (ParityError, bad
    graph input, ...)                               -> 2
"""

# Most vertices the exact Cheeger search takes unless a --guard or `guard`
# argument says otherwise; above it the search raises GuardExceededError.
DEFAULT_GUARD = 24


class ExpanderForgeError(Exception):
    """Base class for all package errors."""


class ParityError(ExpanderForgeError):
    """(chi, n) violates the model constraint: 3*chi - n must be a
    non-negative even integer."""


class GuardExceededError(ExpanderForgeError):
    """An exact search or enumeration would exceed its configured guard."""


class CertificationError(ExpanderForgeError):
    """A base-graph provider could not certify the required Cheeger bound."""


class SolverError(ExpanderForgeError):
    """Internal inconsistency in a numerical solve (e.g. an interior
    Dirichlet block that fails its positive-definite factorization)."""


EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (ValueError, 2),
    (GuardExceededError, 3),
    (CertificationError, 4),
    (ExpanderForgeError, 2),
)


def exit_code(exc: ExpanderForgeError | ValueError) -> int:
    """CLI exit code of an error: the first EXIT_CODES row it matches."""
    return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))
