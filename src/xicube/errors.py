"""Exception types shared across the package."""


class XicubeError(Exception):
    """Base class for all package errors."""


class PrecisionError(XicubeError):
    """A rigorous decision could not be reached before the precision ceiling."""


class DependenceError(XicubeError):
    """1, xi, xi^3 are linearly dependent over Q; the scan is meaningless."""


class NotInSpan(XicubeError):
    """A point has no exact integer decomposition in the given basis."""


class ZeroElement(XicubeError):
    """The J-valuation of the zero element is undefined."""


class DimensionMismatch(XicubeError):
    """A computed vector-space dimension differs from the asserted one."""


class DecompositionFailure(XicubeError):
    """A polynomial left the span it was expected to decompose in."""


class Undecidable(XicubeError):
    """An interval comparison stayed ambiguous at the precision ceiling."""


class UsageError(XicubeError, ValueError):
    """A malformed xi spec, config file or flag value; the CLI exits 2 on it."""


class InvalidEll(UsageError):
    """Family parameter out of range (needs ell >= 1)."""


class InvariantViolation(XicubeError):
    """An exact invariant failed on real data.

    Carries a machine-readable reproducer so the offending input can be
    replayed in isolation.
    """

    def __init__(self, message, reproducer=None):
        super().__init__(message)
        self.reproducer = reproducer or {}
