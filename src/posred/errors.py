"""Exception types shared across the package."""


class PosredError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteError(PosredError):
    """A matrix or vector contains NaN or infinite entries."""


class ZeroMatrixError(PosredError):
    """The matrix is numerically zero where a nonzero one is required."""


class RankDeficientError(PosredError):
    """Full column rank was required but not present."""


class NotNonnegativeError(PosredError):
    """An entrywise non-negative matrix was required."""


class DimensionMismatchError(PosredError):
    """Shapes of the supplied operands are inconsistent."""


class NotInvariantError(PosredError):
    """J @ Jdag does not fix the reachable space, so the reduction would
    not reproduce every Markov coefficient."""


class NotPositiveError(PosredError):
    """System matrices (original or reduced) have negative entries."""
