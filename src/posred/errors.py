"""Exception types shared across the package."""


class PosredError(Exception):
    """Base class for every error raised by this package."""


class NonFiniteError(PosredError):
    """A matrix or vector contains NaN or infinite entries."""


class RankDeficientError(PosredError):
    """No independent column where one is required (column_space_basis
    keeps none, or reachable_subspace finds an empty support: rank 0), or
    full column rank required but not present (SubspaceBasis, left_inverse)."""


class NotNonnegativeError(PosredError):
    """An entry below 0 (-0.0 passes) in PositiveLtiSystem's A, B or C (so
    in reduce's output), in is_monotone_nonneg_rect's matrix or a CLI
    matrix file, or a basis that find_nonneg_factorization or choose_p
    finds is no non-negative generating set of its span."""


class DimensionMismatchError(PosredError):
    """Shapes of the supplied operands are inconsistent."""


class NotInvariantError(PosredError):
    """J @ Jdag does not fix the reachable space, so the reduction would
    not reproduce every Markov coefficient."""
