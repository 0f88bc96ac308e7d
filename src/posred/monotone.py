"""Monotone-matrix test and non-negative left inverses.

A matrix X is monotone when X x >= 0 forces x >= 0, which happens exactly
when X has an entrywise non-negative left inverse, or again when the cone
spanned by its rows contains the whole non-negative orthant. The package
works with non-negative matrices only, where a structural test decides:
a non-negative n x m matrix is monotone exactly when m of its rows are
positive multiples of distinct unit vectors. Those monomial rows have
disjoint supports, so they are pairwise orthogonal. A matrix with an
entry below 0 is refused with NotNonnegativeError; neither the sign test
nor the support has a tolerance, and no cone-membership solve is made.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import NonFiniteError, NotNonnegativeError
from .numerics import as_matrix


class MonotoneCertificate(NamedTuple):
    """Verdict plus evidence: when monotone, a non-negative left inverse
    and the sorted indices of the m monomial rows, one per column, which
    are pairwise orthogonal; both are None when not."""

    monotone: bool
    nonneg_left_inverse: Optional[np.ndarray] = None
    orthogonal_row_set: Optional[list[int]] = None


def is_monotone_nonneg_rect(X) -> MonotoneCertificate:
    """Monomial-row test for a non-negative matrix of any rank or shape.

    A non-negative n x m matrix has a non-negative left inverse exactly
    when m of its rows are positive multiples of distinct unit vectors
    (Berman & Plemmons, ch. 5). One boolean matrix marks the monomial
    rows, each in the column of its one nonzero entry; the verdict is that
    every column has a mark, and each column takes its first. Those m rows
    form an invertible diagonal block, so a True verdict implies full
    column rank and no rank test is needed: a rank-deficient or wide
    matrix has fewer such rows and is refused. X is non-negative when no
    entry is below 0 (-0.0 passes), and its support is its nonzero
    entries; neither test has a tolerance, so the verdict depends neither
    on the scale of X nor on the scale of any row. On success the left
    inverse picks those rows, each divided by its pivot, and L X is I up
    to the rounding of 1 / pivot.
    NonFiniteError, without a warning, when 1 / pivot overflows ([[5e-324]]
    has inverse [[2e323]], which is not a double).
    """
    A = as_matrix(X, "X")
    n, m = A.shape
    if (A < 0.0).any():
        raise NotNonnegativeError("matrix has negative entries")
    monomial = (A > 0.0) & (np.count_nonzero(A, axis=1) == 1)[:, None]
    if not monomial.any(axis=0).all():
        return MonotoneCertificate(False)
    columns = np.arange(m)  # argmax refuses a 0 x 0 matrix, which keeps no rows
    rows = monomial.argmax(axis=0) if n else columns
    with np.errstate(over="ignore"):
        inverse_pivots = 1.0 / A[rows, columns]
    if not np.isfinite(inverse_pivots).all():
        raise NonFiniteError(f"left inverse of the {n}x{m} matrix overflows")
    Jdag = np.zeros((m, n))
    Jdag[columns, rows] = inverse_pivots
    return MonotoneCertificate(True, nonneg_left_inverse=Jdag, orthogonal_row_set=sorted(rows.tolist()))
