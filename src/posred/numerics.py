"""Tolerance-controlled dense linear algebra shared by every other module.

All operations are pure functions over float64 arrays: greedy column
bases by one Gaussian elimination pass whose relative pivot threshold
follows the columns kept so far, which also certifies a basis's full
column rank, Moore-Penrose left inverses, and unit-peak columns, on
which verify_factorization measures its projector residual.
"""

from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, RankDeficientError


class _Checked:
    """Mixin for an immutable named-tuple record whose _checked(record)
    validates it, or returns a corrected copy, on every construction path.
    The stock _make, and so _replace, builds the tuple without __new__."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return cls._checked(super().__new__(cls, *args, **kwargs))

    @classmethod
    def _make(cls, iterable):
        return cls._checked(super()._make(iterable))


class _Tolerances(NamedTuple):
    eq_tol: float = 1e-8


class Tolerances(_Checked, _Tolerances):
    """The numerical tolerance used throughout the package.

    eq_tol is the entrywise equality tolerance, which also decides when
    two rows are equal in the algebra closure; it must be finite and
    non-negative, and it fixes the other two thresholds. rank_tol =
    eq_tol/100 is relative: a pivot counts only if it exceeds rank_tol
    times the largest absolute entry of the matrix under test; for column
    selection that matrix is the columns kept so far plus the candidate,
    so every kept pivot is held to the threshold too. nonneg_tol =
    eq_tol/10 is the sign-test floor (entries >= -nonneg_tol count as
    non-negative) of computed values, which carry rounding: the search's
    unit-row signs and its zeroing of J, the row sums that choose_p and
    the search require, and perturbation_experiment's signs. Inputs have
    none: systems, monotone-test matrices and verified factor pairs.
    """

    __slots__ = ()
    rank_tol = property(lambda tol: tol.eq_tol / 100.0)
    nonneg_tol = property(lambda tol: tol.eq_tol / 10.0)

    @staticmethod
    def _checked(tol):
        if not 0 <= tol.eq_tol < np.inf:
            raise ValueError("tolerances must be finite and non-negative")
        return tol


DEFAULT_TOL = Tolerances()


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting NaN and infinities."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise NonFiniteError(f"{name} contains non-finite entries")
    return A


def _eliminate(W: np.ndarray, r: int, j: int, threshold: float) -> float:
    """Eliminate column j below row r in place, pivoting on its largest
    entry at or below row r, and return the pivot's size; when that size
    is at most threshold, leave W as it is and return 0.0."""
    pivot = r + int(abs(W[r:, j]).argmax())
    size = abs(W[pivot, j])
    if size <= threshold:
        return 0.0
    if pivot != r:
        # Two slice copies: fancy-indexing the row pair costs more.
        row = W[r, j:].copy()
        W[r, j:] = W[pivot, j:]
        W[pivot, j:] = row
    # The outer product by broadcasting: np.outer's wrapper costs more
    # than the arithmetic on the small matrices eliminated here.
    W[r + 1:, j:] -= (W[r + 1:, j] / W[r, j])[:, None] * W[r, j:]
    return size


class SubspaceBasis:
    """Full-column-rank matrix whose columns span a subspace of R^n.

    Full rank is certified by one column_space_basis pass keeping every
    column, so selection and this check share one elimination rule. A
    matrix with no independent column (all zero, or with no rows or no
    columns) gets the pass's own rank-0 RankDeficientError; one that keeps
    some columns but not all, "basis columns are linearly dependent".
    """

    def __init__(self, basis, tol: Tolerances = DEFAULT_TOL):
        B = as_matrix(basis, "basis")
        if column_space_basis(B, tol).dimension < B.shape[1]:
            raise RankDeficientError("basis columns are linearly dependent")
        B = B.copy()
        B.setflags(write=False)
        self.basis = B

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim {self.dimension} in R^{self.ambient_dim})"


def column_space_basis(M, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Greedy left-to-right column selection in one elimination pass.

    The columns kept so far are eliminated with partial pivoting, and
    column j is eliminated below them and kept exactly when its own pivot
    and every pivot already kept exceed rank_tol times the largest entry
    of the kept columns plus j. A column with a large peak can thus be
    refused because it raises the threshold above a small kept pivot.
    Kept columns are returned in their original order, and each kept
    pivot beats rank_tol times the final kept peak, so the result is the
    full-rank basis that SubspaceBasis's check would certify, and skips
    that check. M has full column rank exactly when every column is kept;
    RankDeficientError when none is (M is zero, or has no rows or columns).

    The eliminated matrix changes only when a column is kept, so after a
    refusal one vectorised scan applies the same test to every later
    column at once and the pass resumes at the first one that would be
    kept, or stops when there is none; it also stops once it has kept a
    column per nonzero row of M, as every row of W left is then zero. The
    selection is that of the column-by-column loop, bit for bit (while W
    does not overflow).
    """
    A = as_matrix(M)
    W = A.copy()
    cols, rows = W.shape[1], int(A.any(axis=1).sum())  # rows: those not all zero
    peaks = np.abs(A).max(axis=0, initial=0.0)
    selected: list[int] = []
    kept_peak = 0.0
    smallest_pivot = np.inf
    j = 0
    while j < cols and len(selected) < rows:
        r = len(selected)
        threshold = tol.rank_tol * max(kept_peak, peaks[j])
        size = _eliminate(W, r, j, threshold) if smallest_pivot > threshold else 0.0
        if size:
            selected.append(j)
            kept_peak = max(kept_peak, peaks[j])
            smallest_pivot = min(smallest_pivot, size)
            j += 1
            continue
        # The refusal test above, negated as written, so that a NaN in W
        # leaves its column live as it does in _eliminate.
        thresholds = tol.rank_tol * np.maximum(kept_peak, peaks[j + 1:])
        refused = ~(smallest_pivot > thresholds) | (abs(W[r:, j + 1:]).max(axis=0) <= thresholds)
        live = np.flatnonzero(~refused)
        if not live.size:
            break
        j += 1 + int(live[0])
    if not selected:
        raise RankDeficientError("matrix has rank 0; no column-space basis")
    return _full_rank_basis(A[:, selected])


def _full_rank_basis(M: np.ndarray) -> SubspaceBasis:
    """The SubspaceBasis of a fresh matrix M whose full column rank the
    caller has shown; M is made read-only, not checked again."""
    result = object.__new__(SubspaceBasis)
    result.basis = M
    M.setflags(write=False)
    return result


def left_inverse(M, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose left inverse of a full-column-rank matrix, by pinv.

    M is divided by the power of two that brings its largest entry into
    [1/2, 1), and the pseudo-inverse of the scaled matrix multiplied by
    the same power; outside the subnormal range both steps are exact.
    pinv drops singular values below its cutoff, so one residual test
    decides: RankDeficientError when L @ M misses the identity by more
    than eq_tol (a NaN misses), as for a rank-deficient or too
    ill-conditioned M. NonFiniteError, without a warning, when the
    inverse overflows on scaling back ([[1e-320], [0]] has inverse
    [[1e320, 0]], which is not a double).
    """
    A = as_matrix(M)
    n, m = A.shape
    exponent = np.frexp(np.abs(A).max(initial=0.0))[1]
    A = np.ldexp(A, -exponent)
    L = np.linalg.pinv(A)
    if not np.abs(L @ A - np.eye(m)).max(initial=0.0) <= tol.eq_tol:
        raise RankDeficientError("left inverse is inaccurate; matrix is numerically rank-deficient")
    with np.errstate(over="ignore"):
        L = np.ldexp(L, -exponent)
    if not np.isfinite(L).all():
        raise NonFiniteError(f"left inverse of the {n}x{m} matrix overflows")
    return L


def unit_peak(M: np.ndarray) -> np.ndarray:
    """M with each column divided by its peak |entry|; zero columns stay zero."""
    peaks = np.abs(M).max(axis=0, initial=0.0)
    return M / np.where(peaks > 0.0, peaks, 1.0)
