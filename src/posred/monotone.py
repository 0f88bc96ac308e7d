"""Monotone-matrix tests and non-negative left inverses.

A matrix X is monotone when X x >= 0 forces x >= 0, which happens exactly
when X has an entrywise non-negative left inverse, or again when the cone
spanned by its rows contains the whole non-negative orthant. The general
test here settles cone membership with non-negative least squares, and
one such solve also finds a combination of columns positive on every
row; for non-negative matrices a much cheaper structural test applies:
a non-negative n x m matrix is monotone exactly when m of its rows are
positive multiples of distinct unit vectors. Those monomial rows have
disjoint supports, so they are pairwise orthogonal.
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import NotNonnegativeError
from .numerics import DEFAULT_TOL, Tolerances, as_matrix


class MonotoneCertificate(NamedTuple):
    """Verdict plus evidence: a non-negative left inverse when monotone,
    and, when the structural shortcut found them, the indices of the m
    monomial rows, one per column, which are pairwise orthogonal."""

    monotone: bool
    nonneg_left_inverse: Optional[np.ndarray] = None
    orthogonal_row_set: Optional[list[int]] = None


def nonneg_lstsq(A, b) -> tuple[np.ndarray, float]:
    """Minimize ||A x - b|| over x >= 0 by the classic active-set method.

    Variables enter the passive set one at a time by steepest gradient;
    whenever the unconstrained solve on the passive set goes negative, the
    iterate backtracks to the boundary and the blocking variables leave
    the set. The problem is normalized to unit scale so the termination
    tolerance is dimensionless, the returned point is always feasible, and
    the residual norm is recomputed from it on the original data. At most
    30 * (n + 1) steps are taken for n unknowns; past that cap the last
    feasible iterate is returned, which stops a degenerate problem from
    cycling.
    """
    A_in = np.asarray(A, dtype=float)
    b_in = np.asarray(b, dtype=float).reshape(-1)
    m, n = A_in.shape
    a_scale = float(np.abs(A_in).max(initial=0.0))
    b_scale = float(np.abs(b_in).max(initial=0.0))
    if a_scale == 0.0 or b_scale == 0.0:
        return np.zeros(n), float(np.linalg.norm(b_in))
    A = A_in / a_scale
    b = b_in / b_scale
    max_iter = 30 * (n + 1)
    eps = np.finfo(float).eps
    grad_tol = 10.0 * eps * max(m, n)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    gradient = A.T @ b
    steps = 0

    def solve_on_passive() -> np.ndarray:
        z = np.zeros(n)
        cols = np.flatnonzero(passive)
        if cols.size:
            z[cols] = np.linalg.lstsq(A[:, cols], b, rcond=None)[0]
        return z

    while steps < max_iter and not passive.all():
        steps += 1
        free = np.flatnonzero(~passive)
        if gradient[free].max() <= grad_tol:
            break
        passive[free[np.argmax(gradient[free])]] = True
        z = solve_on_passive()
        feasible = True
        while passive.any() and z[passive].min() <= 0.0:
            steps += 1
            if steps > max_iter:
                feasible = False  # anti-cycling cap: keep the last feasible x
                break
            blocking = passive & (z <= 0.0)
            movable = blocking & (x - z > 0.0)
            if movable.any():
                alpha = float((x[movable] / (x[movable] - z[movable])).min())
                x = x + alpha * (z - x)
                passive &= x > eps * max(1.0, float(np.abs(x).max(initial=0.0)))
            else:
                # Degenerate entries sitting exactly at zero: drop them.
                passive &= ~blocking
            x[~passive] = 0.0
            z = solve_on_passive()
        if not feasible:
            break
        x = z
        gradient = A.T @ (b - A @ x)
    x = np.maximum(x, 0.0) * (b_scale / a_scale)
    return x, float(np.linalg.norm(b_in - A_in @ x))


def cone_coefficients(rows: np.ndarray, target: np.ndarray,
                      tol: Tolerances = DEFAULT_TOL) -> Optional[np.ndarray]:
    """Non-negative c with rows^T c = target, or None when target lies
    outside the cone spanned by the rows.

    Membership is decided by an active-set non-negative least-squares
    solve, accepted when the residual stays below
    eq_tol * (1 + ||target||). The floor is relative for targets of norm
    one or more and absolute below that, so callers that need a decision
    independent of scale pass unit-norm rows and targets.
    """
    coeffs, residual = nonneg_lstsq(rows.T, target)
    if residual > tol.eq_tol * (1.0 + np.linalg.norm(target)):
        return None
    return coeffs


def positive_combination(rows: np.ndarray,
                         tol: Tolerances = DEFAULT_TOL) -> Optional[np.ndarray]:
    """Coefficients c with rows @ c positive on every row, or None when
    the cone-membership solve finds none. The rows must be nonzero.

    With the rows, then the columns, scaled to unit peak (which changes no
    sign of rows @ c and keeps the solve well scaled), Rs c >= 1 for some
    c exactly when [Rs, -Rs, -I] z = 1 has a solution z >= 0; the returned
    c = D (z_+ - z_-), D the column scaling, then makes each entry of
    rows @ c about as large as the peak of its row.
    """
    Rs = rows / np.abs(rows).max(axis=1)[:, None]
    d = np.abs(Rs).max(axis=0)
    d = 1.0 / np.where(d > 0.0, d, 1.0)
    Rs *= d
    k, m = Rs.shape
    z = cone_coefficients(np.hstack([Rs, -Rs, -np.eye(k)]).T, np.ones(k), tol)
    return None if z is None else d * (z[:m] - z[m:2 * m])


def is_monotone_general(X, tol: Tolerances = DEFAULT_TOL) -> MonotoneCertificate:
    """Cone-membership oracle for arbitrary real matrices.

    X is monotone exactly when every standard basis vector e_j of R^m lies
    in the cone spanned by its rows; the cone coefficients of the e_j are
    the rows of a non-negative left inverse. A matrix with fewer rows than
    columns is never monotone.
    """
    A = as_matrix(X, "X")
    n, m = A.shape
    if n < m:
        return MonotoneCertificate(False)
    inverse_rows = np.empty((m, n))
    for j, target in enumerate(np.eye(m)):
        coeffs = cone_coefficients(A, target, tol)
        if coeffs is None:
            return MonotoneCertificate(False)
        inverse_rows[j] = coeffs
    return MonotoneCertificate(True, nonneg_left_inverse=inverse_rows)


def is_monotone_nonneg_rect(X, tol: Tolerances = DEFAULT_TOL) -> MonotoneCertificate:
    """Monomial-row test for a non-negative matrix of any rank or shape.

    A non-negative n x m matrix has a non-negative left inverse exactly
    when m of its rows are positive multiples of distinct unit vectors
    (Berman & Plemmons, ch. 5), so the scan looks for the first row
    supported on each column alone. Those m rows form an invertible
    diagonal block, so a True verdict implies full column rank and no
    rank test is needed: a rank-deficient or wide matrix has fewer such
    rows and is refused. Both the sign test
    and the support are taken relative to the largest entry of each row:
    X counts as non-negative when no entry is below -nonneg_tol times its
    row's peak, and an entry is in the support when it exceeds nonneg_tol
    times that peak. A pivot row is divided by its own pivot, which is its
    peak, so L X is within nonneg_tol of I, and the verdict depends
    neither on the scale of X nor on the scale of any row. On success the
    left inverse picks those rows, scaled to invert the diagonal block
    they form.
    """
    A = as_matrix(X, "X")
    n, m = A.shape
    row_floor = tol.nonneg_tol * abs(A).max(axis=1, initial=0.0, keepdims=True)
    if (A < -row_floor).any():
        raise NotNonnegativeError("matrix has negative entries")
    support = A > row_floor
    support_sizes = support.sum(axis=1)
    pivot_for_column: dict[int, int] = {}
    for i in range(n):
        if support_sizes[i] != 1:
            continue
        j = int(np.argmax(support[i]))
        if j not in pivot_for_column:
            pivot_for_column[j] = i
    if len(pivot_for_column) < m:
        return MonotoneCertificate(False)
    Jdag = np.zeros((m, n))
    for j, i in pivot_for_column.items():
        Jdag[j, i] = 1.0 / A[i, j]
    rows = sorted(pivot_for_column.values())
    return MonotoneCertificate(True, nonneg_left_inverse=Jdag, orthogonal_row_set=rows)
