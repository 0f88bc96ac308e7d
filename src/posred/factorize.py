"""Non-negative full-rank factorization of a projector onto a subspace.

A subspace V admits a projector Pi = J @ Jdag with J, Jdag >= 0 exactly
when some m rows of any basis form an invertible block V0 with
V1 @ inv(V0) >= 0 for the remaining rows V1. Such rows exist exactly when
the cone spanned by the basis rows is simplicial and each of its m
extreme rays carries a basis row: the separability condition of separable
NMF. Successive projection (Gillis & Vavasis, IEEE TPAMI 36(4), 2014)
finds those rows in m projection steps; it only proposes them, and the
sign test on unit rows and verify_factorization decide.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .monotone import positive_combination
from .numerics import DEFAULT_TOL, SubspaceBasis, Tolerances, is_nonneg, rank

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Factorization:
    """Projector factors J (n x m) and Jdag (m x n) with Jdag @ J = I.

    pivot_rows lists the rows of J that form the identity block; the pure
    0/1 selector Jdag is the canonical left inverse for that normalization.
    The record itself is not validated, so mixed-sign pairs can be carried
    for comparison experiments; verify_factorization does the checking.
    """

    J: np.ndarray
    Jdag: np.ndarray
    pivot_rows: list[int]

    @property
    def dimension(self) -> int:
        return self.J.shape[1]


def find_nonneg_factorization(
    V: SubspaceBasis,
    tol: Tolerances = DEFAULT_TOL,
) -> Optional[Factorization]:
    """Non-negative projector factors from the extreme rays of the row cone.

    Rows whose norm is below the rank threshold are dropped as zero and
    the others scaled to unit rows U, so positive row scaling moves
    nothing. Each unit row is divided by U @ c for a c positive on every
    row: c = 1 when the row sums are positive, else the one cone solve of
    monotone.positive_combination; when that finds none, no factorization
    exists (it would supply one) and the search returns None. The rows
    then lie on a hyperplane, and when a factorization exists every row
    is a convex combination of the m extreme ones, so successive
    projection finds them: m times, pick the row of largest norm and
    project it out of all rows. Each pick stands for the lowest-index row
    on its ray, the first unit row within eq_tol of it. The picks are
    accepted only if m distinct rows pass the rank test and the sign test
    on unit rows, U[rest] @ inv(U[pivots]) >= 0 (rows dropped as zero
    keep the absolute test). Then J = basis @ inv(V0), with its rows at
    the pivots set to the identity and the negative entries the sign test
    forgave set to zero, and Jdag is the 0/1 selector of the pivots; the
    pair is returned only if verify_factorization accepts it, so zeroing
    those entries must leave each basis column fixed within eq_tol of its
    peak. Returns None otherwise.
    The proposal is the lexicographically first qualifying row subset up
    to the eq_tol ray grouping: a row within eq_tol of a lower-index
    row's ray is represented by that row, so near such a boundary the
    search can return None where a subset scan would still find one.
    """
    B = V.basis
    n, m = B.shape
    norms = np.linalg.norm(B, axis=1)
    nonzero = norms > tol.rank_tol * np.abs(B).max()
    rows = np.flatnonzero(nonzero)
    U = B[rows] / norms[rows][:, None]
    height = U.sum(axis=1)
    if not (height > tol.nonneg_tol).all():
        c = positive_combination(U, tol)
        height = U @ c if c is not None else height
        if not (height > tol.nonneg_tol).all():
            log.debug("no combination of the basis columns is positive on every row")
            return None
    R = U / height[:, None]
    picks = []
    for _ in range(m):
        squares = np.einsum("ij,ij->i", R, R)
        j = int(np.argmax(squares))
        if squares[j] == 0.0:
            break
        r = R[j] / np.sqrt(squares[j])
        R = R - np.outer(R @ r, r)
        picks.append(int(np.argmax(np.abs(U - U[j]).max(axis=1) <= tol.eq_tol)))
    pivots = rows[sorted(set(picks))]  # not np.unique: its first call in a process takes ~12 ms
    if pivots.size != m or rank(B[pivots], tol) < m:
        log.debug("successive projection picked rows %s for dimension %d", pivots.tolist(), m)
        return None
    J = B @ np.linalg.inv(B[pivots])
    J[pivots] = np.eye(m)  # exact by construction; drop the rounding of inv(V0)
    # U[rest] @ inv(U[pivots]) is J with entry (i, j) scaled by
    # norms[pivots[j]] / norms[i].
    scale = np.ones_like(J)
    scale[nonzero] = norms[pivots] / norms[nonzero][:, None]
    if not is_nonneg(J * scale, tol):
        log.debug("extreme rows %s fail the sign test", pivots.tolist())
        return None
    np.maximum(J, 0.0, out=J)
    Jdag = np.zeros((m, n))
    Jdag[np.arange(m), pivots] = 1.0
    F = Factorization(J, Jdag, pivots.tolist())
    if not verify_factorization(F, V, tol):
        log.debug("clamped factor at rows %s does not fix the basis", pivots.tolist())
        return None
    log.debug("non-negative factorization found at rows %s", pivots.tolist())
    return F


def verify_factorization(F: Factorization, V: SubspaceBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Independent recheck of the factorization invariants.

    Both factors non-negative, Jdag @ J = I within eq_tol, and J @ Jdag
    fixing each basis column, scaled to unit peak, within eq_tol (the
    exactness test of possys.reduce); the two give Im(J) = span of V.
    """
    m = V.dimension
    if F.J.shape != (V.ambient_dim, m) or F.Jdag.shape != (m, V.ambient_dim):
        return False
    if not (is_nonneg(F.J, tol) and is_nonneg(F.Jdag, tol)):
        return False
    if np.abs(F.Jdag @ F.J - np.eye(m)).max() > tol.eq_tol:
        return False
    P = V.basis / np.abs(V.basis).max(axis=0)
    return np.abs(P - F.J @ (F.Jdag @ P)).max() <= tol.eq_tol
