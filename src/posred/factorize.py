"""Non-negative full-rank factorization of a projector onto a subspace.

A subspace V admits a projector Pi = J @ Jdag with J, Jdag >= 0 exactly
when some m rows of any basis form an invertible block V0 with
V1 @ inv(V0) >= 0 for the remaining rows V1. Such rows exist exactly when
the cone spanned by the basis rows is simplicial and each of its m
extreme rays carries a basis row (the separability condition of separable
NMF), so the search removes redundant rows by cone membership instead of
trying row subsets.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .monotone import cone_coefficients
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

    Rows whose norm is below the rank threshold are dropped as zero. The
    others are scaled to unit norm and visited from the last to the
    first, and each row lying in the cone of the rows still kept is
    dropped, so the survivors do not depend on positive row scaling.
    Dropping a redundant row never changes the cone, so the survivors are
    the lowest-index row on each extreme ray: up to the membership
    tolerance, the lexicographically first subset S whose block
    V0 = basis[S] is invertible with basis[~S] @ inv(V0) >= 0, when one
    exists. A row that leaves the cone of the others by less than that
    tolerance counts as redundant, so near such a boundary the search can
    return None where a subset scan would still find S. The survivors are
    accepted only if there are m of them and the unscaled basis passes
    the rank and sign test on them; then J = basis @ inv(V0), with its
    rows at S set to the identity, and Jdag is the 0/1 selector of S.
    Returns None otherwise.
    """
    B = V.basis
    n, m = B.shape
    # Rays do not depend on row scale, so the walk runs on unit rows.
    # Rows below the rank threshold count as zero and carry no ray.
    norms = np.linalg.norm(B, axis=1)
    kept = norms > tol.rank_tol * np.abs(B).max()
    U = B / np.where(kept, norms, 1.0)[:, None]
    for i in reversed(np.flatnonzero(kept)):
        kept[i] = False
        if cone_coefficients(U[kept], U[i], tol) is None:
            kept[i] = True
    pivots = np.flatnonzero(kept)
    if pivots.size != m or rank(B[pivots], tol) < m:
        log.debug("row cone has %d extreme rows for dimension %d", pivots.size, m)
        return None
    J = B @ np.linalg.inv(B[pivots])
    if not is_nonneg(J[~kept], tol):
        log.debug("extreme rows %s fail the sign test", pivots.tolist())
        return None
    J[pivots] = np.eye(m)  # exact by construction; drop the rounding of inv(V0)
    Jdag = np.zeros((m, n))
    Jdag[np.arange(m), pivots] = 1.0
    log.debug("non-negative factorization found at rows %s", pivots.tolist())
    return Factorization(J, Jdag, pivots.tolist())


def verify_factorization(F: Factorization, V: SubspaceBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Independent recheck of the factorization invariants.

    Both factors non-negative, Jdag @ J = I within eq_tol, and Im(J)
    equal to the span of V (rank of [J | basis] stays at m).
    """
    m = V.dimension
    if F.J.shape != (V.ambient_dim, m) or F.Jdag.shape != (m, V.ambient_dim):
        return False
    if not (is_nonneg(F.J, tol) and is_nonneg(F.Jdag, tol)):
        return False
    if np.abs(F.Jdag @ F.J - np.eye(m)).max() > tol.eq_tol:
        return False
    return rank(np.hstack([F.J, V.basis]), tol) == m
