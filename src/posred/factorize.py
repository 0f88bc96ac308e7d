"""Non-negative full-rank factorization of a projector onto a subspace.

A subspace V admits a projector Pi = J @ Jdag with J, Jdag >= 0 exactly
when some m rows of any basis form an invertible block V0 with
V1 @ inv(V0) >= 0 for the remaining rows V1. Such rows exist exactly when
the cone spanned by the basis rows is simplicial and each of its m
extreme rays carries a basis row: the separability condition of separable
NMF. Successive projection (Gillis & Vavasis, IEEE TPAMI 36(4), 2014)
finds those rows in m projection steps; it only proposes them, and the
sign test on unit rows and verify_factorization decide.

A basis that is exactly zero outside m rows needs no search: V1 = 0, the
subspace is the coordinate subspace of those rows, and the 0/1 selector
of the rows factors its projector. This is the generic case for positive
systems, whose reachable space is, for generic weights, the coordinate
subspace of the states reachable in the influence digraph (Lin,
"Structural controllability", IEEE TAC 19, 1974).
"""

from typing import NamedTuple, Optional

import numpy as np

from .errors import NotNonnegativeError
from .numerics import DEFAULT_TOL, SubspaceBasis, Tolerances, unit_peak


class Factorization(NamedTuple):
    """Projector factors J (n x m) and Jdag (m x n) with Jdag @ J = I.

    pivot_rows lists the rows of J that form the identity block; the pure
    0/1 selector Jdag is the canonical left inverse for that normalization.
    The record itself is not validated, so mixed-sign pairs can be carried
    for comparison experiments; verify_factorization does the checking.
    """

    J: np.ndarray
    Jdag: np.ndarray
    pivot_rows: list[int]


class _Selector(Factorization):
    """The 0/1 selector pair J = I[:, s], Jdag = I[s, :] of a coordinate
    basis, read-only, which possys.reduce reads off the principal
    subsystem; a copy made by _make or _replace is a plain Factorization."""

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return Factorization._make(iterable)

    def __repr__(self):
        return repr(Factorization._make(self))


def find_nonneg_factorization(
    V: SubspaceBasis,
    tol: Tolerances = DEFAULT_TOL,
) -> Optional[Factorization]:
    """Non-negative projector factors from the extreme rays of the row cone.

    When exactly m rows of the basis are nonzero, with no tolerance, the
    pair is the 0/1 selector of those rows: J has a one at (row, k) for
    the k-th nonzero row and Jdag = J.T. Full column rank makes those
    rows an invertible block, so they span the coordinate subspace;
    Jdag @ J = I and J @ Jdag fixes every basis column exactly, so the
    pair is returned without a recheck, as read-only arrays in a private
    Factorization subclass: possys.reduce certifies it on the principal
    subsystem, with no product. Every other basis goes through the search
    below.

    The basis is first divided by the power of two that brings its
    largest entry into [1/2, 1), so its row norms are finite and nonzero
    at any scale; outside the subnormal range the division is exact, and
    every decision and J are those of the unscaled basis.
    Rows whose norm is below the rank threshold are dropped as zero and
    the others scaled to unit rows U, so positive row scaling moves
    nothing. Each unit row is divided by its sum, which is at least 1 on
    a non-negative basis; a unit row whose sum is at or below nonneg_tol
    raises NotNonnegativeError, as the basis must be a non-negative
    generating set of the span. The rows then lie on a hyperplane, and
    when a factorization exists every row is a convex combination of the
    m extreme ones, so successive projection finds them: m times, pick
    the row of largest norm and project it out of all rows. Each pick
    stands for the lowest-index row on its ray, the first unit row within
    eq_tol of it. The rows the picks
    stand for are accepted only if they pass the sign test on unit rows,
    U[rest] @ inv(U[pivots]) >= 0, which does not depend on positive row
    scaling (rows dropped as zero keep the absolute test; fewer than m
    rows, a singular block or a non-finite entry fails it, silently).
    Then J = basis @ inv(V0), with its rows at the pivots set to the
    identity and every entry whose unit-row value is within nonneg_tol
    of zero, of either sign, set to zero: the negative entries
    the sign test forgave, and the rounding of inv(V0) where the exact
    entry is 0, which would fail the componentwise invariance test of
    possys.reduce. Jdag is the 0/1 selector of the pivots; the pair is
    returned only if verify_factorization accepts it, so zeroing those
    entries must leave each basis column fixed within eq_tol of its peak.
    Returns None otherwise.
    The proposal is the lexicographically first qualifying row subset up
    to the eq_tol ray grouping: a row within eq_tol of a lower-index
    row's ray is represented by that row, so near such a boundary the
    search can return None where a subset scan would still find one.
    """
    n, m = V.basis.shape
    support = np.flatnonzero(V.basis.any(axis=1))
    if support.size == m:
        J = np.zeros((n, m))
        J[support, np.arange(m)] = 1.0
        Jdag = np.ascontiguousarray(J.T)
        J.setflags(write=False)
        Jdag.setflags(write=False)
        return _Selector(J, Jdag, support.tolist())
    B = np.ldexp(V.basis, -np.frexp(abs(V.basis).max())[1])
    norms = np.linalg.norm(B, axis=1)
    nonzero = norms > tol.rank_tol * np.abs(B).max()
    rows = np.flatnonzero(nonzero)
    U = B[rows] / norms[rows][:, None]
    height = U.sum(axis=1)
    if not (height > tol.nonneg_tol).all():
        raise NotNonnegativeError("basis has negative entries: a unit row does not sum above "
                                  "the sign tolerance, and the factorization search needs a "
                                  "non-negative generating set of the span")
    R = U / height[:, None]
    picks = []
    for _ in range(m):
        squares = np.einsum("ij,ij->i", R, R)
        j = int(squares.argmax())
        if squares[j] == 0.0:
            break
        r = R[j] / np.sqrt(squares[j])
        R = R - (R @ r)[:, None] * r
        picks.append(j)
    # Each pick stands for the first unit row within eq_tol of it; not
    # np.unique, whose first call in a process takes ~12 ms.
    on_ray = abs(U - U[picks][:, None]).max(axis=2) <= tol.eq_tol
    pivots = rows[sorted(set(on_ray.argmax(axis=1).tolist()))]
    with np.errstate(all="ignore"):
        try:
            J = B @ np.linalg.inv(B[pivots])
        except np.linalg.LinAlgError:
            return None
        J[pivots] = np.eye(m)  # exact by construction; drop the rounding of inv(V0)
        # U[rest] @ inv(U[pivots]) is J with entry (i, j) scaled by
        # norms[pivots[j]] / norms[i].
        scale = np.ones_like(J)
        scale[nonzero] = norms[pivots] / norms[nonzero][:, None]
        unit = J * scale
        if not unit.min() >= -tol.nonneg_tol:  # a NaN fails too
            return None
    J[abs(unit) <= tol.nonneg_tol] = 0.0  # the forgiven signs and the rounding of inv(V0)
    Jdag = np.zeros((m, n))
    Jdag[np.arange(m), pivots] = 1.0
    F = Factorization(J, Jdag, pivots.tolist())
    if not verify_factorization(F, V, tol):
        return None
    return F


def verify_factorization(F: Factorization, V: SubspaceBasis, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Independent recheck of the factorization invariants.

    Both factors non-negative, with no entry below 0 and no tolerance, so
    that Jdag A' J >= 0 for every A' >= 0; Jdag @ J = I within eq_tol, and
    J @ Jdag fixing each column of the unit-peak basis P within eq_tol, by
    the absolute residual max|P - J (Jdag P)|; the two give Im(J) = span
    of V.
    """
    m = V.dimension
    if F.J.shape != (V.ambient_dim, m) or F.Jdag.shape != (m, V.ambient_dim):
        return False
    if not (F.J.min(initial=0.0) >= 0.0 and F.Jdag.min(initial=0.0) >= 0.0):  # a NaN fails too
        return False
    if np.abs(F.Jdag @ F.J - np.eye(m)).max() > tol.eq_tol:
        return False
    P = unit_peak(V.basis)
    return bool(np.abs(P - F.J @ (F.Jdag @ P)).max() <= tol.eq_tol)
