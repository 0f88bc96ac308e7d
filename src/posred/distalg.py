"""Coordinate-wise product algebras with a positive unit.

For a vector p of the subspace, positive on its support (the rows where
the basis is not identically zero) and zero elsewhere, the product
``[x ^ y]_i = x_i y_i / p_i`` makes the supported coordinates a
commutative algebra with unit p. A subspace closed under it is spanned by
non-negative idempotents with pairwise disjoint supports summing to p,
which is exactly the structure that lets the projector onto the subspace
factor with non-negative factors. This module closes a subspace to the
smallest such algebra containing it (and its unit) and extracts the
idempotent generators.
"""

from typing import NamedTuple

import numpy as np

from .errors import NonFiniteError, NotNonnegativeError
from .factorize import Factorization
from .numerics import DEFAULT_TOL, SubspaceBasis, Tolerances, unit_peak


class DistortedAlgebra(NamedTuple):
    """Unit p, idempotent generator columns, and the support partition
    they indicate: generator k equals p on blocks[k], 0 elsewhere."""

    p: np.ndarray
    generators: np.ndarray
    blocks: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return self.generators.shape[1]


def choose_p(V: SubspaceBasis, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Vector of span(V), positive exactly on the nonzero rows of the
    basis: the column sum of the basis, as a read-only array.

    On an entrywise non-negative basis, such as the generators A^k B of a
    positive system, the sum cannot cancel. When it overflows (columns
    near the largest double), it is taken of the basis divided by the
    smallest power of two at least its column count m, which is exact
    outside the subnormal range, changes no sign and lets no row sum
    overflow; the blocks and J do not depend on the scale of p. When the
    division takes every entry of a nonzero row to 0, NonFiniteError is
    raised, as p would vanish there. Each row's sum is judged at that
    row's own scale, so the answer does not depend on the units of the
    basis: a nonzero row whose sum is at or below nonneg_tol times its
    peak |entry| raises NotNonnegativeError, as the basis must be a
    non-negative generating set of the span.
    """
    B = V.basis
    nonzero = B.any(axis=1)
    with np.errstate(over="ignore"):
        p = B.sum(axis=1)
    if not np.isfinite(p).all():
        B = np.ldexp(B, -(B.shape[1] - 1).bit_length())
        if not B[nonzero].any(axis=1).all():
            raise NonFiniteError("basis sum overflows; scaled down, a nonzero row underflows to 0")
        p = B.sum(axis=1)
    if not (p[nonzero] > tol.nonneg_tol * abs(B[nonzero]).max(axis=1)).all():
        raise NotNonnegativeError("basis column sum is not positive, at the scale of its row, "
                                  "on every nonzero row (negative entries): choose_p needs a "
                                  "non-negative generating set of the span")
    p.setflags(write=False)
    return p


def _level_sets(rows: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Groups of rows, each row within eq_tol of the first row of its
    group, in order of first appearance: the 0/1 matrix whose column k
    marks the k-th group, and for each row the index of its group's first
    row. Closeness compares every pair of rows in every column, in chunks
    of rows whose chunk x n x k temporary holds at most max(2^18, n k)
    entries; a NaN is close to nothing."""
    n, k = rows.shape
    step = max(1, 2 ** 18 // max(1, n * k))
    close = (row for i in range(0, n, step)
             for row in (abs(rows[i:i + step, None, :] - rows) <= tol.eq_tol).all(axis=2).tolist())
    # Python lists: one numpy call per group costs more than the whole
    # walk at the sizes grouped here.
    first, leaders = [-1] * n, []
    for i, row in enumerate(close):
        if first[i] < 0:
            leaders.append(i)
            for j in range(i, n):
                if row[j] and first[j] < 0:
                    first[j] = i
    first = np.array(first)
    return (first[:, None] == leaders).astype(float), first


def _indicators_span(levels: np.ndarray, first: np.ndarray, tol: Tolerances) -> bool:
    """Whether the indicators of the groups span the columns of levels,
    given each row's group leader first: every row equals its leader
    within rank_tol times max(1, max|levels|). This is, bit for bit, the
    decision that elimination on [indicators | levels] finds #groups
    pivots: it pivots on each group's leader (the first maximum) with
    multipliers exactly 1 or 0, so what it leaves of the levels is exactly
    each row minus its leader, and its threshold is rank_tol times the
    largest entry, max(1, max|levels|)."""
    return abs(levels - levels[first]).max() <= tol.rank_tol * max(1.0, abs(levels).max())


def closure(V: SubspaceBasis, p, tol: Tolerances = DEFAULT_TOL) -> DistortedAlgebra:
    """Smallest p-product algebra containing span(V) and the unit p.

    p must be finite, of length n, positive on the nonzero rows of the
    basis (its support s) and zero on the others; ValueError otherwise.
    Dividing by p on s turns the product into the plain entrywise one;
    NonFiniteError, without a warning, when that quotient overflows.
    The unital algebra that vectors generate under the entrywise product
    is the set of functions constant on their joint level sets, so the
    blocks are the groups of equal rows of levels = basis[s] / p[s], with
    each column scaled to unit peak and rows within eq_tol counting as
    equal. Rows that agree in every column can still be told apart by a
    combination of nearly parallel columns, so the indicators of the
    blocks must span the levels (_indicators_span); when they do not, the
    blocks are the groups of rows within eq_tol of an orthonormal basis
    of the levels, which depend on the span alone. Blocks are read off
    each row's group leader in order of first appearance; block
    indicators times p are the idempotent generators.
    """
    p = np.array(p, dtype=float)
    B = V.basis
    on = B.any(axis=1)
    if not (p.shape == on.shape and np.isfinite(p).all() and (p[on] > 0).all()
            and not p[~on].any()):
        raise ValueError("p must be finite, of length n, positive on the nonzero rows "
                         "of the basis and zero on its zero rows")
    p.setflags(write=False)
    s = np.flatnonzero(on)

    with np.errstate(over="ignore"):
        levels = B[s, :] / p[s][:, None]
    if not np.isfinite(levels).all():
        raise NonFiniteError("basis / p overflows: p is too small beside the basis")
    # A column that vanishes on the support separates no coordinates; it stays 0.
    levels = unit_peak(levels)
    marks, first = _level_sets(levels, tol)
    if not _indicators_span(levels, first, tol):
        marks, first = _level_sets(np.linalg.qr(levels)[0], tol)
    generators = np.zeros((V.ambient_dim, marks.shape[1]))
    generators[s] = marks * p[s][:, None]
    blocks: dict[int, list[int]] = {}
    for k, leader in zip(s.tolist(), first.tolist()):
        blocks.setdefault(leader, []).append(k)
    return DistortedAlgebra(p, generators, tuple(map(tuple, blocks.values())))


def algebra_factorization(algebra: DistortedAlgebra) -> Factorization:
    """Non-negative projector factors for the algebra.

    Generator k equals p on blocks[k] and vanishes elsewhere; blocks are
    disjoint and non-empty, so the first coordinate of each block is a
    pivot row that only its own generator touches. Columns are rescaled so
    the pivot rows of J form an identity block, with the plain 0/1
    selector as Jdag; the projector J @ Jdag is unchanged by that rescaling.
    """
    G = algebra.generators
    m = G.shape[1]
    pivots = [block[0] for block in algebra.blocks]
    J = G / G[pivots, np.arange(m)]
    Jdag = np.zeros((m, G.shape[0]))
    Jdag[np.arange(m), pivots] = 1.0
    return Factorization(J, Jdag, sorted(pivots))

