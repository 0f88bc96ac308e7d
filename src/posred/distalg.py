"""Coordinate-wise product algebras driven by a reference vector.

For a reference vector p, strictly positive on its support, the product
``[x ^ y]_i = x_i y_i / p_i`` makes the supported coordinates a
commutative algebra with unit p. A subspace closed under it is spanned by
non-negative idempotents with pairwise disjoint supports summing to p,
which is exactly the structure that lets the projector onto the subspace
factor with non-negative factors. This module closes a subspace to the
smallest such algebra containing it (and its unit) and extracts the
idempotent generators.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (DimensionMismatchError, NonFiniteError, NotNonnegativeError,
                     SupportFailureError, UnsupportedCoordinateError)
from .factorize import Factorization
from .monotone import positive_combination
from .numerics import DEFAULT_TOL, SubspaceBasis, Tolerances, unit_peak


class ReferenceVector:
    """Non-negative vector, strictly positive exactly on its support.

    Entries at or below the sign tolerance are snapped to exact zeros so
    that support bookkeeping downstream stays exact.
    """

    def __init__(self, p, tol: Tolerances = DEFAULT_TOL):
        p = np.array(p, dtype=float).reshape(-1)
        if p.size and not np.isfinite(p).all():
            raise NonFiniteError("reference vector has non-finite entries")
        if p.size and p.min() < -tol.nonneg_tol:
            raise NotNonnegativeError("reference vector has negative entries")
        positive = p > tol.nonneg_tol
        p[~positive] = 0.0
        p.setflags(write=False)
        self.p = p
        self.support = np.flatnonzero(positive)

    @property
    def dim(self) -> int:
        return self.p.shape[0]

    def __repr__(self) -> str:
        return f"ReferenceVector({self.p.tolist()})"


class DistortedAlgebra(NamedTuple):
    """Reference vector, idempotent generator columns, and the support
    partition they indicate: generator k equals p on blocks[k], 0 elsewhere."""

    p: ReferenceVector
    generators: np.ndarray
    blocks: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return self.generators.shape[1]


def choose_p(V: SubspaceBasis, tol: Tolerances = DEFAULT_TOL) -> ReferenceVector:
    """Vector of span(V), strictly positive on the subspace support.

    The column sum is tried first; on an entrywise non-negative basis,
    such as the generators A^k B of a positive system, it cannot cancel
    and is returned. When the sum overflows (columns near the largest
    double), it is taken of the basis divided by the power of two that
    brings its peak into [1/2, 1), which is exact and changes no sign;
    the blocks and J do not depend on the scale of p. Otherwise one
    cone-membership solve on the support rows decides
    (monotone.positive_combination), and p = B c is then about as large
    as each row's peak. SupportFailureError means no vector of the span
    is strictly positive on the support.
    """
    B = V.basis
    peaks = np.abs(B).max(axis=1)
    support = np.flatnonzero(peaks > tol.nonneg_tol)
    with np.errstate(over="ignore"):
        candidate = B.sum(axis=1)
    if not np.isfinite(candidate).all():
        candidate = np.ldexp(B, -np.frexp(peaks.max())[1]).sum(axis=1)
    if not (candidate[support] > tol.nonneg_tol).all():
        c = positive_combination(B[support], tol)
        if c is not None:
            candidate = B @ c
        if c is None or not (candidate[support] > tol.nonneg_tol).all():
            raise SupportFailureError("no vector of the span is strictly positive "
                                      "on the subspace support")
    p = np.zeros(V.ambient_dim)
    p[support] = candidate[support]
    return ReferenceVector(p, tol)


def _level_sets(rows: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """Groups of rows, each row within eq_tol of the first row of its
    group, in order of first appearance: the 0/1 matrix whose column k
    marks the k-th group, and for each row the index of its group's first
    row. Closeness is one n x n boolean matrix, built column by column."""
    n = rows.shape[0]
    close = np.ones((n, n), dtype=bool)
    for column in rows.T:
        close &= abs(column[:, None] - column) <= tol.eq_tol
    # Python lists: one numpy call per group costs more than the whole
    # walk at the sizes grouped here.
    first, leaders = [-1] * n, []
    for i, row in enumerate(close.tolist()):
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
    within rank_tol times max(1, max|levels|). This is the decision of
    rank([indicators | levels]) == #groups, bit for bit: elimination on
    the indicator columns pivots on each group's leader (the first
    maximum) with multipliers exactly 1 or 0, so what it leaves of the
    levels is exactly each row minus its leader, and rank's threshold is
    rank_tol times the largest entry, max(1, max|levels|)."""
    return abs(levels - levels[first]).max() <= tol.rank_tol * max(1.0, abs(levels).max())


def closure(V: SubspaceBasis, p: ReferenceVector,
            tol: Tolerances = DEFAULT_TOL) -> DistortedAlgebra:
    """Smallest p-product algebra containing span(V) and the unit p.

    Dividing by p on its support turns the product into the plain
    entrywise one. The unital algebra that vectors generate under the
    entrywise product is the set of functions constant on their joint
    level sets, so the blocks are the groups of equal rows of
    levels = basis[s] / p[s], with each column scaled to unit peak and
    rows within eq_tol counting as equal. Rows that agree in every column
    can still be told apart by a combination of nearly parallel columns,
    so the indicators of the blocks must span the levels
    (_indicators_span); when they do not, the blocks are the groups of
    rows within eq_tol of an orthonormal basis of the levels, which depend
    on the span alone. Blocks are read off each row's group leader in
    order of first appearance; block indicators times p are the
    idempotent generators.
    """
    if p.dim != V.ambient_dim:
        raise DimensionMismatchError("reference vector length does not match the ambient dimension")
    s = p.support
    if s.size == 0:
        raise SupportFailureError("reference vector has empty support")
    off = np.ones(V.ambient_dim, dtype=bool)
    off[s] = False
    B = V.basis
    if off.any() and np.abs(B[off, :]).max(initial=0.0) > tol.nonneg_tol:
        raise UnsupportedCoordinateError("subspace has weight outside supp(p)")

    # A column that vanishes on the support separates no coordinates; it stays 0.
    levels = unit_peak(B[s, :] / p.p[s][:, None])
    marks, first = _level_sets(levels, tol)
    # Singleton blocks span everything; otherwise check the span.
    if marks.shape[1] < s.size and not _indicators_span(levels, first, tol):
        marks, first = _level_sets(np.linalg.qr(levels)[0], tol)
    generators = np.zeros((V.ambient_dim, marks.shape[1]))
    generators[s] = marks * p.p[s][:, None]
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

