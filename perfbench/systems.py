"""Seeded inputs for the benchmark, built outside posred.

Every system here has a positive reduction that the benchmark knows in
advance, so a report of method "none" on one of them is a wrong answer:

- planted systems come from posred's own `generate_system`; their
  reachable space is a coordinate subspace, which the minimal route finds;
- lumped systems are built here from a block lifting (see `lumped`); they
  admit no minimal factorization but reduce to the number of blocks.
"""
from __future__ import annotations

import math

import numpy as np

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def lex_rank(subset, n: int) -> int:
    """Position of a sorted m-subset of range(n) in lexicographic order.

    Combinatorial number system: lexicographic order of c equals reverse
    colexicographic order of the mirrored subset {n - 1 - c_i}.
    """
    m = len(subset)
    return math.comb(n, m) - 1 - sum(math.comb(n - 1 - c, m - i)
                                     for i, c in enumerate(subset))


def lex_unrank(rank: int, n: int, m: int) -> list[int]:
    """Inverse of lex_rank: the rank-th m-subset of range(n), sorted."""
    if not 0 <= rank < math.comb(n, m):
        raise ValueError(f"rank {rank} outside C({n},{m})")
    subset, c = [], 0
    for i in range(m):
        while True:
            # Subsets that start (from position i on) with c.
            block = math.comb(n - 1 - c, m - 1 - i)
            if rank < block:
                break
            rank -= block
            c += 1
        subset.append(c)
        c += 1
    return subset


def reachable_support(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """States reachable from the inputs in the sign graph of (A, B)."""
    reached = np.abs(B).max(axis=1) > 0
    graph = np.abs(A) > 0
    while True:
        grown = reached | graph[:, reached].any(axis=1)
        if (grown == reached).all():
            return np.flatnonzero(reached)
        reached = grown


def planted(posred, n: int, seed: int, depth: float):
    """generate_system with q = n/2, relabelled so that the minimal scan's
    hit sits at the given depth (a fraction of C(n, q)) of its
    lexicographic order.

    The reachable space of a planted system is the coordinate subspace of
    its reachable support, so the support is the only subset the scan can
    accept. Placing it at a chosen depth, instead of wherever the
    generator's permutation put it, keeps the spread of scan lengths the
    same from one seed to the next. Returns (system, support size).
    """
    while True:
        spec = posred.GeneratorSpec(n=n, inputs=2, outputs=2, reachable_dim=n // 2,
                                    density=0.6, seed=seed)
        S = posred.generate_system(spec)
        support = reachable_support(S.A, S.B)
        if support.size:
            break
        # A zero input map leaves nothing to reduce or perturb.
        seed += 1
    q = support.size
    target = lex_unrank(min(int(depth * math.comb(n, q)), math.comb(n, q) - 1), n, q)
    rest = np.setdiff1d(np.arange(n), support)
    rng = np.random.default_rng(seed)
    old_of_new = np.empty(n, dtype=int)
    old_of_new[target] = rng.permutation(support)
    old_of_new[np.setdiff1d(np.arange(n), target)] = rng.permutation(rest)
    ix = np.ix_(old_of_new, old_of_new)
    return posred.PositiveLtiSystem(S.A[ix], S.B[old_of_new], S.C[:, old_of_new]), q


def _sphere_rows(rng: np.random.Generator, r: int, q: int) -> np.ndarray:
    # r points on a sphere about the barycentre of the probability simplex
    # are in convex position, so each is an extreme ray of their cone.
    d = rng.standard_normal((r, q))
    d -= d.mean(axis=1, keepdims=True)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    rows = 1.0 / q + (0.5 / q) * d
    return rows * rng.uniform(0.5, 2.0, (r, 1))


def lumped(posred, n: int, r: int, q: int, seed: int):
    """Positive system whose reachable space is q-dimensional inside an
    r-block lumpable space.

    V = L U with L an n x r block lifting (one positive weight per row, in
    the column of its block) and U an r x q positive matrix whose rows are
    all extreme rays of their cone. A = V K and B = V G make Im(V) the
    reachable space. Its row cone has r > q extreme rays, so no q rows
    factor it: there is no minimal factorization. Rows in one block are
    parallel, so the product algebra is the r-dimensional block algebra
    and the algebraic route reduces to order r.
    """
    if not 1 < q < r <= n:
        raise ValueError(f"need 1 < q < r <= n, got q={q}, r={r}, n={n}")
    rng = np.random.default_rng(seed)
    blocks = rng.permutation(np.concatenate([np.arange(r), rng.integers(0, r, n - r)]))
    L = np.zeros((n, r))
    L[np.arange(n), blocks] = rng.uniform(0.5, 2.0, n)
    V = L @ _sphere_rows(rng, r, q)
    K = rng.uniform(0.1, 1.0, (q, n))
    G = rng.uniform(0.1, 1.0, (q, 2))
    # Scale to spectral radius one: A = V K has the spectrum of K V plus zeros.
    A = V @ K / np.abs(np.linalg.eigvals(K @ V)).max()
    C = rng.uniform(0.1, 1.0, (2, n))
    return posred.PositiveLtiSystem(A, V @ G, C)


def cascade(posred):
    """4-state cascade: reachable space is the plane of the first two states."""
    A = [[1.0, 1.0, 0.0, 0.0],
         [1.0, 0.0, 2.0, 0.0],
         [0.0, 0.0, 1.0, 2.0],
         [0.0, 0.0, 3.0, 1.0]]
    return posred.PositiveLtiSystem(A, [[1.0], [1.0], [0.0], [0.0]])


def swap(posred):
    """4-state swap at unit gain: reachable space of dimension 2."""
    A = [[0.0, 1.0, 0.0, 0.0],
         [1.0, 0.0, 0.0, 0.0],
         [0.0, 0.0, 1.0, 0.0],
         [0.0, 0.0, 0.0, 1.0]]
    return posred.PositiveLtiSystem(A, [[0.0], [1.0], [1.0], [1.0]])
