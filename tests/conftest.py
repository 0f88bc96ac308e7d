"""Shared fixtures: the reference systems used across the suite, the
exhaustive subset scan and the per-row cone walk that serve as the
minimal-route oracles, the per-column rank loop that serves as the
column-selection oracle, the block Arnoldi basis that serves as the
reachable-space oracle, the n-step Krylov loop that serves as the
exactness oracle, the per-group row loop and the rank test that serve as
the closure's grouping and span oracles, and the hypothesis profile."""
import itertools

import numpy as np
from hypothesis import settings

from posred import (GeneratorSpec, PositiveLtiSystem, Tolerances, generate_system,
                    is_nonneg, rank, rpmr_reachable)
from posred.monotone import cone_coefficients

# Derandomized, bounded and without an example database, so the property
# suites are deterministic, cheap and write no files; no deadline, because
# timings on shared machines vary.
settings.register_profile("posred", derandomize=True, database=None, deadline=None,
                          max_examples=150)
settings.load_profile("posred")


def cascade_system(eps: float = 0.0, C=None) -> PositiveLtiSystem:
    """4-state single-input system whose reachable space is the plane of
    the first two coordinates; eps perturbs the coupling into state 1 and
    the input weight of state 2. The tail block (states 3, 4) is
    unreachable."""
    A = np.array([[1.0, 1.0 + eps, 0.0, 0.0],
                  [1.0, 0.0, 2.0, 0.0],
                  [0.0, 0.0, 1.0, 2.0],
                  [0.0, 0.0, 3.0, 1.0]])
    B = np.array([[1.0], [1.0 + eps], [0.0], [0.0]])
    return PositiveLtiSystem(A, B, C)


def swap_system(eps: float = 1.0, C=None) -> PositiveLtiSystem:
    """4-state single-input system: A swaps the first two states (scaled
    by eps) and fixes the last two. The reachable space has dimension 2
    at eps=1 and dimension 3 otherwise."""
    A = np.array([[0.0, eps, 0.0, 0.0],
                  [eps, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    B = np.array([[0.0], [1.0], [1.0], [1.0]])
    return PositiveLtiSystem(A, B, C)


def stubborn_span() -> np.ndarray:
    """Positively generated 3-dimensional subspace of R^4 that admits no
    projector with non-negative factors: every 3-row block of the basis
    fails the sign test, and its product-algebra closure is all of R^4."""
    return np.array([[2.0, 1.0, 0.0],
                     [0.0, 2.0, 1.0],
                     [1.0, 0.0, 2.0],
                     [3.0, 0.0, 0.0]])


def lumped_system(n: int, r: int, q: int, seed: int) -> PositiveLtiSystem:
    """Positive system whose q-dimensional reachable space lies in an
    r-block lumpable space, so the algebraic route reduces it to order r.

    The reachable space is spanned by V = L U: L is an n x r block lifting
    (one positive weight per row, in the column of its block, every block
    used) and U an r x q positive matrix whose rows lie on a sphere about
    the barycentre of the simplex, so each is an extreme ray of their
    cone and no q rows factor V. A = V K, B = V G.
    """
    rng = np.random.default_rng(seed)
    blocks = rng.permutation(np.concatenate([np.arange(r), rng.integers(0, r, n - r)]))
    L = np.zeros((n, r))
    L[np.arange(n), blocks] = rng.uniform(0.5, 2.0, n)
    d = rng.standard_normal((r, q))
    d -= d.mean(axis=1, keepdims=True)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    U = (1.0 / q + (0.5 / q) * d) * rng.uniform(0.5, 2.0, (r, 1))
    V = L @ U
    K = rng.uniform(0.1, 1.0, (q, n))
    G = rng.uniform(0.1, 1.0, (q, 2))
    # A = V K has the spectrum of K V plus zeros; scale it to radius one.
    A = V @ K / np.abs(np.linalg.eigvals(K @ V)).max()
    return PositiveLtiSystem(A, V @ G, rng.uniform(0.1, 1.0, (2, n)))


def spurious_mode_pair(n: int = 12) -> tuple[PositiveLtiSystem, PositiveLtiSystem]:
    """A planted n-state system and its exact reduction with one extra
    state: a mode decaying like 0.5^k that adds 1e-3 * max|CB| to the
    impulse response at k = 0. The system's other modes grow (at n = 12
    the largest Markov coefficient up to the comparison horizon exceeds
    1e5 * max|CB|), so one global scale misses the extra mode."""
    S = generate_system(GeneratorSpec(n=n, inputs=2, outputs=2, reachable_dim=n // 2,
                                      density=0.6, seed=0))
    R = rpmr_reachable(S).reduced_system
    r = R.dim
    A = np.zeros((r + 1, r + 1))
    A[:r, :r] = R.A
    A[r, r] = 0.5
    B = np.vstack([R.B, np.ones((1, R.num_inputs))])
    weight = 1e-3 * np.abs(S.C @ S.B).max()
    C = np.hstack([R.C, np.full((R.num_outputs, 1), weight)])
    return S, PositiveLtiSystem(A, B, C)


def arnoldi_reachable_basis(A, B, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the reachable space Im[B, AB, A^2 B, ...] by
    block Arnoldi on the reachable support: the states reached from the
    nonzero rows of B in the graph of A, outside which every A^k B is
    exactly zero. There each block, starting from B, has its columns
    scaled to unit norm and is orthogonalised twice against the basis so
    far; the left singular vectors whose singular value exceeds tol join
    the basis, and A times them is the next block. Independent of the raw
    powers A^k B, which lose directions to the growing ones; without the
    restriction, rounding would leak into the unreachable states and the
    unreachable block's dominant modes would amplify it into spurious
    directions."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    reached = np.abs(B).max(axis=1, initial=0.0) > 0
    while True:
        grown = reached | (A[:, reached] != 0).any(axis=1)
        if (grown == reached).all():
            break
        reached = grown
    A_s = A[np.ix_(reached, reached)]
    Q = np.zeros((int(reached.sum()), 0))
    block = B[reached]
    while block.shape[1]:
        norms = np.linalg.norm(block, axis=0)
        block = block[:, norms > 0] / norms[norms > 0]
        for _ in range(2):
            block = block - Q @ (Q.T @ block)
        U, sigma, _ = np.linalg.svd(block, full_matrices=False)
        new = U[:, sigma > tol]
        Q = np.hstack([Q, new])
        block = A_s @ new
    embedded = np.zeros((A.shape[0], Q.shape[1]))
    embedded[reached] = Q
    return embedded


def fixes_every_krylov_block(S: PositiveLtiSystem, J, Jdag, tol: Tolerances = Tolerances()) -> bool:
    """Reference exactness test: J @ Jdag fixes the unit-peak columns of
    A^k B for every k < n, one block at a time (the Cayley-Hamilton
    bound), each block formed from the scaled one before it and tested
    on its own. reduce, which tests all n blocks in one stacked residual,
    must accept exactly when this does."""
    P = S.B
    for _ in range(S.dim):
        peaks = np.abs(P).max(axis=0, initial=0.0)
        P = P / np.where(peaks > 0.0, peaks, 1.0)
        if not np.abs(P - J @ (Jdag @ P)).max(initial=0.0) <= tol.eq_tol:
            return False
        P = S.A @ P
    return True


def greedy_level_sets(rows, tol: Tolerances = Tolerances()) -> np.ndarray:
    """Reference row grouping, one comparison per group: the first row not
    yet grouped takes every ungrouped row within eq_tol of it in every
    column. Returns the 0/1 matrix whose column k marks the k-th group;
    distalg's _level_sets must return the same matrix."""
    rows = np.asarray(rows, dtype=float)
    unassigned = np.ones(rows.shape[0], dtype=bool)
    marks = []
    for i in range(rows.shape[0]):
        if unassigned[i]:
            members = unassigned & (np.abs(rows - rows[i]).max(axis=1) <= tol.eq_tol)
            unassigned &= ~members
            marks.append(members)
    return np.column_stack(marks).astype(float)


def indicators_span_by_rank(marks, levels, tol: Tolerances = Tolerances()) -> bool:
    """Reference span test: the group indicators span the columns of
    levels exactly when rank([marks | levels]) equals the number of
    groups, by Gaussian elimination; distalg's closed-form test must
    decide the same."""
    return rank(np.hstack([marks, levels]), tol) == np.asarray(marks).shape[1]


def greedy_column_selection(M, tol: Tolerances = Tolerances()) -> list[int]:
    """Reference column selection: one rank() call per candidate column.

    Column j is kept exactly when rank(M[:, kept + [j]]) exceeds the
    number of columns kept so far. Quadratic in the column count; the
    single-pass column_space_basis must select the same columns.
    """
    A = np.asarray(M, dtype=float)
    selected: list[int] = []
    for j in range(A.shape[1]):
        if len(selected) == A.shape[0]:
            break
        if rank(A[:, selected + [j]], tol) > len(selected):
            selected.append(j)
    return selected


def exhaustive_first_hit(basis, tol: Tolerances = Tolerances()):
    """Reference scan over all C(n, m) row subsets in lexicographic order.

    Returns the first subset S (as a sorted list) whose block basis[S] is
    invertible with basis[~S] @ inv(basis[S]) >= 0, or None when no subset
    qualifies. Exponential; for test-sized inputs only.
    """
    B = np.asarray(basis, dtype=float)
    n, m = B.shape
    for subset in itertools.combinations(range(n), m):
        rows = list(subset)
        V0 = B[rows]
        if rank(V0, tol) < m:
            continue
        if is_nonneg(np.delete(B, rows, axis=0) @ np.linalg.inv(V0), tol):
            return rows
    return None


def cone_walk_pivots(basis, tol: Tolerances = Tolerances()):
    """Reference minimal-route search by one cone-membership solve per row.

    Rows whose norm is below the rank threshold count as zero. The others
    are scaled to unit rows U and visited from the last to the first, and
    each row lying in the cone of the rows still kept is dropped, which
    leaves the lowest-index row on each extreme ray. Returns those rows
    when there are m of them, their unit rows are independent,
    U[rest] @ inv(U[rows]) >= 0, with the rows counted as zero held to
    basis[i] @ inv(basis[rows]) >= 0, and J = basis @ inv(basis[rows]),
    with the identity at the rows and its negative entries zeroed, still
    fixes each basis column within eq_tol of its peak; None otherwise.
    Makes n non-negative least-squares solves; the search must return the
    same rows.
    """
    B = np.asarray(basis, dtype=float)
    n, m = B.shape
    norms = np.linalg.norm(B, axis=1)
    kept = norms > tol.rank_tol * np.abs(B).max()
    nonzero = kept.copy()
    U = B / np.where(kept, norms, 1.0)[:, None]
    for i in reversed(np.flatnonzero(kept)):
        kept[i] = False
        if cone_coefficients(U[kept], U[i], tol) is None:
            kept[i] = True
    pivots = np.flatnonzero(kept)
    if pivots.size != m or rank(U[pivots], tol) < m:
        return None
    ratios = U @ np.linalg.inv(U[pivots])
    ratios[~nonzero] = B[~nonzero] @ np.linalg.inv(B[pivots])
    ratios[pivots] = np.eye(m)
    if not is_nonneg(ratios, tol):
        return None
    J = np.maximum(B @ np.linalg.inv(B[pivots]), 0.0)
    J[pivots] = np.eye(m)
    P = B / np.abs(B).max(axis=0)
    return pivots.tolist() if np.abs(P - J @ P[pivots]).max() <= tol.eq_tol else None
