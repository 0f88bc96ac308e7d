"""Shared fixtures: the reference systems used across the suite, the
exhaustive subset scan that serves as the minimal-route oracle, and the
hypothesis profile."""
import itertools

import numpy as np
from hypothesis import settings

from posred import PositiveLtiSystem, Tolerances, is_nonneg, rank

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
