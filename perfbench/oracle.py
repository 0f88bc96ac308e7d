"""Independent check of a reduction, written without posred's verifier.

A reported reduction (J, Jdag, reduced triple) of a positive system
(A, B, C) is accepted when

1. J, Jdag and the reduced triple are entrywise non-negative;
2. Jdag J = I;
3. the reduced triple is (Jdag A J, Jdag B, C J);
4. the reachable space lies in Im(J): the projector residual
   (I - J Jdag) Q vanishes on an orthonormal reachable basis Q built by
   block Arnoldi with reorthogonalisation.

Condition 4 with Jdag J = I makes every Markov coefficient exact:
J Jdag A^k B = A^k B for all k, so C J (Jdag A J)^k Jdag B = C A^k B. No
power of A is formed, so neither scale nor horizon can hide a dropped
mode. The observable route is checked on the dual system.
"""
from __future__ import annotations

import numpy as np

SIGN_TOL = 1e-9   # relative to the largest entry of the matrix tested
EQ_TOL = 1e-8     # relative, for Jdag J = I and the reduced triple
SPAN_TOL = 1e-7   # relative projector residual on the reachable basis
KRYLOV_TOL = 1e-9  # new Arnoldi direction, relative to the column's norm


def reachable_basis(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of span{B, AB, A^2 B, ...} by block Arnoldi.

    Each column of a new block is orthogonalised twice against the basis
    so far (classical Gram-Schmidt) and kept when its residual exceeds
    KRYLOV_TOL times its norm before orthogonalisation. The next block is
    A times the columns kept; iteration stops when a block adds nothing.
    Only column combinations are formed, never row rotations, so states
    that the inputs cannot reach stay exactly zero in the basis.
    """
    n = A.shape[0]
    Q = np.zeros((n, 0))
    W = np.asarray(B, dtype=float)
    while Q.shape[1] < n:
        kept = []
        for w in W.T:
            norm = np.linalg.norm(w)
            if norm == 0.0:
                continue
            basis = np.column_stack([Q, *kept]) if kept else Q
            for _ in range(2):
                w = w - basis @ (basis.T @ w)
            residual = np.linalg.norm(w)
            if residual > KRYLOV_TOL * norm and Q.shape[1] + len(kept) < n:
                kept.append(w / residual)
        if not kept:
            break
        new = np.column_stack(kept)
        Q = np.hstack([Q, new])
        W = A @ new
    return Q


def _nonneg(M: np.ndarray) -> bool:
    M = np.asarray(M, dtype=float)
    return M.size == 0 or M.min() >= -SIGN_TOL * max(1.0, np.abs(M).max())


def _close(X: np.ndarray, Y: np.ndarray) -> bool:
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    if X.shape != Y.shape:
        return False
    if X.size == 0:
        return True
    scale = max(1.0, np.abs(X).max(), np.abs(Y).max())
    return np.abs(X - Y).max() <= EQ_TOL * scale


def check(A, B, C, J, Jdag, Ar, Br, Cr) -> str:
    """Empty string when the reachable-space reduction is exact and robustly
    positive; otherwise the first condition that failed."""
    A, B, C = (np.asarray(M, dtype=float) for M in (A, B, C))
    n = A.shape[0]
    J = np.asarray(J, dtype=float)
    m = J.size // n
    J = J.reshape(n, m)
    Jdag = np.asarray(Jdag, dtype=float).reshape(m, n)
    Ar = np.asarray(Ar, dtype=float).reshape(m, m)
    Br = np.asarray(Br, dtype=float).reshape(m, B.shape[1])
    Cr = np.asarray(Cr, dtype=float).reshape(C.shape[0], m)
    for name, M in (("J", J), ("Jdag", Jdag), ("reduced A", Ar),
                    ("reduced B", Br), ("reduced C", Cr)):
        if not _nonneg(M):
            return f"{name} has negative entries"
    if not _close(Jdag @ J, np.eye(m)):
        return "Jdag J is not the identity"
    for name, got, want in (("A", Ar, Jdag @ A @ J), ("B", Br, Jdag @ B),
                            ("C", Cr, C @ J)):
        if not _close(got, want):
            return f"reduced {name} is not the projection of {name}"
    Q = reachable_basis(A, B)
    if Q.shape[1]:
        residual = np.linalg.norm(Q - J @ (Jdag @ Q), 2)
        scale = max(1.0, np.linalg.norm(J, 2) * np.linalg.norm(Jdag, 2))
        if residual > SPAN_TOL * scale:
            return f"reachable space not inside Im(J): residual {residual:.3g}"
    return ""


def check_observable(A, B, C, J, Jdag, Ar, Br, Cr) -> str:
    """The observable route is the reachable route of the dual system."""
    T = np.transpose
    return check(T(A), T(C), T(B), T(Jdag), T(J), T(Ar), T(Cr), T(Br))
