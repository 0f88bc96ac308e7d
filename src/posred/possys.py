"""Positive LTI systems: reachability and observability objects, Markov
parameters, projection-based reduction, equivalence, and simulation."""
from __future__ import annotations

import numpy as np

from .errors import (DimensionMismatchError, NegativeInputError,
                     NotInvariantError, NotPositiveError, VerificationError)
from .factorize import Factorization
from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerances, as_matrix,
                       column_space_basis, is_nonneg)

TIME_DOMAINS = ("discrete", "continuous")


def _frozen(A: np.ndarray) -> np.ndarray:
    out = A.copy()
    out.setflags(write=False)
    return out


class PositiveLtiSystem:
    """State-space triple (A, B, C) with entrywise non-negative matrices.

    C defaults to the identity (full state readout). The time-domain tag
    is metadata only: the reduction machinery is representation-level and
    identical for both, while simulation accepts discrete systems only.
    """

    def __init__(self, A, B, C=None, time_domain: str = "discrete",
                 tol: Tolerances = DEFAULT_TOL):
        A = as_matrix(A, "A")
        B = as_matrix(B, "B")
        n = A.shape[0]
        if A.shape[1] != n:
            raise DimensionMismatchError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise DimensionMismatchError(f"B must have {n} rows, got {B.shape}")
        C = np.eye(n) if C is None else as_matrix(C, "C")
        if C.shape[1] != n:
            raise DimensionMismatchError(f"C must have {n} columns, got {C.shape}")
        if time_domain not in TIME_DOMAINS:
            raise ValueError(f"time_domain must be one of {TIME_DOMAINS}")
        for name, M in (("A", A), ("B", B), ("C", C)):
            if not is_nonneg(M, tol):
                raise NotPositiveError(f"system is not positive: {name} has negative entries")
        self.A = _frozen(A)
        self.B = _frozen(B)
        self.C = _frozen(C)
        self.time_domain = time_domain

    @property
    def dim(self) -> int:
        return self.A.shape[0]

    @property
    def num_inputs(self) -> int:
        return self.B.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.C.shape[0]

    def transpose(self) -> "PositiveLtiSystem":
        """The dual system (A^T, C^T, B^T); swaps reachability with observability."""
        return PositiveLtiSystem(self.A.T, self.C.T, self.B.T, self.time_domain)

    def __repr__(self) -> str:
        return (f"PositiveLtiSystem(n={self.dim}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, {self.time_domain})")


def reachability_matrix(S: PositiveLtiSystem) -> np.ndarray:
    """The n x (n * inputs) block matrix [B, AB, ..., A^(n-1) B]."""
    blocks = [S.B]
    P = S.B
    for _ in range(S.dim - 1):
        P = S.A @ P
        blocks.append(P)
    return np.hstack(blocks)


def reachable_subspace(S: PositiveLtiSystem, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Truncated reachability matrix: independent columns of [B, AB, ...]."""
    return column_space_basis(reachability_matrix(S), tol)


def observability_matrix(S: PositiveLtiSystem) -> np.ndarray:
    """The (n * outputs) x n stacked matrix [C; CA; ...; C A^(n-1)]."""
    blocks = [S.C]
    P = S.C
    for _ in range(S.dim - 1):
        P = P @ S.A
        blocks.append(P)
    return np.vstack(blocks)


def markov_parameters(A, B, C, horizon: int) -> list[np.ndarray]:
    """Coefficients C A^k B for k = 0..horizon by iterated multiplication.

    The raw powers overflow on large systems; markov_match compares two
    impulse responses without forming them."""
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    C = as_matrix(C, "C")
    coefficients = []
    P = B
    for _ in range(horizon + 1):
        coefficients.append(C @ P)
        P = A @ P
    return coefficients


def markov_match(first, second, horizon: int, tol: Tolerances = DEFAULT_TOL) -> bool | np.ndarray:
    """Compare C1 A1^k B1 with C2 A2^k B2 for k = 0..horizon, each pair at
    its own scale: max|M1_k - M2_k| <= eq_tol * s_k with
    s_k = max(max|M1_k|, max|M2_k|), so a mode that decays beside one that
    grows is still seen. Where one side is exactly zero the other carries
    rounding noise, so a difference below rank_tol times the largest s_j
    with j <= k counts as zero too.

    first and second are (A, B, C) triples of matrices, or of stacks of
    matrices along a leading batch axis (broadcast against each other); the
    verdict is a bool for matrices and a boolean array with one entry per
    item for stacks. B1 and B2 of an item are first divided by one power
    of two that brings their larger peak below one, and C1 and C2 by
    another; such a division is exact above the underflow range. The two
    impulse responses are then walked side by side, and after every step
    both states of an item, and its running peak with them, are divided
    by the largest entry of either state. A common positive factor leaves
    each comparison unchanged, so the verdict is that of the raw
    coefficients without their overflow, for any finite B and C.
    Coefficients that still overflow (only A can cause it) never match.
    """
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
    A1, B1, C1, A2, B2, C2 = matrices = [np.asarray(M, dtype=float) for M in (*first, *second)]
    for M, name in zip(matrices, "ABCABC"):
        as_matrix(M.reshape(M.shape[0] * M.shape[1], M.shape[2]) if M.ndim == 3 else M, name)
    if B1.shape[-1] != B2.shape[-1] or C1.shape[-2] != C2.shape[-2]:
        raise DimensionMismatchError("input/output dimensions differ")

    def peak_of(M):
        return abs(M).max(axis=(-2, -1), initial=0.0, keepdims=True)

    def exactly_scaled(M1, M2):
        exponent = np.frexp(np.maximum(peak_of(M1), peak_of(M2)))[1]
        return np.ldexp(M1, -exponent), np.ldexp(M2, -exponent)

    (B1, B2), (C1, C2) = exactly_scaled(B1, B2), exactly_scaled(C1, C2)
    P1, P2, peak, match = B1, B2, 0.0, True
    for _ in range(horizon + 1):
        Y1, Y2 = C1 @ P1, C2 @ P2
        scale = np.maximum(peak_of(Y1), peak_of(Y2))
        peak = np.maximum(peak, scale)
        allowed = np.maximum(tol.eq_tol * scale, tol.rank_tol * peak)
        match = match & np.isfinite(scale) & (peak_of(Y1 - Y2) <= allowed)
        if not match.any():
            break
        P1, P2 = A1 @ P1, A2 @ P2
        factor = np.maximum(peak_of(P1), peak_of(P2))
        factor[factor == 0.0] = 1.0
        P1, P2, peak = P1 / factor, P2 / factor, peak / factor
    match = match[..., 0, 0]
    return bool(match) if match.ndim == 0 else match


def project(S: PositiveLtiSystem, J, Jdag) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw restriction (Jdag A J, Jdag B, C J) with no validity checks.

    Used for comparison experiments where the factors may have mixed signs
    or the image may fail to be invariant; reduce() is the checked path.
    """
    J = as_matrix(J, "J")
    Jdag = as_matrix(Jdag, "Jdag")
    return Jdag @ S.A @ J, Jdag @ S.B, S.C @ J


def reduce(S: PositiveLtiSystem, F: Factorization, tol: Tolerances = DEFAULT_TOL) -> PositiveLtiSystem:
    """Restrict S to Im(F.J), returning (Jdag A J, Jdag B, C J).

    The reduction is exact when J @ Jdag fixes A^k B for k < n: by
    Cayley-Hamilton it then fixes every A^k B, and by induction
    (Jdag A J)^k Jdag B = Jdag A^k B, so every Markov coefficient matches.
    Neither A-invariance of Im(J) nor Jdag @ J = I is needed. The test is
    scale-free: each column of each block is scaled to unit peak, and the
    residual max|P - J (Jdag P)| over all n blocks is held to eq_tol.
    Scaling a column commutes with multiplying by A, so the blocks are the
    raw stack reachability_matrix(S) divided by its column peaks once,
    when every peak lies in [2^-500, 2^500] and no product term
    B[j] A[i1, j] ... of the stack can fall below 2^-1022 (the smallest
    nonzero |B| times min(1, smallest nonzero |A|)^(n-1)). Otherwise (a
    power overflows, a column is zero or tiny, or small entries of a
    column may underflow and be amplified again by later powers) each
    block is formed from the scaled one before it. In exact arithmetic
    the blocks k <= m (m the column count of J) would decide, since a Krylov chain
    inside an m-dimensional Im(J) stops growing within m steps; under
    eq_tol they do not: blocks within eq_tol of Im(J) can still drift out
    of it at later powers. The reduced triple must come out non-negative;
    the PositiveLtiSystem constructor raises NotPositiveError otherwise
    (possible only with mixed-sign factors).
    """
    J, Jdag = as_matrix(F.J, "J"), as_matrix(F.Jdag, "Jdag")
    if J.shape[0] != S.dim or Jdag.shape[1] != S.dim:
        raise DimensionMismatchError("factor shapes do not match the system dimension")

    def unit_peak(P):
        peaks = abs(P).max(axis=0, initial=0.0)
        return P / np.where(peaks > 0.0, peaks, 1.0)

    def smallest(M):
        M = abs(M)
        return float(M[M > 0.0].min(initial=np.inf))

    # Every product term of an entry of A^k B (k < n) is 0 or at least
    # this large in magnitude, so no entry of the raw stack underflows.
    floor = smallest(S.B) * min(1.0, smallest(S.A)) ** (S.dim - 1)
    with np.errstate(over="ignore", invalid="ignore"):
        P = reachability_matrix(S)
        peaks = abs(P).max(axis=0, initial=0.0)
    if floor >= 2.0 ** -1022 and ((peaks >= 2.0 ** -500) & (peaks <= 2.0 ** 500)).all():
        P = P / peaks
    else:
        blocks = [unit_peak(S.B)]
        for _ in range(S.dim - 1):
            blocks.append(unit_peak(S.A @ blocks[-1]))
        P = np.hstack(blocks)
    if not abs(P - J @ (Jdag @ P)).max(initial=0.0) <= tol.eq_tol:
        raise NotInvariantError("J @ Jdag does not fix the reachable space")
    return PositiveLtiSystem(*project(S, J, Jdag), S.time_domain, tol)


def equivalent(S1: PositiveLtiSystem, S2: PositiveLtiSystem,
               tol: Tolerances = DEFAULT_TOL) -> bool:
    """Zero-state equivalence via Markov coefficients.

    Agreement for k = 0..(n1 + n2) implies agreement for every k by the
    Cayley-Hamilton theorem, so the comparison horizon is finite.
    """
    return markov_match((S1.A, S1.B, S1.C), (S2.A, S2.B, S2.C), S1.dim + S2.dim, tol)


def simulate(S: PositiveLtiSystem, x0, inputs, tol: Tolerances = DEFAULT_TOL) -> list[np.ndarray]:
    """Step x(k+1) = A x(k) + B u(k); returns outputs y(0)..y(len(inputs)).

    Initial state and inputs must be non-negative; the produced trajectory
    is certified non-negative as it is generated (positivity witness).
    """
    if S.time_domain != "discrete":
        raise ValueError("only discrete-time systems can be stepped")
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape[0] != S.dim:
        raise DimensionMismatchError(f"initial state must have length {S.dim}")
    if x.min(initial=0.0) < -tol.nonneg_tol:
        raise NegativeInputError("initial state has negative entries")
    outputs = [S.C @ x]
    for k, u in enumerate(inputs):
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.shape[0] != S.num_inputs:
            raise DimensionMismatchError(f"input {k} must have length {S.num_inputs}")
        if u.min(initial=0.0) < -tol.nonneg_tol:
            raise NegativeInputError(f"input {k} has negative entries")
        x = S.A @ x + S.B @ u
        y = S.C @ x
        if x.min(initial=0.0) < -tol.nonneg_tol or y.min(initial=0.0) < -tol.nonneg_tol:
            raise VerificationError("trajectory of a positive system went negative")
        outputs.append(y)
    return outputs
