"""Positive LTI systems: the reachable space, comparison of impulse
responses, projection-based reduction and equivalence."""

import numpy as np

from .errors import DimensionMismatchError, NotInvariantError, NotNonnegativeError, RankDeficientError
from .factorize import Factorization, _Selector
from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerances, _full_rank_basis, as_matrix,
                       column_space_basis, unit_peak)

TIME_DOMAINS = ("discrete", "continuous")


def _frozen(A: np.ndarray) -> np.ndarray:
    out = A.copy()
    out.setflags(write=False)
    return out


class PositiveLtiSystem:
    """State-space triple (A, B, C) with entrywise non-negative matrices.

    An entry below 0 raises NotNonnegativeError, with no tolerance (-0.0
    passes), a verdict that no diagonal scaling can change.
    C defaults to the identity (full state readout). The time-domain tag
    is metadata only: the reduction machinery is representation-level and
    identical for both. The matrices are read-only.
    """

    def __init__(self, A, B, C=None, time_domain: str = "discrete"):
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
            if M.size and not M.min() >= 0.0:
                raise NotNonnegativeError(f"system is not positive: {name} has negative entries")
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
        """The dual system (A^T, C^T, B^T); swaps reachability with observability.

        Transposing keeps every entry, so the dual passes the constructor's
        checks as S did and is not checked again."""
        return _unchecked(_frozen(self.A.T), _frozen(self.C.T), _frozen(self.B.T),
                          self.time_domain)

    def __repr__(self) -> str:
        return (f"PositiveLtiSystem(n={self.dim}, inputs={self.num_inputs}, "
                f"outputs={self.num_outputs}, {self.time_domain})")


def _unchecked(A: np.ndarray, B: np.ndarray, C: np.ndarray, time_domain: str) -> PositiveLtiSystem:
    """A system of read-only matrices that already passed the constructor's
    checks, built without repeating them."""
    S = object.__new__(PositiveLtiSystem)
    S.A, S.B, S.C, S.time_domain = A, B, C, time_domain
    return S


def _krylov_powers(A: np.ndarray, B: np.ndarray, scaled: bool = False,
                   blocks: int | None = None) -> np.ndarray:
    """[B, AB, ..., A^(k-1) B] with k = blocks (n by default), each block A
    times the one before it, written into its column slice of one n x km
    array; a power that overflows holds inf, silently. When scaled, each
    block is scaled to unit peak before the next is formed from it."""
    n, m = B.shape
    X = np.empty((n, max(blocks or n, 1) * m))  # B alone when n = 0
    P = unit_peak(B) if scaled else B
    X[:, :m] = P
    # Each block is formed from the contiguous one before it: a product
    # into a strided column slice of X costs more than the copy into it.
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(m, X.shape[1], m or 1):  # no block to form when m = 0
            P = A @ P
            if scaled:
                P = unit_peak(P)
            X[:, j:j + m] = P
    return X


def reachable_subspace(S: PositiveLtiSystem, tol: Tolerances = DEFAULT_TOL) -> SubspaceBasis:
    """Truncated reachability matrix: the independent columns of
    [B, AB, ...] that column_space_basis selects from the full stack.

    Every A^k B vanishes, exactly, outside the structural support s: the
    nonzero rows of B, grown through the digraph A != 0 (not built when
    those rows are every state) until the set stops changing. When
    0 < q = |s| < n, only the first ceil(q / m) blocks are built, m the
    number of nonzero columns of B, and X keeps their columns save those
    of the zero columns of B, which stay zero at every power and which the
    greedy pass refuses (with none, X is the stack as built). The first q
    columns of X are the answer, with no rank recheck, when every
    diagonal entry of the R of X[s] exceeds 2 sqrt(q) max(rank_tol, q eps)
    max|X| (eps the machine epsilon). Each elimination pivot of those
    columns is at least |r_jj| / sqrt(q), so the greedy pass on the full
    stack would keep exactly them, and the full stack is never formed: a
    later power that would overflow no longer matters. Otherwise (the test
    fails, X is not finite, or s is everything) the full stack is built and
    handed to column_space_basis; a power that overflows raises
    NonFiniteError naming the Krylov stack. An empty s (B = 0, or n = 0)
    builds no stack and raises RankDeficientError, as on a zero stack.
    """
    # q, m and peak are Python numbers: numpy scalar arithmetic costs more
    # here than the matrix products.
    s = S.B.any(axis=1)
    q = int(np.count_nonzero(s))
    if not q:
        raise RankDeficientError("matrix has rank 0; no column-space basis")
    if q < S.dim:
        # Grow s until it stops changing (q then stays) or holds every state.
        G, q = S.A != 0, -1
        while q < (q := int(np.count_nonzero(s))) < S.dim:
            s = G @ s | s
    if q < S.dim:
        live = S.B.any(axis=0)
        k = -(-q // (m := int(np.count_nonzero(live))))
        X = _krylov_powers(S.A, S.B, blocks=k)
        if m < S.num_inputs:
            X = X[:, np.concatenate((live,) * k)]
        peak = float(abs(X).max())
        # The diagonal of qr's raw output is that of R, which it does not form.
        if peak < np.inf and (abs(np.linalg.qr(X[s], mode="raw")[0].diagonal())
                              > 2 * q ** 0.5 * max(tol.rank_tol, q * 2.0 ** -52) * peak).all():
            # Column-major, the layout of column_space_basis's selection.
            return _full_rank_basis(np.asfortranarray(X[:, :q]))
    return column_space_basis(as_matrix(_krylov_powers(S.A, S.B), "Krylov stack [B, AB, ...]"), tol)


def markov_match(first, second, tol: Tolerances = DEFAULT_TOL) -> bool | np.ndarray:
    """Markov equivalence: compare C1 A1^k B1 with C2 A2^k B2 for
    k = 0..n1 + n2, with n1 and n2 the state counts of the two triples (for
    stacks, the padded counts). By the Cayley-Hamilton theorem agreement
    up to n1 + n2 implies agreement at every k. Each pair is compared at
    its own scale: max|M1_k - M2_k| <= eq_tol * s_k with
    s_k = max(max|M1_k|, max|M2_k|), so a mode that decays beside one that
    grows is still seen. Where one side is exactly zero the other carries
    rounding noise, so a difference below rank_tol times the largest s_j
    with j <= k counts as zero too.

    first and second are (A, B, C) triples of matrices, or of stacks of
    matrices along a leading batch axis (broadcast against each other); the
    verdict is a bool for matrices and a boolean array with one entry per
    item for stacks. A triple that is not conformal, or two triples with
    different input or output counts, raise DimensionMismatchError. B1
    and B2 of an item are first divided by one power of two that brings
    their larger peak below one, and C1 and C2 by another; such a
    division is exact above the underflow range. The two impulse
    responses are then walked side by side, and after every step both
    states of an item, and its running peak with them, are divided by
    the largest entry of either state. A common positive factor leaves
    each comparison unchanged, so the verdict is that of the raw
    coefficients without their overflow, for any finite B and C. A
    running peak that would overflow (the states decay fast) is held at
    the largest finite double, where rank_tol times it already passes
    every later coefficient. Coefficients that still overflow (only A
    can cause it) never match, without a floating-point warning.
    """
    A1, B1, C1, A2, B2, C2 = matrices = [np.asarray(M, dtype=float) for M in (*first, *second)]
    for M, name in zip(matrices, "ABCABC"):
        as_matrix(M.reshape(M.shape[0] * M.shape[1], M.shape[2]) if M.ndim == 3 else M, name)
    for A, B, C in ((A1, B1, C1), (A2, B2, C2)):
        if not A.shape[-2] == A.shape[-1] == B.shape[-2] == C.shape[-1]:
            raise DimensionMismatchError(f"triple is not conformal: A {A.shape}, "
                                         f"B {B.shape}, C {C.shape}")
    if B1.shape[-1] != B2.shape[-1] or C1.shape[-2] != C2.shape[-2]:
        raise DimensionMismatchError("input/output dimensions differ")

    def peak_of(M):
        return abs(M).max(axis=(-2, -1), initial=0.0, keepdims=True)

    def exactly_scaled(M1, M2):
        exponent = np.frexp(np.maximum(peak_of(M1), peak_of(M2)))[1]
        return np.ldexp(M1, -exponent), np.ldexp(M2, -exponent)

    (B1, B2), (C1, C2) = exactly_scaled(B1, B2), exactly_scaled(C1, C2)
    P1, P2, peak, match = B1, B2, 0.0, True
    largest = np.finfo(float).max
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(A1.shape[-1] + A2.shape[-1] + 1):
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
            P1, P2, peak = P1 / factor, P2 / factor, np.minimum(peak / factor, largest)
    match = match[..., 0, 0]
    return bool(match) if match.ndim == 0 else match


def _factor_pair(J, Jdag, n: int) -> tuple[np.ndarray, np.ndarray]:
    """J and Jdag as matrices, checked to be n x r and r x n for one r;
    DimensionMismatchError otherwise."""
    J, Jdag = as_matrix(J, "J"), as_matrix(Jdag, "Jdag")
    if J.shape[0] != n or Jdag.shape != J.shape[::-1]:
        raise DimensionMismatchError(f"factors must be {n} x r and r x {n}, "
                                     f"got J {J.shape} and Jdag {Jdag.shape}")
    return J, Jdag


def project(S: PositiveLtiSystem, J, Jdag) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw restriction (Jdag A J, Jdag B, C J), checking only that J is
    n x r and Jdag r x n (DimensionMismatchError otherwise).

    Used for comparison experiments where the factors may have mixed signs
    or the image may fail to be invariant; reduce() is the checked path.
    """
    J, Jdag = _factor_pair(J, Jdag, S.dim)
    return Jdag @ S.A @ J, Jdag @ S.B, S.C @ J


def _entrywise_close(X: np.ndarray, Y: np.ndarray, e: float) -> bool:
    """Whether |X - Y| <= e max(|X|, |Y|) holds entrywise with |X - Y|
    finite; NaN and infinities fail."""
    d = abs(X - Y)
    return bool(((d <= e * np.maximum(abs(X), abs(Y))) & (d < np.inf)).all())


def reduce(S: PositiveLtiSystem, F: Factorization, tol: Tolerances = DEFAULT_TOL) -> PositiveLtiSystem:
    """Restrict S to Im(F.J), returning (Jdag A J, Jdag B, C J).

    The read-only selector that find_nonneg_factorization returns for a
    coordinate basis of the states s is read by indexing, with no product:
    M = [A[:, s], B] (that is [A J, B]), [A_r, B_r] = M[s] and C_r =
    C[:, s], each plus 0.0, which turns -0.0 into 0.0 as the products
    below do. It is kept when count_nonzero(M) = count_nonzero(M[s]), so
    that no state outside s is fed from s or by the input (Im(J) is
    exactly invariant and holds B), and the largest entry of [A_r, B_r]
    (none is negative) is below 2^1023 / (r + 1), so that the Krylov
    check below, had it run, would see finite blocks. The general pass
    would then accept the same bytes. Every other pair, and a selector
    that fails that test, takes the general pass.

    The general pass reads the reduced triple off one product: M =
    [A J, B] is formed once, [A_r, B_r] = Jdag M, and C_r = C J.
    Invariance is tested first.
    When J and Jdag have no negative entry (A and B have none), let
    |M - J [A_r, B_r]| <= e max(|M|, |J [A_r, B_r]|) hold entrywise, that is
    |A J - J A_r| <= e max(|A J|, |J A_r|) and |B - J B_r| <=
    e max(|B|, |J B_r|), with e = eq_tol / (n + m + 1) (m the column
    count of J). Then, by induction and monotonicity
    (non-negative maps preserve entrywise bounds), each entry of
    J A_r^k B_r lies within a factor (1 +- e)^(k+1) of that of A^k B, at
    every k and under any diagonal scaling; with C >= 0 so does each
    Markov coefficient, which up to markov_match's horizon n + m is within
    eq_tol. This costs O(n^2 m) and needs no Krylov power. It also asks
    that no product term of A J can underflow (every nonzero entry of A
    and of J is at least 2^-511), so that no entry of A J that is nonzero
    in exact arithmetic reads 0.

    A pair that fails that test gets the Krylov check: the reduction is
    exact when J @ Jdag fixes A^k B for k < n, for by Cayley-Hamilton it
    then fixes every A^k B, and by induction (Jdag A J)^k Jdag B =
    Jdag A^k B. Neither A-invariance of Im(J) nor Jdag @ J = I is needed.
    The test is scale-free and componentwise: _krylov_powers in its
    scaled mode scales each block to unit peak (zero columns stay zero)
    before forming the next from it, so it is blind to how fast the
    powers grow or decay, and with Q = J (Jdag P) over all n blocks P,
    |P - Q| <= eq_tol max(|P|, |Q|) must hold entrywise with |P - Q|
    finite, as in the invariance test: an entry of Q that overflows
    fails. A state far below its column's peak is thus held to
    its own scale, which C may weigh heavily. In exact arithmetic the
    blocks k <= m would decide, since a Krylov chain inside an
    m-dimensional Im(J) stops growing within m steps; under eq_tol they
    need not: blocks within eq_tol of Im(J) can still drift out of it at
    later powers.

    The general pass's output is checked in one pass, by the constructor's
    rule: the minimum and maximum over [A_r, B_r] and C_r must be finite
    and at least 0 (the selector's output, entries of S, passes by
    construction). A triple that fails goes to the PositiveLtiSystem
    constructor, which names the fault: NonFiniteError for an overflow,
    NotNonnegativeError for a negative entry (possible only with mixed-sign
    factors). Either pass's matrices are then frozen and returned as they
    are, A_r and B_r as read-only views of [A_r, B_r].
    """
    indexed = (type(F) is _Selector and F.J.shape[0] == S.dim
               and not (F.J.flags.writeable or F.Jdag.flags.writeable))
    if indexed:
        s = F.Jdag.argmax(axis=1)
        r = s.size
        M = np.concatenate((S.A.take(s, axis=1), S.B), axis=1)
        R = M.take(s, axis=0)
        R += 0.0
        C_r = S.C.take(s, axis=1) + 0.0
        indexed = (np.count_nonzero(M) == np.count_nonzero(R)
                   and R.max(initial=0.0) < 2.0 ** 1023 / (r + 1))
    if not indexed:
        J, Jdag = _factor_pair(F.J, F.Jdag, S.dim)
        r = J.shape[1]
        eps = tol.eq_tol / (S.dim + r + 1)
        with np.errstate(over="ignore", invalid="ignore"):
            M = np.concatenate((S.A @ J, S.B), axis=1)  # [A J, B]
            R = Jdag @ M  # [A_r, B_r]
            C_r = S.C @ J
            # The monotonicity proof needs J, Jdag >= 0 (A, B and C are),
            # and no entry of A or J in (0, 2^-511), so that no product term
            # of A J underflows.
            invariant = (J.min(initial=0.0) >= 0.0 and Jdag.min(initial=0.0) >= 0.0
                         and not ((S.A < 2.0 ** -511) & (S.A != 0.0)).any()
                         and not ((J < 2.0 ** -511) & (J != 0.0)).any())
            if invariant:
                invariant = _entrywise_close(M, J @ R, eps)
            if not invariant:
                P = _krylov_powers(S.A, S.B, scaled=True)
                if not _entrywise_close(P, J @ (Jdag @ P), tol.eq_tol):
                    raise NotInvariantError("J @ Jdag does not fix the reachable space")
        # A NaN fails every comparison, and an infinity one of the two bounds.
        if not (R.min(initial=0.0) >= 0.0 and C_r.min(initial=0.0) >= 0.0
                and R.max(initial=0.0) < np.inf and C_r.max(initial=0.0) < np.inf):
            # The constructor raises the error that names the faulty matrix.
            return PositiveLtiSystem(R[:, :r], R[:, r:], C_r, S.time_domain)
    R.setflags(write=False)
    C_r.setflags(write=False)
    return _unchecked(R[:, :r], R[:, r:], C_r, S.time_domain)


def equivalent(S1: PositiveLtiSystem, S2: PositiveLtiSystem,
               tol: Tolerances = DEFAULT_TOL) -> bool:
    """Zero-state equivalence: markov_match on the two triples."""
    return markov_match((S1.A, S1.B, S1.C), (S2.A, S2.B, S2.C), tol)

