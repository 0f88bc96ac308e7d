"""Shared fixtures: the reference systems used across the suite, the R600
systems and their D3 and D5 scalings, the exhaustive subset scan and the
per-row cone walk that serve as the minimal-route oracles, the
per-column rank loop and the per-column elimination loop that serve as
the column-selection oracles, the block Arnoldi basis that serves as the
reachable-space oracle, the raw reachability matrix, the list of Krylov
blocks that serves as the raw-stack oracle, the n-step Krylov loop that
serves as the exactness oracle, the algebraic reduction alone, a
counter of the Krylov stacks built by mode, the per-group row loop and
the rank test that serve as the closure's grouping and span oracles, the
per-block mask closure that serves as its block-building oracle, the raw
and the exact rational Markov coefficients, the observability matrix, a
simulator and the wedge product that serve as reference definitions, and
the hypothesis profile and its temporary storage directory."""
import contextlib
import itertools
import tempfile
from collections import Counter
from fractions import Fraction
from typing import Optional
from unittest import mock

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

import posred.possys
from posred import (DimensionMismatchError, DistortedAlgebra, GeneratorSpec, NonFiniteError,
                    NotInvariantError, PositiveLtiSystem, ReferenceVector, Tolerances,
                    UnsupportedCoordinateError, algebra_factorization, as_matrix, choose_p,
                    closure, generate_system, is_nonneg, rank, reachable_subspace, reduce,
                    rpmr_reachable)
from posred.monotone import cone_coefficients

# Derandomized, bounded and without an example database, so the property
# suites are deterministic and cheap; no deadline, because timings on
# shared machines vary.
settings.register_profile("posred", derandomize=True, database=None, deadline=None,
                          max_examples=150)
settings.load_profile("posred")
# Hypothesis still writes to its storage directory without a database: the
# constants it collects from the code under test, and a patch for every
# failing property. That directory is a temporary one, removed when the
# session ends, so a test run writes nothing into the working tree.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="posred-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_unconfigure(config):
    # After the terminal summary, where the failing properties' patch is saved.
    _HYPOTHESIS_HOME.cleanup()


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


def r600_system(seed: int) -> PositiveLtiSystem:
    """System `seed` of the R600 set (seeds 0..599): from default_rng(seed)
    draw n in [3, 16), q in [1, n], inputs and outputs in {1, 2} and a
    density in U(0.3, 1), in that order, and generate the system of
    GeneratorSpec(n, inputs, outputs, q, density, seed)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 16))
    q = int(rng.integers(1, n + 1))
    inputs, outputs = (int(rng.integers(1, 3)) for _ in range(2))
    density = float(rng.uniform(0.3, 1.0))
    return generate_system(GeneratorSpec(n, inputs, outputs, q, density, seed))


def d3_scaled(S: PositiveLtiSystem, seed: int, decades: int = 3) -> PositiveLtiSystem:
    """S under a random diagonal scaling of its states, inputs and outputs
    (D3 at 3 decades, D5 at 5): from default_rng(10000 + seed) draw
    d = 10^U(-decades, decades) per state, then g per input, then h per
    output, and return (d A / d^T, d B g, h C / d^T)."""
    rng = np.random.default_rng(10000 + seed)
    d, g, h = (10.0 ** rng.uniform(-decades, decades, k)
               for k in (S.dim, S.num_inputs, S.num_outputs))
    return PositiveLtiSystem(d[:, None] * S.A / d, d[:, None] * S.B * g, h[:, None] * S.C / d)


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


def reachability_matrix(S: PositiveLtiSystem) -> np.ndarray:
    """The n x (n * inputs) block matrix [B, AB, ..., A^(n-1) B], built
    afresh on each call by possys._krylov_powers, which the reduction
    path uses for its own stacks. Powers that overflow are inf, without a
    floating-point warning."""
    return posred.possys._krylov_powers(S.A, S.B)


def stacked_krylov_blocks(A, B) -> np.ndarray:
    """Reference raw Krylov stack [B, AB, ..., A^(n-1) B]: a list of
    blocks, each A times the one before it, joined by np.hstack.
    possys._krylov_powers, which writes the blocks into one buffer, must
    return the same bytes; a power that overflows holds inf."""
    blocks = [B]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(A.shape[0] - 1):
            blocks.append(A @ blocks[-1])
    return np.hstack(blocks)


def fixes_every_krylov_block(S: PositiveLtiSystem, J, Jdag, tol: Tolerances = Tolerances()) -> bool:
    """Reference exactness test: J @ Jdag fixes the unit-peak columns of
    A^k B for every k < n, one block at a time (the Cayley-Hamilton
    bound), each block formed from the scaled one before it and tested
    on its own, entrywise: with Q = J (Jdag P), every entry must satisfy
    |P - Q| <= eq_tol max(|P|, |Q|). reduce, which tests all n blocks in
    one stacked comparison, must accept exactly when this does."""
    P = S.B
    for _ in range(S.dim):
        peaks = np.abs(P).max(axis=0, initial=0.0)
        P = P / np.where(peaks > 0.0, peaks, 1.0)
        Q = J @ (Jdag @ P)
        if not (np.abs(P - Q) <= tol.eq_tol * np.maximum(np.abs(P), np.abs(Q))).all():
            return False
        P = S.A @ P
    return True


def algebraic_reduction(S: PositiveLtiSystem, tol: Tolerances = Tolerances()
                        ) -> tuple[DistortedAlgebra, Optional[PositiveLtiSystem]]:
    """The algebraic reduction alone, by the four public steps:
    reduce(S, algebra_factorization(closure(V, choose_p(V)))) with V the
    reachable_subspace of S. Returns the algebra and the reduced system,
    or None in its place when reduce refuses the algebra's factors; for
    the observable side, pass S.transpose()."""
    V = reachable_subspace(S, tol)
    algebra = closure(V, choose_p(V, tol), tol)
    try:
        return algebra, reduce(S, algebra_factorization(algebra), tol)
    except NotInvariantError:
        return algebra, None


@contextlib.contextmanager
def krylov_stacks_built():
    """Count the Krylov stacks that posred.possys builds inside the block.

    Yields a Counter of the _krylov_powers calls by mode, raw or scaled,
    and by size, all n blocks [B, ..., A^(n-1) B] or fewer: its keys are
    "raw full", "raw short", "scaled full" and "scaled short"."""
    built = Counter()
    original = posred.possys._krylov_powers

    def counted(A, B, scaled=False, blocks=None):
        stack = original(A, B, scaled, blocks)
        size = "full" if stack.shape[1] == A.shape[0] * B.shape[1] else "short"
        built[f"{'scaled' if scaled else 'raw'} {size}"] += 1
        return stack

    with mock.patch.object(posred.possys, "_krylov_powers", counted):
        yield built


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


def closure_by_block_masks(basis, p: ReferenceVector,
                           tol: Tolerances = Tolerances()) -> tuple[np.ndarray, tuple]:
    """Reference closure blocks, one boolean mask per block: the groups of
    greedy_level_sets on the unit-peak levels basis[s] / p[s], regrouped
    on an orthonormal basis of the levels when indicators_span_by_rank
    says their indicators do not span, numbered by np.unique of each
    row's group leader. Returns (generators, blocks); distalg's closure
    must return the same bytes."""
    B = np.asarray(basis, dtype=float)
    s = p.support
    levels = B[s] / p.p[s][:, None]
    peaks = np.abs(levels).max(axis=0)
    levels /= np.where(peaks > 0.0, peaks, 1.0)
    marks = greedy_level_sets(levels, tol)
    if marks.shape[1] < s.size and not indicators_span_by_rank(marks, levels, tol):
        marks = greedy_level_sets(np.linalg.qr(levels)[0], tol)
    leaders = marks.argmax(axis=0)[marks.argmax(axis=1)]
    marks = (leaders[:, None] == np.unique(leaders)).astype(float)
    generators = np.zeros((B.shape[0], marks.shape[1]))
    generators[s] = marks * p.p[s][:, None]
    return generators, tuple(tuple(int(k) for k in s[column > 0]) for column in marks.T)


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


def per_column_selection(M, tol: Tolerances = Tolerances()) -> list[int]:
    """Reference single-pass column selection, one elimination step per
    column: column j is refused when the smallest pivot kept so far or
    its own largest entry at or below row r (the number kept) is at most
    rank_tol * max(kept peak, peak of j); otherwise it is eliminated
    below row r with partial pivoting and kept. column_space_basis, which
    skips the columns it can refuse all at once, must keep the same
    columns."""
    W = np.array(M, dtype=float)
    rows, cols = W.shape
    peaks = np.abs(W).max(axis=0, initial=0.0)
    selected: list[int] = []
    kept_peak, smallest_pivot = 0.0, np.inf
    for j in range(cols):
        r = len(selected)
        if r == rows:
            break
        threshold = tol.rank_tol * max(kept_peak, peaks[j])
        pivot = r + int(np.abs(W[r:, j]).argmax())
        size = abs(W[pivot, j])
        if not smallest_pivot > threshold or size <= threshold:
            continue
        W[[r, pivot], j:] = W[[pivot, r], j:]
        W[r + 1:, j:] -= np.outer(W[r + 1:, j] / W[r, j], W[r, j:])
        selected.append(j)
        kept_peak = max(kept_peak, peaks[j])
        smallest_pivot = min(smallest_pivot, size)
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


def exact_markov_parameters(A, B, C, horizon: int) -> list[np.ndarray]:
    """Coefficients C A^k B for k = 0..horizon in exact rational
    arithmetic, as object arrays of Fraction. Every double is a dyadic
    rational, so each matrix is an array of Python integers over one
    power of two, and the products run on the integers, which neither
    round nor overflow; only each coefficient is reduced to lowest terms."""
    def integers(M, name):
        ratios = [x.as_integer_ratio() for x in as_matrix(M, name).ravel().tolist()]
        d = max((den.bit_length() - 1 for _, den in ratios), default=0)
        N = [num << (d + 1 - den.bit_length()) for num, den in ratios]
        return np.array(N, dtype=object).reshape(np.shape(M)), d

    (A, a), (B, b), (C, c) = integers(A, "A"), integers(B, "B"), integers(C, "C")
    coefficients = []
    P = B
    for k in range(horizon + 1):
        denominator = 2 ** (c + k * a + b)
        coefficients.append(np.frompyfunc(lambda x: Fraction(x, denominator), 1, 1)(C @ P))
        P = A @ P
    return coefficients


def observability_matrix(S: PositiveLtiSystem) -> np.ndarray:
    """The (n * outputs) x n stacked matrix [C; CA; ...; C A^(n-1)]."""
    blocks = [S.C]
    P = S.C
    for _ in range(S.dim - 1):
        P = P @ S.A
        blocks.append(P)
    return np.vstack(blocks)


def simulate(S: PositiveLtiSystem, x0, inputs, tol: Tolerances = Tolerances()) -> list[np.ndarray]:
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
        raise ValueError("initial state has negative entries")
    outputs = [S.C @ x]
    for k, u in enumerate(inputs):
        u = np.asarray(u, dtype=float).reshape(-1)
        if u.shape[0] != S.num_inputs:
            raise DimensionMismatchError(f"input {k} must have length {S.num_inputs}")
        if u.min(initial=0.0) < -tol.nonneg_tol:
            raise ValueError(f"input {k} has negative entries")
        x = S.A @ x + S.B @ u
        y = S.C @ x
        if x.min(initial=0.0) < -tol.nonneg_tol or y.min(initial=0.0) < -tol.nonneg_tol:
            raise AssertionError("trajectory of a positive system went negative")
        outputs.append(y)
    return outputs


def _vector(x, dim: int, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape[0] != dim:
        raise DimensionMismatchError(f"{name} must have length {dim}")
    if v.size and not np.isfinite(v).all():
        raise NonFiniteError(f"{name} has non-finite entries")
    return v


def wedge(x, y, p: ReferenceVector, tol: Tolerances = Tolerances()) -> np.ndarray:
    """Product x_i y_i / p_i on the support of p, zero elsewhere.

    Both vectors must vanish off the support; p itself is the unit.
    """
    x = _vector(x, p.dim, "x")
    y = _vector(y, p.dim, "y")
    off = np.ones(p.dim, dtype=bool)
    off[p.support] = False
    if off.any():
        weight = max(np.abs(x[off]).max(initial=0.0), np.abs(y[off]).max(initial=0.0))
        if weight > tol.nonneg_tol:
            raise UnsupportedCoordinateError("vector has weight outside supp(p)")
    out = np.zeros(p.dim)
    s = p.support
    out[s] = x[s] * y[s] / p.p[s]
    return out
