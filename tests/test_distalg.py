"""Product-algebra machinery: the wedge product (a test oracle), the
choice of the reference vector p, closure, idempotent generators, and
their factorization."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from posred import (DimensionMismatchError, NonFiniteError, NotNonnegativeError, PosredError,
                    SubspaceBasis, Tolerances, algebra_factorization, choose_p, closure,
                    column_space_basis, is_monotone_nonneg_rect, reachable_subspace)
from posred import GeneratorSpec, RankDeficientError, ZeroMatrixError, generate_system
from posred.distalg import _indicators_span, _level_sets
from conftest import (closure_by_block_masks, greedy_level_sets, indicators_span_by_rank,
                      lumped_system, rank, swap_system, wedge)

TOL = Tolerances()


# Two columns that differ by about 1e-9 in every state yet span a plane
# whose vectors separate all three states.
NEARLY_PARALLEL = [[1.0, 1.0], [1.0 + 1e-9, 1.0 - 1e-9], [1.0, 1.0 + 1e-9]]


def swap_basis(eps=1.0):
    return reachable_subspace(swap_system(eps))


class TestWedge:
    def test_reference_vector_is_the_unit(self):
        p = np.array([1.0, 2.0, 0.0, 4.0])
        x = np.array([3.0, 5.0, 0.0, 1.0])
        np.testing.assert_allclose(wedge(x, p, p), x)

    def test_all_ones_gives_plain_product(self):
        np.testing.assert_allclose(wedge([1.0, 2.0, 3.0], [4.0, 5.0, 6.0], np.ones(3)),
                                   [4.0, 10.0, 18.0])

    def test_frozen_example(self):
        np.testing.assert_allclose(wedge([2.0, 0.0, 4.0], [3.0, 5.0, 0.0], [1.0, 1.0, 2.0]),
                                   [6.0, 0.0, 0.0])

    def test_weight_off_support_rejected(self):
        with pytest.raises(ValueError, match="where p is not positive"):
            wedge([1.0, 1e-300], [1.0, 0.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            wedge([1.0], [1.0, 1.0], [1.0, 1.0])


class TestReferenceVector:
    """closure checks the p it is given: finite, of length n, positive on
    the nonzero rows of the basis and zero on its zero rows."""

    PLANE = SubspaceBasis(np.eye(3)[:, :2])

    def test_tiny_entries_on_the_support_are_kept(self):
        # No entry is snapped to zero: p is judged against the basis rows,
        # not against a floor.
        algebra = closure(self.PLANE, [1.0, 1e-300, 0.0])
        assert algebra.p.tolist() == [1.0, 1e-300, 0.0]
        assert algebra.blocks == ((0,), (1,))
        assert not algebra.p.flags.writeable

    @pytest.mark.parametrize("p", [[1.0, 0.0, 0.0], [1.0, 1.0, 1e-300]],
                             ids=["zero-on-a-nonzero-row", "positive-on-a-zero-row"])
    def test_rejects_a_support_other_than_the_nonzero_rows(self, p):
        with pytest.raises(ValueError, match="positive on the nonzero rows"):
            closure(self.PLANE, p)

    def test_rejects_negative(self):
        for p in ([1.0, -0.5, 0.0], [1.0, 1.0, -0.5]):
            with pytest.raises(ValueError):
                closure(self.PLANE, p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValueError, match="finite"):
            closure(self.PLANE, [1.0, bad, 0.0])

    def test_closure_rejects_a_vector_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="length n"):
            closure(self.PLANE, [1.0, 1.0])


class TestChooseP:
    def test_coordinate_plane(self):
        V = SubspaceBasis(np.eye(4)[:, :2])
        p = choose_p(V)
        assert type(p) is np.ndarray and not p.flags.writeable
        np.testing.assert_allclose(p, [1.0, 1.0, 0.0, 0.0])

    def test_swap_reachable_basis(self):
        p = choose_p(swap_basis())
        np.testing.assert_allclose(p, [1.0, 1.0, 2.0, 2.0])

    def test_mixed_sign_line_fails(self):
        V = SubspaceBasis(np.array([[1.0], [-1.0]]))
        with pytest.raises(NotNonnegativeError, match="non-negative generating set"):
            choose_p(V)

    def test_cancelling_column_sum_is_refused(self):
        # Weights (2, 1) give (1, 2), positive on the support, but unit
        # weights cancel coordinate 0: the basis is not a non-negative
        # generating set, and choose_p searches for no other weights.
        V = SubspaceBasis(np.array([[1.0, -1.0], [1.0, 0.0]]))
        with pytest.raises(NotNonnegativeError):
            choose_p(V)

    def test_two_calls_give_the_same_p(self):
        V = SubspaceBasis(np.array([[1.0, 0.0], [1.0, 1.0]]))
        p1 = choose_p(V)
        p2 = choose_p(V)
        np.testing.assert_array_equal(p1, p2)
        np.testing.assert_array_equal(p1, [1.0, 2.0])

    def test_weights_outside_one_to_two(self):
        # Columns (1, -2) and (0, 1): c1 (1, -2) + c2 (0, 1) is positive
        # exactly when c2 > 2 c1 > 0, which the unit weights of the column
        # sum do not give, so choose_p refuses the basis.
        V = SubspaceBasis(np.array([[1.0, 0.0], [-2.0, 1.0]]))
        with pytest.raises(NotNonnegativeError):
            choose_p(V)

    def test_small_rows_beside_an_overflowing_sum_are_kept(self):
        # Row 0's sum overflows, so the sum is taken of the basis divided
        # by 2, the smallest power of two at least its 2 columns: no row
        # sum overflows, row 2 keeps half its weight, and rows 1 and 2
        # lie on one ray.
        V = SubspaceBasis(np.array([[1.5e308, 1.5e308], [1.5e308, 0.0], [1.0, 0.0]]))
        p = choose_p(V)
        assert p.tolist() == [1.5e308, 7.5e307, 0.5]
        assert closure(V, p).blocks == ((0,), (1, 2))

    def test_row_that_underflows_beside_an_overflowing_sum_is_refused(self):
        # Halving the basis, as above, takes the subnormal 5e-324 to 0, so
        # p would vanish on a nonzero row, where closure needs it positive:
        # choose_p refuses the basis, and no p reaches closure. The basis is
        # non-negative, so the error names the underflow, not a sign.
        V = SubspaceBasis(np.array([[1.5e308, 1.5e308], [1.5e308, 0.0], [5e-324, 0.0]]))
        with pytest.raises(NonFiniteError, match="underflows") as refusal:
            choose_p(V)
        assert isinstance(refusal.value, PosredError)
        assert "negative" not in str(refusal.value)

    def test_column_below_the_sign_floor_on_the_support(self):
        # The third column is nonzero only in a row below nonneg_tol; that
        # row is nonzero, so it is on the support and p keeps its weight.
        V = SubspaceBasis(np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 5e-10]]))
        p = choose_p(V)
        np.testing.assert_array_equal(p, [2.0, 1.0, 5e-10])
        assert closure(V, p).blocks == ((0,), (1,), (2,))

    @pytest.mark.parametrize("k", [-1074, -600, -30, 0, 600, 1023])
    def test_support_does_not_depend_on_the_scale_of_the_basis(self, k):
        # Multiplying by 2^k is exact while no entry leaves the normal
        # range; p scales with the basis and keeps its support.
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        V = SubspaceBasis(np.ldexp(M, k))
        np.testing.assert_array_equal(np.flatnonzero(choose_p(V)), [0, 1, 3])
        assert closure(V, choose_p(V)).blocks == ((0,), (1,), (3,))


def spans_same_space(generators: np.ndarray, target: np.ndarray) -> bool:
    r = rank(target)
    return rank(generators) == r and rank(np.hstack([generators, target])) == r


class TestClosure:
    def test_swap_gains_one_dimension(self):
        basis = swap_basis()
        algebra = closure(basis, choose_p(basis))
        assert algebra.dimension == 3
        assert algebra.blocks == ((0,), (1,), (2, 3))
        target = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert spans_same_space(algebra.generators, target)

    def test_already_closed_plane(self):
        V = SubspaceBasis(np.eye(4)[:, :2])
        algebra = closure(V, choose_p(V))
        assert algebra.dimension == 2
        assert algebra.blocks == ((0,), (1,))
        np.testing.assert_allclose(algebra.generators, np.eye(4)[:, :2])

    def test_swap_eps2_closes_to_the_same_algebra(self):
        basis = swap_basis(2.0)
        assert basis.dimension == 3
        algebra = closure(basis, choose_p(basis))
        assert algebra.dimension == 3
        target = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                           [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert spans_same_space(algebra.generators, target)

    def test_closure_is_a_fixpoint(self):
        basis = swap_basis()
        algebra = closure(basis, choose_p(basis))
        again = closure(SubspaceBasis(algebra.generators), algebra.p)
        assert again.dimension == algebra.dimension
        assert again.blocks == algebra.blocks

    def test_weight_off_support_rejected(self):
        # A basis column with weight where p vanishes: the row is nonzero,
        # so p must be positive there.
        V = SubspaceBasis(np.eye(3)[:, :2])
        with pytest.raises(ValueError, match="positive on the nonzero rows"):
            closure(V, [1.0, 0.0, 0.0])

    def test_nearly_parallel_columns_are_told_apart(self):
        # Every column differs between the states by about 1e-9, well
        # inside eq_tol, but the difference of the columns separates all
        # three states, so the closure is the whole space.
        V = column_space_basis(np.array(NEARLY_PARALLEL))
        assert V.dimension == 2
        p = choose_p(V)
        algebra = closure(V, p)
        assert algebra.blocks == ((0,), (1,), (2,))
        assert rank(np.hstack([algebra.generators, V.basis])) == 3
        assert closure(V, p).dimension != V.dimension

    def test_rows_within_eq_tol_in_the_span_stay_together(self):
        # No unit vector of the span tells state 3 from states 1 and 2 by
        # more than about 1e-9, inside eq_tol, although rank() keeps the
        # columns apart.
        V = column_space_basis(np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 1e-9]]))
        assert V.dimension == 2
        assert closure(V, choose_p(V)).blocks == ((0,), (1, 2, 3))

    def test_generator_identities(self):
        checked = 0
        for seed in range(30):
            spec = GeneratorSpec(n=6, inputs=2, reachable_dim=3, density=0.7, seed=seed)
            S = generate_system(spec)
            try:
                basis = reachable_subspace(S)
            except ZeroMatrixError:
                continue
            p = choose_p(basis)
            algebra = closure(basis, p)
            gens = algebra.generators
            np.testing.assert_allclose(gens.sum(axis=1), p, atol=TOL.eq_tol)
            for i in range(algebra.dimension):
                for j in range(algebra.dimension):
                    expected = gens[:, i] if i == j else np.zeros(p.size)
                    np.testing.assert_allclose(
                        wedge(gens[:, i], gens[:, j], p), expected, atol=TOL.eq_tol)
            assert is_monotone_nonneg_rect(gens).monotone
            checked += 1
        assert checked > 20


class TestAlgebraFactorization:
    def test_tower_generators(self):
        basis = SubspaceBasis(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                        [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]))
        algebra = closure(basis, np.ones(4))
        F = algebra_factorization(algebra)
        np.testing.assert_allclose(F.J, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(F.Jdag, [[1.0, 0.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0, 0.0],
                                            [0.0, 0.0, 1.0, 0.0]])
        assert F.pivot_rows == [0, 1, 2]

    def test_full_space_pivot_normalization(self):
        # Generators are diag(p); the pivot-normalized factors are plain
        # identities so the projector certificate has unit pivot rows.
        V = SubspaceBasis(np.eye(2))
        algebra = closure(V, [2.0, 3.0])
        np.testing.assert_allclose(algebra.generators, np.diag([2.0, 3.0]))
        F = algebra_factorization(algebra)
        np.testing.assert_allclose(F.J, np.eye(2))
        np.testing.assert_allclose(F.Jdag, np.eye(2))

    def test_single_block(self):
        V = SubspaceBasis(np.array([[1.0], [2.0], [4.0]]))
        p = choose_p(V)
        algebra = closure(V, p)
        assert algebra.dimension == 1
        F = algebra_factorization(algebra)
        np.testing.assert_allclose(F.J, [[1.0], [2.0], [4.0]])
        np.testing.assert_allclose(F.Jdag, [[1.0, 0.0, 0.0]])
        np.testing.assert_allclose(F.Jdag @ F.J, np.eye(1))


class TestIsDistortedAlgebra:
    """A span is already closed exactly when its closure adds nothing."""

    def test_coordinate_plane_is_closed(self):
        V = SubspaceBasis(np.eye(4)[:, :2])
        assert closure(V, choose_p(V)).dimension == V.dimension

    def test_swap_space_is_not(self):
        basis = swap_basis()
        assert closure(basis, choose_p(basis)).dimension != basis.dimension

    def test_swap_eps2_space_is(self):
        basis = swap_basis(2.0)
        assert closure(basis, choose_p(basis)).dimension == basis.dimension


def direct_wedge_closure_dim(basis: SubspaceBasis, p: np.ndarray) -> tuple[int, np.ndarray]:
    """Brute-force cross-check: close under the wedge product directly in
    the original coordinates, adjoining the unit p, without the divide-by-p
    transform used by closure()."""
    cols = list(basis.basis.T) + [p]
    current = column_space_basis(np.column_stack(cols)).basis
    while True:
        dim = current.shape[1]
        prods = [wedge(current[:, i], current[:, j], p)
                 for i in range(dim) for j in range(i, dim)]
        stacked = np.column_stack([current] + [q for q in prods if np.abs(q).max() > TOL.eq_tol])
        current = column_space_basis(stacked).basis
        if current.shape[1] == dim:
            return dim, current


@st.composite
def generated_bases(draw):
    """Reachable bases of generated systems with n <= 8; their algebra is
    mostly all coordinates of the support."""
    n = draw(st.integers(2, 8))
    spec = GeneratorSpec(n=n, inputs=draw(st.integers(1, 2)),
                         reachable_dim=draw(st.integers(1, n)),
                         density=draw(st.sampled_from([0.5, 0.8, 1.0])),
                         seed=draw(st.integers(0, 2**32 - 1)))
    try:
        return reachable_subspace(generate_system(spec))
    except ZeroMatrixError:
        assume(False)


@st.composite
def lumped_bases(draw):
    """Reachable bases of lumped systems with n <= 8, whose algebra has r
    blocks of parallel rows."""
    n = draw(st.integers(4, 8))
    r = draw(st.integers(4, n))
    q = draw(st.integers(3, r - 1))
    return reachable_subspace(lumped_system(n, r, q, draw(st.integers(0, 2**32 - 1))))


# On about 1% of lumped bases the brute-force closure drifts to a wrong
# space of the right dimension, so it is the oracle on generated ones only.
@given(generated_bases())
def test_transform_closure_matches_direct_product_closure(basis):
    p = choose_p(basis)
    algebra = closure(basis, p)
    dim, direct = direct_wedge_closure_dim(basis, p)
    assert dim == algebra.dimension
    assert rank(np.hstack([direct, algebra.generators])) == dim


@given(st.one_of(generated_bases(), lumped_bases()), st.integers(0, 2**32 - 1))
def test_blocks_invariant_under_positive_scaling(basis, scale_seed):
    p = choose_p(basis)
    blocks = closure(basis, p).blocks
    # An orthonormal basis of the same span keeps the scaled bases above
    # the rank threshold of SubspaceBasis; raw Krylov bases are too
    # ill-conditioned for that. It is built on the support of p alone, so
    # it stays exactly zero off the support.
    s = np.flatnonzero(p)
    Q = np.zeros_like(basis.basis)
    Q[s] = np.linalg.qr(basis.basis[s])[0]
    assert closure(SubspaceBasis(Q), p).blocks == blocks
    rng = np.random.default_rng(scale_seed)
    d = 10.0 ** rng.uniform(-3.0, 3.0, basis.ambient_dim)
    assert closure(SubspaceBasis(d[:, None] * Q), d * p).blocks == blocks
    # One common column factor over 24 decades times one per column over 6.
    c = 10.0 ** (rng.uniform(-12.0, 12.0) + rng.uniform(-3.0, 3.0, basis.dimension))
    assert closure(SubspaceBasis(Q * c), p).blocks == blocks


@given(generated_bases())
def test_blocks_depend_on_the_span_alone(basis):
    p = choose_p(basis)
    s = np.flatnonzero(p)
    Q = np.zeros_like(basis.basis)
    Q[s] = np.linalg.qr(basis.basis[s])[0]
    blocks = closure(SubspaceBasis(Q), p).blocks
    # The columns p + 3e-9 Q[:, c] span the same space, since p is a
    # combination of the basis, and agree with p and with each other
    # within eq_tol, so most cases need the orthonormal regrouping. Their
    # condition is about 3e8, so rounding in them can split two rows that
    # the span keeps equal (about once in 10^4 lumped pairs at 1e-8); only
    # spans that separate every state are compared.
    assume(all(len(block) == 1 for block in blocks))
    unit = p / np.abs(p).max()
    try:
        nearly_parallel = SubspaceBasis(unit[:, None] + 3e-9 * Q)
    except RankDeficientError:
        assume(False)
    assert closure(nearly_parallel, p).blocks == blocks


@st.composite
def mixed_sign_bases(draw):
    """Full-rank bases with n <= 6, small integer entries of both signs,
    rows scaled over 6 decades and columns over 2."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, n))
    B = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * m, max_size=n * m)),
                 dtype=float).reshape(n, m)
    assume(B.min() < 0)
    B *= 10.0 ** np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))[:, None]
    B *= 10.0 ** np.array(draw(st.lists(st.integers(-1, 1), min_size=m, max_size=m)))
    try:
        return SubspaceBasis(B)
    except RankDeficientError:
        assume(False)


@given(mixed_sign_bases())
def test_choose_p_refuses_exactly_the_bases_whose_column_sum_cancels(V):
    # A mixed-sign basis whose column sum, taken exactly on the stored
    # entries, is positive on every nonzero row gets that sum as p; any
    # other is refused, even when some other combination of its columns
    # is positive. A positive exact sum is at least 1/300 of its row's
    # peak here, far above nonneg_tol at any row scale.
    B = V.basis
    nonzero = B.any(axis=1)
    exact = [sum(map(Fraction, row)) for row in B[nonzero].tolist()]
    if not all(total > 0 for total in exact):
        with pytest.raises(NotNonnegativeError):
            choose_p(V)
        return
    p = choose_p(V)
    np.testing.assert_array_equal(p > 0, nonzero)
    np.testing.assert_array_equal(p, B.sum(axis=1))


@st.composite
def nonneg_bases(draw):
    """Column spaces of small non-negative integer matrices with zeros."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 6))
    M = np.array(draw(st.lists(st.integers(0, 3), min_size=n * m, max_size=n * m)),
                 dtype=float).reshape(n, m)
    try:
        return column_space_basis(M)
    except ZeroMatrixError:
        assume(False)


@given(st.one_of(generated_bases(), lumped_bases(), nonneg_bases()))
def test_choose_p_is_the_column_sum_on_nonneg_bases(V):
    # Every pipeline basis is non-negative, so this pins its p.
    B = V.basis
    assert B.min() >= 0.0
    p = choose_p(V)
    np.testing.assert_array_equal(p > 0, B.any(axis=1))
    assert p.tobytes() == B.sum(axis=1).tobytes()


@given(st.one_of(generated_bases(), lumped_bases()), st.integers(0, 2**32 - 1))
def test_blocks_do_not_depend_on_the_choice_of_p(basis, weight_seed):
    # Any p' of the span positive on the support is constant on the level
    # sets of basis / p, so it generates the same algebra.
    w = np.random.default_rng(weight_seed).uniform(0.1, 10.0, basis.dimension)
    other = basis.basis @ w
    assert closure(basis, other).blocks == closure(basis, choose_p(basis)).blocks


def repeated_rows(rng: np.random.Generator) -> np.ndarray:
    """Level matrix with repeated rows: up to 10 rows, each a copy of one
    of g base rows plus, per entry, no deviation, one near rank_tol
    (10^-10.3 to 10^-9.7) or one near eq_tol (10^-8.3 to 10^-7.7), with
    a random sign and random shares of the three kinds; columns scaled to
    unit peak as closure scales them, and half the time the whole matrix
    by a factor in [0.5, 2], so that rank's threshold is not always
    rank_tol."""
    n, q = rng.integers(2, 11), rng.integers(1, 5)
    g = rng.integers(1, n + 1)
    rows = rng.uniform(0.0, 1.0, (g, q))[rng.integers(0, g, n)]
    kind = rng.choice(3, (n, q), p=rng.dirichlet(np.ones(3)))
    exponent = np.where(kind == 1, rng.uniform(-10.3, -9.7, (n, q)),
                        rng.uniform(-8.3, -7.7, (n, q)))
    rows = rows + np.where(kind == 0, 0.0, rng.choice([-1.0, 1.0], (n, q)) * 10.0 ** exponent)
    rows /= np.abs(rows).max(axis=0)
    return rows * rng.uniform(0.5, 2.0) if rng.random() < 0.5 else rows


def leaders_of(marks: np.ndarray) -> np.ndarray:
    """Each row's group leader: the first row marked in its group's column."""
    return marks.argmax(axis=0)[marks.argmax(axis=1)]


@given(st.integers(0, 2**32 - 1))
def test_level_sets_and_span_test_match_the_reference_loops(seed):
    levels = repeated_rows(np.random.default_rng(seed))
    marks, first = _level_sets(levels, TOL)
    expected = greedy_level_sets(levels)
    np.testing.assert_array_equal(marks, expected)
    np.testing.assert_array_equal(first, leaders_of(expected))
    assert _indicators_span(levels, first, TOL) == indicators_span_by_rank(expected, levels)


def test_level_sets_of_a_large_basis_stay_in_bounded_memory():
    # 400 rows in about 100 groups of 200 columns, each within 4e-9 of its
    # group's centre: comparing every pair at once would hold 400 x 400 x
    # 200 floats (256 MB); row chunks keep the temporary near 2 MB.
    rng = np.random.default_rng(0)
    levels = rng.random((100, 200))[rng.integers(0, 100, 400)]
    levels += rng.uniform(-4e-9, 4e-9, levels.shape)
    tracemalloc.start()
    try:
        marks, first = _level_sets(levels, TOL)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = greedy_level_sets(levels)
    assert 90 < expected.shape[1] <= 100
    np.testing.assert_array_equal(marks, expected)
    np.testing.assert_array_equal(first, leaders_of(expected))
    assert peak < 16e6


def test_repeated_rows_reach_both_span_decisions():
    # The property above is only as strong as its cases: deviations near
    # rank_tol must leave some groups spanning their levels and some not.
    spans = []
    for seed in range(300):
        levels = repeated_rows(np.random.default_rng(seed))
        marks = greedy_level_sets(levels)
        if marks.shape[1] < levels.shape[0]:
            spans.append(indicators_span_by_rank(marks, levels))
    assert 10 < sum(spans) < len(spans) - 10


@st.composite
def nearly_parallel_bases(draw):
    """The span of a generated basis, spanned by p + 3e-9 Q (see
    test_blocks_depend_on_the_span_alone), whose first grouping mostly
    fails the span test."""
    basis = draw(generated_bases())
    p = choose_p(basis)
    s = np.flatnonzero(p)
    Q = np.zeros_like(basis.basis)
    Q[s] = np.linalg.qr(basis.basis[s])[0]
    try:
        return SubspaceBasis(p[:, None] / np.abs(p).max() + 3e-9 * Q)
    except RankDeficientError:
        assume(False)


@given(st.one_of(generated_bases(), lumped_bases(), nearly_parallel_bases()))
def test_closure_blocks_match_the_reference_loops(basis):
    p = choose_p(basis)
    s = np.flatnonzero(p)
    levels = basis.basis[s] / p[s][:, None]
    peaks = np.abs(levels).max(axis=0)
    levels /= np.where(peaks > 0.0, peaks, 1.0)
    marks = greedy_level_sets(levels)
    if marks.shape[1] < s.size and not indicators_span_by_rank(marks, levels):
        marks = greedy_level_sets(np.linalg.qr(levels)[0])
    algebra = closure(basis, p)
    assert algebra.blocks == tuple(tuple(s[column > 0].tolist()) for column in marks.T)
    expected = np.zeros_like(algebra.generators)
    expected[s] = marks * p[s][:, None]
    np.testing.assert_array_equal(algebra.generators, expected)


@given(st.one_of(generated_bases(), lumped_bases(), nearly_parallel_bases()))
def test_closure_matches_the_block_mask_builder_bytes(basis):
    # Blocks read off each row's group leader in one pass are those of one
    # boolean mask per block, numbered by np.unique, byte for byte; the
    # nearly parallel bases take the regrouping on orthonormal rows.
    p = choose_p(basis)
    algebra = closure(basis, p)
    generators, blocks = closure_by_block_masks(basis.basis, p)
    assert algebra.blocks == blocks
    assert all(type(k) is int for block in algebra.blocks for k in block)
    assert algebra.generators.shape == generators.shape
    assert algebra.generators.tobytes() == generators.tobytes()
    assert algebra.p.tobytes() == p.tobytes()
