"""Unit tests for the tolerance-controlled linear algebra layer."""
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from posred import (GeneratorSpec, NonFiniteError, RankDeficientError, SubspaceBasis,
                    Tolerances, column_space_basis, generate_system,
                    left_inverse, rpmr_reachable)
from posred import DEFAULT_TOL, as_matrix, numerics
from posred.numerics import unit_peak
from conftest import (greedy_column_selection, per_column_selection, r600_system, rank,
                      reachability_matrix)

TOL = Tolerances()

# Reachability-style block with two dependent trailing columns.
RANK_TWO_BLOCK = np.array([[1.0, 2.0, 3.0, 4.0],
                           [1.0, 1.0, 2.0, 3.0],
                           [0.0, 0.0, 0.0, 0.0],
                           [0.0, 0.0, 0.0, 0.0]])


class TestRank:
    """The reference rank of conftest, the oracle of SubspaceBasis's check."""

    def test_identity(self):
        assert rank(np.eye(4)) == 4

    def test_rank_two_block(self):
        assert rank(RANK_TWO_BLOCK) == 2

    def test_three_independent_columns(self):
        M = np.array([[0.0, 2.0, 0.0],
                      [1.0, 0.0, 4.0],
                      [1.0, 1.0, 1.0],
                      [1.0, 1.0, 1.0]])
        assert rank(M) == 3

    def test_zero_matrix(self):
        assert rank(np.zeros((3, 5))) == 0

    def test_relative_threshold_fixed_up_front(self):
        # 1e-12 is below rank_tol * max|entry| = 1e-10, so it is no pivot.
        assert rank(np.array([[1.0, 0.0], [0.0, 1e-12]])) == 1
        assert rank(np.array([[1e-12]])) == 1

    def test_permutation_invariant(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            M = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 4))
            perm = rng.permutation(5)
            assert rank(M[perm]) == rank(M)

    def test_wide_and_tall(self):
        assert rank(np.ones((2, 6))) == 1
        assert rank(np.ones((6, 2))) == 1

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_empty_matrix(self, shape):
        assert rank(np.zeros(shape)) == 0


class TestColumnSpaceBasis:
    def test_selects_leading_independent_columns(self):
        basis = column_space_basis(RANK_TWO_BLOCK)
        np.testing.assert_allclose(basis.basis, RANK_TWO_BLOCK[:, :2])
        assert basis.dimension == 2
        assert basis.ambient_dim == 4

    def test_identity_is_its_own_basis(self):
        np.testing.assert_allclose(column_space_basis(np.eye(3)).basis, np.eye(3))

    def test_rank_one_pair(self):
        M = np.array([[1.0, 2.0], [2.0, 4.0]])
        assert M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0] == 0.0  # dependent by determinant
        basis = column_space_basis(M)
        np.testing.assert_allclose(basis.basis, [[1.0], [2.0]])

    def test_spans_the_input(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            M = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 5))
            basis = column_space_basis(M).basis
            assert rank(np.hstack([M, basis])) == rank(basis) == rank(M)

    def test_zero_matrix_rejected(self):
        with pytest.raises(RankDeficientError, match="rank 0"):
            column_space_basis(np.zeros((4, 2)))


@st.composite
def selection_inputs(draw):
    """Reachability matrices of generated systems (n <= 16), and low-rank
    products whose columns are scaled over up to 16 decades, so that a
    column with a large peak can raise the rank threshold above a pivot
    already kept."""
    seed = draw(st.integers(0, 2**32 - 1))
    if draw(st.booleans()):
        n = draw(st.integers(1, 16))
        reachable = draw(st.one_of(st.none(), st.integers(1, n)))
        spec = GeneratorSpec(n=n, inputs=draw(st.integers(1, 3)), reachable_dim=reachable,
                             density=draw(st.sampled_from([0.3, 0.6, 1.0])), seed=seed)
        return reachability_matrix(generate_system(spec))
    rng = np.random.default_rng(seed)
    n, k, m = draw(st.integers(1, 10)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    decades = draw(st.sampled_from([0.0, 4.0, 8.0]))
    return (rng.normal(size=(n, k)) @ rng.normal(size=(k, m))
            * 10.0 ** rng.uniform(-decades, decades, m))


@given(selection_inputs())
def test_column_selection_matches_per_column_rank_oracle(M):
    selected = greedy_column_selection(M)
    if not selected:
        with pytest.raises(RankDeficientError, match="rank 0"):
            column_space_basis(M)
        return
    np.testing.assert_array_equal(column_space_basis(M).basis, M[:, selected])


@st.composite
def refusal_inputs(draw):
    """Matrices with many columns to refuse: random columns followed by
    duplicates, near-duplicates (a column plus 1e-11 to 1e-9 of a random
    one, about the rank threshold) and zero columns, in that order or
    shuffled, with each column scaled by 1 or by 10^u, u uniform in
    [-12, 12], and in half of them one to three identically zero rows
    inserted between the others. The shape and contents follow one drawn
    seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = rng.integers(1, 11), rng.integers(1, 9)
    base = rng.normal(size=(n, k))
    copies = base[:, rng.integers(0, k, rng.integers(0, 9))]
    near = base[:, rng.integers(0, k, rng.integers(0, 9))]
    near = near + 10.0 ** rng.uniform(-11, -9, near.shape[1]) * rng.normal(size=near.shape)
    M = np.hstack([base, copies, near, np.zeros((n, rng.integers(0, 5)))])
    if rng.random() < 0.5:
        M = M[:, rng.permutation(M.shape[1])]
    decades = rng.choice([0.0, 12.0])
    M = M * 10.0 ** rng.uniform(-decades, decades, M.shape[1])
    if rng.random() < 0.5:
        M = np.insert(M, rng.integers(0, n + 1, rng.integers(1, 4)), 0.0, axis=0)
    return M


@given(st.one_of(selection_inputs(), refusal_inputs()))
def test_column_selection_matches_the_per_column_loop(M):
    # Bit for bit: the same columns, so the same basis, as one
    # elimination step per column, on Krylov stacks of generated systems
    # (selection_inputs) and on matrices with many columns to refuse.
    selected = per_column_selection(M)
    if not selected:
        with pytest.raises(RankDeficientError, match="rank 0"):
            column_space_basis(M)
        return
    np.testing.assert_array_equal(column_space_basis(M).basis, M[:, selected])


@given(refusal_inputs())
def test_column_selection_matches_per_column_rank_oracle_on_refusals(M):
    selected = greedy_column_selection(M)
    if not selected:
        with pytest.raises(RankDeficientError, match="rank 0"):
            column_space_basis(M)
        return
    np.testing.assert_array_equal(column_space_basis(M).basis, M[:, selected])


@given(st.integers(2, 16), st.integers(1, 3), st.integers(1, 15),
       st.sampled_from([0.3, 0.6, 1.0]), st.integers(0, 2**32 - 1))
def test_coordinate_stack_selection_stops_at_its_last_pivot(n, inputs, reachable, density,
                                                            seed):
    # The Krylov stack of a coordinate reachable space is zero outside the
    # reachable states, so once it has kept a column per nonzero row the
    # selection stops: its last elimination step keeps a column, and no
    # refused step or scan follows it.
    spec = GeneratorSpec(n=n, inputs=inputs, reachable_dim=min(reachable, n - 1),
                         density=density, seed=seed)
    M = reachability_matrix(generate_system(spec))
    nonzero_rows = int(M.any(axis=1).sum())
    assume(nonzero_rows > 0)
    sizes = []
    eliminate = numerics._eliminate

    def counted(*args):
        sizes.append(eliminate(*args))
        return sizes[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(numerics, "_eliminate", counted)
        basis = column_space_basis(M)
    assume(basis.dimension == nonzero_rows)
    assert sum(1 for size in sizes if size) == basis.dimension
    assert sizes[-1]


@given(st.integers(0, 2**32 - 1), st.integers(1, 10), st.integers(1, 6), st.integers(2, 12),
       st.floats(6.0, 16.0))
def test_selected_columns_pass_the_rank_check_they_skip(seed, n, k, m, decades):
    # column_space_basis does not run SubspaceBasis's check on its result;
    # the selection must make that check redundant, by the rank oracle,
    # even when the column peaks span many decades.
    rng = np.random.default_rng(seed)
    exponents = rng.uniform(0.0, decades, m)
    exponents[rng.permutation(m)[:2]] = 0.0, decades
    M = rng.normal(size=(n, k)) @ rng.normal(size=(k, m)) * 10.0 ** exponents
    basis = column_space_basis(M)
    assert rank(basis.basis) == basis.dimension
    assert not basis.basis.flags.writeable


def test_direct_basis_construction_checks_rank():
    with pytest.raises(RankDeficientError):
        SubspaceBasis(RANK_TWO_BLOCK)


@st.composite
def basis_candidates(draw):
    """Matrices of up to 8 x 8 near the full-rank boundary: Gaussian,
    low-rank products, columns that repeat an earlier one plus 10^u of a
    random column (u uniform in [-14, -6], about the rank threshold),
    small integers, or all zeros; then, in two of three, the rows or the
    columns scaled by 10^u, u uniform in [-12, 12]. The shape and contents
    follow one drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m = rng.integers(1, 9, 2)
    kind = draw(st.sampled_from(["normal", "low-rank", "near", "integer", "zero"]))
    if kind == "normal":
        M = rng.normal(size=(n, m))
    elif kind == "low-rank":
        M = rng.normal(size=(n, rng.integers(1, m + 1)))
        M = M @ rng.normal(size=(M.shape[1], m))
    elif kind == "near":
        M = rng.normal(size=(n, m))
        for j in range(1, m):
            if rng.random() < 0.5:
                M[:, j] = M[:, rng.integers(0, j)] + 10.0 ** rng.uniform(-14, -6) * M[:, j]
    elif kind == "integer":
        M = rng.integers(-3, 4, (n, m)).astype(float)
    else:
        M = np.zeros((n, m))
    axis = rng.integers(0, 3)
    if axis < 2:
        M = M * 10.0 ** rng.uniform(-12, 12, (n, 1) if axis == 0 else m)
    return M


@given(basis_candidates(), st.sampled_from([0.0, 1e-12, 1e-8, 1e-4]))
@example(np.zeros((3, 2)), 1e-8)
def test_basis_check_agrees_with_the_rank_oracle(M, eq_tol):
    # SubspaceBasis certifies full rank by column selection keeping every
    # column; that is the verdict of rank by elimination at a threshold
    # fixed from the whole matrix, and the all-zero matrix is refused too.
    tol = Tolerances(eq_tol)
    if rank(M, tol) < M.shape[1]:
        with pytest.raises(RankDeficientError, match="linearly dependent"):
            SubspaceBasis(M, tol)
        return
    V = SubspaceBasis(M, tol)
    np.testing.assert_array_equal(V.basis, M)
    assert V.basis.flags.c_contiguous and not V.basis.flags.writeable


def test_basis_needs_a_column():
    with pytest.raises(ValueError, match="at least one column"):
        SubspaceBasis(np.zeros((3, 0)))


def test_as_matrix_rejects_input_that_is_not_2d():
    for M in ([1.0, 2.0], [[[1.0]]], 3.0):
        with pytest.raises(ValueError, match="M must be 2-D"):
            as_matrix(M, "M")


class TestExactnessResidual:
    def test_unit_peak_leaves_zero_columns_zero(self):
        M = np.array([[2.0, 0.0, -4.0], [1.0, 0.0, 1.0]])
        np.testing.assert_array_equal(unit_peak(M), [[1.0, 0.0, -1.0], [0.5, 0.0, 0.25]])


class TestLeftInverse:
    def test_rank_two_block_basis(self):
        L = left_inverse(RANK_TWO_BLOCK[:, :2])
        np.testing.assert_allclose(L, [[-1.0, 2.0, 0.0, 0.0],
                                       [1.0, -1.0, 0.0, 0.0]], atol=1e-12)

    def test_permutation_matrix(self):
        P = np.eye(4)[[2, 0, 3, 1]]
        np.testing.assert_allclose(left_inverse(P), P.T, atol=1e-12)

    def test_tower_columns(self):
        J = np.array([[1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0],
                      [0.0, 0.0, 1.0]])
        # (J^T J) = diag(1, 1, 2), so the last row splits the tied rows.
        np.testing.assert_allclose(left_inverse(J),
                                   [[1.0, 0.0, 0.0, 0.0],
                                    [0.0, 1.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.5, 0.5]], atol=1e-12)

    def test_left_inverts(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            M = rng.normal(size=(6, 3))
            L = left_inverse(M)
            np.testing.assert_allclose(L @ M, np.eye(3), atol=TOL.eq_tol)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankDeficientError):
            left_inverse(np.array([[1.0, 2.0], [2.0, 4.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("k", [-600, 560])
    def test_extreme_scales_scale_the_inverse(self, k):
        # M^T M underflowed to a singular matrix (numpy's LinAlgError) or
        # overflowed to a NaN inverse that passed the accuracy check.
        M = np.random.default_rng(3).random((6, 3))
        np.testing.assert_array_equal(left_inverse(np.ldexp(M, k)), np.ldexp(left_inverse(M), -k))

    def test_inverse_beyond_the_largest_double_is_non_finite(self):
        # The true inverse of the subnormal column is 1e320, not a double;
        # scaling back overflowed, with a warning, to an inverse of inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="left inverse"):
                left_inverse(np.array([[1e-320], [0.0]]))

    def test_nearly_parallel_columns_give_an_inaccurate_inverse(self):
        # Condition about 4e12: pinv keeps both singular values, but
        # L @ M misses the identity by far more than eq_tol.
        with pytest.raises(RankDeficientError, match="inaccurate"):
            left_inverse(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]]))

    def test_condition_four_million_inverts(self):
        # Condition about 4e6: squared, as in the normal equations, it
        # would miss eq_tol; the pseudo-inverse never squares it.
        M = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-6]])
        assert np.abs(left_inverse(M) @ M - np.eye(2)).max() <= TOL.eq_tol

    def test_singular_gram_matrix_is_rank_deficient(self):
        # pinv drops the singular value at 2^-600 of the peak, so the
        # residual refuses the inverse even with rank_tol = 0.
        with pytest.raises(RankDeficientError, match="inaccurate"):
            left_inverse(np.diag([1.0, 2.0 ** -600]), Tolerances(0.0))

    def test_small_diagonal_entry_inverts_exactly(self):
        # Its inverse is a double, so no threshold relative to the peak may refuse it.
        np.testing.assert_array_equal(left_inverse(np.diag([1.0, 1e-12])), np.diag([1.0, 1e12]))

    @pytest.mark.parametrize("seed", [56, 125, 163])
    def test_certified_r600_basis_inverts(self, seed):
        # Certified raw-power bases with condition 1e5 to 2e7 (n = 7, 8, 8).
        X = rpmr_reachable(r600_system(seed)).basis.basis
        assert np.abs(left_inverse(X) @ X - np.eye(X.shape[1])).max() <= TOL.eq_tol

    def test_empty_shapes(self):
        assert left_inverse(np.zeros((3, 0))).shape == (0, 3)
        assert left_inverse(np.zeros((0, 0))).shape == (0, 0)
        with pytest.raises(RankDeficientError):
            left_inverse(np.zeros((0, 3)))


def test_tolerances_must_be_nonnegative():
    with pytest.raises(ValueError):
        Tolerances(-1.0)
    for value in (np.inf, np.nan):
        with pytest.raises(ValueError, match="finite and non-negative"):
            Tolerances(eq_tol=value)


def test_one_tolerance_fixes_the_rank_and_sign_thresholds():
    assert Tolerances._fields == ("eq_tol",)
    assert (DEFAULT_TOL.rank_tol, DEFAULT_TOL.nonneg_tol) == (1e-10, 1e-9)
    assert (Tolerances(1e-5).rank_tol, Tolerances(1e-5).nonneg_tol) == (1e-5 / 100, 1e-5 / 10)
    for name in ("rank_tol", "nonneg_tol"):
        with pytest.raises(TypeError):
            Tolerances(**{name: 1e-9})
        with pytest.raises(AttributeError):
            setattr(DEFAULT_TOL, name, 1e-9)


@pytest.mark.parametrize("build", [
    lambda eq: Tolerances(eq_tol=eq),
    lambda eq: Tolerances(eq),
    lambda eq: DEFAULT_TOL._replace(eq_tol=eq),
    lambda eq: Tolerances._make([eq]),
], ids=["keyword", "positional", "_replace", "_make"])
def test_every_construction_path_checks_tolerances(build):
    # The stock named-tuple _make, which _replace calls, skips __new__.
    assert build(1e-6).eq_tol == 1e-6
    for value in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="^tolerances must be finite and non-negative$"):
            build(value)
