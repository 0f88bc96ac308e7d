"""Monotonicity tests: the cone oracle against hand checks and the
combinatorial shortcuts against the oracle."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from posred import (NotNonnegativeError, Tolerances, is_monotone_general,
                    is_monotone_nonneg_rect, nonneg_lstsq)
from posred.monotone import cone_coefficients, positive_combination

TOL = Tolerances()


@pytest.mark.parametrize("column_scale", [1.0, 1e6])
def test_positive_combination_is_positive_on_every_row(column_scale):
    # (1, -1), (1, 0) and (0, 1) all lie in the open half-plane of c = (2, 1);
    # the solve scales the columns, so a second column 1e6 times larger
    # still gives one.
    rows = np.array([[1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]) * [1.0, column_scale]
    c = positive_combination(rows)
    assert c is not None
    assert (rows @ c > 0.0).all()


def test_positive_combination_of_opposite_rows_is_none():
    assert positive_combination(np.array([[1.0], [-1.0]])) is None


class TestNonnegLstsq:
    def test_unconstrained_optimum_inside_cone(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        x, resid = nonneg_lstsq(A, np.array([1.0, 2.0, 3.0]))
        assert resid <= 1e-12
        np.testing.assert_allclose(A @ x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_constraint_binds(self):
        # Unconstrained solution of [[1], [1]] x = (1, -3) is x = -1.
        x, resid = nonneg_lstsq(np.array([[1.0], [1.0]]), np.array([1.0, -3.0]))
        assert x[0] == 0.0
        np.testing.assert_allclose(resid, np.hypot(1.0, 3.0))

    def test_zero_rhs(self):
        x, resid = nonneg_lstsq(np.ones((3, 2)), np.zeros(3))
        np.testing.assert_allclose(x, 0.0)
        assert resid == 0.0

    def test_infeasible_stays_infeasible(self):
        # Regression: combining rows with positive first coordinates can
        # never produce (0, 1), so the residual must stay well above zero.
        rows = np.array([[0.63066428, 0.87710711],
                         [0.24150897, 0.79118618],
                         [0.88996684, 0.0],
                         [0.33586486, 0.92663964]])
        x, resid = nonneg_lstsq(rows.T, np.array([0.0, 1.0]))
        assert x.min() >= 0.0
        assert resid > 0.25

    def test_matches_bounded_least_squares(self):
        import scipy.optimize
        rng = np.random.default_rng(88)
        for trial in range(150):
            m, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            if trial % 3 == 0:
                # Badly scaled wide systems once drove the active set into a
                # degenerate re-add cycle; keep them covered.
                A *= 10.0 ** rng.integers(-3, 4)
                b *= 10.0 ** rng.integers(-2, 3)
            x, resid = nonneg_lstsq(A, b)
            assert x.min() >= 0.0
            reference = scipy.optimize.lsq_linear(A, b, bounds=(0.0, np.inf),
                                                  method="bvls")
            ref_resid = np.linalg.norm(A @ reference.x - b)
            assert resid <= ref_resid * (1 + 1e-9) + 1e-9


class TestConeCoefficients:
    ROWS = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])

    def test_member_gets_a_certificate(self):
        target = np.array([2.0, 3.0, 3.0])  # rows 0, 1, 2 with weights 1, 2, 1
        coeffs = cone_coefficients(self.ROWS, target, TOL)
        assert coeffs is not None and coeffs.min() >= 0.0
        np.testing.assert_allclose(self.ROWS.T @ coeffs, target, atol=1e-12)

    def test_non_member_and_empty_cone(self):
        assert cone_coefficients(self.ROWS, np.array([1.0, 0.0, 0.0]), TOL) is None
        assert cone_coefficients(self.ROWS, -self.ROWS[0], TOL) is None
        assert cone_coefficients(np.zeros((0, 3)), self.ROWS[0], TOL) is None
        assert cone_coefficients(np.zeros((0, 3)), np.zeros(3), TOL) is not None


def square_cone_oracle(X) -> bool:
    """Independent check for invertible square X: the coefficients of each
    basis vector over the rows are unique, so the cone contains the whole
    orthant exactly when inv(X) is entrywise non-negative."""
    return bool((np.linalg.inv(X) >= -1e-12).all())


class TestGeneralOracle:
    def test_identity(self):
        cert = is_monotone_general(np.eye(3))
        assert cert.monotone
        np.testing.assert_allclose(cert.nonneg_left_inverse, np.eye(3), atol=1e-12)

    def test_shear_is_not_monotone(self):
        # e2 = c1 (1,0) + c2 (1,1) forces c1 = -1.
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert not square_cone_oracle(X)
        assert not is_monotone_general(X).monotone

    def test_tower_block_is_monotone(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        cert = is_monotone_general(X)
        assert cert.monotone
        L = cert.nonneg_left_inverse
        assert L.min() >= -TOL.nonneg_tol
        np.testing.assert_allclose(L @ X, np.eye(2), atol=TOL.eq_tol)

    def test_wide_matrices_never_monotone(self):
        assert not is_monotone_general(np.ones((2, 3))).monotone

    def test_matches_square_oracle(self):
        rng = np.random.default_rng(11)
        agreements = 0
        for _ in range(60):
            X = rng.normal(size=(3, 3))
            if abs(np.linalg.det(X)) < 1e-3:
                continue
            assert is_monotone_general(X).monotone == square_cone_oracle(X)
            agreements += 1
        assert agreements > 40


class TestSquareShortcut:
    """On square input the orthogonal-row test accepts exactly the
    generalized permutation matrices."""

    def test_diagonal(self):
        assert is_monotone_nonneg_rect(np.diag([2.0, 3.0])).monotone

    def test_antidiagonal_generalized_permutation(self):
        assert is_monotone_nonneg_rect(np.array([[0.0, 5.0], [7.0, 0.0]])).monotone

    def test_upper_triangular_is_not(self):
        X = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert not is_monotone_nonneg_rect(X).monotone
        assert not is_monotone_general(X).monotone

    def test_generalized_permutation_pattern_equivalence(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            n = int(rng.integers(2, 5))
            X = np.where(rng.random((n, n)) < 0.5, rng.uniform(0.1, 1.0, (n, n)), 0.0)
            one_per_row = (X > 0).sum(axis=1) == 1
            one_per_col = (X > 0).sum(axis=0) == 1
            assert (is_monotone_nonneg_rect(X).monotone
                    == bool(one_per_row.all() and one_per_col.all()))

    def test_rejections(self):
        with pytest.raises(NotNonnegativeError):
            is_monotone_nonneg_rect(np.array([[1.0, 0.0], [0.0, -1.0]]))
        # A singular non-negative matrix has no monomial rows: a verdict,
        # not an error.
        assert not is_monotone_nonneg_rect(np.ones((2, 2))).monotone


class TestRectShortcut:
    def test_tower_block(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        cert = is_monotone_nonneg_rect(X)
        assert cert.monotone
        assert cert.orthogonal_row_set == [0, 1]
        np.testing.assert_allclose(cert.nonneg_left_inverse,
                                   [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

    def test_three_towers(self):
        X = np.array([[1.0, 0.0, 0.0],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0],
                      [0.0, 0.0, 1.0]])
        cert = is_monotone_nonneg_rect(X)
        assert cert.monotone
        assert cert.orthogonal_row_set == [0, 1, 2]
        np.testing.assert_allclose(cert.nonneg_left_inverse,
                                   [[1.0, 0.0, 0.0, 0.0],
                                    [0.0, 1.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0, 0.0]])

    def test_all_rows_overlap(self):
        # Every pair of rows has strictly positive inner product.
        X = np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        assert not is_monotone_nonneg_rect(X).monotone
        assert not is_monotone_general(X).monotone

    def test_scaled_pivot_rows(self):
        X = np.array([[0.0, 4.0], [2.0, 0.0], [1.0, 1.0]])
        cert = is_monotone_nonneg_rect(X)
        assert cert.monotone
        np.testing.assert_allclose(cert.nonneg_left_inverse @ X, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_sign_test_is_relative_to_the_peak(self, scale):
        # -5e-10 of the peak counts as zero at every scale, and -1e-6 of
        # it as negative; an absolute floor decided both by the scale of X.
        X = scale * np.array([[1.0, -5e-10], [1.0, 1.0], [0.0, 1.0]])
        cert = is_monotone_nonneg_rect(X)
        assert cert.monotone and cert.orthogonal_row_set == [0, 2]
        np.testing.assert_allclose(cert.nonneg_left_inverse @ X, np.eye(2), atol=1e-9)
        X[0, 1] = -1e-6 * scale
        with pytest.raises(NotNonnegativeError):
            is_monotone_nonneg_rect(X)

    def test_small_row_beside_a_large_one_keeps_its_support(self):
        # A support taken against the matrix peak dropped the 5e-7 entry,
        # which is below 1e-9 * 1e3, and called a positive diagonal
        # matrix not monotone.
        X = np.array([[1e3, 0.0], [0.0, 5e-7]])
        cert = is_monotone_nonneg_rect(X)
        assert cert.monotone and cert.orthogonal_row_set == [0, 1]
        np.testing.assert_allclose(cert.nonneg_left_inverse, np.diag([1e-3, 2e6]))

    def test_small_negative_block_is_not_forgiven_by_a_large_row(self):
        # Against the matrix peak every -9.9e-7 passed the sign test and the
        # shortcut called X monotone, yet X x >= 0 at x = (0, -1, -1, -1).
        X = np.zeros((4, 4))
        X[0, 0] = 1e3
        X[1:, 1:] = -9.9e-7
        X[[1, 2, 3], [1, 2, 3]] = 1.01e-6
        assert (X @ np.array([0.0, -1.0, -1.0, -1.0]) >= 0.0).all()
        with pytest.raises(NotNonnegativeError):
            is_monotone_nonneg_rect(X)
        assert not is_monotone_general(X).monotone

    def test_zero_rows_are_skipped(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        cert = is_monotone_nonneg_rect(X)
        assert cert.monotone
        assert cert.orthogonal_row_set == [1, 2]

    def test_rejections(self):
        with pytest.raises(NotNonnegativeError):
            is_monotone_nonneg_rect(np.array([[1.0], [-1.0]]))
        # Rank-deficient and wide matrices have fewer than m monomial rows:
        # a verdict, not an error.
        assert not is_monotone_nonneg_rect(np.array([[1.0, 1.0], [2.0, 2.0]])).monotone
        assert not is_monotone_nonneg_rect(np.ones((2, 3))).monotone


def random_nonneg_full_rank(rng, n, m):
    while True:
        X = np.where(rng.random((n, m)) < 0.6, rng.uniform(0.1, 1.0, (n, m)), 0.0)
        if np.linalg.matrix_rank(X) == m:
            return X


def test_shortcut_agrees_with_cone_oracle():
    rng = np.random.default_rng(123)
    verdicts = {True: 0, False: 0}
    for trial in range(150):
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 7))
        X = random_nonneg_full_rank(rng, n, m)
        if trial % 3 == 0:
            # Plant one single-support row per column so both verdicts occur.
            for j in range(m):
                i = int(rng.integers(0, n))
                X[i] = 0.0
                X[i, j] = rng.uniform(0.1, 1.0)
            if np.linalg.matrix_rank(X) < m:
                continue
        fast = is_monotone_nonneg_rect(X)
        slow = is_monotone_general(X)
        assert fast.monotone == slow.monotone
        verdicts[fast.monotone] += 1
        if fast.monotone:
            L = fast.nonneg_left_inverse
            assert L.min() >= -TOL.nonneg_tol
            np.testing.assert_allclose(L @ X, np.eye(m), atol=TOL.eq_tol)
    assert min(verdicts.values()) > 10


@st.composite
def scaled_integer_matrices(draw):
    """A non-negative integer matrix with entries 0-3, n <= 6 and m <= 5,
    rank-deficient and wide ones included, and a row scaling 10^k with k
    in [-6, 6] for each row."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 5))
    X = np.array(draw(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                               min_size=n, max_size=n)), dtype=float)
    d = 10.0 ** np.array(draw(st.lists(st.integers(-6, 6), min_size=n, max_size=n)))
    return X, d


@given(scaled_integer_matrices())
def test_shortcut_decides_every_nonneg_matrix_as_the_oracle(drawn):
    # Monomial rows decide monotonicity of any non-negative matrix, so the
    # shortcut needs no rank test and no row scaling moves its verdict.
    X, d = drawn
    fast = is_monotone_nonneg_rect(X)
    assert fast.monotone == is_monotone_general(X).monotone
    scaled = is_monotone_nonneg_rect(d[:, None] * X)
    assert scaled.monotone == fast.monotone
    if scaled.monotone:
        L = scaled.nonneg_left_inverse
        assert L.min() >= 0.0
        np.testing.assert_allclose(L @ (d[:, None] * X), np.eye(X.shape[1]), atol=TOL.eq_tol)


def test_nonneg_orthogonality_is_disjoint_support():
    rng = np.random.default_rng(9)
    for _ in range(200):
        v = np.where(rng.random(6) < 0.5, rng.uniform(0.1, 1.0, 6), 0.0)
        w = np.where(rng.random(6) < 0.5, rng.uniform(0.1, 1.0, 6), 0.0)
        disjoint = not ((v > 0) & (w > 0)).any()
        assert (abs(float(v @ w)) <= TOL.eq_tol) == disjoint
