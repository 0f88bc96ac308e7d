"""Monotonicity tests: the cone oracle (a test reference on
scipy.optimize.nnls) against hand checks, and the monomial-row test
against the oracle."""
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from posred import NonFiniteError, NotNonnegativeError, Tolerances, is_monotone_nonneg_rect
from conftest import (_dyadic_integers, _has_nonneg_solution, cone_coefficients,
                      is_monotone_by_cone, monotone_by_row_scan)

TOL = Tolerances()


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
        cert = is_monotone_by_cone(np.eye(3))
        assert cert.monotone
        np.testing.assert_allclose(cert.nonneg_left_inverse, np.eye(3), atol=1e-12)

    def test_shear_is_not_monotone(self):
        # e2 = c1 (1,0) + c2 (1,1) forces c1 = -1.
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        assert not square_cone_oracle(X)
        assert not is_monotone_by_cone(X).monotone

    def test_tower_block_is_monotone(self):
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        cert = is_monotone_by_cone(X)
        assert cert.monotone
        L = cert.nonneg_left_inverse
        assert L.min() >= -TOL.nonneg_tol
        np.testing.assert_allclose(L @ X, np.eye(2), atol=TOL.eq_tol)

    def test_wide_matrices_never_monotone(self):
        assert not is_monotone_by_cone(np.ones((2, 3))).monotone

    def test_matches_square_oracle(self):
        rng = np.random.default_rng(11)
        agreements = 0
        for _ in range(60):
            X = rng.normal(size=(3, 3))
            if abs(np.linalg.det(X)) < 1e-3:
                continue
            assert is_monotone_by_cone(X).monotone == square_cone_oracle(X)
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
        assert not is_monotone_by_cone(X).monotone

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
        assert not is_monotone_by_cone(X).monotone

    def test_scaled_pivot_rows(self):
        X = np.array([[0.0, 4.0], [2.0, 0.0], [1.0, 1.0]])
        cert = is_monotone_nonneg_rect(X)
        assert cert.monotone
        np.testing.assert_allclose(cert.nonneg_left_inverse @ X, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("scale", [1e-12, 1.0, 1e12])
    def test_sign_test_is_relative_to_the_peak(self, scale):
        # -5e-10 of the peak, which a floor of -nonneg_tol times the row
        # peak forgave, is refused at every scale; -0.0 passes, and the
        # matrix is then monotone.
        X = scale * np.array([[1.0, -5e-10], [1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NotNonnegativeError):
            is_monotone_nonneg_rect(X)
        X[0, 1] = -0.0
        cert = is_monotone_nonneg_rect(X)
        assert cert.monotone and cert.orthogonal_row_set == [0, 2]

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
        assert not is_monotone_by_cone(X).monotone

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

    def test_inverse_pivot_beyond_the_largest_double_is_non_finite(self):
        # 1 / 5e-324 overflows: NonFiniteError, and no warning (warnings
        # are errors in this suite), as numerics.left_inverse does.
        with pytest.raises(NonFiniteError, match="overflows"):
            is_monotone_nonneg_rect(np.array([[1.0, 0.0], [0.0, 5e-324]]))
        cert = is_monotone_nonneg_rect(np.array([[1e-308, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(cert.nonneg_left_inverse, np.diag([1e308, 1.0]))


@pytest.mark.parametrize("X, L, rows", [
    (np.zeros((1, 0)), np.zeros((0, 1)), []),
    (np.zeros((0, 2)), None, None),
    (np.zeros((0, 0)), np.zeros((0, 0)), []),
    # Rows 0 and 1 are both monomial in column 0; the first is kept.
    ([[2.0, 0.0], [4.0, 0.0], [0.0, 1.0]], [[0.5, 0.0, 0.0], [0.0, 0.0, 1.0]], [0, 2]),
    # Columns 0, 1 and 2 find their monomial rows at 3, 2 and 0.
    ([[0.0, 0.0, 4.0], [1.0, 1.0, 0.0], [0.0, 2.0, 0.0], [8.0, 0.0, 0.0]],
     [[0.0, 0.0, 0.0, 0.125], [0.0, 0.0, 0.5, 0.0], [0.25, 0.0, 0.0, 0.0]], [0, 2, 3]),
    ([[1.0, 1.0], [1.0, 0.0]], None, None),
], ids=["1x0", "0x2", "0x0", "first-of-two", "out-of-order", "not-monotone"])
def test_certificate_bytes(X, L, rows):
    # The whole certificate is pinned: the verdict, the left inverse's
    # bytes, shape and dtype, and the sorted row set of Python ints.
    cert = is_monotone_nonneg_rect(np.asarray(X, dtype=float))
    assert cert.monotone is (L is not None)
    assert cert.orthogonal_row_set == rows
    if L is None:
        assert cert.nonneg_left_inverse is None
    else:
        L = np.asarray(L)
        got = cert.nonneg_left_inverse
        assert (got.shape, got.dtype, got.tobytes()) == (L.shape, L.dtype, L.tobytes())
        assert all(type(i) is int for i in cert.orthogonal_row_set)


def certificate_or_error(test, X):
    """The certificate's bytes, or the error's class and message."""
    try:
        cert = test(X)
    except (NonFiniteError, NotNonnegativeError) as exc:
        return type(exc), str(exc)
    L = cert.nonneg_left_inverse
    return (cert.monotone, cert.orthogonal_row_set,
            None if L is None else (L.shape, L.dtype, L.tobytes()))


def test_certificate_is_the_row_scans_byte_for_byte():
    # Shapes with no rows or no columns included; 5e-324 overflows its
    # inverse pivot, and -0.0 is outside the support.
    rng = np.random.default_rng(47)
    values = np.array([0.0, -0.0, 5e-324, 1e-300, 0.5, 1.0, 2.0])
    for _ in range(3000):
        n, m = rng.integers(0, 7), rng.integers(0, 5)
        X = np.where(rng.random((n, m)) < 0.5, values[rng.integers(0, len(values), (n, m))], 0.0)
        assert (certificate_or_error(is_monotone_nonneg_rect, X)
                == certificate_or_error(monotone_by_row_scan, X)), X


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
        slow = is_monotone_by_cone(X)
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
    assert fast.monotone == is_monotone_by_cone(X).monotone
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


@st.composite
def square_dyadic_matrices(draw):
    """A square non-negative matrix of order 1-5 with dyadic entries: a
    permutation matrix with powers of two from 2^-3 to 2^3 for its ones,
    plus up to three powers of two from 2^-60 to 2^3 added anywhere, so
    that an entry far below any row floor can sit beside a pivot. One draw
    in two of order 2 or more repeats its first row, which makes it
    singular."""
    m = draw(st.integers(1, 5))
    X = np.zeros((m, m))
    X[np.arange(m), draw(st.permutations(range(m)))] = [
        2.0 ** k for k in draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))]
    for i, j, k in draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m - 1),
                                           st.integers(-60, 3)), max_size=3)):
        X[i, j] += 2.0 ** k
    singular = m > 1 and draw(st.booleans())
    if singular:
        X[-1] = X[0]
    return X, singular


@given(square_dyadic_matrices())
@example((np.array([[1.0, 1e-12], [0.0, 1.0]]), False))
def test_verdict_is_the_exact_one_on_dyadic_squares(drawn):
    # A square X is monotone exactly when it is invertible with inv(X) >= 0,
    # which fraction-free elimination decides in integers; the verdict
    # takes every nonzero entry into the support, however small. A floor
    # of nonneg_tol times the row peak called the example monotone with
    # L = I, yet X x = (0, 1) >= 0 at x = (-1e-12, 1).
    X, singular = drawn
    N, _ = _dyadic_integers(X, "X")
    exact = _has_nonneg_solution(N.tolist(), np.eye(len(X), dtype=int).tolist())
    monotone = is_monotone_nonneg_rect(X).monotone
    assert monotone == exact
    if singular:
        assert not monotone
