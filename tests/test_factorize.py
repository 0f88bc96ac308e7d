"""Extreme-ray factorization search against the exhaustive subset scan
and an independent linear-programming oracle, plus the structural
invariants of the returned factors."""
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, given
from hypothesis import strategies as st

from posred import (Factorization, GeneratorSpec, PositiveLtiSystem, SubspaceBasis,
                    Tolerances, ZeroMatrixError, find_nonneg_factorization,
                    generate_system, is_monotone_nonneg_rect, rank, reachable_subspace,
                    verify_factorization)
from posred import factorize
from conftest import cone_walk_pivots, exhaustive_first_hit, lumped_system, stubborn_span

TOL = Tolerances()


def nonneg_projector_exists(basis: np.ndarray) -> bool:
    """Independent oracle: a projector onto the column space with
    non-negative factors exists iff some X solves X @ V = I with
    V @ X >= 0 entrywise. V @ X is then a non-negative idempotent fixing
    the space, and any non-negative factor pair (J, Jdag) with J = V T
    yields such an X = T Jdag. Solved as one LP over the entries of X."""
    n, m = basis.shape
    A_eq = np.kron(basis.T, np.eye(m))   # (V^T kron I) vec(X) = vec(X V), column-major
    b_eq = np.eye(m).flatten(order="F")
    A_ub = -np.kron(np.eye(n), basis)    # -(I kron V) vec(X) = -vec(V X) <= 0
    b_ub = np.zeros(n * n)
    result = scipy.optimize.linprog(
        c=np.zeros(n * m), A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
        bounds=(None, None), method="highs")
    return result.status == 0


class TestLpOracleItself:
    def test_coordinate_plane_feasible(self):
        assert nonneg_projector_exists(np.array([[1.0, 0.0], [0.0, 1.0],
                                                 [0.0, 0.0], [0.0, 0.0]]))

    def test_mixed_sign_line_infeasible(self):
        assert not nonneg_projector_exists(np.array([[1.0], [1.0], [-1.0]]))

    def test_tower_basis_feasible(self):
        assert nonneg_projector_exists(np.array([[1.0, 0.0], [0.0, 1.0],
                                                 [1.0, 1.0], [1.0, 1.0]]))

    def test_stubborn_span_infeasible(self):
        assert not nonneg_projector_exists(stubborn_span())


class TestFind:
    def test_coordinate_plane_in_disguise(self):
        # Columns (1,1,0,0) and (2,1,0,0) span the coordinate plane.
        V = SubspaceBasis(np.array([[1.0, 2.0], [1.0, 1.0],
                                    [0.0, 0.0], [0.0, 0.0]]))
        F = find_nonneg_factorization(V)
        assert F is not None
        assert F.pivot_rows == [0, 1]
        np.testing.assert_allclose(F.J, [[1.0, 0.0], [0.0, 1.0],
                                         [0.0, 0.0], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(F.Jdag, [[1.0, 0.0, 0.0, 0.0],
                                            [0.0, 1.0, 0.0, 0.0]])

    def test_three_towers(self):
        V = SubspaceBasis(np.array([[0.0, 2.0, 0.0],
                                    [1.0, 0.0, 4.0],
                                    [1.0, 1.0, 1.0],
                                    [1.0, 1.0, 1.0]]))
        F = find_nonneg_factorization(V)
        assert F is not None
        assert F.pivot_rows == [0, 1, 2]
        np.testing.assert_allclose(F.J, [[1.0, 0.0, 0.0],
                                         [0.0, 1.0, 0.0],
                                         [0.0, 0.0, 1.0],
                                         [0.0, 0.0, 1.0]], atol=1e-12)

    def test_mixed_sign_line_absent(self):
        # All three 1x1 pivot choices leave a negative ratio.
        V = SubspaceBasis(np.array([[1.0], [1.0], [-1.0]]))
        assert find_nonneg_factorization(V) is None

    def test_stubborn_span_absent(self):
        assert find_nonneg_factorization(SubspaceBasis(stubborn_span())) is None

    def test_first_hit_is_lexicographic(self):
        V = SubspaceBasis(np.array([[1.0, 0.0], [0.0, 1.0],
                                    [1.0, 1.0], [2.0, 1.0]]))
        F = find_nonneg_factorization(V)
        assert F.pivot_rows == [0, 1]

    def test_lowest_index_row_stands_for_each_ray(self):
        # Rows 0 and 1 share a ray, as do rows 2 and 3; row 4 lies inside
        # the cone. The search keeps the first row on each ray.
        V = SubspaceBasis(np.array([[2.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                    [0.0, 3.0], [1.0, 1.0]]))
        F = find_nonneg_factorization(V)
        assert F.pivot_rows == [0, 2]
        np.testing.assert_allclose(F.J, [[1.0, 0.0], [0.5, 0.0], [0.0, 1.0],
                                         [0.0, 3.0], [0.5, 1.0]], atol=1e-12)

    def test_tolerance_boundary_differs_from_scan(self):
        # Row 2 lies within eq_tol of the ray of row 0, so row 0 stands
        # for it; the sign test on rows 0 and 1 then refuses rather than
        # return a mixed-sign factor. The subset scan accepts rows 1 and 2
        # here: a known difference.
        V = SubspaceBasis(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, -5e-9]]))
        assert find_nonneg_factorization(V) is None
        assert exhaustive_first_hit(V.basis) == [1, 2]

    def test_rows_of_any_scale_carry_rays(self):
        # Unit rays scaled far below the membership tolerance still count,
        # while a row below the rank threshold counts as zero.
        V = SubspaceBasis(np.array([[1.0, 0.0, 0.0], [0.0, 5e-5, 0.0],
                                    [0.0, 0.0, 2.5e-9], [0.0, 0.0, 1e-12],
                                    [1e-12, 1e-12, 1e-12]]))
        F = find_nonneg_factorization(V)
        assert F is not None and F.pivot_rows == [0, 1, 2]
        assert verify_factorization(F, V)

    def test_sign_test_ignores_row_scale(self):
        # Row 2 has J entry -5e-6 at scale 1e4, past the absolute floor,
        # but -5e-10 on unit rows, so the sign test forgives it at every
        # scale. The entry is returned as 0, which moves column 1 by
        # 5e-6 / 1e3 of its peak: row 3 sets that peak.
        for scale in (1e-4, 1.0, 1e4):
            V = SubspaceBasis(np.array([[1.0, 0.0], [0.0, 1.0], [scale, -5e-10 * scale],
                                        [0.0, 1e3]]))
            F = find_nonneg_factorization(V)
            assert F is not None and F.pivot_rows == [0, 1]
            assert F.J.min() == 0.0 and verify_factorization(F, V)

    def test_forgiven_entry_must_keep_the_basis_fixed(self):
        # The raw reachable basis [B, AB] of B = (1, 0, 1e4)^T and
        # A = u w^T, u = (1e-9, 1, 5e-6), w = (0, 0, 1e-4). On rows 0 and 1,
        # J row 2 is [1e4, -5e-6]: -5e-10 on unit rows, but zeroing it
        # moves AB by 5e-6 of its peak, so no factor is returned. The
        # mixed-sign J would give C J < 0 for C = (0, 0, 1).
        V = SubspaceBasis(np.array([[1.0, 1e-9], [0.0, 1.0], [1e4, 5e-6]]))
        assert find_nonneg_factorization(V) is None

    def test_basis_change_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            n, m = 5, 2
            raw = rng.normal(size=(n, m))
            V1 = SubspaceBasis(raw)
            T = rng.normal(size=(m, m))
            while abs(np.linalg.det(T)) < 0.1:
                T = rng.normal(size=(m, m))
            V2 = SubspaceBasis(raw @ T)
            F1 = find_nonneg_factorization(V1)
            F2 = find_nonneg_factorization(V2)
            assert (F1 is None) == (F2 is None)
            if F1 is not None:
                # Same image, hence the same projector target.
                assert rank(np.hstack([F1.J, F2.J])) == m

    def test_projector_is_idempotent(self):
        V = SubspaceBasis(np.array([[1.0, 0.0], [0.0, 1.0],
                                    [1.0, 1.0], [1.0, 1.0]]))
        F = find_nonneg_factorization(V)
        Pi = F.J @ F.Jdag
        np.testing.assert_allclose(Pi @ Pi, Pi, atol=TOL.eq_tol)

    def test_returned_factor_is_monotone(self):
        rng = np.random.default_rng(29)
        hits = 0
        for _ in range(40):
            X = np.where(rng.random((5, 2)) < 0.5, rng.uniform(0.1, 1.0, (5, 2)), 0.0)
            if np.linalg.matrix_rank(X) < 2:
                continue
            F = find_nonneg_factorization(SubspaceBasis(X))
            if F is None:
                continue
            hits += 1
            assert is_monotone_nonneg_rect(F.J).monotone
        assert hits > 5


def test_search_matches_lp_oracle():
    rng = np.random.default_rng(2718)
    found, absent = 0, 0
    for trial in range(120):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m, 6))
        if trial % 3 == 0:
            raw = rng.normal(size=(n, m))                 # mixed-sign spans
        else:
            raw = np.where(rng.random((n, m)) < 0.6,
                           rng.uniform(0.1, 1.0, (n, m)), 0.0)
        if np.linalg.matrix_rank(raw) < m:
            continue
        V = SubspaceBasis(raw)
        F = find_nonneg_factorization(V)
        assert (F is not None) == nonneg_projector_exists(raw)
        if F is None:
            absent += 1
        else:
            found += 1
            assert verify_factorization(F, V)
    assert found > 15 and absent > 15


@st.composite
def subspaces(draw):
    """Random proper subspaces of R^n, n <= 8, of three kinds: planted J @ T
    (J >= 0 with an identity block, some rows repeating a pivot direction,
    T mixed-sign and invertible), generic non-negative, and mixed-sign."""
    kind = draw(st.sampled_from(["planted", "nonneg", "mixed"]))
    n = draw(st.sampled_from(range(2, 9)))
    m = draw(st.sampled_from(range(1, n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "mixed":
        return rng.normal(size=(n, m))
    raw = np.where(rng.random((n, m)) < 0.6, rng.uniform(0.1, 1.0, (n, m)), 0.0)
    if kind == "nonneg":
        return raw
    raw[rng.choice(n, m, replace=False)] = np.eye(m)
    for i in np.flatnonzero(rng.random(n) < 0.3):
        raw[i] = rng.uniform(0.1, 3.0) * np.eye(m)[rng.integers(m)]
    T = rng.normal(size=(m, m))
    assume(abs(np.linalg.det(T)) > 0.1)
    return raw @ T


@given(subspaces(), st.integers(0, 2**32 - 1))
def test_search_matches_exhaustive_scan(raw, scale_seed):
    assume(rank(raw) == raw.shape[1])
    F = find_nonneg_factorization(SubspaceBasis(raw))
    pivots = F.pivot_rows if F is not None else None
    assert pivots == exhaustive_first_hit(raw)
    assert (F is not None) == nonneg_projector_exists(raw)
    # Scaling states by a positive diagonal moves no decision: one common
    # factor over 24 decades times a factor per state over 4 decades. The
    # search tests signs on unit rows, which the scaling leaves unchanged
    # up to rounding.
    rng = np.random.default_rng(scale_seed)
    d = 10.0 ** (rng.uniform(-12.0, 12.0) + rng.uniform(-2.0, 2.0, raw.shape[0]))
    scaled = find_nonneg_factorization(SubspaceBasis(d[:, None] * raw))
    assert (scaled.pivot_rows if scaled is not None else None) == pivots


@st.composite
def coordinate_bases(draw):
    """Raw reachable or observable bases of generated systems with n <= 10
    that are exactly zero outside as many rows as they have columns: the
    coordinate subspace of the reachable or observable support."""
    n = draw(st.integers(2, 10))
    S = generate_system(GeneratorSpec(n, draw(st.integers(1, 2)), 1, draw(st.integers(1, n)),
                                      draw(st.sampled_from([0.3, 0.6, 1.0])),
                                      draw(st.integers(0, 2**32 - 1))))
    try:
        basis = reachable_subspace(S.transpose() if draw(st.booleans()) else S)
    except ZeroMatrixError:
        assume(False)
    assume(np.count_nonzero(basis.basis.any(axis=1)) == basis.dimension)
    return basis


@given(coordinate_bases())
def test_coordinate_basis_factors_by_its_selector(basis):
    support = np.flatnonzero(basis.basis.any(axis=1))
    F = find_nonneg_factorization(basis)
    selector = np.zeros_like(basis.basis)
    selector[support, np.arange(support.size)] = 1.0
    assert F.pivot_rows == support.tolist()
    assert np.array_equal(F.J, selector) and np.array_equal(F.Jdag, selector.T)
    assert F.Jdag.flags.c_contiguous
    assert exhaustive_first_hit(basis.basis) == support.tolist()
    # Returned without a recheck, the selector passes it anyway.
    assert verify_factorization(F, basis)


@st.composite
def system_bases(draw):
    """Raw reachable bases of generated, planted (reachable dimension n/2,
    two inputs, density 0.6) and lumped systems with n <= 40, half of them
    after a diagonal similarity D A D^-1, D B, C D^-1 with log10 d
    uniform in [-3, 3]."""
    kind = draw(st.sampled_from(["generated", "planted", "lumped"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "lumped":
        n = draw(st.integers(4, 40))
        r = draw(st.integers(3, n))
        S = lumped_system(n, r, draw(st.integers(2, r - 1)), seed)
    else:
        n = draw(st.integers(2, 40))
        spec = (GeneratorSpec(n, 2, 2, max(1, n // 2), 0.6, seed) if kind == "planted" else
                GeneratorSpec(n, draw(st.integers(1, 2)), 1, draw(st.integers(1, n)),
                              draw(st.sampled_from([0.3, 0.6, 1.0])), seed))
        S = generate_system(spec)
    if draw(st.booleans()):
        d = 10.0 ** np.random.default_rng(seed).uniform(-3.0, 3.0, n)
        S = PositiveLtiSystem(d[:, None] * S.A / d, d[:, None] * S.B, S.C / d)
    try:
        return reachable_subspace(S)
    except ZeroMatrixError:
        assume(False)


@given(system_bases())
def test_search_proposes_the_cone_walk_rows(basis):
    # Successive projection and the per-row cone walk find the same
    # lowest-index row on each extreme ray; exhaustive_first_hit would
    # take C(n, m) subsets at these sizes.
    F = find_nonneg_factorization(basis)
    assert (F.pivot_rows if F is not None else None) == cone_walk_pivots(basis.basis)


@st.composite
def lumped_bases(draw):
    """Reachable bases of lumped systems with n <= 16 and q >= 3: r > q
    extreme rays in their row cone, so no minimal factorization."""
    n = draw(st.integers(4, 16))
    r = draw(st.integers(4, n))
    return reachable_subspace(lumped_system(n, r, draw(st.integers(3, r - 1)),
                                            draw(st.integers(0, 2**32 - 1))))


def counting_rechecks(basis):
    """(find_nonneg_factorization(basis), calls to verify_factorization it
    made), with floating-point warnings raised as errors."""
    calls = []
    with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings():
        warnings.simplefilter("error")
        patch.setattr(factorize, "verify_factorization",
                      lambda *args: calls.append(args) or verify_factorization(*args))
        F = find_nonneg_factorization(basis)
    return F, len(calls)


@given(lumped_bases())
def test_lumped_search_ends_at_the_sign_test(basis):
    # The sign test rejects every lumped pick, so the search never builds
    # a pair for verify_factorization to recheck.
    assert counting_rechecks(basis) == (None, 0)


@pytest.mark.parametrize("eps", [0.0, 1e-17, 1e-300])
def test_singular_picked_block_fails_without_a_warning(eps):
    # Successive projection picks rows 1, 2 and 3; row 3 is within eq_tol
    # of row 0's ray and stands for it, and rows 0-2 are singular (eps =
    # 0) or singular to working precision: no factorization, no warning.
    V = SubspaceBasis(np.array([[1.0, 1.0, eps], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                [1.0, 1.0, 5e-9]]))
    assert counting_rechecks(V) == (None, 0)


def test_search_stops_when_projection_leaves_no_row():
    # Row 2 is below the rank threshold of the peak and counts as zero, so
    # the kept rows lie on one ray: after the first pick every projected
    # row is exactly zero, the search stops short of m picks and returns
    # None without a warning, as the cone walk does.
    V = SubspaceBasis([[2e-10, 1.0], [2e-10, 1.0], [9e-11, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_nonneg_factorization(V) is None
    assert cone_walk_pivots(V.basis) is None


class TestVerify:
    V = SubspaceBasis(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]]))

    def test_accepts_search_output(self):
        F = find_nonneg_factorization(self.V)
        assert verify_factorization(F, self.V)

    def test_accepts_rescaled_pair(self):
        F = find_nonneg_factorization(self.V)
        scaled = Factorization(F.J * 2.0, F.Jdag / 2.0, F.pivot_rows)
        assert verify_factorization(scaled, self.V)

    def test_rejects_mixed_sign_left_inverse(self):
        F = find_nonneg_factorization(self.V)
        mixed = np.linalg.solve(F.J.T @ F.J, F.J.T)
        mixed[0, 2] -= 1.0
        mixed[0, 0] += 1.0  # still a left inverse? no: perturbed on purpose
        bad = Factorization(F.J, mixed, F.pivot_rows)
        assert not verify_factorization(bad, self.V)

    def test_rejects_negative_factor_whatever_the_pivot_rows(self):
        # pivot_rows naming the zero row 2 does not excuse the negative
        # entry of J, though Jdag @ J = I and J @ Jdag fixes the basis.
        V = SubspaceBasis(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, -1.0]]))
        Jdag = np.zeros((2, 4))
        Jdag[[0, 1], [0, 1]] = 1.0
        assert not verify_factorization(Factorization(V.basis, Jdag, [0, 2]), V)

    def test_rejects_wrong_image(self):
        F = find_nonneg_factorization(self.V)
        other = SubspaceBasis(np.eye(4)[:, :2])
        assert not verify_factorization(F, other)

    def test_verdicts_are_python_bools(self):
        F = find_nonneg_factorization(self.V)
        assert verify_factorization(F, self.V) is True
        assert verify_factorization(F, SubspaceBasis(np.eye(4)[:, :2])) is False

    def test_rejects_factors_of_the_wrong_shape(self):
        F = find_nonneg_factorization(self.V)
        for J, Jdag in ((F.J[:, :1], F.Jdag[:1]), (F.J, F.J), (F.J[:3], F.Jdag[:, :3])):
            assert verify_factorization(Factorization(J, Jdag, F.pivot_rows), self.V) is False

    def test_rejects_a_pair_whose_jdag_j_is_not_the_identity(self):
        F = find_nonneg_factorization(self.V)
        doubled = Factorization(F.J, 2.0 * F.Jdag, F.pivot_rows)
        assert verify_factorization(doubled, self.V) is False
