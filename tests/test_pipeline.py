"""End-to-end reduction pipeline: route selection, verification, duality,
and the perturbation experiment."""
import inspect
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import posred.pipeline
import posred.possys
from posred import (DimensionMismatchError, Factorization, GeneratorSpec, NotInvariantError,
                    NotNonnegativeError, PerturbationRecord, PositiveLtiSystem, Tolerances,
                    algebra_factorization, equivalent, find_nonneg_factorization,
                    generate_system, left_inverse, markov_match,
                    perturbation_experiment, project, reachable_subspace, reduce,
                    rpmr_observable, rpmr_reachable)
from conftest import (algebraic_reduction, arnoldi_reachable_basis, cascade_system, d3_scaled,
                      exact_markov_parameters, exact_verdict, exactly_scaled, exhaustive_first_hit,
                      integer_lumped_system, integer_planted_system, integer_sweep,
                      krylov_stacks_built, lumped_system, observability_matrix,
                      r600_system, rank, sign_probe_draw, stubborn_span, swap_system)

TOL = Tolerances()


def stacked(systems):
    """The (A, B, C) stacks of the given systems along a leading batch axis."""
    return tuple(np.stack([getattr(P, name) for P in systems]) for name in "ABC")


def cycling_full_closure_system():
    """Reachable space of dimension 2 in R^3 whose algebra closure is all
    of R^3 (three distinct transformed coordinate rows), while the minimal
    route succeeds at the first row pair."""
    A = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [1.5, 0.0, 0.5]])
    B = np.array([[1.0], [0.0], [1.0]])
    return PositiveLtiSystem(A, B)


def stubborn_system():
    """Positive system whose reachable space admits no non-negative
    factorization and whose algebra closure is full: genuinely irreducible
    by both routes."""
    return PositiveLtiSystem(np.zeros((4, 4)), stubborn_span())


class TestReachableRoutes:
    def test_cascade_minimal(self):
        S = cascade_system()
        report = rpmr_reachable(S)
        assert report.method == "minimal"
        assert (report.original_dim, report.reduced_dim) == (4, 2)
        np.testing.assert_allclose(report.reduced_system.A, [[1.0, 1.0], [1.0, 0.0]],
                                   atol=1e-12)
        np.testing.assert_allclose(report.reduced_system.B, [[1.0], [1.0]], atol=1e-12)
        assert equivalent(S, report.reduced_system)

    def test_swap_minimal(self):
        report = rpmr_reachable(swap_system(1.0))
        assert report.method == "minimal"
        assert report.reduced_dim == 2
        np.testing.assert_allclose(report.reduced_system.A, [[0.0, 1.0], [1.0, 0.0]],
                                   atol=1e-12)
        np.testing.assert_allclose(report.reduced_system.B, [[0.0], [1.0]], atol=1e-12)
        np.testing.assert_allclose(report.factorization.Jdag,
                                   [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])

    def test_swap_forced_algebraic(self):
        algebra, reduced = algebraic_reduction(swap_system(1.0))
        assert algebra.dimension == reduced.dim == 3
        np.testing.assert_allclose(reduced.A,
                                   [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                                   atol=1e-12)
        np.testing.assert_allclose(reduced.B, [[0.0], [1.0], [1.0]], atol=1e-12)
        # Both reductions realize the same impulse response.
        minimal = rpmr_reachable(swap_system(1.0))
        assert equivalent(minimal.reduced_system, reduced)

    def test_swap_eps2_minimal_three(self):
        report = rpmr_reachable(swap_system(2.0))
        assert report.method == "minimal"
        assert report.reduced_dim == 3
        np.testing.assert_allclose(report.factorization.J,
                                   [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                    [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]], atol=1e-12)

    def test_fully_reachable_is_left_alone(self):
        S = PositiveLtiSystem([[0.0, 1.0], [1.0, 0.0]], [[1.0], [0.0]])
        report = rpmr_reachable(S)
        assert report.method == "none"
        assert report.reduced_system is None
        assert any("already reachable" in note for note in report.diagnostics)

    def test_zero_input_reduces_to_order_zero(self):
        S = PositiveLtiSystem(np.eye(3), np.zeros((3, 2)), np.ones((1, 3)))
        report = rpmr_reachable(S)
        assert report.method == "minimal"
        assert report.reduced_dim == 0
        assert report.reduced_system.dim == 0
        assert report.reduced_system.num_inputs == 2
        assert equivalent(S, report.reduced_system)

    def test_stubborn_system_gets_no_reduction(self):
        report = rpmr_reachable(stubborn_system())
        assert report.method == "none"
        assert report.reduced_dim == report.original_dim == 4
        assert any("could not be performed" in note for note in report.diagnostics)
        assert report.algebra is not None and report.algebra.dimension == 4

    def test_minimal_where_the_algebra_is_full(self):
        report = rpmr_reachable(cycling_full_closure_system())
        assert report.method == "minimal"
        assert report.reduced_dim == 2
        algebra, reduced = algebraic_reduction(cycling_full_closure_system())
        assert algebra.dimension == reduced.dim == 3

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_minimal_route_past_the_subset_count(self, seed):
        # C(40, 20) ~ 1.4e11 row subsets: out of reach for a subset scan.
        S = generate_system(GeneratorSpec(n=40, inputs=2, outputs=2, reachable_dim=20,
                                          density=0.6, seed=seed))
        # States reachable in the sign graph of (A, B).
        support = S.B.max(axis=1) > 0
        for _ in range(S.dim):
            support |= (S.A[:, support] > 0).any(axis=1)
        assert support.sum() == 20
        F = find_nonneg_factorization(reachable_subspace(S))
        assert F is not None
        assert F.pivot_rows == np.flatnonzero(support).tolist()
        report = rpmr_reachable(S)
        assert report.method == "minimal"
        assert report.reduced_dim == 20

    def test_ill_conditioned_coordinate_basis_reduces_minimally(self):
        # The raw basis is zero outside 11 rows and has condition about
        # 1e11: every row the successive projection picks lies within
        # eq_tol of the ray of row 0, so the search kept one row, found no
        # factors, and the report was algebraic at order 11.
        S = generate_system(GeneratorSpec(n=15, inputs=1, outputs=2, reachable_dim=11,
                                          density=0.9769306985792126, seed=593))
        report = rpmr_reachable(S)
        assert (report.method, report.reduced_dim) == ("minimal", 11)
        assert equivalent(S, report.reduced_system)

    def test_minimal_route_on_weak_coupling(self):
        # A cascade e1 -> e2 -> e3 with couplings 5e-5: the raw reachable
        # basis has rows of norm 1, 5e-5 and 2.5e-9, all on their own ray,
        # and a zero row for the unreachable state.
        A = np.zeros((4, 4))
        A[1, 0] = A[2, 1] = 5e-5
        S = PositiveLtiSystem(A, np.eye(4)[:, :1])
        V = reachable_subspace(S)
        assert np.linalg.norm(V.basis, axis=1).min() == 0.0
        F = find_nonneg_factorization(V)
        assert F is not None and F.pivot_rows == [0, 1, 2]
        report = rpmr_reachable(S)
        assert report.method == "minimal"
        assert report.reduced_dim == 3

    def test_minimal_route_survives_a_diagonal_similarity(self):
        # lumped_system(8, 5, 2, 4) is system 304 of a 600-system check
        # (generated systems 0-299, then lumped_system(4 + i % 7,
        # n // 2 + 1, 2, i)) that transforms each system to D A D^-1,
        # D B U, Y C D^-1 with log10 d uniform in [-5, 5] and log10 u, y
        # in [-1, 1], drawn in system order from default_rng(2026). Its
        # basis rows then span 7.7 decades, and rest @ inv(V0) on the
        # pivot rows of the untransformed system reaches -8.7e-8: past the
        # absolute sign floor, but within it on unit rows. The search
        # returns that entry as 0.
        rng = np.random.default_rng(2026)
        rng.random(sum(3 + i % 8 + 2 * (1 + i % 2) for i in range(300))
                   + sum(8 + i % 7 for i in range(4)))
        d, u, y = (10.0 ** rng.uniform(-k, k, size) for k, size in ((5, 8), (1, 2), (1, 2)))
        S = lumped_system(8, 5, 2, 4)
        T = PositiveLtiSystem(d[:, None] * S.A / d, d[:, None] * S.B * u, y[:, None] * S.C / d)
        plain, scaled = rpmr_reachable(S), rpmr_reachable(T)
        assert plain.method == scaled.method == "minimal"
        assert plain.factorization.pivot_rows == scaled.factorization.pivot_rows == [0, 2]
        assert scaled.factorization.J.min() >= 0.0
        assert equivalent(T, scaled.reduced_system)

    def test_rank_test_on_unit_rows_ignores_row_scale(self):
        # The second of 300 diagonal similarities of lumped_system(9, 5, 2,
        # 110), log10 d uniform in [-5, 5] from default_rng(0): the search
        # picks rows [0, 2], and row 2 has norm 1.7e-10 of the largest
        # entry, so the scaled rows B[[0, 2]] have rank 1 under rank_tol.
        # The sign test and the recheck do not depend on row scale, and
        # the route stays minimal.
        rng = np.random.default_rng(0)
        rng.uniform(-5.0, 5.0, 9)
        d = 10.0 ** rng.uniform(-5.0, 5.0, 9)
        S = lumped_system(9, 5, 2, 110)
        T = PositiveLtiSystem(d[:, None] * S.A / d, d[:, None] * S.B, S.C / d)
        basis = reachable_subspace(T).basis
        assert rank(basis[[0, 2]]) == 1
        plain, scaled = rpmr_reachable(S), rpmr_reachable(T)
        assert plain.method == scaled.method == "minimal"
        assert plain.factorization.pivot_rows == scaled.factorization.pivot_rows == [0, 2]
        assert scaled.factorization.J.min() >= 0.0
        assert equivalent(T, scaled.reduced_system)

    def test_minimal_factors_of_a_short_basis_fall_back_to_the_algebra(self):
        # System 34 of the 600-system check above, after its diagonal
        # similarity at 5 decades: the raw-power basis keeps 2 of the 3
        # reachable directions, so its minimal factors fail reduce's Krylov
        # check; the algebra enlargement has dimension 3 and passes it.
        rng = np.random.default_rng(2026)
        rng.random(sum(3 + i % 8 + 2 * (1 + i % 2) for i in range(34)))
        d, u, y = (10.0 ** rng.uniform(-k, k, size) for k, size in ((5, 5), (1, 1), (1, 1)))
        S = generate_system(GeneratorSpec(5, 1, 1, 3, 0.9, 34))
        T = PositiveLtiSystem(d[:, None] * S.A / d, d[:, None] * S.B * u, y[:, None] * S.C / d)
        basis = reachable_subspace(T)
        assert basis.dimension == 2
        assert find_nonneg_factorization(basis) is not None
        report = rpmr_reachable(T)
        assert (report.method, report.reduced_dim) == ("algebraic", 3)
        assert "do not fix" in report.diagnostics[0]
        assert equivalent(T, report.reduced_system)

    def test_short_basis_whose_algebra_also_fails_is_not_reduced(self):
        # Unscaled, this system reduces minimally to order 2. After the
        # diagonal similarity, column selection keeps B alone, the minimal
        # factors of that basis fail reduce, and so does the projector of
        # its one-dimensional algebra: the pipeline reports no reduction
        # at full order rather than one that reduce did not certify.
        S = generate_system(GeneratorSpec(3, 1, 1, 2, 0.9, 54))
        assert rpmr_reachable(S).reduced_dim == 2
        d = np.array([1e-5, 1e-3, 1e4])
        T = PositiveLtiSystem(d[:, None] * S.A / d, d[:, None] * S.B, S.C / d)
        basis = reachable_subspace(T)
        assert basis.dimension == 1
        assert find_nonneg_factorization(basis) is not None
        report = rpmr_reachable(T)
        assert (report.method, report.reduced_dim) == ("none", 3)
        assert report.reduced_system is None and report.factorization is None
        assert report.algebra.dimension == 1
        assert "exactness check" in report.diagnostics[-1]
        algebra, reduced = algebraic_reduction(T)
        assert algebra.dimension == 1 and reduced is None

    @pytest.mark.parametrize("n, r, q, seed", [(12, 6, 4, 0), (8, 5, 3, 1)])
    @pytest.mark.parametrize("scale", [1e-9, 1e-12])
    def test_failed_algebraic_route_ends_in_a_report(self, n, r, q, seed, scale):
        # With B as given or scaled by 1e-6 these systems reduce
        # algebraically to order r. Scaled by 1e-9 the algebra's projector
        # failed reduce's check, and by 1e-12 the basis fell below the
        # absolute sign tolerance, while the closure's support was taken
        # against that floor. Either way the pipeline returns a report;
        # any reduction in it must be exact.
        S = lumped_system(n, r, q, seed)
        T = PositiveLtiSystem(S.A, S.B * scale, S.C)
        report = rpmr_reachable(T)
        if report.method == "none":
            assert report.reduced_dim == n and report.reduced_system is None
            assert report.diagnostics[-1].startswith("RPMR could not be performed")
        else:
            assert equivalent(T, report.reduced_system)

    def test_forgiven_sign_that_breaks_exactness_leaves_the_minimal_route(self):
        # Row 3 is 1e4 (row 0 + row 1) - 1e-7 row 2: -7e-12 on unit rows,
        # which the sign test forgives, but zeroing it moves the third
        # basis column by 1e-7 of its peak. The row cone has four extreme
        # rays, so no non-negative factorization exists; a mixed-sign J
        # would give C J < 0, and a zeroed one would fail the exactness
        # test of reduce.
        B = np.array([[1.0, 0.0, 1e-10], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1e4, 1e4, 9e-7]])
        S = PositiveLtiSystem(np.zeros((4, 4)), B, np.array([[0.0, 0.0, 0.0, 1.0]]))
        assert find_nonneg_factorization(reachable_subspace(S)) is None
        report = rpmr_reachable(S)
        assert (report.method, report.reduced_dim) == ("none", 4)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_nonnegative_bases_need_no_cone_solve(self, seed):
        # The rows of a non-negative basis have positive sums, so neither
        # the search nor choose_p refuses one with NotNonnegativeError,
        # which each raises where a cone solve would be needed.
        for n in range(12, 17):
            S = generate_system(GeneratorSpec(n, 2, 2, n // 2, 0.6, seed))
            assert rpmr_reachable(S).method == "minimal"
        for n, r, q in ((12, 6, 4), (14, 8, 5), (16, 8, 6)):
            report = rpmr_reachable(lumped_system(n, r, q, seed))
            assert (report.method, report.reduced_dim) == ("algebraic", r)
        # R600 seeds 0-99 under D5, a third of them per id, on both spaces.
        for s in range(seed, 100, 3):
            S = d3_scaled(r600_system(s), s, 5)
            rpmr_reachable(S)
            rpmr_observable(S)

    @pytest.mark.parametrize("n, r, q, seed", [(10, 5, 3, 2), (7, 6, 3, 5), (9, 8, 7, 1)])
    def test_lumped_system_reduces_to_its_block_count(self, n, r, q, seed):
        # Products of powers of these bases lose rank numerically, so a
        # closure built by multiplying basis columns undercounts the r
        # blocks of parallel rows.
        report = rpmr_reachable(lumped_system(n, r, q, seed))
        assert report.method == "algebraic"
        assert report.reduced_dim == r

    def test_minimal_never_beaten_by_algebraic(self):
        for eps in (1.0, 2.0):
            minimal = rpmr_reachable(swap_system(eps))
            assert minimal.reduced_dim <= algebraic_reduction(swap_system(eps))[1].dim


class TestObservable:
    def test_self_dual_system(self):
        A = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        B = np.array([[1.0], [0.0], [0.0]])
        S = PositiveLtiSystem(A, B, B.T)
        reach = rpmr_reachable(S)
        obs = rpmr_observable(S)
        assert obs.method == reach.method
        assert obs.reduced_dim == reach.reduced_dim
        np.testing.assert_allclose(obs.reduced_system.A, reach.reduced_system.A.T)

    def test_fully_observable_is_left_alone(self):
        S = PositiveLtiSystem([[0.0, 1.0], [1.0, 0.0]], [[1.0], [1.0]], np.eye(2))
        report = rpmr_observable(S)
        assert report.method == "none"
        assert any("already observable" in note for note in report.diagnostics)

    def test_tiny_negative_entry_has_no_system_at_any_tolerance(self):
        # -5e-7 is below 0 at any tolerance: the constructor takes none, so
        # neither the system nor its dual exists to be reduced.
        assert "tol" not in inspect.signature(PositiveLtiSystem).parameters
        for A in ([[1.0, -5e-7], [0.0, 1.0]], [[1.0, 0.0], [-5e-7, 1.0]]):
            with pytest.raises(NotNonnegativeError, match="^system is not positive: A has "
                                                       "negative entries$"):
                PositiveLtiSystem(A, [[1.0], [0.0]], [[1.0, 1.0]])

    def test_planted_unobservable_block(self):
        reduced_count = 0
        for seed in range(12):
            spec = GeneratorSpec(n=5, inputs=2, outputs=1, reachable_dim=2,
                                 density=0.8, seed=seed)
            S = generate_system(spec).transpose()
            report = rpmr_observable(S)
            observable_rank = rank(observability_matrix(S))
            assert report.method != "none"
            assert report.reduced_dim >= observable_rank
            if report.method == "minimal":
                assert report.reduced_dim == observable_rank
                reduced_count += 1
        assert reduced_count > 5

    def test_duality_field_by_field(self):
        for seed in range(20):
            planted = seed % 2 == 0
            spec = GeneratorSpec(n=4, inputs=2, outputs=2,
                                 reachable_dim=2 if planted else None,
                                 density=0.8, seed=seed)
            S = generate_system(spec).transpose() if planted else generate_system(spec)
            obs = rpmr_observable(S)
            dual = rpmr_reachable(S.transpose())
            assert obs.method == dual.method
            assert obs.original_dim == dual.original_dim
            assert obs.reduced_dim == dual.reduced_dim
            assert (obs.factorization is None) == (dual.factorization is None)
            if obs.factorization is not None:
                np.testing.assert_array_equal(obs.factorization.J, dual.factorization.Jdag.T)
                np.testing.assert_array_equal(obs.factorization.Jdag, dual.factorization.J.T)
                np.testing.assert_array_equal(obs.reduced_system.A, dual.reduced_system.A.T)
                np.testing.assert_array_equal(obs.reduced_system.B, dual.reduced_system.C.T)
                np.testing.assert_array_equal(obs.reduced_system.C, dual.reduced_system.B.T)
                assert equivalent(S, obs.reduced_system)

    def test_observable_factors_reproduce_the_reduction(self):
        spec = GeneratorSpec(n=5, inputs=2, outputs=1, reachable_dim=2,
                             density=0.9, seed=3)
        S = generate_system(spec).transpose()
        report = rpmr_observable(S)
        assert report.method != "none"
        Ar, Br, Cr = project(S, report.factorization.J, report.factorization.Jdag)
        np.testing.assert_allclose(Ar, report.reduced_system.A, atol=1e-12)
        np.testing.assert_allclose(Br, report.reduced_system.B, atol=1e-12)
        np.testing.assert_allclose(Cr, report.reduced_system.C, atol=1e-12)


@st.composite
def observable_side_systems(draw):
    """Systems with n <= 8 and a proper observable space: the duals
    (A^T, C^T, B^T) of generated, planted (reachable dimension n/2, two
    inputs and outputs, density 0.6) and lumped systems."""
    kind = draw(st.sampled_from(["generated", "planted", "lumped"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "lumped":
        n = draw(st.integers(4, 8))
        r = draw(st.integers(3, n))
        T = lumped_system(n, r, draw(st.integers(2, r - 1)), seed)
    else:
        n = draw(st.integers(2, 8))
        T = generate_system(
            GeneratorSpec(n, 2, 2, max(1, n // 2), 0.6, seed) if kind == "planted" else
            GeneratorSpec(n, draw(st.integers(1, 2)), draw(st.integers(1, 2)),
                          draw(st.integers(1, n)), draw(st.sampled_from([0.3, 0.6, 1.0])), seed))
    S = PositiveLtiSystem(T.A.T, T.C.T, T.B.T)
    O = observability_matrix(S)
    assume(O.any() and rank(O) < n)
    return S, O


@given(observable_side_systems())
def test_observable_reports_match_the_exhaustive_scan_of_the_observability_matrix(case):
    # The oracle works on S alone. Non-negative factors with Jdag J = I
    # reduce S exactly on the observable side iff O J Jdag = O, that is iff
    # the non-negative pair (Jdag^T, J^T) fixes the row space of O. So the
    # first row subset that the exhaustive scan accepts on a basis of that
    # space gives the report's pivots, at the order rank(O), and no subset
    # means no minimal report: the observable search is complete.
    S, O = case
    q = rank(O)
    hit = exhaustive_first_hit(np.linalg.svd(O.T)[0][:, :q])
    report = rpmr_observable(S)
    assert (report.method == "minimal") == (hit is not None)
    if hit is not None:
        F = report.factorization
        assert (report.reduced_dim, F.pivot_rows) == (q, hit)
        assert (abs(O @ F.J @ F.Jdag - O) <= 1e-8 * abs(O).max(axis=1, keepdims=True)).all()


@pytest.mark.parametrize("system, order", [
    (lambda: r600_system(22), 12), (lambda: r600_system(156), 14),
    (lambda: r600_system(361), 11), (lambda: d3_scaled(r600_system(586), 586), 11)],
    ids=["R600-22", "R600-156", "R600-361", "D3-586"])
def test_algebra_equal_to_the_observable_space_is_a_minimal_reduction(system, order):
    # The search misses these spaces: its sign test sees entries just past
    # -nonneg_tol. Their algebra enlargement is the space itself, so its
    # factors are a non-negative minimal pair, and no diagnostic may claim
    # that none exists. The algebraic reduction alone has the same order.
    S = system()
    assert find_nonneg_factorization(reachable_subspace(S.transpose())) is None
    report = rpmr_observable(S)
    assert (report.method, report.reduced_dim) == ("minimal", order)
    assert report.algebra.dimension == report.basis.dimension == order
    assert report.diagnostics[0] == (f"the algebra enlargement equals the observable space "
                                     f"({order} dimensions); its factors are a non-negative "
                                     f"minimal pair")
    assert not any("admits non-negative factors" in line for line in report.diagnostics)
    F = report.factorization
    assert F.J.min(initial=0.0) >= 0.0 and F.Jdag.min(initial=0.0) >= 0.0
    assert equivalent(S, report.reduced_system)
    assert algebraic_reduction(S.transpose())[1].dim == order


def rank_one_chain_system() -> PositiveLtiSystem:
    """B = (1, 0, 1e4)^T and A = u w^T with u = (1e-9, 1, 5e-6), w = (0, 0, 1e-4),
    C = (0, 0, 1): its 2-dimensional algebra enlargement fails reduce."""
    A = np.outer([1e-9, 1.0, 5e-6], [0.0, 0.0, 1e-4])
    return PositiveLtiSystem(A, [[1.0], [0.0], [1e4]], [[0.0, 0.0, 1.0]])


FULL_ALGEBRA = "RPMR could not be performed: the algebra enlargement has full dimension"


@pytest.mark.parametrize("rpmr, system, refusal, full", [
    (rpmr_reachable, rank_one_chain_system, "no projector", False),
    *((rpmr_reachable, lambda s=s: d3_scaled(r600_system(s), s, 5), "do not fix", False)
      for s in (281, 426)),
    *((rpmr_observable, lambda s=s: d3_scaled(r600_system(s), s, 5), refusal, s == 195)
      for s, refusal in ((155, "do not fix"), (195, "no projector"), (273, "do not fix"),
                         (524, "no projector"), (564, "do not fix")))],
    ids=["rank-one-chain", "D5-281", "D5-426", "D5-155-observable", "D5-195-observable",
         "D5-273-observable", "D5-524-observable", "D5-564-observable"])
def test_rejected_algebra_of_the_space_is_not_called_a_minimal_pair(rpmr, system, refusal, full):
    # The algebra enlargement equals the target space, but reduce rejects
    # its factors: the report is "none", keeps the search's refusal, and
    # does not claim that the factors are a minimal pair. D5-195's
    # (observable) closure equalled the space only while an absolute floor
    # kept a row off its support; on every nonzero row it has full
    # dimension, and the report says so.
    report = rpmr(system())
    q = report.basis.dimension
    assert (report.method, report.reduced_dim) == ("none", report.original_dim)
    assert refusal in report.diagnostics[0]
    if full:
        assert report.algebra.dimension == report.original_dim
        assert report.diagnostics[1:] == (FULL_ALGEBRA,)
    else:
        assert report.diagnostics[1:3] == (
            f"algebra enlargement: {q} -> {q} dimensions",
            f"RPMR could not be performed: the projector of the algebra enlargement fails the "
            f"exactness check (it does not fix the {report.space} space)")
    assert not any("minimal pair" in line for line in report.diagnostics)


@pytest.mark.parametrize("rpmr, seed, forced", [
    pytest.param(rpmr_reachable, 277, False, id="D5-277"),
    pytest.param(rpmr_observable, 380, False, id="D5-380-observable"),
    pytest.param(rpmr_observable, 586, False, id="D5-586-observable"),
    pytest.param(rpmr_reachable, 277, True, id="D5-277-forced"),
    pytest.param(rpmr_observable, 380, True, id="D5-380-observable-forced"),
    pytest.param(rpmr_observable, 586, True, id="D5-586-observable-forced"),
    pytest.param(rpmr_reachable, 37, True, id="D5-37-forced")])
def test_d5_reports_reproduce_the_markov_sequence(rpmr, seed, forced):
    # An absolute Krylov residual certified the reports of the first three,
    # minimal of order 2 of 4, algebraic 9 of 10 and minimal 10 of 13, and
    # their algebraic reductions at the same orders; equivalent rejects
    # each reduced system. The componentwise check refuses the projectors
    # of seeds 277 and 586, so those reports reduce nothing. Seed 380's
    # closure (observable) has full dimension once every nonzero row of the
    # basis is on its support, so it reduces nothing either, and its
    # forced reduction is the whole system. Seed 37's closure lost a
    # dimension to an absolute floor; on every nonzero row it has the 4 of
    # the basis, and reduce accepts it (see below).
    S = d3_scaled(r600_system(seed), seed, 5)
    T = S.transpose() if rpmr is rpmr_observable else S
    if forced:
        algebra, reduced = algebraic_reduction(T)
        if seed in (277, 586):
            assert reduced is None
        else:
            assert algebra.dimension == {380: S.dim, 37: 4}[seed]
            assert reduced.dim == algebra.dimension and equivalent(T, reduced)
    else:
        report = rpmr(S)
        assert (report.method, report.reduced_dim) == ("none", report.original_dim)
        closing = FULL_ALGEBRA if seed == 380 else "fails the exactness check"
        assert closing in report.diagnostics[-1]


@pytest.mark.parametrize("rpmr, seed", [
    (rpmr_reachable, 37), (rpmr_reachable, 43), (rpmr_observable, 43), (rpmr_reachable, 92),
    (rpmr_reachable, 251)],
    ids=["D5-37", "D5-43", "D5-43-observable", "D5-92", "D5-251"])
def test_forced_closure_smaller_than_the_basis_is_refused(rpmr, seed):
    # At five decades of scaling the closure of these bases lost
    # dimensions while an absolute floor kept their small rows off its
    # support (an absolute Krylov residual accepted seed 37's at order 3).
    # On every nonzero row the closure has the basis's dimension, and
    # reduce accepts it. An algebra smaller than the basis cannot contain
    # the space: with one generator dropped, reduce refuses its projector
    # by itself, so no guard on the dimensions is needed. Each report
    # stays sound.
    S = d3_scaled(r600_system(seed), seed, 5)
    T = S.transpose() if rpmr is rpmr_observable else S
    algebra, reduced = algebraic_reduction(T)
    assert algebra.dimension == reachable_subspace(T).dimension
    assert reduced is not None and equivalent(T, reduced)
    F = algebra_factorization(algebra)
    with pytest.raises(NotInvariantError):
        reduce(T, Factorization(F.J[:, 1:], F.Jdag[1:], F.pivot_rows[1:]))
    report = rpmr(S)
    assert report.reduced_system is None or equivalent(S, report.reduced_system)


@given(st.integers(0, 599), st.sampled_from([3, 5]), st.booleans())
@example(277, 5, False)
@example(380, 5, True)
def test_scaled_reports_keep_every_exact_markov_coefficient(seed, decades, observable):
    # On D3 and D5 systems with n <= 12, every reduction reported matches
    # each coefficient C A^k B with k <= n + r entrywise within eq_tol, in
    # exact rational arithmetic on the stored doubles. An absolute Krylov
    # residual certified D5 seeds 277 and 380 (observable), whose reports
    # missed by 0.42 and 1.0 of an entry.
    S = d3_scaled(r600_system(seed), seed, decades)
    assume(S.dim <= 12)
    report = (rpmr_observable if observable else rpmr_reachable)(S)
    if report.method == "none":
        return
    R = report.reduced_system
    horizon = S.dim + R.dim
    eq_tol = Fraction(TOL.eq_tol)
    for M, N in zip(exact_markov_parameters(S.A, S.B, S.C, horizon),
                    exact_markov_parameters(R.A, R.B, R.C, horizon)):
        for x, y in zip(M.ravel(), N.ravel()):
            assert abs(x - y) <= eq_tol * max(abs(x), abs(y))


def test_search_factors_with_rounding_zeroed_keep_every_markov_coefficient():
    # D3 seed 26, observable side: the search's J = V inv(V0) carries the
    # rounding of inv(V0) where the exact entry is 0. With those entries
    # left in, reduce's Krylov fallback accepted a pair whose reduced
    # system is not equivalent; zeroed in unit-row terms, the pair passes
    # the invariance test, and no scaled stack is built.
    S = d3_scaled(r600_system(26), 26)
    with krylov_stacks_built() as built:
        report = rpmr_observable(S)
    assert (report.method, report.reduced_dim) == ("minimal", 11)
    assert built["scaled full"] == 0
    assert equivalent(S, report.reduced_system)


def routes(S: PositiveLtiSystem) -> list[tuple[str, int]]:
    return [(r.method, r.reduced_dim) for r in (rpmr_reachable(S), rpmr_observable(S))]


def test_relabelling_moves_no_report():
    # Relabelling the states (P A P^T, P B, C P^T), or the inputs and the
    # outputs, describes the same system: on every R600 system, each of
    # three relabellings keeps (method, reduced_dim) on both spaces. For
    # system s and t in 0..2, default_rng(50000 + 3s + t) draws the kind
    # of relabelling, then its permutations.
    for s in range(600):
        S = r600_system(s)
        expected = routes(S)
        for t in range(3):
            rng = np.random.default_rng(50000 + 3 * s + t)
            if rng.integers(2):
                P = rng.permutation(S.dim)
                T = PositiveLtiSystem(S.A[P][:, P], S.B[P], S.C[:, P])
            else:
                T = PositiveLtiSystem(S.A, S.B[:, rng.permutation(S.num_inputs)],
                                      S.C[rng.permutation(S.num_outputs)])
            assert routes(T) == expected, (s, t)


class TestReportBasis:
    """The report carries the target-space basis that the pipeline built."""

    @pytest.mark.parametrize("S, observable, method", [
        (cascade_system(), False, "minimal"),
        (PositiveLtiSystem(np.zeros((5, 5)),
                           np.vstack([stubborn_span(), stubborn_span()[-1:]])),
         True, "algebraic"),
        (PositiveLtiSystem(np.zeros((5, 5)),
                           np.vstack([stubborn_span(), stubborn_span()[-1:]])),
         False, "algebraic"),
        (stubborn_system(), False, "none"),
        (PositiveLtiSystem([[0.0, 1.0], [1.0, 0.0]], [[1.0], [0.0]]), False, "none"),
    ])
    def test_reachable_basis(self, S, observable, method):
        # On the observable side of S^T the basis is that of S.
        report = rpmr_observable(S.transpose()) if observable else rpmr_reachable(S)
        assert report.method == method
        np.testing.assert_array_equal(report.basis.basis, reachable_subspace(S).basis)

    def test_observable_basis_is_that_of_the_transposed_system(self):
        S = swap_system(1.0).transpose()
        report = rpmr_observable(S)
        assert report.method == "minimal"
        np.testing.assert_array_equal(report.basis.basis,
                                      reachable_subspace(S.transpose()).basis)

    def test_zero_input_map_has_no_basis(self):
        S = PositiveLtiSystem(np.eye(3), np.zeros((3, 2)), np.ones((1, 3)))
        assert rpmr_reachable(S).basis is None
        assert rpmr_observable(S.transpose()).basis is None


def scaled_input(S: PositiveLtiSystem, scale: float) -> PositiveLtiSystem:
    return PositiveLtiSystem(S.A, S.B * scale, S.C)


NO_PROJECTOR = "no projector onto the reachable space admits non-negative factors"
NO_EXACT_ALGEBRA = ("RPMR could not be performed: the projector of the algebra enlargement "
                    "fails the exactness check (it does not fix the reachable space)")


@pytest.mark.parametrize("rpmr, system, method, lines", [
    (rpmr_reachable, lambda: PositiveLtiSystem(np.eye(3), np.zeros((3, 2)), np.ones((1, 3))),
     "minimal", ["reachable space is trivial (zero input map); reduced to order 0"]),
    (rpmr_reachable, lambda: PositiveLtiSystem([[0.0, 1.0], [1.0, 0.0]], [[1.0], [0.0]]),
     "none", ["already reachable: the reachable space has full dimension"]),
    (rpmr_reachable, lambda: generate_system(GeneratorSpec(12, 2, 2, 6, 0.6, 0)), "minimal", []),
    (rpmr_reachable, lambda: r600_system(8), "minimal", []),
    (rpmr_reachable, lambda: lumped_system(12, 6, 4, 0), "algebraic",
     [NO_PROJECTOR, "algebra enlargement: 4 -> 6 dimensions"]),
    (rpmr_observable, lambda: r600_system(22), "minimal",
     ["the algebra enlargement equals the observable space (12 dimensions); its factors are "
      "a non-negative minimal pair"]),
    (rpmr_reachable, stubborn_system, "none", [NO_PROJECTOR, FULL_ALGEBRA]),
    (rpmr_reachable, rank_one_chain_system, "none",
     [NO_PROJECTOR, "algebra enlargement: 2 -> 2 dimensions", NO_EXACT_ALGEBRA]),
    (rpmr_reachable, lambda: d3_scaled(r600_system(281), 281, 5), "none",
     ["non-negative factors of the reachable basis do not fix the reachable space",
      "algebra enlargement: 2 -> 2 dimensions", NO_EXACT_ALGEBRA]),
    (rpmr_observable, lambda: cascade_system().transpose(), "minimal", [])],
    ids=["trivial", "already-full", "minimal-selector", "minimal-search", "algebraic",
         "equals-the-space", "none-full-algebra",
         "none-inexact-algebra", "none-inexact-factors-and-algebra", "observable"])
def test_reports_carry_their_lines_as_a_tuple_of_strings(rpmr, system, method, lines):
    # Each report is built once, with all of its lines: its diagnostics
    # are a tuple, which no later step can change.
    report = rpmr(system())
    assert report.method == method
    assert type(report.diagnostics) is tuple
    assert all(type(line) is str for line in report.diagnostics)
    assert report.diagnostics == tuple(lines)


def short_basis_system() -> PositiveLtiSystem:
    """The system of test_short_basis_whose_algebra_also_fails_is_not_reduced,
    on which reduce runs twice and rejects both factor pairs."""
    S = generate_system(GeneratorSpec(3, 1, 1, 2, 0.9, 54))
    d = np.array([1e-5, 1e-3, 1e4])
    return PositiveLtiSystem(d[:, None] * S.A / d, d[:, None] * S.B, S.C / d)


@pytest.mark.parametrize("rpmr, system, reduce_calls, stacks", [
    (rpmr_reachable, cascade_system, 1, {"raw short": 1}),
    (rpmr_reachable, lambda: lumped_system(12, 6, 4, 0), 1, {"raw full": 1}),
    (rpmr_observable, lambda: cascade_system().transpose(), 1, {"raw short": 1}),
    (rpmr_reachable, short_basis_system, 2, {"raw short": 1, "raw full": 1, "scaled full": 2})],
    ids=["rpmr_reachable-cascade_system-1", "rpmr_reachable-<lambda>-1",
         "rpmr_observable-<lambda>-1", "rpmr_reachable-short_basis_system-2"])
def test_one_krylov_stack_per_reduction(monkeypatch, rpmr, system, reduce_calls, stacks):
    # A full stack [B, AB, ..., A^(n-1) B] is built only for a fallback,
    # once per fallback. The cascade's support certificate holds on its
    # first blocks and its selector passes reduce's invariance test, so it
    # builds no full stack. The lumped system's support is every state, so
    # its basis takes the raw full stack. The short basis fails the
    # certificate after ceil(q / m) blocks, and both of its factor pairs
    # fail the invariance test, so each of them builds a scaled stack.
    # Both layers stay public functions of possys that the pipeline calls.
    S = system()
    calls = Counter()

    def counted(name):
        original = getattr(posred.possys, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("reachable_subspace", "reduce"):
        monkeypatch.setattr(posred.possys, name, counted(name))
    with krylov_stacks_built() as built:
        rpmr(S)
    assert built == stacks
    assert calls["reachable_subspace"] == 1 and calls["reduce"] == reduce_calls


class TestPerturbationExperiment:
    def factors(self):
        basis = reachable_subspace(cascade_system())
        naive = Factorization(np.asarray(basis.basis), left_inverse(basis.basis), [])
        robust = find_nonneg_factorization(basis)
        return naive, robust

    def test_unperturbed_and_perturbed_records(self):
        naive, robust = self.factors()
        records = perturbation_experiment(
            cascade_system(), naive, robust,
            stacked([cascade_system(0.0), cascade_system(0.1)]))
        assert records[0].naive_positive and records[0].robust_positive
        assert records[0].equivalent
        assert not records[1].naive_positive
        assert records[1].robust_positive and records[1].equivalent

    def test_enlarged_reachable_space_breaks_equivalence(self):
        naive, robust = self.factors()
        S = cascade_system()
        A = S.A.copy()
        A[2, 0] = 0.5  # couples the tail block to the input path
        enlarged = PositiveLtiSystem(A, S.B, S.C)
        record = perturbation_experiment(S, naive, robust, stacked([enlarged]))[0]
        assert record.robust_positive
        assert not record.equivalent

    def test_dimension_mismatch(self):
        naive, robust = self.factors()
        with pytest.raises(Exception):
            perturbation_experiment(cascade_system(), naive, robust,
                                    stacked([swap_system(1.0, C=np.eye(4)[:1])]))

    def test_stack_shapes_must_match_the_system(self):
        naive, robust = self.factors()
        S = cascade_system()
        A, B, C = stacked([S, S])
        for bad in ((A[0], B[0], C[0]), (A, B[:1], C), (A, B, C[:, :1])):
            with pytest.raises(DimensionMismatchError):
                perturbation_experiment(S, naive, robust, bad)

    def test_batch_equals_one_at_a_time(self):
        # Reference: each perturbation projected, sign-tested and compared
        # on its own, with a 2-D markov_match.
        def nonneg(M):
            return M.min(initial=0.0) >= -Tolerances().nonneg_tol

        def one_at_a_time(F_naive, F_robust, perturbations):
            records = []
            for P in perturbations:
                naive = project(P, F_naive.J, F_naive.Jdag)
                robust = project(P, F_robust.J, F_robust.Jdag)
                match = markov_match((P.A, P.B, P.C), robust)
                # A projected triple carries rounding, so it gets the sign floor.
                records.append(PerturbationRecord(all(nonneg(M) for M in naive),
                                                  all(nonneg(M) for M in robust), match))
            return records

        naive, robust = self.factors()
        S = cascade_system()
        rng = np.random.default_rng(3)
        batch = [PositiveLtiSystem(*(np.where(M > 0, M * rng.uniform(1.0, 1.0 + d, M.shape), M)
                                     for M in (S.A, S.B, S.C)))
                 for d in np.repeat([0.0, 1e-9, 1e-3, 0.1, 1.0], 8)]
        A = S.A.copy()
        A[2, 0] = 0.5
        batch.insert(17, PositiveLtiSystem(A, S.B, S.C))
        records = perturbation_experiment(S, naive, robust, stacked(batch))
        assert records == one_at_a_time(naive, robust, batch)
        assert {r.naive_positive for r in records} == {True, False}
        assert {r.equivalent for r in records} == {True, False}

    def test_empty_batch(self):
        naive, robust = self.factors()
        S = cascade_system()
        empty = tuple(M[np.newaxis][:0] for M in (S.A, S.B, S.C))
        assert perturbation_experiment(S, naive, robust, empty) == []


@pytest.mark.parametrize("call", [
    lambda S, F: reduce(S, F),
    lambda S, F: perturbation_experiment(S, F, rpmr_reachable(S).factorization, stacked([S]))],
    ids=["reduce", "perturbation_experiment"])
def test_factors_must_be_n_by_r_and_r_by_n(call):
    # J is 4 x 2 but Jdag is 3 x 4: each shape alone fits the 4-state
    # system, yet the pair has no common r. reduce raised numpy's matmul
    # error on it, and perturbation_experiment took it as naive factors.
    F = Factorization(np.eye(4)[:, :2], np.eye(4)[:3], [])
    with pytest.raises(DimensionMismatchError, match=r"J \(4, 2\) and Jdag \(3, 4\)"):
        call(cascade_system(), F)


def test_soundness_on_planted_systems():
    rng = np.random.default_rng(404)
    produced = 0
    for _ in range(40):
        n = int(rng.integers(2, 8))
        spec = GeneratorSpec(n=n, inputs=int(rng.integers(1, 3)),
                             outputs=int(rng.integers(1, 3)),
                             reachable_dim=int(rng.integers(1, n)) if n > 1 else None,
                             density=float(rng.uniform(0.5, 1.0)),
                             seed=int(rng.integers(0, 2**31)))
        S = generate_system(spec)
        report = rpmr_reachable(S)
        if report.method == "none":
            continue
        produced += 1
        assert equivalent(S, report.reduced_system)
        if report.method == "minimal" and report.reduced_dim > 0:
            assert report.reduced_dim <= algebraic_reduction(S)[1].dim
    assert produced > 25


@given(st.integers(2, 12), st.integers(1, 2), st.integers(1, 2), st.integers(1, 12),
       st.sampled_from([0.3, 0.6, 1.0]), st.integers(0, 2**31 - 1), st.booleans())
def test_order_never_exceeds_the_forced_algebraic_order(n, inputs, outputs, q, density,
                                                        seed, observable):
    # The minimal route reduces to the dimension of the target space, which
    # every algebra enlargement of it contains; when it fails, the report
    # takes the algebraic route itself. Forced onto that route (a refused
    # algebra keeps order n), no system does better than its report.
    S = generate_system(GeneratorSpec(n, inputs, outputs, min(q, n), density, seed))
    order = (rpmr_observable if observable else rpmr_reachable)(S).reduced_dim
    if order:  # else the target space is trivial
        reduced = algebraic_reduction(S.transpose() if observable else S)[1]
        assert order <= (n if reduced is None else reduced.dim)


@st.composite
def reductions(draw):
    """A system and its report: planted generated systems with n <= 10 or
    lumped systems, reduced on the reachable or the observable side (then
    transposed, so that the planted block is unobservable)."""
    if draw(st.booleans()):
        n = draw(st.integers(2, 10))
        S = generate_system(GeneratorSpec(
            n=n, inputs=draw(st.integers(1, 3)), outputs=draw(st.integers(1, 3)),
            reachable_dim=draw(st.none() | st.integers(1, n)),
            density=draw(st.sampled_from([0.3, 0.6, 1.0])),
            seed=draw(st.integers(0, 2**31 - 1))))
    else:
        n = draw(st.integers(4, 10))
        r = draw(st.integers(3, n - 1))
        S = lumped_system(n, r, draw(st.integers(2, r - 1)), draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        S = S.transpose()
        return S, rpmr_observable(S)
    return S, rpmr_reachable(S)


def test_reachable_oracle_is_exact_on_a_planted_system():
    # The reachable space of a planted system is the coordinate subspace
    # of its reachable support, here of dimension n/2 = 30. Without the
    # restriction to that support the oracle reported 31 directions.
    S = generate_system(GeneratorSpec(60, 2, 2, 30, 0.6, 1))
    Q = arnoldi_reachable_basis(S.A, S.B)
    assert Q.shape[1] == 30
    np.testing.assert_allclose(Q.T @ Q, np.eye(30), atol=1e-12)


@given(reductions())
def test_every_reported_reduction_fixes_the_target_space(case):
    # J @ Jdag fixes an orthonormal reachable basis built without the
    # raw powers A^k B (on the observable side, (J @ Jdag)^T fixes the
    # reachable basis of the dual), both factors are non-negative and the
    # reduced triple is the projection (Jdag A J, Jdag B, C J).
    S, report = case
    if report.method == "none":
        return
    F = report.factorization
    if report.space == "reachable":
        Q = arnoldi_reachable_basis(S.A, S.B)
        assert np.abs(Q - F.J @ (F.Jdag @ Q)).max(initial=0.0) <= 1e-8
    else:
        Q = arnoldi_reachable_basis(S.A.T, S.C.T)
        assert np.abs(Q - F.Jdag.T @ (F.J.T @ Q)).max(initial=0.0) <= 1e-8
    assert F.J.min(initial=0.0) >= 0.0 and F.Jdag.min(initial=0.0) >= 0.0
    R = report.reduced_system
    for got, expected in zip((R.A, R.B, R.C), project(S, F.J, F.Jdag)):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


def seed_three_system() -> PositiveLtiSystem:
    """Planted system that reduces minimally to order 3."""
    return generate_system(GeneratorSpec(n=6, inputs=1, outputs=1, reachable_dim=3,
                                         density=0.8, seed=3))


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_input_maps_at_extreme_scales_reduce_as_unscaled(scale):
    # The basis rows' norms overflowed (1e160: the cone solve's SVD did
    # not converge) or underflowed to zero (1e-170: every row was dropped
    # as zero) before the basis was brought to unit scale.
    S = seed_three_system()
    report = rpmr_reachable(PositiveLtiSystem(S.A, S.B * scale, S.C))
    assert (report.method, report.reduced_dim) == ("minimal", 3)
    assert report.factorization.pivot_rows == rpmr_reachable(S).factorization.pivot_rows


@pytest.mark.parametrize("scale", [1e307, 3e307, 5e307])
def test_lumped_input_map_near_the_largest_double_reduces_algebraically(scale):
    # From 3e307 on the column sum of the reachable basis overflowed to
    # inf, and choose_p's reference vector was refused as non-finite.
    S = scaled_input(lumped_system(12, 6, 4, 0), scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = rpmr_reachable(S)
        assert (report.method, report.reduced_dim) == ("algebraic", 6)
        assert equivalent(S, report.reduced_system)


@pytest.mark.parametrize("scale", [1e-9, 1e-12, 1e-300])
def test_lumped_input_map_below_the_sign_tolerance_reduces_algebraically(scale):
    # The closure's support is the basis's nonzero rows, with no floor:
    # with B scaled by 1e-9 it lost rows to nonneg_tol and reduce refused
    # the algebra, and from 1e-12 on it had no support at all.
    S = scaled_input(lumped_system(12, 6, 4, 0), scale)
    report = rpmr_reachable(S)
    assert (report.method, report.reduced_dim) == ("algebraic", 6)
    assert report.algebra.blocks == rpmr_reachable(lumped_system(12, 6, 4, 0)).algebra.blocks
    assert equivalent(S, report.reduced_system)


@given(st.integers(2, 10), st.integers(1, 2), st.sampled_from([0.6, 0.8, 1.0]),
       st.integers(0, 2**31 - 1),
       st.integers(-560, 500) | st.integers(-560, -520) | st.integers(460, 500))
def test_route_and_order_do_not_depend_on_the_scale_of_B(n, inputs, density, seed, k):
    # Multiplying B by 2^k is exact and changes no Markov coefficient's
    # direction, so the route and the reduced order must not move. Below
    # about k = -537 the squares of the basis entries underflow.
    S = generate_system(GeneratorSpec(n=n, inputs=inputs, reachable_dim=max(1, n // 2),
                                      density=density, seed=seed))
    plain = rpmr_reachable(S)
    scaled = rpmr_reachable(PositiveLtiSystem(S.A, np.ldexp(S.B, k), S.C))
    assert (scaled.method, scaled.reduced_dim) == (plain.method, plain.reduced_dim)


@given(st.integers(0, 599), st.sampled_from([None, (12, 6, 4), (8, 5, 3), (14, 8, 5)]),
       st.integers(-600, 600) | st.sampled_from([-600, -100, -30, 600]), st.booleans())
@example(22, None, -30, True)
@example(0, (12, 6, 4), -30, False)
@example(179, None, -100, False)
def test_reports_do_not_depend_on_the_units_of_the_input_or_output_map(seed, lumped, k,
                                                                        observable):
    # R600 system `seed`, or the lumped system of that shape and seed, with
    # B (reachable side) or C (observable side) multiplied by 2^k, which
    # is exact and moves no Krylov direction. The route, the order, J, Jdag
    # and A_r must be the unscaled report's bytes, and B_r (or C_r) exactly
    # 2^k times its own. An absolute floor on the closure's support moved
    # R600 seed 22 (observable) and lumped (12, 6, 4) seed 0 at k = -30,
    # and R600 seed 179 at k = -100.
    S = r600_system(seed) if lumped is None else lumped_system(*lumped, seed)
    if observable:
        rpmr, T = rpmr_observable, PositiveLtiSystem(S.A, S.B, np.ldexp(S.C, k))
    else:
        rpmr, T = rpmr_reachable, PositiveLtiSystem(S.A, np.ldexp(S.B, k), S.C)
    plain, scaled = rpmr(S), rpmr(T)
    assert (scaled.method, scaled.reduced_dim) == (plain.method, plain.reduced_dim)
    if plain.reduced_system is None:
        assert scaled.reduced_system is None
        return
    for M, N in zip(scaled.factorization[:2], plain.factorization[:2]):
        assert M.tobytes() == N.tobytes()
    R, R0 = scaled.reduced_system, plain.reduced_system
    assert R.A.tobytes() == R0.A.tobytes()
    moved, kept = ("C", "B") if observable else ("B", "C")
    assert getattr(R, moved).tobytes() == np.ldexp(getattr(R0, moved), k).tobytes()
    assert getattr(R, kept).tobytes() == getattr(R0, kept).tobytes()


@given(st.integers(0, 2**32 - 1))
# Under a sign floor of 1e-9, draw 0 (entries near -9e-10 and -4e-10) is a
# system whose basis the factorization search refuses, and draw 758 one
# whose reduced system has a negative entry; draw 6 has no negative entry
# and reduces minimally, and algebraically on the observable side.
@example(0)
@example(758)
@example(6)
def test_every_system_the_constructor_accepts_gets_both_reports(seed):
    # The constructor refuses exactly the draws with an entry below 0; every
    # other draw reduces on both spaces without raising, and each reduced
    # system, and the dual, passes the constructor too.
    A, B, C = sign_probe_draw(np.random.default_rng(seed))
    negative = min(A.min(), B.min()) < 0.0
    try:
        S = PositiveLtiSystem(A, B, C)
    except NotNonnegativeError:
        assert negative
        return
    assert not negative
    for report in (rpmr_reachable(S), rpmr_observable(S)):
        if report.reduced_system is not None:
            R = report.reduced_system
            PositiveLtiSystem(R.A, R.B, R.C)
    T = S.transpose()
    PositiveLtiSystem(T.A, T.B, T.C)


def sweep_disagreements(count: int) -> list[tuple]:
    """(draw, space, reported, exact) for every report on the first `count`
    draws of the integer sweep whose (method, reduced_dim) is not
    exact_verdict's."""
    found = []
    for draw, (A, B, C) in enumerate(integer_sweep(count)):
        S = PositiveLtiSystem(A, B, C)
        for space, rpmr, pair in (("reachable", rpmr_reachable, (A, B)),
                                  ("observable", rpmr_observable, (A.T, C.T))):
            report = rpmr(S)
            reported, exact = (report.method, report.reduced_dim), exact_verdict(*pair)
            if reported != exact:
                found.append((draw, space, reported, exact))
    return found


def test_reports_on_the_integer_sweep_are_the_exact_verdicts():
    # 4000 reports on integer data, where the oracle's rank and sign tests
    # are exact: a missed reduction fails here as surely as a wrong one.
    assert sweep_disagreements(2000) == []


def test_successive_projection_oracle_is_the_subset_scan_on_the_integer_sweep():
    # The exact successive-projection path, which serves at any n, against
    # the exhaustive scan, the reference below n = 10: 4000 reports.
    for draw, (A, B, C) in enumerate(integer_sweep(2000)):
        for pair in ((A, B), (A.T, C.T)):
            assert exact_verdict(*pair, spa=True) == exact_verdict(*pair), draw


@pytest.mark.parametrize("recipe, args, exact", [
    (integer_planted_system, (40,), ("minimal", 20)),
    (integer_lumped_system, (40, 12, 8), ("algebraic", 12)),
    (integer_lumped_system, (60, 16, 8), ("algebraic", 16)),
], ids=["planted-40", "lumped-40-12-8", "lumped-60-16-8"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_integer_large_systems_get_the_exact_verdict(recipe, args, exact, seed):
    # Past the subset scan's reach, the successive-projection oracle is
    # the exact reference for integer-built systems. Larger ones (planted
    # n = 60 and 100, lumped (100, 30, 15)) are missed today, so they are
    # not pinned.
    S = recipe(*args, seed)
    assert exact_verdict(S.A, S.B, spa=True) == exact
    report = rpmr_reachable(S)
    assert (report.method, report.reduced_dim) == exact


def test_no_report_on_the_exactly_scaled_sweep_claims_a_lower_order_than_the_exact_one():
    # P17: the first 2000 draws of the integer sweep under exact diagonal
    # similarities by powers of two up to 2^17 per coordinate, which change
    # no verdict. Scaled reports may still miss a reduction (their count is
    # recorded, not pinned here), but none may claim an order below the
    # exact one.
    unscaled, scaled = integer_sweep(2000), exactly_scaled(integer_sweep(2000), 17)
    for draw, ((A, B, C), (A2, B2, C2)) in enumerate(zip(unscaled, scaled)):
        S = PositiveLtiSystem(A2, B2, C2)
        for rpmr, pair in ((rpmr_reachable, (A, B)), (rpmr_observable, (A.T, C.T))):
            report = rpmr(S)
            assert report.reduced_dim >= exact_verdict(*pair)[1], (draw, rpmr.__name__)


def test_a_search_that_finds_nothing_misses_exact_minimal_reductions(monkeypatch):
    monkeypatch.setattr(posred.pipeline, "find_nonneg_factorization", lambda basis, tol: None)
    found = sweep_disagreements(200)
    assert len(found) >= 10
    assert all(exact[0] == "minimal" for *_, exact in found)
