"""End-to-end reduction pipeline: route selection, verification, duality,
and the perturbation experiment."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import posred.monotone
from posred import (DimensionMismatchError, Factorization, GeneratorSpec,
                    PerturbationRecord, PositiveLtiSystem, Tolerances, equivalent,
                    find_nonneg_factorization, generate_system, is_nonneg, left_inverse,
                    markov_match, observability_matrix, perturbation_experiment, project,
                    rank, reachable_subspace, rpmr_observable, rpmr_reachable)
from conftest import (arnoldi_reachable_basis, cascade_system, lumped_system,
                      stubborn_span, swap_system)

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
        report = rpmr_reachable(swap_system(1.0), force_algebraic=True)
        assert report.method == "algebraic"
        assert report.reduced_dim == 3
        np.testing.assert_allclose(report.reduced_system.A,
                                   [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]],
                                   atol=1e-12)
        np.testing.assert_allclose(report.reduced_system.B, [[0.0], [1.0], [1.0]],
                                   atol=1e-12)
        assert report.algebra is not None
        assert any("flag" in note for note in report.diagnostics)
        # Both reductions realize the same impulse response.
        minimal = rpmr_reachable(swap_system(1.0))
        assert equivalent(minimal.reduced_system, report.reduced_system)

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
        forced = rpmr_reachable(cycling_full_closure_system(), force_algebraic=True)
        assert forced.method == "none"

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
    def test_nonnegative_bases_need_no_cone_solve(self, monkeypatch, seed):
        # The rows of a non-negative basis have positive sums, so the
        # search takes no non-negative least-squares solve, and neither
        # does choose_p; one solve per row would fail here.
        def refuse(*args):
            raise AssertionError("nonneg_lstsq called")

        monkeypatch.setattr(posred.monotone, "nonneg_lstsq", refuse)
        for n in range(12, 17):
            S = generate_system(GeneratorSpec(n, 2, 2, n // 2, 0.6, seed))
            assert rpmr_reachable(S).method == "minimal"
        for n, r, q in ((12, 6, 4), (14, 8, 5), (16, 8, 6)):
            report = rpmr_reachable(lumped_system(n, r, q, seed))
            assert (report.method, report.reduced_dim) == ("algebraic", r)

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
            forced = rpmr_reachable(swap_system(eps), force_algebraic=True)
            assert minimal.reduced_dim <= forced.reduced_dim


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


class TestReportBasis:
    """The report carries the target-space basis that the pipeline built."""

    @pytest.mark.parametrize("S, force_algebraic, method", [
        (cascade_system(), False, "minimal"),
        (swap_system(1.0), True, "algebraic"),
        (PositiveLtiSystem(np.zeros((5, 5)),
                           np.vstack([stubborn_span(), stubborn_span()[-1:]])),
         False, "algebraic"),
        (stubborn_system(), False, "none"),
        (PositiveLtiSystem([[0.0, 1.0], [1.0, 0.0]], [[1.0], [0.0]]), False, "none"),
    ])
    def test_reachable_basis(self, S, force_algebraic, method):
        report = rpmr_reachable(S, force_algebraic=force_algebraic)
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
        def one_at_a_time(F_naive, F_robust, perturbations):
            records = []
            for P in perturbations:
                naive = project(P, F_naive.J, F_naive.Jdag)
                robust = project(P, F_robust.J, F_robust.Jdag)
                match = markov_match((P.A, P.B, P.C), robust, P.dim + robust[0].shape[0])
                records.append(PerturbationRecord(all(is_nonneg(M) for M in naive),
                                                  all(is_nonneg(M) for M in robust), match))
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
            forced = rpmr_reachable(S, force_algebraic=True)
            assert forced.method == "algebraic"
            assert report.reduced_dim <= forced.reduced_dim
    assert produced > 25


@st.composite
def reductions(draw):
    """A system and the report of one route on it: planted generated
    systems with n <= 10 or lumped systems, reduced on the reachable or
    the observable side (then transposed, so that the planted block is
    unobservable), with or without the minimal route."""
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
    force_algebraic = draw(st.booleans())
    if draw(st.booleans()):
        S = S.transpose()
        return S, rpmr_observable(S, force_algebraic=force_algebraic)
    return S, rpmr_reachable(S, force_algebraic=force_algebraic)


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
    assert is_nonneg(F.J) and is_nonneg(F.Jdag)
    R = report.reduced_system
    for got, expected in zip((R.A, R.B, R.C), project(S, F.J, F.Jdag)):
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)
