"""Positive-system objects: reachability, Markov parameters, reduction,
equivalence, simulation."""
import contextlib
import copy
import pickle
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import posred.possys
from posred import (DimensionMismatchError, Factorization, NonFiniteError,
                    NotInvariantError, NotNonnegativeError, PositiveLtiSystem,
                    PosredError, SubspaceBasis, Tolerances, algebra_factorization,
                    choose_p, closure, column_space_basis, equivalent,
                    find_nonneg_factorization, is_monotone_nonneg_rect, left_inverse,
                    markov_match, project, reachable_subspace, reduce, rpmr_observable,
                    rpmr_reachable, verify_factorization)
from posred import GeneratorSpec, RankDeficientError, generate_system
from posred.possys import _krylov_powers
from conftest import (algebraic_reduction, cascade_system, d3_scaled, exhaustive_first_hit,
                      fixes_every_krylov_block, krylov_stacks_built,
                      lumped_system, markov_parameters, observability_matrix, r600_system,
                      rank, reachability_matrix, simulate, spurious_mode_pair,
                      stacked_krylov_blocks, swap_system)

TOL = Tolerances()


@st.composite
def one_entry_below_zero(draw):
    """A system with integer entries 0-3 (n <= 4, up to 3 inputs and 3
    outputs) and one entry of A, B or C set to -2^k, k in [-1074, 1023]:
    the name of that matrix, and A, B and C by name."""
    n = draw(st.integers(1, 4))
    shapes = {"A": (n, n), "B": (n, draw(st.integers(1, 3))), "C": (draw(st.integers(1, 3)), n)}
    matrices = {name: np.array(draw(st.lists(st.integers(0, 3), min_size=r * c,
                                             max_size=r * c)), dtype=float).reshape(r, c)
                for name, (r, c) in shapes.items()}
    name = draw(st.sampled_from("ABC"))
    i, j = (draw(st.integers(0, size - 1)) for size in shapes[name])
    matrices[name][i, j] = -(2.0 ** draw(st.integers(-1074, 1023)))
    return name, matrices


class TestConstruction:
    @given(one_entry_below_zero())
    def test_negative_entry_rejected(self, drawn):
        # One class for one fact: from the subnormal -2^-1074 to -2^1023,
        # the constructor names the matrix, and the monotone test refuses
        # the same matrix.
        name, matrices = drawn
        with pytest.raises(NotNonnegativeError,
                           match=f"^system is not positive: {name} has negative entries$"):
            PositiveLtiSystem(**matrices)
        with pytest.raises(NotNonnegativeError, match="^matrix has negative entries$"):
            is_monotone_nonneg_rect(matrices[name])

    @pytest.mark.parametrize("A, B, C", [
        ([[1e-12, -5e-10], [0.0, 1e-12]], [[1e-12], [1e-12]], None),
        ([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [-1e-9, 0.0, 2.0]], [[1.0], [1.0], [0.0]],
         [[1.0, 1.0, 1.0]])],
        ids=["below-every-entry", "below-its-row-peak"])
    def test_entry_below_zero_rejected_at_any_scale(self, A, B, C):
        # No floor: the first negative entry is 500 times the largest entry,
        # which an absolute floor of 1e-9 accepts; the second is 5e-10 of
        # its row's peak, which a floor relative to that peak accepts.
        with pytest.raises(NotNonnegativeError,
                           match="^system is not positive: A has negative entries$"):
            PositiveLtiSystem(A, B, C)

    def test_default_output_is_identity(self):
        S = PositiveLtiSystem(np.eye(2), np.ones((2, 1)))
        np.testing.assert_allclose(S.C, np.eye(2))
        assert S.num_outputs == 2

    def test_dimension_checks(self):
        with pytest.raises(DimensionMismatchError):
            PositiveLtiSystem(np.ones((2, 3)), np.ones((2, 1)))
        with pytest.raises(DimensionMismatchError):
            PositiveLtiSystem(np.eye(2), np.ones((3, 1)))
        with pytest.raises(DimensionMismatchError):
            PositiveLtiSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 3)))

    def test_time_domain_tag(self):
        S = PositiveLtiSystem(np.eye(2), np.ones((2, 1)), time_domain="continuous")
        assert S.time_domain == "continuous"
        with pytest.raises(ValueError):
            PositiveLtiSystem(np.eye(2), np.ones((2, 1)), time_domain="hybrid")

    def test_matrices_frozen(self):
        S = PositiveLtiSystem(np.eye(2), np.ones((2, 1)))
        with pytest.raises(ValueError):
            S.A[0, 0] = 5.0

    def test_transpose_swaps_maps(self):
        S = cascade_system(C=np.ones((1, 4)))
        T = S.transpose()
        np.testing.assert_allclose(T.A, S.A.T)
        np.testing.assert_allclose(T.B, S.C.T)
        np.testing.assert_allclose(T.C, S.B.T)


class TestReachability:
    def test_cascade_blocks(self):
        # First row obeys r[k+1] = r[k] + s[k] with s the second row
        # (A rows (1,1,0,0) and (1,0,2,0) acting on span{e1, e2}),
        # giving 1, 2, 3, 5; the tail rows stay zero.
        S = cascade_system()
        R = reachability_matrix(S)
        np.testing.assert_allclose(R, [[1.0, 2.0, 3.0, 5.0],
                                       [1.0, 1.0, 2.0, 3.0],
                                       [0.0, 0.0, 0.0, 0.0],
                                       [0.0, 0.0, 0.0, 0.0]], atol=1e-12)
        for k in range(3):
            np.testing.assert_allclose(R[:, k + 1], S.A @ R[:, k])

    def test_swap_blocks_eps2(self):
        R = reachability_matrix(swap_system(2.0))
        np.testing.assert_allclose(R, [[0.0, 2.0, 0.0, 8.0],
                                       [1.0, 0.0, 4.0, 0.0],
                                       [1.0, 1.0, 1.0, 1.0],
                                       [1.0, 1.0, 1.0, 1.0]])

    def test_identity_dynamics(self):
        S = PositiveLtiSystem(np.eye(2), np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(reachability_matrix(S), [[1.0, 1.0], [0.0, 0.0]])

    def test_changing_the_returned_matrix_changes_no_later_result(self):
        # reachability_matrix builds a fresh stack on each call, and
        # reachable_subspace and reduce build their own when they need one.
        S = cascade_system()
        R = reachability_matrix(S)
        R[2:] = 1.0
        J = np.eye(4)[:, :2]
        assert reduce(S, Factorization(J, J.T, [0, 1])).dim == 2
        assert reachable_subspace(S).dimension == 2
        assert reachability_matrix(S)[2:].max() == 0.0


@given(st.integers(1, 16), st.integers(1, 3), st.one_of(st.none(), st.integers(1, 16)),
       st.sampled_from([0.3, 0.6, 1.0]), st.integers(0, 2**32 - 1))
def test_krylov_stack_matches_the_list_of_blocks(n, inputs, reachable, density, seed):
    # Bit for bit: one buffer written block by block gives the bytes of
    # the list of blocks joined by hstack.
    spec = GeneratorSpec(n=n, inputs=inputs, reachable_dim=min(reachable, n) if reachable else None,
                         density=density, seed=seed)
    S = generate_system(spec)
    for T in (S, S.transpose()):
        stack = _krylov_powers(T.A, T.B)
        expected = stacked_krylov_blocks(T.A, T.B)
        assert stack.shape == expected.shape == (n, n * T.num_inputs)
        assert stack.tobytes() == expected.tobytes()


@given(st.integers(1, 12), st.integers(1, 3), st.sampled_from([0.3, 0.6, 1.0]),
       st.integers(-700, 700), st.integers(0, 2**32 - 1))
def test_scaled_krylov_stack_matches_the_reference_blocks(n, inputs, density, e, seed):
    # Bit for bit: each block is the one before it times A, scaled to unit
    # peak as the reference loop scales it, zero columns staying zero.
    S = generate_system(GeneratorSpec(n=n, inputs=inputs, density=density, seed=seed))
    A = np.ldexp(S.A, e)
    blocks = [S.B]
    for _ in range(n):
        peaks = np.abs(blocks[-1]).max(axis=0, initial=0.0)
        blocks[-1] = blocks[-1] / np.where(peaks > 0.0, peaks, 1.0)
        blocks.append(A @ blocks[-1])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = _krylov_powers(A, S.B, scaled=True)
    assert stack.tobytes() == np.hstack(blocks[:n]).tobytes()


def test_overflowing_krylov_powers_hold_inf_without_a_warning():
    A = np.full((4, 4), 1e200)
    B = np.ones((4, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = _krylov_powers(A, B)
        expected = stacked_krylov_blocks(A, B)
    assert np.isinf(stack[:, 4:]).all() and np.isfinite(stack[:, :4]).all()
    assert stack.tobytes() == expected.tobytes()


class TestReachableSubspace:
    def test_cascade_basis(self):
        basis = reachable_subspace(cascade_system())
        np.testing.assert_allclose(basis.basis, [[1.0, 2.0], [1.0, 1.0],
                                                 [0.0, 0.0], [0.0, 0.0]])

    def test_swap_dimensions(self):
        assert reachable_subspace(swap_system(1.0)).dimension == 2
        assert reachable_subspace(swap_system(2.0)).dimension == 3

    def test_zero_input_map(self):
        S = PositiveLtiSystem(np.eye(3), np.zeros((3, 1)))
        with pytest.raises(RankDeficientError, match="rank 0"):
            reachable_subspace(S)

    def test_invariance_and_positivity(self):
        rng = np.random.default_rng(31)
        for seed in range(20):
            spec = GeneratorSpec(n=int(rng.integers(2, 7)), inputs=2,
                                 reachable_dim=None, density=0.7, seed=seed)
            S = generate_system(spec)
            try:
                basis = reachable_subspace(S)
            except RankDeficientError:
                continue
            q = basis.dimension
            assert rank(np.hstack([basis.basis, S.A @ basis.basis])) == q
            assert rank(np.hstack([basis.basis, S.B])) == q
            assert basis.basis.min(initial=0.0) >= 0.0


@pytest.mark.parametrize("refuse, argument, message", [
    (column_space_basis, np.zeros((3, 2)), "matrix has rank 0; no column-space basis"),
    (column_space_basis, np.zeros((0, 2)), "matrix has rank 0; no column-space basis"),
    (reachable_subspace, PositiveLtiSystem(np.eye(3), np.zeros((3, 1))),
     "matrix has rank 0; no column-space basis"),
    (reachable_subspace, PositiveLtiSystem(np.zeros((0, 0)), np.zeros((0, 2))),
     "matrix has rank 0; no column-space basis"),
    (SubspaceBasis, np.zeros((3, 2)), "matrix has rank 0; no column-space basis"),
    (SubspaceBasis, np.zeros((3, 0)), "matrix has rank 0; no column-space basis"),
    (SubspaceBasis, np.zeros((0, 2)), "matrix has rank 0; no column-space basis")],
    ids=["zero-matrix", "no-rows", "zero-input-map", "no-states", "zero-basis",
         "basis-no-columns", "basis-no-rows"])
def test_no_independent_column_is_one_refusal(refuse, argument, message):
    # Rank 0 is refused by one class and one message at every site, and the
    # pipeline turns reachable_subspace's refusal into the order-0 reduction
    # on both spaces.
    with pytest.raises(RankDeficientError, match=message):
        refuse(argument)
    if isinstance(argument, PositiveLtiSystem):
        for rpmr, S, space, zero_map in ((rpmr_reachable, argument, "reachable", "input"),
                                         (rpmr_observable, argument.transpose(),
                                          "observable", "output")):
            report = rpmr(S)
            assert (report.method, report.reduced_dim, report.diagnostics) == (
                "minimal", 0, (f"{space} space is trivial (zero {zero_map} map); "
                               "reduced to order 0",))


def full_stack_basis(S: PositiveLtiSystem) -> np.ndarray:
    """Reference reachable basis: the greedy column selection on the full
    stack [B, AB, ..., A^(n-1) B], built afresh."""
    return column_space_basis(reachability_matrix(S)).basis


def assert_same_basis(S: PositiveLtiSystem) -> None:
    """reachable_subspace(S) has the bits and the memory layout of the
    reference basis, or raises what the reference raises."""
    try:
        expected = full_stack_basis(PositiveLtiSystem(S.A, S.B, S.C))
    except (RankDeficientError, NonFiniteError) as exc:
        with pytest.raises(type(exc)):
            reachable_subspace(S)
        return
    basis = reachable_subspace(S).basis
    assert basis.shape == expected.shape and basis.tobytes() == expected.tobytes()
    assert (basis.flags.c_contiguous, basis.flags.f_contiguous) == \
        (expected.flags.c_contiguous, expected.flags.f_contiguous)


@st.composite
def basis_systems(draw):
    """A generated system (planted at n // 2, or at a drawn reachable
    dimension or none), possibly under a D3 scaling, or a lumped system
    (reachable space inside an r-block lumpable space), or the transpose
    of one of them."""
    kind = draw(st.sampled_from(["planted", "generated", "lumped"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "lumped":
        n = draw(st.integers(4, 16))
        r = draw(st.integers(3, n))
        S = lumped_system(n, r, draw(st.integers(2, r - 1)), seed)
    else:
        n = draw(st.integers(1, 16))
        q = max(1, n // 2) if kind == "planted" else draw(st.one_of(st.none(), st.integers(1, n)))
        S = generate_system(GeneratorSpec(n, draw(st.integers(1, 3)), draw(st.integers(1, 3)),
                                          q, draw(st.sampled_from([0.3, 0.6, 1.0])), seed))
        if draw(st.booleans()):
            S = d3_scaled(S, seed)
    return S.transpose() if draw(st.booleans()) else S


@given(basis_systems())
def test_reachable_basis_is_the_greedy_selection_on_the_full_stack(S):
    # Bit for bit, whether the support certificate holds (only the first
    # ceil(q / m) blocks are built) or the full stack is selected from.
    assert_same_basis(S)


def overflowing_chain() -> PositiveLtiSystem:
    """States 0 -> 1 -> 2 -> 3 with weight 1e200 and a self-loop on 3:
    A^2 B is 1e400 e2, which overflows, while each unit-peak block is a
    unit vector. States 4 and 5 are unreachable."""
    A = np.zeros((6, 6))
    A[[1, 2, 3], [0, 1, 2]] = 1e200
    A[3, 3], A[5, 4] = 0.5, 1.0
    return PositiveLtiSystem(A, np.eye(6)[:, :1], np.ones((1, 6)))


def nilpotent_chain() -> PositiveLtiSystem:
    """States 0 -> 1 -> 2 with unit weights and B = e0 in R^4: A^3 B = 0,
    so the last column of the raw stack is zero. State 3 is unreachable."""
    A = np.zeros((4, 4))
    A[[1, 2], [0, 1]] = 1.0
    return PositiveLtiSystem(A, np.eye(4)[:, :1], np.ones((1, 4)))


def reachable_support(S: PositiveLtiSystem) -> np.ndarray:
    """Mask of the states reached from the nonzero rows of B in the
    digraph A != 0."""
    reached = (S.B != 0).any(axis=1)
    for _ in range(S.dim):
        reached = reached | (S.A[:, reached] != 0).any(axis=1)
    return reached


def tiny_entries(outside: bool) -> PositiveLtiSystem:
    """A planted system with 1e-12 in place of the zeros of A among its
    reachable states, or (outside) in place of every zero of A. Inside, the
    support and the certificate stand; outside, the support grows to every
    state and the full stack is selected from."""
    S = generate_system(GeneratorSpec(10, 2, 2, 5, 0.6, 3))
    states = np.ones(10, dtype=bool) if outside else reachable_support(S)
    block = np.ix_(states, states)
    A = S.A.copy()
    A[block] = np.where(A[block] == 0.0, 1e-12, A[block])
    return PositiveLtiSystem(A, S.B, S.C)


# The number of full raw stacks that reachable_subspace builds: none for a
# zero input map (its support is empty) or when the certificate holds.
@pytest.mark.parametrize("system, full_stacks", [
    (lambda: PositiveLtiSystem(np.eye(3), np.zeros((3, 2))), 0),
    (nilpotent_chain, 0),
    (overflowing_chain, 1),  # its first blocks overflow already
    (lambda: tiny_entries(outside=False), 0),
    (lambda: tiny_entries(outside=True), 1)],
    ids=["zero-B", "nilpotent", "overflowing", "tiny-negative-inside", "tiny-negative-outside"])
def test_reachable_basis_edge_cases(system, full_stacks):
    S = system()
    assert_same_basis(S)
    with krylov_stacks_built() as built, contextlib.suppress(RankDeficientError, NonFiniteError):
        reachable_subspace(S)
    assert built["raw full"] == full_stacks


def test_planted_reductions_never_build_the_full_stack():
    # The support certificate gives the basis and reduce reads the
    # selector's reduction off the principal subsystem, so neither layer
    # forms [B, ..., A^(n-1) B],
    # raw or scaled. A zero column of B (GeneratorSpec(12, 2, 2, 6, 0.6, 2))
    # is left out of the certificate's columns.
    for n in range(12, 17):
        for seed in range(6):
            S = generate_system(GeneratorSpec(n, 2, 2, n // 2, 0.6, seed))
            with krylov_stacks_built() as built:
                report = rpmr_reachable(S)
            assert report.method == "minimal"
            assert built["raw full"] == built["scaled full"] == 0
            assert report.basis.basis.tobytes() == full_stack_basis(S).tobytes()
            assert equivalent(S, report.reduced_system)


class TestObservability:
    def test_identity_output_stacks_powers(self):
        S = swap_system(1.0)
        O = observability_matrix(S)
        np.testing.assert_allclose(O[:4], np.eye(4))
        np.testing.assert_allclose(O[4:8], S.A)

    def test_sum_output_on_identity_dynamics(self):
        S = PositiveLtiSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
        np.testing.assert_allclose(observability_matrix(S), np.ones((2, 2)))

    def test_duality_with_reachability(self):
        for seed in range(10):
            S = generate_system(GeneratorSpec(n=4, inputs=2, outputs=3, seed=seed))
            np.testing.assert_allclose(observability_matrix(S),
                                       reachability_matrix(S.transpose()).T)


class TestMarkov:
    def test_first_coefficient(self):
        S = cascade_system(C=np.array([[1.0, 0.0, 0.0, 0.0]]))
        seq = markov_parameters(S.A, S.B, S.C, 0)
        assert len(seq) == 1
        np.testing.assert_allclose(seq[0], [[1.0]])

    def test_nilpotent_vanishes(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        S = PositiveLtiSystem(A, np.eye(2))
        seq = markov_parameters(S.A, S.B, S.C, 5)
        for k in range(2, 6):
            np.testing.assert_allclose(seq[k], np.zeros((2, 2)))

    def test_reduction_preserves_sequence(self):
        C = np.array([[0.0, 0.0, 1.0, 0.0]])
        S = swap_system(1.0, C=C)
        # Hand realization of the same impulse response: the reachable
        # block alternates the two leading states.
        reduced = PositiveLtiSystem([[0.0, 1.0], [1.0, 0.0]], [[0.0], [1.0]],
                                    [[1.0, 1.0]])
        full = markov_parameters(S.A, S.B, S.C, 6)
        small = markov_parameters(reduced.A, reduced.B, reduced.C, 6)
        for M1, M2 in zip(full, small):
            np.testing.assert_allclose(M1, M2, atol=1e-12)


class TestReduce:
    def naive_pair(self):
        basis = reachable_subspace(cascade_system()).basis
        return Factorization(np.asarray(basis), left_inverse(basis), [])

    def test_mixed_sign_pair_still_positive_unperturbed(self):
        S = cascade_system()
        reduced = reduce(S, self.naive_pair())
        np.testing.assert_allclose(reduced.A, [[0.0, 1.0], [1.0, 1.0]], atol=1e-12)
        np.testing.assert_allclose(reduced.B, [[1.0], [0.0]], atol=1e-12)

    def test_mixed_sign_pair_breaks_under_perturbation(self):
        S = cascade_system(0.1)
        F = self.naive_pair()
        Ar, Br, _ = project(S, F.J, F.Jdag)
        np.testing.assert_allclose(Ar, [[-0.1, 0.9], [1.1, 1.1]], atol=1e-12)
        np.testing.assert_allclose(Br, [[1.2], [-0.1]], atol=1e-12)
        with pytest.raises(NotNonnegativeError,
                           match="^system is not positive: A has negative entries$"):
            reduce(S, F)

    def test_overflowing_output_map_is_named(self):
        # [A J, B] = [0, 1; 0, 1] is invariant and J R selects it exactly;
        # only C J = 1e308 + 1e308 overflows.
        S = PositiveLtiSystem(np.zeros((2, 2)), np.ones((2, 1)), np.full((1, 2), 1e308))
        F = Factorization(np.ones((2, 1)), np.full((1, 2), 0.5), [0])
        with pytest.raises(NonFiniteError, match="^C contains non-finite entries$"):
            reduce(S, F)

    def test_product_that_overflows_outside_the_pivots_is_refused(self):
        # A J = [2, inf]: row 1 cannot be J A_r for any finite A_r, and
        # A B overflows there too, so no finite reduction is exact.
        S = PositiveLtiSystem([[1.0, 1.0], [1e308, 1e308]], np.ones((2, 1)), np.ones((1, 2)))
        F = Factorization(np.ones((2, 1)), np.array([[1.0, 0.0]]), [0])
        with pytest.raises(NotInvariantError):
            reduce(S, F)

    def test_entrywise_close_fails_on_infinities(self):
        # |inf - x| <= e inf holds, so the difference must be finite too.
        # reduce calls the helper with floating-point warnings off.
        close = posred.possys._entrywise_close
        with np.errstate(invalid="ignore"):
            assert not close(np.array([np.inf]), np.array([1.0]), 1e-9)
            assert not close(np.array([np.inf]), np.array([np.inf]), 1e-9)
        assert close(np.array([1.0]), np.array([1.0 + 1e-12]), 1e-9)

    def test_krylov_product_that_overflows_is_refused(self):
        # An entry of A below 2^-511 sends the pair to the Krylov check,
        # where J (Jdag P) = 1e308 * 1e308 overflows against the block e0;
        # the reduction (0, 1e308, 1e308) would answer C B = inf for 1.
        S = PositiveLtiSystem([[0.0, 0.0], [0.0, 1e-320]], [[1.0], [0.0]], [[1.0, 0.0]])
        F = Factorization(np.array([[1e308], [0.0]]), np.array([[1e308, 0.0]]), [0])
        with pytest.raises(NotInvariantError, match="does not fix"):
            reduce(S, F)

    def test_reduced_matrices_are_read_only(self):
        zero_input = PositiveLtiSystem(np.eye(2), np.zeros((2, 1)), np.ones((1, 2)))
        reports = [rpmr_reachable(cascade_system()), rpmr_reachable(zero_input),
                   rpmr_observable(swap_system(1.0).transpose())]
        for report in reports:
            assert report.method == "minimal"
            for M in (report.reduced_system.A, report.reduced_system.B,
                      report.reduced_system.C):
                assert not M.flags.writeable
                assert M.base is None or not M.base.flags.writeable

    def test_nonneg_pair_is_robust(self):
        F = find_nonneg_factorization(reachable_subspace(cascade_system()))
        r0 = reduce(cascade_system(), F)
        np.testing.assert_allclose(r0.A, [[1.0, 1.0], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(r0.B, [[1.0], [1.0]], atol=1e-12)
        r1 = reduce(cascade_system(0.1), F)
        np.testing.assert_allclose(r1.A, [[1.0, 1.1], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(r1.B, [[1.0], [1.1]], atol=1e-12)

    def test_non_invariant_image_rejected(self):
        S = cascade_system()
        F = Factorization(np.eye(4)[:, :1], np.eye(4)[:1, :], [0])
        with pytest.raises(NotInvariantError):
            reduce(S, F)

    def test_doubled_jdag_rejected(self):
        # Im(J) is A-invariant and contains B, but J @ (2 Jdag) is twice a
        # projector and fixes nothing: the reduced model would be wrong.
        S = cascade_system()
        F = find_nonneg_factorization(reachable_subspace(S))
        doubled = Factorization(F.J, 2.0 * F.Jdag, F.pivot_rows)
        with pytest.raises(NotInvariantError, match="does not fix"):
            reduce(S, doubled)

    def test_shape_mismatch(self):
        S = cascade_system()
        F = Factorization(np.eye(3)[:, :1], np.eye(3)[:1, :], [0])
        with pytest.raises(DimensionMismatchError):
            reduce(S, F)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_first_escaping_block_is_the_last_one_checked(self, m):
        # A shifts state i to state i + 1, so A^k B = e_k: the selector of
        # the first m states fixes the blocks k < m, and A^m B is the
        # first one outside Im(J).
        n = 6
        J = np.eye(n)[:, :m]
        F = Factorization(J, J.T, list(range(m)))
        A = np.eye(n, k=-1)
        with pytest.raises(NotInvariantError):
            reduce(PositiveLtiSystem(A, np.eye(n)[:, :1]), F)
        A[m, m - 1] = 0.0  # the chain now stops inside Im(J)
        assert reduce(PositiveLtiSystem(A, np.eye(n)[:, :1]), F).dim == m

    @pytest.mark.parametrize("J, Jdag", [(np.ones((3, 1)), np.ones((2, 3))),
                                         (np.ones((2, 1)), np.ones((1, 2)))],
                             ids=["Jdag-too-short", "J-too-short"])
    def test_project_refuses_factors_that_do_not_fit(self, J, Jdag):
        # project checks the shapes as reduce does: J is n x r and Jdag r x n.
        S = PositiveLtiSystem(np.eye(3), np.ones((3, 1)), np.ones((1, 3)))
        message = re.escape(f"factors must be 3 x r and r x 3, "
                            f"got J {J.shape} and Jdag {Jdag.shape}")
        for refuse in (lambda: project(S, J, Jdag), lambda: reduce(S, Factorization(J, Jdag, []))):
            with pytest.raises(DimensionMismatchError, match=message):
                refuse()
        # A mixed-sign pair that fits still projects: A = I, so Jdag A J = J^T J.
        J = np.array([[1.0], [-1.0], [1.0]])
        for got, expected in zip(project(S, J, J.T), ([[3.0]], [[1.0]], [[1.0]])):
            np.testing.assert_array_equal(got, expected)

    def test_blocks_within_eq_tol_that_drift_out_later_are_rejected(self):
        # The selector of states {0, 1} fixes the unit-peak blocks e0, e1
        # and e1 + 1e-9 e2 within eq_tol of their peak, so an absolute
        # residual passed the blocks k <= m = 2; entrywise, block 2 misses
        # its whole e2 entry. State 2 doubles at every step: block k
        # carries 1e-9 (2^(k-1) - 1) of e2, 1.5e-8 at k = 5, and C A^k B
        # would miss by about 2 at k = 32.
        n = 40
        A = np.zeros((n, n))
        A[1, 0] = A[1, 1] = 1.0
        A[2, 1], A[2, 2] = 1e-9, 2.0
        S = PositiveLtiSystem(A, np.eye(n)[:, :1], np.ones((1, n)))
        J = np.eye(n)[:, :2]
        F = Factorization(J, J.T, [0, 1])
        assert not fixes_every_krylov_block(S, J, J.T)
        with pytest.raises(NotInvariantError):
            reduce(S, F)
        assert not equivalent(S, PositiveLtiSystem(*project(S, J, J.T)))


def drifting_chain(rng, n, m):
    """A chain 0 -> ... -> m-1 with a self-loop on m-1, B = e0, and a
    faint edge, of weight 1e-10 to 1e-8 (around eq_tol), from state m-1
    into state m, which grows by up to 4 a step among the states m..n-1.
    The selector of states 0..m-1 fixes the first blocks within eq_tol
    of their peak, and the faint state can drift out of that at any later
    power; entrywise, it misses block m by its whole faint entry."""
    A = np.zeros((n, n))
    A[np.arange(1, m), np.arange(m - 1)] = rng.uniform(0.5, 2.0, m - 1)
    A[m - 1, m - 1] = rng.uniform(0.5, 2.0)
    A[m, m - 1] = 10.0 ** rng.uniform(-10.0, -8.0)
    A[m:, m:] = np.where(rng.random((n - m, n - m)) < 0.4,
                         rng.uniform(0.5, 2.0, (n - m, n - m)), 0.0)
    A[m, m] = rng.uniform(0.5, 4.0)
    return PositiveLtiSystem(A, np.eye(n)[:, :1])


@st.composite
def selector_reductions(draw):
    """A positive system with n <= 8, the selector J of a set of states,
    with Jdag = J^T, and the reachable support (the states reached from
    the nonzero rows of B in the graph of A). J @ Jdag fixes every Krylov
    block entrywise exactly when the set contains the support: a reached
    state outside it has a nonzero entry in some block, which J @ Jdag
    maps to 0. Random systems have n <= 6 and nonzero entries in
    [0.5, 2], and the set is random, or the support with random states
    added, or with one removed. Drifting chains (see drifting_chain)
    select their first m states, which leave out the faint one."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "superset", "short", "drift"]))
    if kind == "drift":
        n = draw(st.integers(3, 8))
        m = draw(st.integers(1, n - 2))
        S = drifting_chain(rng, n, m)
        states = np.arange(n) < m
    else:
        n = draw(st.integers(2, 6))
        density = draw(st.sampled_from([0.2, 0.4, 0.7]))

        def sparse(shape):
            return np.where(rng.random(shape) < density, rng.uniform(0.5, 2.0, shape), 0.0)

        S = PositiveLtiSystem(sparse((n, n)), sparse((n, draw(st.integers(1, 2)))))
    support = reachable_support(S)
    if kind == "random":
        states = rng.random(n) < 0.5
    elif kind == "superset":
        states = support | (rng.random(n) < 0.3)
    elif kind == "short":
        states = support.copy()
        if support.any():
            states[rng.choice(np.flatnonzero(support))] = False
    J = np.eye(n)[:, states]
    return S, Factorization(J, J.T, np.flatnonzero(states).tolist()), support


@given(selector_reductions())
def test_reduce_accepts_exactly_when_every_krylov_block_is_fixed(case):
    S, F, support = case
    try:
        reduce(S, F)
        accepted = True
    except NotInvariantError:
        accepted = False
    assert accepted == fixes_every_krylov_block(S, F.J, F.Jdag)
    assert accepted == (set(np.flatnonzero(support)) <= set(F.pivot_rows))


def assert_principal_subsystem(S: PositiveLtiSystem, F: Factorization) -> None:
    # Each entry of A J, Jdag [A J, B] and C J is one product by 1 plus
    # exact zeros, so a selector reduction is exact on any BLAS.
    s = F.pivot_rows
    reduced = reduce(S, F)
    np.testing.assert_array_equal(reduced.A, S.A[np.ix_(s, s)])
    np.testing.assert_array_equal(reduced.B, S.B[s])
    np.testing.assert_array_equal(reduced.C, S.C[:, s])


@given(selector_reductions())
def test_selector_reductions_are_the_principal_subsystem(case):
    S, F, support = case
    if set(np.flatnonzero(support)) <= set(F.pivot_rows):
        assert_principal_subsystem(S, F)


def test_planted_selector_reductions_are_the_principal_subsystem():
    # The systems of the planted benchmark size, n = 12..16 with q = n / 2.
    for n in range(12, 17):
        for seed in range(6):
            S = generate_system(GeneratorSpec(n, 2, 2, n // 2, 0.6, seed))
            F = rpmr_reachable(S).factorization
            np.testing.assert_array_equal(F.J, np.eye(n)[:, F.pivot_rows])
            assert_principal_subsystem(S, F)


def reduce_outcome(S: PositiveLtiSystem, F: Factorization):
    """reduce's error type and message, or the shapes and bytes of the
    reduced matrices, each checked to be read-only with no writeable base."""
    try:
        reduced = reduce(S, F)
    except PosredError as exc:
        return type(exc), str(exc)
    for M in (reduced.A, reduced.B, reduced.C):
        assert not M.flags.writeable
        assert M.base is None or not M.base.flags.writeable
    return [(M.shape, M.tobytes()) for M in (reduced.A, reduced.B, reduced.C)]


def counting_factor_pair():
    """Counts the calls of _factor_pair, which starts reduce's general pass
    and also checks the pairs of project and perturbation_experiment; no
    counted block calls either of those two."""
    return mock.patch.object(posred.possys, "_factor_pair", wraps=posred.possys._factor_pair)


@given(selector_reductions(), st.booleans())
def test_selector_path_agrees_with_the_general_pass(case, negative_zeros):
    # The products of the general pass turn -0.0 into 0.0; indexing must too.
    S, F, _ = case
    assume(F.pivot_rows)
    if negative_zeros:
        S = PositiveLtiSystem(*(np.where(M == 0.0, -0.0, M) for M in (S.A, S.B, S.C)))
    trusted = find_nonneg_factorization(SubspaceBasis(np.eye(S.dim)[:, F.pivot_rows]))
    assert type(trusted) is posred.factorize._Selector
    assert reduce_outcome(S, trusted) == reduce_outcome(S, Factorization(*trusted))


def test_edited_or_copied_selectors_take_the_general_pass():
    S = cascade_system()
    trusted = find_nonneg_factorization(reachable_subspace(S))
    assert type(trusted) is posred.factorize._Selector
    edited = [trusted._replace(pivot_rows=trusted.pivot_rows), trusted._make(trusted)]
    assert [type(G) for G in edited] == [Factorization] * 2
    # Copies keep the class, but their arrays are writeable.
    copies = [copy.deepcopy(trusted), pickle.loads(pickle.dumps(trusted))]
    expected = reduce_outcome(S, trusted)
    for G, general in [(trusted, 0), *((G, 1) for G in edited + copies)]:
        with counting_factor_pair() as factor_pair:
            assert reduce_outcome(S, G) == expected
        assert factor_pair.call_count == general


@pytest.mark.parametrize("states, accepted", [([0, 1, 2], True), ([0], False)])
def test_selectors_of_other_sets_get_the_general_verdict(states, accepted):
    # The reachable support is {0, 1}. State 2 feeds state 3, so the
    # superset {0, 1, 2} is not invariant, yet it fixes every Krylov block;
    # the short {0} misses state 1.
    A = np.zeros((4, 4))
    A[1, 0] = A[1, 1] = A[3, 2] = 1.0
    S = PositiveLtiSystem(A, np.eye(4)[:, :1], np.ones((1, 4)))
    F = find_nonneg_factorization(SubspaceBasis(np.eye(4)[:, states]))
    with counting_factor_pair() as factor_pair:
        outcome = reduce_outcome(S, F)
    assert factor_pair.call_count == 1
    if accepted:
        assert_principal_subsystem(S, F)
    else:
        assert outcome == (NotInvariantError, "J @ Jdag does not fix the reachable space")


def test_selector_whose_krylov_blocks_overflow_gets_the_general_verdict():
    # Span(e0, e1) is invariant, but the entry 1e-320 of A sends the
    # general pass to the Krylov check, where A [1, 1, 0] overflows.
    A = [[1e308, 1e308, 0.0], [1e308, 1e-320, 0.0], [0.0, 0.0, 0.0]]
    S = PositiveLtiSystem(A, np.eye(3)[:, :1], np.ones((1, 3)))
    F = find_nonneg_factorization(SubspaceBasis(np.eye(3)[:, :2]))
    refusal = (NotInvariantError, "J @ Jdag does not fix the reachable space")
    assert reduce_outcome(S, F) == reduce_outcome(S, Factorization(*F)) == refusal


def test_planted_reports_stay_on_the_selector_path():
    # The systems of the planted benchmark size, and their duals on the
    # observable side.
    for n in range(12, 17):
        for seed in range(6):
            S = generate_system(GeneratorSpec(n, 2, 2, n // 2, 0.6, seed))
            with counting_factor_pair() as factor_pair:
                reports = [rpmr_reachable(S), rpmr_observable(S.transpose())]
            assert factor_pair.call_count == 0
            assert [report.method for report in reports] == ["minimal"] * 2


def test_drifting_chains_are_rejected_at_block_m():
    # With m = 2 the blocks k <= m touch states 0..2 only, so they are the
    # blocks of the 3-state truncation. Block m carries the faint edge's
    # 1e-10 to 1e-8 of state 2, within eq_tol of the block's peak, which
    # the selector of states 0 and 1 maps to 0: an entrywise miss of the
    # whole entry. So every chain is rejected, truncated or full. (An
    # absolute residual passed every truncation and 8 of the 40 chains.)
    rng = np.random.default_rng(7)
    J = np.eye(8)[:, :2]
    for _ in range(40):
        S = drifting_chain(rng, 8, 2)
        assert not fixes_every_krylov_block(PositiveLtiSystem(S.A[:3, :3], S.B[:3]),
                                            J[:3], J[:3].T)
        assert not fixes_every_krylov_block(S, J, J.T)
        with pytest.raises(NotInvariantError):
            reduce(S, Factorization(J, J.T, [0, 1]))


def tiny_input_cascade() -> PositiveLtiSystem:
    """The cascade with B scaled by 2^-600: every raw power is tiny, while
    its unit-peak blocks are the cascade's. The reachable space is the
    plane of states {0, 1}."""
    S = cascade_system()
    return PositiveLtiSystem(S.A, np.ldexp(S.B, -600), S.C)


def amplifying_chain(b=-499, down=(299, 299), up=(299, 299)) -> PositiveLtiSystem:
    """B = 2^b e0, a self-loop of weight 1 on state 0, and a chain
    0 -> 1 -> 2 -> 3 -> 4 with weights 2^-down then 2^up. Every column
    peak of the raw stack is 2^b, yet state 2 of A^2 B is
    2^(b - down[0] - down[1]), below the subnormal range by default, so
    the raw states 3 and 4 stay 0 while the unit-peak block 4 holds 1 at
    state 4."""
    A = np.diag(np.ldexp(1.0, [-down[0], -down[1], up[0], up[1]]), -1)
    A[0, 0] = 1.0
    return PositiveLtiSystem(A, np.ldexp(np.eye(5)[:, :1], b), np.ones((1, 5)))


class TestReduceFallback:
    """Systems whose raw powers overflow, lose small entries to
    underflow, are tiny, or end in a zero Krylov column: reduce's Krylov
    fallback forms each block from the scaled one before it, and its
    verdict must be the reference loop's, with no floating-point
    warning."""

    @pytest.mark.parametrize("system, reached, accepted", [
        (overflowing_chain, 4, True), (overflowing_chain, 3, False),
        (tiny_input_cascade, 2, True), (tiny_input_cascade, 1, False),
        (amplifying_chain, 5, True), (amplifying_chain, 1, False),
        (nilpotent_chain, 3, True), (nilpotent_chain, 2, False)])
    def test_verdict_matches_the_reference_loop(self, system, reached, accepted):
        S = system()
        J = np.eye(S.dim)[:, :reached]
        assert fixes_every_krylov_block(S, J, J.T) == accepted
        F = Factorization(J, J.T, list(range(reached)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if accepted:
                assert reduce(S, F).dim == reached
            else:
                with pytest.raises(NotInvariantError):
                    reduce(S, F)

    def test_underflowed_chain_is_not_reduced_to_its_input_state(self):
        # The raw powers see nothing beyond state 1, so a basis built from
        # them is short of the reachable space; whatever route answers must
        # keep every Markov coefficient, and a route that fails ends in a
        # report of no reduction.
        S = amplifying_chain()
        report = rpmr_reachable(S)
        if report.method == "none":
            assert report.reduced_dim == S.dim
        else:
            assert equivalent(S, report.reduced_system)


@pytest.mark.parametrize("seed, pivots", [(22, list(range(12))),
                                          (361, [0, 1, 2, 3, *range(5, 12)])],
                         ids=["R600-22", "R600-361"])
def test_clipped_scan_pair_is_refused(seed, pivots):
    # Observable side (the reachable side of S^T): the exhaustive scan's
    # J = V inv(V[pivots]) has entries of -1.15e-9 (seed 22) and -4.7e-9
    # (seed 361). Clipped at 0, the pair still fixes every unit-peak
    # Krylov column within eq_tol of its peak, and verify_factorization
    # accepts it, but it fixes the faint states only roughly: its
    # coefficients miss C A^k B by up to 35 times the coefficient's peak
    # (seed 22). reduce refuses it entrywise.
    T = r600_system(seed).transpose()
    V = reachable_subspace(T)
    assert exhaustive_first_hit(V.basis) == pivots
    J = V.basis @ np.linalg.inv(V.basis[pivots])
    assert J.min() < -TOL.nonneg_tol
    F = Factorization(np.maximum(J, 0.0), np.eye(T.dim)[pivots], pivots)
    assert verify_factorization(F, V)
    assert not equivalent(T, PositiveLtiSystem(*project(T, F.J, F.Jdag)))
    with pytest.raises(NotInvariantError):
        reduce(T, F)


def non_invariant_algebra_system() -> PositiveLtiSystem:
    """Draw 7440 of 20000 from default_rng(1), each draw n in [3, 7), then
    A from integers in {0, 1, 2}, each kept with probability 1/2, then B
    from integers in {0, 1}: one of the 28 whose algebra is not
    A-invariant. The reachable space is span{e1 + e2 + e3, e0 + e1 + e2};
    A maps the algebra's generator e1 + e2 to e0 + e2, outside it."""
    A = [[0, 0, 1, 0], [1, 0, 0, 1], [0, 0, 1, 0], [0, 0, 0, 0]]
    return PositiveLtiSystem(A, [[0], [1], [1], [1]])


def test_non_invariant_algebra_is_accepted_by_the_krylov_fallback():
    S = non_invariant_algebra_system()
    algebra, reduced = algebraic_reduction(S)
    assert algebra.blocks == ((0,), (1, 2), (3,))
    assert reduced.dim == 3
    F = algebra_factorization(algebra)
    Ar, _, _ = project(S, F.J, F.Jdag)
    assert not np.allclose(S.A @ F.J, F.J @ Ar)
    with krylov_stacks_built() as built:
        assert reduce(S, F).dim == 3
    assert built == {"scaled full": 1}  # the fallback's own scaled stack
    assert fixes_every_krylov_block(S, F.J, F.Jdag)
    assert equivalent(S, reduced)


class KrylovFallback(Exception):
    """Raised in place of building a Krylov stack."""


@st.composite
def factor_pairs(draw):
    """A system, or its transpose, with a factor pair: a selector from
    selector_reductions; or the pipeline's factors, or the factors of the
    algebra of its basis, on a system of the non-invariant-algebra recipe
    or of R600 or D3."""
    kind = draw(st.sampled_from(["selector", "recipe", "R600", "D3"]))
    if kind == "selector":
        return draw(selector_reductions())[:2]
    if kind == "recipe":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = int(rng.integers(3, 7))
        S = PositiveLtiSystem(rng.integers(0, 3, (n, n)) * (rng.random((n, n)) < 0.5),
                              rng.integers(0, 2, (n, 1)))
    else:
        seed = draw(st.integers(0, 599))
        S = r600_system(seed) if kind == "R600" else d3_scaled(r600_system(seed), seed)
    S = S.transpose() if draw(st.booleans()) else S
    report = rpmr_reachable(S)
    F = report.factorization
    if report.basis is not None and (F is None or draw(st.booleans())):
        F = algebra_factorization(closure(report.basis, choose_p(report.basis)))
    assume(F is not None)
    return S, F


@given(factor_pairs())
def test_pairs_that_pass_the_invariance_test_pass_the_krylov_reference(case):
    # With the Krylov builders disabled, reduce returns only for pairs that
    # its invariance test accepts; every such pair must fix each Krylov
    # block and keep every Markov coefficient.
    S, F = case
    with mock.patch.object(posred.possys, "_krylov_powers", side_effect=KrylovFallback):
        try:
            R = reduce(S, F)
        except KrylovFallback:
            return
    assert fixes_every_krylov_block(S, F.J, F.Jdag)
    assert markov_match((S.A, S.B, S.C), (R.A, R.B, R.C))


@given(selector_reductions(), st.integers(-700, 700))
def test_reduce_verdict_matches_the_reference_loop_at_any_input_scale(case, e):
    # Scaling B by 2^e is exact, so the reference verdict does not move,
    # and neither may reduce's, whose Krylov fallback scales each block to
    # unit peak before forming the next.
    S, F, _ = case
    scaled = PositiveLtiSystem(S.A, np.ldexp(S.B, e), S.C)
    try:
        reduce(scaled, F)
        accepted = True
    except NotInvariantError:
        accepted = False
    assert accepted == fixes_every_krylov_block(scaled, F.J, F.Jdag)


@given(st.integers(-520, -480), st.tuples(st.integers(250, 450), st.integers(250, 450)),
       st.tuples(st.integers(250, 450), st.integers(250, 450)), st.integers(1, 5))
def test_reduce_verdict_matches_the_reference_loop_when_amplified_entries_underflow(
        b, down, up, reached):
    # State 2 of the raw A^2 B lies between 2^-1420 and 2^-980, so it is
    # lost to underflow in some draws, and the rising edges bring it back
    # to the column peak's scale in some of those.
    S = amplifying_chain(b, down, up)
    J = np.eye(5)[:, :reached]
    try:
        reduce(S, Factorization(J, J.T, list(range(reached))))
        accepted = True
    except NotInvariantError:
        accepted = False
    assert accepted == fixes_every_krylov_block(S, J, J.T)


class TestEquivalent:
    def test_self(self):
        S = swap_system(1.0)
        assert equivalent(S, S)

    def test_reduction_is_equivalent(self):
        C = np.array([[0.0, 0.0, 1.0, 0.0]])
        S = swap_system(1.0, C=C)
        F = find_nonneg_factorization(reachable_subspace(S))
        reduced = reduce(S, F)
        assert equivalent(S, reduced)

    def test_detects_difference(self):
        S1 = PositiveLtiSystem(np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
        S2 = PositiveLtiSystem(np.eye(2) * 1.1, np.ones((2, 1)), np.ones((1, 2)))
        assert not equivalent(S1, S2)

    def test_dimension_mismatch(self):
        S1 = PositiveLtiSystem(np.eye(2), np.ones((2, 1)))
        S2 = PositiveLtiSystem(np.eye(2), np.ones((2, 2)))
        with pytest.raises(DimensionMismatchError):
            equivalent(S1, S2)

    def test_spurious_decaying_mode_detected(self):
        S, spurious = spurious_mode_pair()
        assert equivalent(S, reduce(S, find_nonneg_factorization(reachable_subspace(S))))
        assert not equivalent(S, spurious)

    @pytest.mark.parametrize("n", [150, 200])
    @pytest.mark.parametrize("seed", range(4))
    def test_large_exact_reductions(self, n, seed):
        # The raw coefficients C A^k B overflow long before k = n + r here;
        # the scaled walk compares them anyway.
        S = generate_system(GeneratorSpec(n, 2, 2, n // 2, 0.6, seed))
        assert equivalent(S, rpmr_reachable(S).reduced_system)

    def test_spurious_decaying_mode_detected_at_large_n(self):
        S, spurious = spurious_mode_pair(200)
        assert not equivalent(S, spurious)

    def test_scaled_walk_agrees_with_raw_coefficients(self):
        # Reference: the per-coefficient rule applied to the raw C A^k B of
        # markov_parameters, which stay finite at these sizes.
        def raw_match(first, second, horizon):
            peak = 0.0
            for M1, M2 in zip(markov_parameters(*first, horizon),
                              markov_parameters(*second, horizon)):
                scale = max(np.abs(M1).max(), np.abs(M2).max())
                peak = max(peak, scale)
                if np.abs(M1 - M2).max() > max(TOL.eq_tol * scale, TOL.rank_tol * peak):
                    return False
            return True

        rng = np.random.default_rng(7)
        verdicts = []
        for i in range(300):
            n, m, p = (int(k) for k in rng.integers(1, [9, 3, 3]))
            A = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.6) * 10**rng.uniform(-2, 1)
            first = (A, rng.uniform(0, 1, (n, m)), rng.uniform(0, 1, (p, n)))
            if i % 3 == 0:
                second = (A * (1 + 10**rng.uniform(-12, -6) * rng.random((n, n))), *first[1:])
            elif i % 3 == 1:
                second = (*first[:2], first[2] * (1 + 10**rng.uniform(-11, -7)))
            else:
                r = int(rng.integers(1, 9))
                second = (rng.uniform(0, 1, (r, r)) * 10**rng.uniform(-2, 1),
                          rng.uniform(0, 1, (r, m)), rng.uniform(0, 1, (p, r)))
            verdicts.append(markov_match(first, second))
            assert verdicts[-1] == raw_match(first, second, n + second[0].shape[0])
        assert 0 < sum(verdicts) < len(verdicts)

    def test_rounding_noise_on_zero_coefficients(self):
        # C A^k B vanishes from k = 2 on; a reduced model computed in
        # floating point leaves noise of 1e-17 there instead of zeros.
        S = PositiveLtiSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 1.0]])
        noisy = PositiveLtiSystem([[0.0, 1.0], [1e-17, 0.0]], [[0.0], [1.0]], [[1.0, 1.0]])
        assert equivalent(S, noisy)
        assert not equivalent(S, PositiveLtiSystem([[0.0, 1.0], [1e-6, 0.0]],
                                                   [[0.0], [1.0]], [[1.0, 1.0]]))

    @pytest.mark.parametrize("tol", [TOL, Tolerances(0.0)], ids=["default", "rank0"])
    def test_fast_decay_saturates_the_running_peak(self, tol):
        # The state shrinks 100-fold per step, so the running peak grows
        # 100-fold relative to it; by k = n1 + n2 = 160 it would pass the
        # largest double. Held there, it neither warns nor turns the
        # rank_tol floor into 0 * inf = NaN.
        n = 80
        C = np.ones((1, n))
        S = PositiveLtiSystem(0.01 * np.eye(n), np.eye(n)[:, :1], C)
        C[0, 0] += 1e-6
        bumped = PositiveLtiSystem(S.A, S.B, C)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert equivalent(S, S, tol)
            assert not equivalent(S, bumped, tol)

    def test_overflowing_coefficients_never_match_without_a_warning(self):
        # A B overflows; in a stack, only that item fails.
        huge = (np.full((2, 2), 1e308), np.ones((2, 1)), np.ones((1, 2)))
        small = (np.eye(2), *huge[1:])
        stack = tuple(np.stack(Ms) for Ms in zip(huge, small))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert markov_match(huge, huge) is False
            assert markov_match(stack, stack).tolist() == [False, True]


def padded(triple, n, inputs, outputs):
    """The triple with zero states, inputs and outputs appended: the same
    impulse response, padded with zero rows and columns."""
    A, B, C = (np.asarray(M, dtype=float) for M in triple)
    k = A.shape[0]
    out = np.zeros((n, n)), np.zeros((n, inputs)), np.zeros((outputs, n))
    out[0][:k, :k], out[1][:k, :B.shape[1]], out[2][:C.shape[0], :k] = A, B, C
    return out


class TestMarkovMatchBatch:
    HORIZON = 20  # n1 + n2 of the padded triples, where markov_match stops

    def pairs(self):
        """An exact reduction, a spurious decaying mode, a nilpotent pair
        with rounding noise, an exact and a spurious pair scaled so that
        their raw coefficients overflow within the horizon, and a shift
        chain at 1e-250 whose only nonzero coefficient, at k = 7, differs.
        Each item is rescaled by its own factor: one factor for the whole
        stack would flush the last item to zero."""
        S = generate_system(GeneratorSpec(12, 2, 2, 6, 0.6, 1))
        R = rpmr_reachable(S).reduced_system
        exact = ((S.A, S.B, S.C), (R.A, R.B, R.C))
        spurious = tuple((T.A, T.B, T.C) for T in spurious_mode_pair())
        nilpotent = (([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 1.0]]),
                     ([[0.0, 1.0], [1e-17, 0.0]], [[0.0], [1.0]], [[1.0, 1.0]]))

        def near_overflow(pair):
            return tuple((10.0 * A, 1e150 * B, 1e150 * C) for A, B, C in pair)

        shift = np.eye(8, k=-1)
        late = ((shift, 1e-250 * np.eye(8)[:, :1], np.eye(8)[7:]),
                (shift, 1e-250 * np.eye(8)[:, :1], 1.001 * np.eye(8)[7:]))
        return [exact, spurious, nilpotent, near_overflow(exact), near_overflow(spurious), late]

    def stacks(self, pairs):
        firsts = [padded(first, 12, 2, 2) for first, _ in pairs]
        seconds = [padded(second, 8, 2, 2) for _, second in pairs]
        return ([np.stack(Ms) for Ms in zip(*firsts)], [np.stack(Ms) for Ms in zip(*seconds)],
                firsts, seconds)

    def test_batch_verdicts_equal_single_verdicts(self):
        pairs = self.pairs()
        first, second, firsts, seconds = self.stacks(pairs)
        batch = markov_match(first, second)
        single = [markov_match(f, s) for f, s in zip(firsts, seconds)]
        unpadded = [markov_match(f, s) for f, s in pairs]
        assert isinstance(batch, np.ndarray) and batch.dtype == bool and batch.shape == (6,)
        assert all(isinstance(v, bool) for v in single)
        assert batch.tolist() == single == unpadded == [True, False, True, True, False, False]
        # The scaled pairs would overflow without the per-step rescaling.
        A, B, C = pairs[3][0]
        with np.errstate(over="ignore"):
            assert not np.isfinite(markov_parameters(A, B, C, self.HORIZON)[-1]).all()

    def test_any_finite_input_and_output_scale(self):
        # With B and C scaled by 1e200, C B alone overflows. Each side's B
        # and C are first divided by one exact power of two per item, so
        # the verdicts are those of the unscaled pairs.
        exact, spurious = self.pairs()[:2]

        def huge(pair):
            return tuple((A, 1e200 * np.asarray(B), 1e200 * np.asarray(C)) for A, B, C in pair)

        assert markov_match(*huge(exact)) is True
        assert markov_match(*huge(spurious)) is False
        first, second, _, _ = self.stacks([huge(exact), huge(spurious), exact])
        assert markov_match(first, second).tolist() == [True, False, True]

    def test_non_finite_entry_raises(self):
        first, second, firsts, seconds = self.stacks(self.pairs())
        bad = firsts[0][2].copy()
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            markov_match((firsts[0][0], firsts[0][1], bad), seconds[0])
        first[2][3, 1, 0] = np.inf
        with pytest.raises(NonFiniteError):
            markov_match(first, second)

    def test_input_output_mismatch_raises(self):
        first, second, firsts, seconds = self.stacks(self.pairs())
        with pytest.raises(DimensionMismatchError):
            markov_match(firsts[0], (seconds[0][0], seconds[0][1][:, :1], seconds[0][2]))
        with pytest.raises(DimensionMismatchError):
            markov_match(first, (second[0], second[1], second[2][:, :1]))

    def test_non_conformal_triple_raises(self):
        # A not square, B with a row too few, C with a column too few; on
        # either side, for single triples and for stacks.
        first, second, firsts, seconds = self.stacks(self.pairs())
        for good, other in ((firsts[0], seconds[0]), (first, second)):
            A, B, C = good
            for bad in ((A[..., :-1], B, C), (A, B[..., :-1, :], C), (A, B, C[..., :-1])):
                for pair in ((bad, other), (other, bad)):
                    with pytest.raises(DimensionMismatchError, match="not conformal"):
                        markov_match(*pair)


class TestSimulate:
    def test_zero_everything(self):
        S = swap_system(1.0)
        outputs = simulate(S, np.zeros(4), [np.zeros(1)] * 5)
        assert len(outputs) == 6
        for y in outputs:
            np.testing.assert_allclose(y, np.zeros(4))

    def test_impulse_reproduces_markov(self):
        for seed in range(6):
            S = generate_system(GeneratorSpec(n=4, inputs=2, outputs=3,
                                              density=0.8, seed=seed))
            seq = markov_parameters(S.A, S.B, S.C, 5)
            for j in range(S.num_inputs):
                impulse = [np.eye(S.num_inputs)[j]] + [np.zeros(S.num_inputs)] * 5
                outputs = simulate(S, np.zeros(S.dim), impulse)
                for k in range(6):
                    np.testing.assert_allclose(outputs[k + 1], seq[k][:, j],
                                               atol=TOL.eq_tol)

    def test_trajectories_stay_nonneg(self):
        rng = np.random.default_rng(77)
        S = generate_system(GeneratorSpec(n=5, inputs=2, density=0.6, seed=4))
        inputs = rng.uniform(0.0, 1.0, (20, 2))
        outputs = simulate(S, rng.uniform(0.0, 1.0, 5), list(inputs))
        assert all(y.min() >= -TOL.nonneg_tol for y in outputs)

    def test_rejects_negative_data(self):
        S = swap_system(1.0)
        with pytest.raises(ValueError, match="negative entries"):
            simulate(S, -np.ones(4), [])
        with pytest.raises(ValueError, match="negative entries"):
            simulate(S, np.zeros(4), [-np.ones(1)])

    def test_rejects_continuous_tag(self):
        S = PositiveLtiSystem(np.eye(2), np.ones((2, 1)), time_domain="continuous")
        with pytest.raises(ValueError):
            simulate(S, np.zeros(2), [])


def test_exact_reduction_on_planted_systems():
    reduced_count = 0
    for seed in range(25):
        spec = GeneratorSpec(n=6, inputs=1, outputs=2, reachable_dim=3,
                             density=0.8, seed=seed)
        S = generate_system(spec)
        try:
            basis = reachable_subspace(S)
        except RankDeficientError:
            continue
        if basis.dimension == S.dim:
            continue
        F = find_nonneg_factorization(basis)
        if F is None:
            continue
        assert equivalent(S, reduce(S, F))
        reduced_count += 1
    assert reduced_count > 5


class TestGeneratorSpec:
    @pytest.mark.parametrize("field", ["n", "inputs", "outputs"])
    def test_counts_below_one_are_rejected(self, field):
        with pytest.raises(ValueError, match="at least 1"):
            GeneratorSpec(**{"n": 3, field: 0})

    @pytest.mark.parametrize("density", [0.0, -0.5, 1.5])
    def test_density_outside_the_unit_interval_is_rejected(self, density):
        with pytest.raises(ValueError, match=r"density must lie in \(0, 1\]"):
            GeneratorSpec(n=3, density=density)

    @pytest.mark.parametrize("build", [
        lambda **change: GeneratorSpec(**{"n": 3, **change}),
        lambda **change: GeneratorSpec(*(GeneratorSpec(3)._asdict() | change).values()),
        lambda **change: GeneratorSpec(3)._replace(**change),
        lambda **change: GeneratorSpec._make((GeneratorSpec(3)._asdict() | change).values()),
    ], ids=["keyword", "positional", "_replace", "_make"])
    @pytest.mark.parametrize("change, message", [
        ({"n": 0}, "n, inputs, and outputs must be at least 1"),
        ({"outputs": 0}, "n, inputs, and outputs must be at least 1"),
        ({"density": 0.0}, r"density must lie in \(0, 1\]"),
        ({"reachable_dim": 4}, r"reachable_dim must lie in \[1, n\]"),
        ({"seed": -1}, "seed must be non-negative"),
    ], ids=["n", "outputs", "density", "reachable_dim", "seed"])
    def test_every_construction_path_checks_the_spec(self, build, change, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build(**change)
