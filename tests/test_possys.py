"""Positive-system objects: reachability, Markov parameters, reduction,
equivalence, simulation."""
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from posred import (DimensionMismatchError, Factorization, NegativeInputError,
                    NonFiniteError, NotInvariantError, NotPositiveError, PositiveLtiSystem,
                    PosredError, Tolerances, equivalent, find_nonneg_factorization,
                    left_inverse, markov_match, markov_parameters, observability_matrix,
                    project, rank, reachability_matrix, reachable_subspace,
                    reduce, rpmr_reachable, simulate)
from posred import GeneratorSpec, ZeroMatrixError, generate_system, is_nonneg
from conftest import (cascade_system, fixes_every_krylov_block, spurious_mode_pair,
                      swap_system)

TOL = Tolerances()


class TestConstruction:
    def test_negative_entry_rejected(self):
        with pytest.raises(NotPositiveError, match="not positive"):
            PositiveLtiSystem([[1.0, -0.5], [0.0, 1.0]], [[1.0], [0.0]])

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
        with pytest.raises(ZeroMatrixError):
            reachable_subspace(S)

    def test_invariance_and_positivity(self):
        rng = np.random.default_rng(31)
        for seed in range(20):
            spec = GeneratorSpec(n=int(rng.integers(2, 7)), inputs=2,
                                 reachable_dim=None, density=0.7, seed=seed)
            S = generate_system(spec)
            try:
                basis = reachable_subspace(S)
            except ZeroMatrixError:
                continue
            q = basis.dimension
            assert rank(np.hstack([basis.basis, S.A @ basis.basis])) == q
            assert rank(np.hstack([basis.basis, S.B])) == q
            assert is_nonneg(basis.basis)


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
        with pytest.raises(NotPositiveError):
            reduce(S, F)

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

    def test_blocks_within_eq_tol_that_drift_out_later_are_rejected(self):
        # The selector of states {0, 1} fixes the unit-peak blocks e0, e1
        # and e1 + 1e-9 e2 within eq_tol, so the blocks k <= m = 2 pass.
        # State 2 doubles at every step: block k carries 1e-9 (2^(k-1) - 1)
        # of e2, 1.5e-8 at k = 5, and C A^k B would miss by about 2 at
        # k = 32.
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
    The selector of states 0..m-1 fixes the first blocks within eq_tol,
    and the faint state can drift out of tolerance at any later power."""
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
    """A positive system with n <= 8 and the selector J of a set of
    states, with Jdag = J^T, and whether J @ Jdag is known to fix the
    reachable space exactly when the set contains the reachable support
    (the states reached from the nonzero rows of B in the graph of A).
    Random systems have n <= 6 and nonzero entries in [0.5, 2], so every
    reached state's first nonzero entry in the unit-peak blocks exceeds
    3e-8 > eq_tol and it is known; the set is random, or the support with
    random states added, or with one removed. Drifting chains (see
    drifting_chain) select their first m states; for them it is not."""
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
    support = (S.B != 0).any(axis=1)
    for _ in range(n):
        support = support | (S.A[:, support] != 0).any(axis=1)
    if kind == "random":
        states = rng.random(n) < 0.5
    elif kind == "superset":
        states = support | (rng.random(n) < 0.3)
    elif kind == "short":
        states = support.copy()
        if support.any():
            states[rng.choice(np.flatnonzero(support))] = False
    J = np.eye(n)[:, states]
    return S, Factorization(J, J.T, np.flatnonzero(states).tolist()), support, kind != "drift"


@given(selector_reductions())
def test_reduce_accepts_exactly_when_every_krylov_block_is_fixed(case):
    S, F, support, support_decides = case
    try:
        reduce(S, F)
        accepted = True
    except NotInvariantError:
        accepted = False
    assert accepted == fixes_every_krylov_block(S, F.J, F.Jdag)
    if support_decides:
        assert accepted == (set(np.flatnonzero(support)) <= set(F.pivot_rows))


def test_drifting_chains_reach_both_verdicts_after_block_m():
    # The property above is only as strong as its cases. With m = 2 the
    # blocks k <= m touch states 0..2 only, so they are the blocks of the
    # 3-state truncation, and those pass; yet some of the full chains are
    # rejected at a later block, and some are not.
    rng = np.random.default_rng(7)
    later = []
    for _ in range(40):
        S = drifting_chain(rng, 8, 2)
        J = np.eye(8)[:, :2]
        assert fixes_every_krylov_block(PositiveLtiSystem(S.A[:3, :3], S.B[:3]), J[:3], J[:3].T)
        later.append(fixes_every_krylov_block(S, J, J.T))
    assert 0 < sum(later) < len(later)


def takes_raw_stack(S: PositiveLtiSystem) -> bool:
    """Whether reduce scales the raw stack [B, AB, ...] instead of forming
    each block from the scaled one before it: every column peak lies in
    [2^-500, 2^500] and no product term of the stack can underflow."""
    def smallest(M):
        return np.abs(M)[M != 0.0].min(initial=np.inf)

    with np.errstate(over="ignore", invalid="ignore"):
        peaks = np.abs(reachability_matrix(S)).max(axis=0)
    floor = smallest(S.B) * min(1.0, smallest(S.A)) ** (S.dim - 1)
    return bool(floor >= 2.0 ** -1022 and ((peaks >= 2.0 ** -500) & (peaks <= 2.0 ** 500)).all())


def overflowing_chain() -> PositiveLtiSystem:
    """States 0 -> 1 -> 2 -> 3 with weight 1e200 and a self-loop on 3:
    A^2 B is 1e400 e2, which overflows, while each unit-peak block is a
    unit vector. States 4 and 5 are unreachable."""
    A = np.zeros((6, 6))
    A[[1, 2, 3], [0, 1, 2]] = 1e200
    A[3, 3], A[5, 4] = 0.5, 1.0
    return PositiveLtiSystem(A, np.eye(6)[:, :1], np.ones((1, 6)))


def tiny_input_cascade() -> PositiveLtiSystem:
    """The cascade with B scaled by 2^-600: every raw power stays far
    below 2^-500, while its unit-peak blocks are the cascade's. The
    reachable space is the plane of states {0, 1}."""
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
    """Systems whose raw powers overflow, sit near underflow, or lose small
    entries to underflow take the block-by-block path; its verdict must
    be the reference loop's, with no floating-point warning."""

    @pytest.mark.parametrize("system, reached, accepted", [
        (overflowing_chain, 4, True), (overflowing_chain, 3, False),
        (tiny_input_cascade, 2, True), (tiny_input_cascade, 1, False),
        (amplifying_chain, 5, True), (amplifying_chain, 1, False)])
    def test_verdict_matches_the_reference_loop(self, system, reached, accepted):
        S = system()
        assert not takes_raw_stack(S)
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
        # keep every Markov coefficient.
        S = amplifying_chain()
        try:
            report = rpmr_reachable(S)
        except PosredError:
            return
        assert equivalent(S, report.reduced_system)


@given(selector_reductions(), st.integers(-700, 700))
def test_reduce_verdict_matches_the_reference_loop_at_any_input_scale(case, e):
    # Scaling B by 2^e is exact, so the reference verdict does not move;
    # e beyond about +-500 sends reduce down the block-by-block path.
    S, F, _, _ = case
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
            horizon = n + second[0].shape[0]
            verdicts.append(markov_match(first, second, horizon))
            assert verdicts[-1] == raw_match(first, second, horizon)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_rounding_noise_on_zero_coefficients(self):
        # C A^k B vanishes from k = 2 on; a reduced model computed in
        # floating point leaves noise of 1e-17 there instead of zeros.
        S = PositiveLtiSystem([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[1.0, 1.0]])
        noisy = PositiveLtiSystem([[0.0, 1.0], [1e-17, 0.0]], [[0.0], [1.0]], [[1.0, 1.0]])
        assert equivalent(S, noisy)
        assert not equivalent(S, PositiveLtiSystem([[0.0, 1.0], [1e-6, 0.0]],
                                                   [[0.0], [1.0]], [[1.0, 1.0]]))


def padded(triple, n, inputs, outputs):
    """The triple with zero states, inputs and outputs appended: the same
    impulse response, padded with zero rows and columns."""
    A, B, C = (np.asarray(M, dtype=float) for M in triple)
    k = A.shape[0]
    out = np.zeros((n, n)), np.zeros((n, inputs)), np.zeros((outputs, n))
    out[0][:k, :k], out[1][:k, :B.shape[1]], out[2][:C.shape[0], :k] = A, B, C
    return out


class TestMarkovMatchBatch:
    HORIZON = 20  # n1 + n2 of the padded triples

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
        batch = markov_match(first, second, self.HORIZON)
        single = [markov_match(f, s, self.HORIZON) for f, s in zip(firsts, seconds)]
        unpadded = [markov_match(f, s, self.HORIZON) for f, s in pairs]
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

        assert markov_match(*huge(exact), self.HORIZON) is True
        assert markov_match(*huge(spurious), self.HORIZON) is False
        first, second, _, _ = self.stacks([huge(exact), huge(spurious), exact])
        assert markov_match(first, second, self.HORIZON).tolist() == [True, False, True]

    def test_non_finite_entry_raises(self):
        first, second, firsts, seconds = self.stacks(self.pairs())
        bad = firsts[0][2].copy()
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            markov_match((firsts[0][0], firsts[0][1], bad), seconds[0], self.HORIZON)
        first[2][3, 1, 0] = np.inf
        with pytest.raises(NonFiniteError):
            markov_match(first, second, self.HORIZON)

    def test_input_output_mismatch_raises(self):
        first, second, firsts, seconds = self.stacks(self.pairs())
        with pytest.raises(DimensionMismatchError):
            markov_match(firsts[0], (seconds[0][0], seconds[0][1][:, :1], seconds[0][2]),
                         self.HORIZON)
        with pytest.raises(DimensionMismatchError):
            markov_match(first, (second[0], second[1], second[2][:, :1]), self.HORIZON)


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
        with pytest.raises(NegativeInputError):
            simulate(S, -np.ones(4), [])
        with pytest.raises(NegativeInputError):
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
        except ZeroMatrixError:
            continue
        if basis.dimension == S.dim:
            continue
        F = find_nonneg_factorization(basis)
        if F is None:
            continue
        assert equivalent(S, reduce(S, F))
        reduced_count += 1
    assert reduced_count > 5
