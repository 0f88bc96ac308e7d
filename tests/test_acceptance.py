"""Acceptance criteria, one test per numbered criterion.

Each test prints one ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``) and pins the tolerance stated for that criterion. The
random suites are fully seeded and deterministic.
"""
import functools
import time

import numpy as np
import pytest

from posred import (Factorization, GeneratorSpec,
                    Tolerances, choose_p, closure, equivalent,
                    find_nonneg_factorization, generate_system,
                    is_monotone_nonneg_rect, left_inverse,
                    project, reachable_subspace, reduce,
                    rpmr_observable, rpmr_reachable)
from conftest import (algebraic_reduction, cascade_system, is_monotone_by_cone,
                      markov_parameters, rank, reachability_matrix, swap_system, wedge)

TOL = Tolerances()


def criterion(num, description):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] FAIL  {description}")
                raise
            print(f"\n[criterion {num}] PASS  {description}")
        return inner
    return wrap


def max_err(actual, expected) -> float:
    return float(np.abs(np.asarray(actual) - np.asarray(expected)).max())


def spans_equal(M1, M2) -> bool:
    r = rank(M1)
    return rank(M2) == r and rank(np.hstack([M1, M2])) == r


# --- suite 6 corpus: 500 seeded planted systems, reduced both ways --------

SUITE6_SEED = 20250806


def suite6_specs():
    rng = np.random.default_rng(SUITE6_SEED)
    specs = []
    for _ in range(500):
        n = int(rng.integers(2, 9))
        specs.append(GeneratorSpec(
            n=n,
            inputs=int(rng.integers(1, 3)),
            outputs=int(rng.integers(1, 3)),
            reachable_dim=int(rng.integers(1, n)),
            density=float(rng.uniform(0.5, 1.0)),
            seed=int(rng.integers(0, 2**31))))
    return specs


@pytest.fixture(scope="module")
def planted_suite():
    """(system, report, algebraic) for 500 planted systems, plus the wall
    time the sweep took. algebraic is the (algebra, reduced system) pair
    of the algebraic reduction alone, present only when the report took
    the minimal route on a non-trivial space."""
    entries = []
    start = time.perf_counter()
    for spec in suite6_specs():
        S = generate_system(spec)
        report = rpmr_reachable(S)
        algebraic = None
        if report.method == "minimal" and report.reduced_dim > 0:
            algebraic = algebraic_reduction(S)
        entries.append((S, report, algebraic))
    elapsed = time.perf_counter() - start
    return entries, elapsed


@criterion(1, "cascade regression: reachability blocks, pseudo-inverse, naive reduction")
def test_criterion_1_cascade_regression():
    """The first row of the reachability sequence obeys r[k+1] = r[k] + s[k]
    with s the second row, so it runs 1, 2, 3, 5; a final value of 4 there
    is not reproducible by any consistent dynamics. The frozen expectation
    is the hand-iterated sequence."""
    start = time.perf_counter()
    S = cascade_system()
    R = reachability_matrix(S)
    assert max_err(R[:, :3], [[1.0, 2.0, 3.0], [1.0, 1.0, 2.0],
                              [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) <= 1e-9
    assert max_err(R[:, 3], [5.0, 3.0, 0.0, 0.0]) <= 1e-9

    basis = reachable_subspace(S)
    assert max_err(basis.basis, [[1.0, 2.0], [1.0, 1.0],
                                 [0.0, 0.0], [0.0, 0.0]]) <= 1e-9
    Rdag = left_inverse(basis.basis)
    assert max_err(Rdag, [[-1.0, 2.0, 0.0, 0.0], [1.0, -1.0, 0.0, 0.0]]) <= 1e-9

    naive = Factorization(np.asarray(basis.basis), Rdag, [])
    Ar, Br, _ = project(S, naive.J, naive.Jdag)
    assert max_err(Ar, [[0.0, 1.0], [1.0, 1.0]]) <= 1e-9
    assert max_err(Br, [[1.0], [0.0]]) <= 1e-9
    assert time.perf_counter() - start < 1.0


@criterion(2, "cascade robustness: naive factors break at eps=0.1, search factors do not")
def test_criterion_2_cascade_robustness():
    base = cascade_system()
    perturbed = cascade_system(0.1)
    basis = reachable_subspace(base)
    naive_Jdag = left_inverse(basis.basis)

    Ar, Br, _ = project(perturbed, basis.basis, naive_Jdag)
    assert max_err(Ar, [[-0.1, 0.9], [1.1, 1.1]]) <= 1e-9
    assert max_err(Br, [[1.2], [-0.1]]) <= 1e-9
    assert Ar.min() < -TOL.nonneg_tol and Br.min() < -TOL.nonneg_tol  # flagged not positive

    robust = find_nonneg_factorization(basis)
    assert robust is not None
    for S in (base, perturbed):
        reduced = reduce(S, robust)  # raises if any entry were negative
        assert min(reduced.A.min(), reduced.B.min(), reduced.C.min()) >= 0.0
        full = markov_parameters(S.A, S.B, S.C, 6)
        small = markov_parameters(reduced.A, reduced.B, reduced.C, 6)
        assert max(max_err(M1, M2) for M1, M2 in zip(full, small)) <= 1e-8


@criterion(3, "swap system at eps=1: minimal route, algebraic reduction, closure span")
def test_criterion_3_swap_eps1():
    S = swap_system(1.0)
    basis = reachable_subspace(S)
    F = find_nonneg_factorization(basis)
    assert is_monotone_nonneg_rect(basis.basis).monotone
    assert max_err(F.Jdag, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]) <= 1e-9

    minimal = rpmr_reachable(S)
    assert minimal.method == "minimal" and minimal.reduced_dim == 2
    assert max_err(minimal.reduced_system.A, [[0.0, 1.0], [1.0, 0.0]]) <= 1e-9
    assert max_err(minimal.reduced_system.B, [[0.0], [1.0]]) <= 1e-9

    algebra, reduced = algebraic_reduction(S)
    assert reduced.dim == 3
    assert max_err(reduced.A, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]) <= 1e-9
    assert max_err(reduced.B, [[0.0], [1.0], [1.0]]) <= 1e-9

    towers = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                       [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
    assert spans_equal(np.asarray(algebra.generators), towers)


@criterion(4, "swap system at eps=2: three-dimensional factorization and algebra agree")
def test_criterion_4_swap_eps2():
    S = swap_system(2.0)
    basis = reachable_subspace(S)
    assert basis.dimension == 3

    F = find_nonneg_factorization(basis)
    assert F is not None
    # Compare up to column scaling by normalizing each column at its pivot row.
    normalized = F.J / F.J[F.pivot_rows, np.arange(3)]
    assert max_err(normalized, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]) <= 1e-9
    assert F.Jdag.min() >= 0.0
    assert max_err(F.Jdag @ F.J, np.eye(3)) <= 1e-9

    assert algebraic_reduction(S)[1].dim == 3


@criterion(5, "1000 random non-negative matrices: structural test equals cone oracle")
def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(20250805)
    verdicts = {True: 0, False: 0}
    trials = 0
    while trials < 1000:
        m = int(rng.integers(1, 5))
        n = int(rng.integers(m, 7))
        X = np.where(rng.random((n, m)) < 0.6, rng.uniform(0.1, 1.0, (n, m)), 0.0)
        if trials % 3 == 0:
            for j in range(m):
                i = int(rng.integers(0, n))
                X[i] = 0.0
                X[i, j] = rng.uniform(0.1, 1.0)
        if np.linalg.matrix_rank(X) < m:
            continue
        trials += 1
        fast = is_monotone_nonneg_rect(X)
        slow = is_monotone_by_cone(X)
        assert fast.monotone == slow.monotone
        verdicts[fast.monotone] += 1
        if n == m:
            # Square case: monotone exactly when the columns are orthogonal.
            gram = X.T @ X
            assert (np.abs(gram - np.diag(np.diag(gram))).max() <= TOL.eq_tol) == fast.monotone
    elapsed = time.perf_counter() - start
    assert min(verdicts.values()) > 100  # both verdicts well represented
    assert elapsed < 30.0


@criterion(6, "500 planted systems: every reduction verified, minimal never beaten")
def test_criterion_6_soundness(planted_suite):
    entries, elapsed = planted_suite
    produced = 0
    compared = 0
    for S, report, algebraic in entries:
        assert report.method != "none"
        produced += 1
        assert equivalent(S, report.reduced_system)
        if algebraic is not None:
            assert report.reduced_dim <= algebraic[1].dim
            compared += 1
    assert produced == 500
    assert compared > 100
    assert elapsed < 60.0


@criterion(7, "algebra invariants: generators are idempotent, sum to p, stay monotone")
def test_criterion_7_algebra_invariants(planted_suite):
    entries, _ = planted_suite
    algebras = []
    for eps in (1.0, 2.0):
        basis = reachable_subspace(swap_system(eps))
        algebras.append(closure(basis, choose_p(basis)))
    for _, report, algebraic in entries:
        if report.algebra is not None:
            algebras.append(report.algebra)
        if algebraic is not None:
            algebras.append(algebraic[0])
    assert len(algebras) > 100
    from posred import SubspaceBasis
    for algebra in algebras:
        gens = algebra.generators
        p = algebra.p
        assert max_err(gens.sum(axis=1), p) <= 1e-8
        for i in range(algebra.dimension):
            for j in range(algebra.dimension):
                expected = gens[:, i] if i == j else np.zeros(p.size)
                assert max_err(wedge(gens[:, i], gens[:, j], p), expected) <= 1e-8
        assert is_monotone_nonneg_rect(gens).monotone
        again = closure(SubspaceBasis(gens), p)
        assert again.dimension == algebra.dimension


@criterion(8, "minimal-route instances: algebra-closed exactly when J has orthogonal columns")
def test_criterion_8_orthogonality_criterion(planted_suite):
    entries, _ = planted_suite
    checked = 0
    for S, report, _ in entries:
        if report.method != "minimal" or report.reduced_dim == 0:
            continue
        J = np.asarray(report.factorization.J)
        gram = J.T @ J
        orthogonal = bool(np.abs(gram - np.diag(np.diag(gram))).max() <= TOL.eq_tol)
        basis = reachable_subspace(S)
        closed = closure(basis, choose_p(basis)).dimension == basis.dimension
        assert closed == orthogonal
        checked += 1
    assert checked > 100


@criterion(9, "100 seeded systems: observable reduction is the transposed dual reduction")
def test_criterion_9_duality():
    rng = np.random.default_rng(20250807)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        planted = trial % 2 == 0
        spec = GeneratorSpec(
            n=n, inputs=int(rng.integers(1, 3)), outputs=int(rng.integers(1, 3)),
            reachable_dim=int(rng.integers(1, n)) if planted else None,
            density=float(rng.uniform(0.5, 1.0)), seed=int(rng.integers(0, 2**31)))
        S = generate_system(spec).transpose() if planted else generate_system(spec)
        obs = rpmr_observable(S)
        dual = rpmr_reachable(S.transpose())
        assert obs.method == dual.method
        assert obs.space == "observable" and dual.space == "reachable"
        assert obs.original_dim == dual.original_dim
        assert obs.reduced_dim == dual.reduced_dim
        assert obs.reduced_system is None or equivalent(S, obs.reduced_system)
        assert (obs.factorization is None) == (dual.factorization is None)
        if obs.factorization is not None:
            assert np.array_equal(obs.factorization.J, dual.factorization.Jdag.T)
            assert np.array_equal(obs.factorization.Jdag, dual.factorization.J.T)
            assert np.array_equal(obs.reduced_system.A, dual.reduced_system.A.T)
            assert np.array_equal(obs.reduced_system.B, dual.reduced_system.C.T)
            assert np.array_equal(obs.reduced_system.C, dual.reduced_system.B.T)
