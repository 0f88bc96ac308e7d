"""Self-tests of the benchmark's oracle, generators and counters.

Run from the root of a checkout with either of

    python3 perfbench/selftest.py
    python3 -m pytest -q perfbench/selftest.py
"""
import itertools
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import numpy as np  # noqa: E402
import posred  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import systems  # noqa: E402


def parts(S):
    return S.A, S.B, S.C


def projected(S, J, Jdag):
    J, Jdag = np.asarray(J, dtype=float), np.asarray(Jdag, dtype=float)
    return Jdag @ S.A @ J, Jdag @ S.B, S.C @ J


def test_oracle_accepts_cascade_reduction():
    S = systems.cascade(posred)
    J = np.eye(4)[:, :2]
    assert oracle.check(*parts(S), J, J.T, *projected(S, J, J.T)) == ""
    report = posred.rpmr_reachable(S)
    F, R = report.factorization, report.reduced_system
    assert oracle.check(*parts(S), F.J, F.Jdag, R.A, R.B, R.C) == ""


def test_oracle_checks_observable_route_by_duality():
    S = systems.cascade(posred).transpose()
    report = posred.rpmr_observable(S)
    F, R = report.factorization, report.reduced_system
    assert oracle.check_observable(*parts(S), F.J, F.Jdag, R.A, R.B, R.C) == ""
    assert oracle.check(*parts(S), F.J, F.Jdag, R.A, R.B, R.C) != ""


def test_oracle_rejects_dropped_mode():
    # State 0 decays like 0.5^k; states 1..5 grow like 15^k. Dropping
    # state 0 changes every Markov coefficient by 0.5^k, far below a
    # tolerance scaled by the largest coefficient.
    A = np.zeros((6, 6))
    A[0, 0] = 0.5
    A[1:, 1:] = 3.0
    S = posred.PositiveLtiSystem(A, np.ones((6, 1)), np.ones((1, 6)))
    J = np.eye(6)[:, 1:]
    verdict = oracle.check(*parts(S), J, J.T, *projected(S, J, J.T))
    assert verdict.startswith("reachable space not inside Im(J)")


def test_oracle_rejects_mixed_sign_factor_pair():
    S = systems.cascade(posred)
    J = np.array([[1.0, 2.0], [1.0, 1.0], [0.0, 0.0], [0.0, 0.0]])  # [B, AB]
    Jdag = np.linalg.pinv(J)
    assert oracle.check(*parts(S), J, Jdag, *projected(S, J, Jdag)) == "Jdag has negative entries"


def test_oracle_rejects_a_triple_that_is_not_the_projection():
    S = systems.cascade(posred)
    J = np.eye(4)[:, :2]
    Ar, Br, Cr = projected(S, J, J.T)
    assert oracle.check(*parts(S), J, J.T, Ar + 0.5, Br, Cr).startswith("reduced A")


def test_reachable_basis_matches_planted_dimension():
    for n in (12, 60, 200):
        S = posred.generate_system(posred.GeneratorSpec(
            n=n, inputs=2, outputs=2, reachable_dim=n // 2, density=0.6, seed=1))
        Q = oracle.reachable_basis(S.A, S.B)
        assert Q.shape[1] == systems.reachable_support(S.A, S.B).size
        assert np.abs(Q.T @ Q - np.eye(Q.shape[1])).max() < 1e-10


def test_lumped_systems_have_no_minimal_factorization_and_r_blocks():
    for (n, r, q) in ((6, 4, 3), (7, 5, 3), (8, 5, 3), (8, 6, 4)):
        for seed in range(5):
            S = systems.lumped(posred, n, r, q, seed)
            basis = posred.reachable_subspace(S)
            assert basis.dimension == q
            assert oracle.reachable_basis(S.A, S.B).shape[1] == q
            # posred's exhaustive scan is the reference for "no minimal factor".
            assert posred.find_nonneg_factorization(basis) is None
            algebra = posred.closure(basis, posred.choose_p(basis))
            assert algebra.dimension == r


def test_lex_rank_counts_the_subsets_scanned():
    enumerate_subsets = getattr(posred, "row_subsets",
                                lambda n, m: map(list, itertools.combinations(range(n), m)))
    for n in range(1, 9):
        for m in range(1, n + 1):
            for rank, subset in enumerate(enumerate_subsets(n, m)):
                assert systems.lex_rank(subset, n) == rank
                assert systems.lex_unrank(rank, n, m) == list(subset)


def test_planted_hit_sits_at_the_requested_depth():
    for depth in (0.0, 0.3, 0.99):
        S, q = systems.planted(posred, 10, 3, depth)
        F = posred.find_nonneg_factorization(posred.reachable_subspace(S))
        assert systems.lex_rank(F.pivot_rows, 10) == int(depth * math.comb(10, q))


def test_spans_add_up_and_uninstall_restores():
    original = posred.pipeline.find_nonneg_factorization
    tracer = spans.Tracer()
    tracer.install()
    try:
        posred.rpmr_reachable(systems.lumped(posred, 8, 5, 3, 0))
    finally:
        tracer.uninstall()
    assert posred.pipeline.find_nonneg_factorization is original
    summary = spans.summarize(tracer.take())
    assert math.isclose(sum(summary["self"].values()), summary["root_s"], rel_tol=1e-9)
    assert summary["search_calls"] == 1 and summary["search_hits"] == 0
    assert summary["subsets_tried"] == math.comb(8, 3)
    assert summary["excess_dim"] == 5 - 3
    assert tracer.absent == []


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
