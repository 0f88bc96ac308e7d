"""End-to-end reduction: try the minimal factorization of the reachable
space, fall back to the algebra enlargement, reduce, and report.

The observable direction is handled by duality: reduce the transposed
system and transpose the result back. Non-negative factors with
Jdag J = I reduce S exactly on the observable side iff O J Jdag = O, O
the observability matrix, that is iff (Jdag^T, J^T) fixes the reachable
space of the transpose; the map between the pairs is a bijection, so the
dual search is as complete as the reachable one.
"""

from typing import NamedTuple, Optional

import numpy as np

from . import possys
from .distalg import DistortedAlgebra, algebra_factorization, choose_p, closure
from .errors import DimensionMismatchError, NonFiniteError, NotInvariantError, RankDeficientError
from .factorize import Factorization, find_nonneg_factorization
from .numerics import DEFAULT_TOL, SubspaceBasis, Tolerances
from .possys import PositiveLtiSystem


class ReductionReport(NamedTuple):
    """What was done to a system and the evidence that it is sound.

    method is "minimal" (projector onto the target space itself, also
    when it comes from an algebra enlargement that adds no dimension),
    "algebraic" (projector onto its algebra enlargement), or "none".
    A reduced system is present exactly when method is not "none"; it was
    built by possys.reduce, which checked exactness and positivity, so its
    presence is the verification. The algebra field keeps the enlargement
    that was computed on the algebraic route, and basis the target-space
    basis (for the observable space, the reachable basis of the transposed
    system), or None when that space is trivial. diagnostics is a tuple of
    lines in the order the pipeline wrote them: the pipeline builds each
    report once, with all of its lines.
    """

    method: str
    space: str
    original_dim: int
    reduced_dim: int
    factorization: Optional[Factorization] = None
    reduced_system: Optional[PositiveLtiSystem] = None
    diagnostics: tuple[str, ...] = ()
    algebra: Optional[DistortedAlgebra] = None
    basis: Optional[SubspaceBasis] = None


class PerturbationRecord(NamedTuple):
    """Per-perturbation outcome of the naive-versus-robust comparison."""

    naive_positive: bool
    robust_positive: bool
    equivalent: bool


def _rpmr_core(S: PositiveLtiSystem, tol: Tolerances, space: str) -> ReductionReport:
    n = S.dim
    basis = algebra = None

    def report(method: str, F: Optional[Factorization] = None, *lines: str) -> ReductionReport:
        # With F, possys.reduce raises unless the reduction by F is exact and positive.
        reduced = None if F is None else possys.reduce(S, F, tol)
        return ReductionReport(method, space, n, n if reduced is None else reduced.dim, F,
                               reduced, lines, algebra, basis)

    try:
        basis = possys.reachable_subspace(S, tol)
    except RankDeficientError:
        # Rank 0, the one RankDeficientError of reachable_subspace: the target
        # space is trivial, and the order-zero reduction is exact with empty factors.
        zero_map = "input" if space == "reachable" else "output"
        return report("minimal", Factorization(np.zeros((n, 0)), np.zeros((0, n)), []),
                      f"{space} space is trivial (zero {zero_map} map); reduced to order 0")

    q = basis.dimension
    if q == n:
        return report("none", None, f"already {space}: the {space} space has full dimension")

    F = find_nonneg_factorization(basis, tol)
    # missed: why the minimal route did not decide (no pair, or a refused one).
    missed = f"no projector onto the {space} space admits non-negative factors"
    if F is not None:
        # Factors of a basis that column selection left short of the
        # space (raw powers under scaling) fail reduce's Krylov check.
        try:
            return report("minimal", F)
        except NotInvariantError:
            missed = f"non-negative factors of the {space} basis do not fix the {space} space"

    algebra = closure(basis, choose_p(basis, tol), tol)
    if algebra.dimension >= n:
        return report("none", None, missed, "RPMR could not be performed: the algebra "
                                            "enlargement has full dimension")

    # The enlargement need not be A-invariant: reduce() falls back to
    # checking that its projector fixes the target space. A closure
    # smaller than the space cannot contain it, and that check refuses it.
    G = algebra_factorization(algebra)
    enlarged = f"algebra enlargement: {q} -> {algebra.dimension} dimensions"
    try:
        if algebra.dimension != q:
            return report("algebraic", G, missed, enlarged)
        # An algebra of dimension q is the target space itself: once reduce()
        # accepts its factors, they are a minimal pair that the search missed,
        # and missed stays only when it says that reduce refused the search's pair.
        return report("minimal", G, *(() if F is None else (missed,)),
                      f"the algebra enlargement equals the {space} space ({q} dimensions); "
                      "its factors are a non-negative minimal pair")
    except NotInvariantError:
        return report("none", None, missed, enlarged, "RPMR could not be performed: the "
                      "projector of the algebra enlargement fails the exactness check (it "
                      f"does not fix the {space} space)")


def rpmr_reachable(S: PositiveLtiSystem, tol: Tolerances = DEFAULT_TOL) -> ReductionReport:
    """Robust positive reduction onto the reachable space.

    Tries the minimal factorization first; when none exists, or its
    factors fail the exactness check of possys.reduce (the raw-power basis
    can fall short of the reachable space under strong state scaling),
    the reachable space is enlarged to the smallest product algebra
    containing it, which always factors non-negatively; its unit p is the
    sum of the non-negative reachable generators, positive exactly on the
    rows where they are not all zero, so the report depends on S and tol
    alone, and not on the units of B. An algebra of the basis's own
    dimension is the reachable space itself, so its factors are a minimal
    pair that the search missed, and the report says "minimal". On a
    coordinate reachable space (a planted system) neither the basis nor
    the exactness check forms the full Krylov stack: reachable_subspace
    certifies the first blocks on the structural support, and reduce
    reads the selector's reduction off the principal subsystem. Every
    reported reduction comes from possys.reduce, whose entrywise checks
    make every Markov coefficient match. When the algebraic route fails
    too (the enlargement has full dimension, or reduce refuses the
    algebra's projector), the report is "none" at full order and its last
    diagnostic names the check. The algebraic reduction alone, to compare
    with the minimal one, is
    reduce(S, algebra_factorization(closure(V, choose_p(V)))) for V the
    reachable_subspace of S.
    """
    return _rpmr_core(S, tol, "reachable")


def rpmr_observable(S: PositiveLtiSystem, tol: Tolerances = DEFAULT_TOL) -> ReductionReport:
    """Robust positive reduction of the observable direction, by duality.

    Runs the reachable pipeline on the transposed system and transposes
    the outcome back; the factor pair is swapped and transposed so that
    (Jdag A J, Jdag B, C J) reproduces the reported reduced system. A pair
    fixes the observable space of S exactly when its swapped transpose
    fixes the reachable space of S.transpose(), so the outcome is as
    conclusive as rpmr_reachable's. No step draws random numbers. The
    algebraic reduction alone is that of S.transpose(), transposed back.
    """
    dual = _rpmr_core(S.transpose(), tol, "observable")
    F, reduced = dual.factorization, dual.reduced_system
    return dual._replace(
        factorization=Factorization(F.Jdag.T, F.J.T, F.pivot_rows) if F is not None else None,
        reduced_system=reduced.transpose() if reduced is not None else None)


def perturbation_experiment(S: PositiveLtiSystem, F_naive: Factorization,
                            F_robust: Factorization, perturbations,
                            tol: Tolerances = DEFAULT_TOL) -> list[PerturbationRecord]:
    """Reduce each perturbed system with both factor pairs.

    perturbations is an (A, B, C) triple of stacks along a leading batch
    axis, as markov_match takes them, whose items have the shapes of S.
    Records whether each reduced triple is entrywise non-negative and
    whether the robust reduction still reproduces the perturbed Markov
    sequence (it cannot once a perturbation pushes the reachable space
    outside Im(F_robust.J); that is recorded, not raised). Each factor
    pair projects the whole stack in one broadcast product, and one
    markov_match call compares every item. Each factor pair must have J
    n x r and Jdag r x n, as for possys.reduce. Raises NonFiniteError
    when a perturbed matrix or one of its projections is not finite
    (overflow), rather than recording NaN comparisons.
    """
    A, B, C = (np.asarray(M, dtype=float) for M in perturbations)
    if [M.shape for M in (A, B, C)] != [A.shape[:1] + M.shape for M in (S.A, S.B, S.C)]:
        raise DimensionMismatchError("perturbation dimensions differ from the base system")
    reduced = [possys._restrict((A, B, C), *possys._factor_pair(F, S.dim))
               for F in (F_naive, F_robust)]
    if not all(np.isfinite(M).all() for M in (A, B, C, *reduced[0], *reduced[1])):
        raise NonFiniteError("a perturbed system or one of its projections is not finite")
    naive_positive, robust_positive = (
        np.min([M.min(axis=(-2, -1), initial=0.0) for M in triple], axis=0) >= -tol.nonneg_tol
        for triple in reduced)
    match = possys.markov_match((A, B, C), reduced[1], tol)
    return [PerturbationRecord(bool(a), bool(b), bool(c))
            for a, b, c in zip(naive_positive, robust_positive, match)]
