"""End-to-end reduction: try the minimal factorization of the reachable
space, fall back to the algebra enlargement, reduce, and report.

The observable direction is handled by duality: reduce the transposed
system and transpose the result back. With the identity weighting this is
a sufficient test only; other positive-definite weightings of the
observable complement might admit a reduction when this one does not.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import possys
from .distalg import DistortedAlgebra, algebra_factorization, choose_p, closure
from .errors import DimensionMismatchError, ZeroMatrixError
from .factorize import Factorization, find_nonneg_factorization
from .numerics import DEFAULT_TOL, SubspaceBasis, Tolerances, as_matrix
from .possys import PositiveLtiSystem

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ReductionReport:
    """What was done to a system and the evidence that it is sound.

    method is "minimal" (projector onto the target space itself),
    "algebraic" (projector onto its algebra enlargement), or "none".
    A reduced system is present exactly when method is not "none"; it was
    built by possys.reduce, which checked exactness and positivity, so its
    presence is the verification. The algebra field keeps the enlargement
    that was computed on the algebraic route, and basis the target-space
    basis (for the observable space, the reachable basis of the transposed
    system), or None when that space is trivial.
    """

    method: str
    space: str
    original_dim: int
    reduced_dim: int
    factorization: Optional[Factorization] = None
    reduced_system: Optional[PositiveLtiSystem] = None
    diagnostics: list[str] = field(default_factory=list)
    algebra: Optional[DistortedAlgebra] = None
    basis: Optional[SubspaceBasis] = None


@dataclass(frozen=True)
class PerturbationRecord:
    """Per-perturbation outcome of the naive-versus-robust comparison."""

    naive_positive: bool
    robust_positive: bool
    equivalent: bool


def _reduced(method: str, space: str, S: PositiveLtiSystem, F: Factorization,
             tol: Tolerances, diagnostics: list[str], basis: Optional[SubspaceBasis],
             algebra: Optional[DistortedAlgebra] = None) -> ReductionReport:
    """Report of the reduction by F; possys.reduce raises unless it is exact
    and positive."""
    reduced = possys.reduce(S, F, tol)
    return ReductionReport(method, space, S.dim, reduced.dim, F, reduced, diagnostics,
                           algebra, basis)


def _rpmr_core(S: PositiveLtiSystem, tol: Tolerances, force_algebraic: bool,
               space: str) -> ReductionReport:
    n = S.dim
    diagnostics: list[str] = []
    try:
        basis = possys.reachable_subspace(S, tol)
    except ZeroMatrixError:
        # The target space is trivial and the order-zero reduction is
        # exact with empty factors.
        zero_map = "input" if space == "reachable" else "output"
        diagnostics.append(f"{space} space is trivial (zero {zero_map} map); reduced to order 0")
        F = Factorization(np.zeros((n, 0)), np.zeros((0, n)), [])
        return _reduced("minimal", space, S, F, tol, diagnostics, None)

    q = basis.dimension
    if q == n:
        diagnostics.append(f"already {space}: the {space} space has full dimension")
        return ReductionReport("none", space, n, n, diagnostics=diagnostics, basis=basis)

    if force_algebraic:
        diagnostics.append("minimal route disabled by flag")
    else:
        F = find_nonneg_factorization(basis, tol)
        if F is not None:
            log.info("minimal %s reduction %d -> %d", space, n, q)
            return _reduced("minimal", space, S, F, tol, diagnostics, basis)
        diagnostics.append(f"no projector onto the {space} space admits non-negative factors")

    p = choose_p(basis, tol)
    algebra = closure(basis, p, tol)
    if algebra.dimension >= n:
        diagnostics.append("RPMR could not be performed: the algebra enlargement has full dimension")
        return ReductionReport("none", space, n, n, diagnostics=diagnostics,
                               algebra=algebra, basis=basis)

    # The enlargement need not be A-invariant; reduce() only needs its
    # projector to fix the target space.
    diagnostics.append(f"algebra enlargement: {q} -> {algebra.dimension} dimensions")
    log.info("algebraic %s reduction %d -> %d", space, n, algebra.dimension)
    return _reduced("algebraic", space, S, algebra_factorization(algebra), tol,
                    diagnostics, basis, algebra)


def rpmr_reachable(S: PositiveLtiSystem, tol: Tolerances = DEFAULT_TOL,
                   force_algebraic: bool = False) -> ReductionReport:
    """Robust positive reduction onto the reachable space.

    Tries the minimal factorization first; when none exists the reachable
    space is enlarged to the smallest product algebra containing it, which
    always factors non-negatively; its unit p is the sum of the
    non-negative reachable generators, so the report depends on S and tol
    alone. Every reported reduction comes from possys.reduce, which checks
    that J @ Jdag fixes the reachable space (so every Markov coefficient
    matches) and that the reduced triple is non-negative. force_algebraic
    skips the minimal route so the two answers can be compared on the
    same system.
    """
    return _rpmr_core(S, tol, force_algebraic, "reachable")


def rpmr_observable(S: PositiveLtiSystem, tol: Tolerances = DEFAULT_TOL,
                    force_algebraic: bool = False) -> ReductionReport:
    """Robust positive reduction of the observable direction, by duality.

    Runs the reachable pipeline on the transposed system and transposes
    the outcome back; the factor pair is swapped and transposed so that
    (Jdag A J, Jdag B, C J) reproduces the reported reduced system. Only
    the identity-weighted observable complement is searched, so a negative
    outcome is not conclusive. No step draws random numbers.
    """
    dual = _rpmr_core(S.transpose(), tol, force_algebraic, "observable")
    diagnostics = list(dual.diagnostics)
    diagnostics.append("observable search with identity weighting: sufficient test only")
    factorization = None
    if dual.factorization is not None:
        factorization = Factorization(dual.factorization.Jdag.T,
                                      dual.factorization.J.T,
                                      dual.factorization.pivot_rows)
    reduced = dual.reduced_system.transpose() if dual.reduced_system is not None else None
    return ReductionReport(dual.method, "observable", dual.original_dim,
                           dual.reduced_dim, factorization, reduced, diagnostics,
                           dual.algebra, dual.basis)


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
    markov_match call compares every item.
    """
    A, B, C = (np.asarray(M, dtype=float) for M in perturbations)
    if [M.shape for M in (A, B, C)] != [A.shape[:1] + M.shape for M in (S.A, S.B, S.C)]:
        raise DimensionMismatchError("perturbation dimensions differ from the base system")
    reduced = []
    for F in (F_naive, F_robust):
        J, Jdag = as_matrix(F.J, "J"), as_matrix(F.Jdag, "Jdag")
        reduced.append((Jdag @ A @ J, Jdag @ B, C @ J))
    naive_positive, robust_positive = (
        np.min([M.min(axis=(-2, -1), initial=0.0) for M in triple], axis=0) >= -tol.nonneg_tol
        for triple in reduced)
    match = possys.markov_match((A, B, C), reduced[1], S.dim + reduced[1][0].shape[-1], tol)
    return [PerturbationRecord(bool(a), bool(b), bool(c))
            for a, b, c in zip(naive_positive, robust_positive, match)]
