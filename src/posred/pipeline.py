"""End-to-end reduction: try the minimal factorization of the reachable
space, fall back to the algebra enlargement, verify, and report.

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
from .errors import DimensionMismatchError, VerificationError, ZeroMatrixError
from .factorize import Factorization, find_nonneg_factorization
from .numerics import DEFAULT_TOL, Tolerances, is_nonneg, rank
from .possys import PositiveLtiSystem

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class VerificationRecord:
    """Outcome of the post-reduction recheck."""

    markov_match: bool
    positivity: bool
    horizon: int


@dataclass(frozen=True)
class ReductionReport:
    """What was done to a system and the evidence that it is sound.

    method is "minimal" (projector onto the target space itself),
    "algebraic" (projector onto its algebra enlargement), or "none".
    A reduced system is present exactly when method is not "none", and it
    always carries a passed verification record. The algebra field keeps
    the enlargement that was computed on the algebraic route.
    """

    method: str
    space: str
    original_dim: int
    reduced_dim: int
    factorization: Optional[Factorization] = None
    reduced_system: Optional[PositiveLtiSystem] = None
    verification: Optional[VerificationRecord] = None
    diagnostics: list[str] = field(default_factory=list)
    algebra: Optional[DistortedAlgebra] = None


@dataclass(frozen=True)
class PerturbationRecord:
    """Per-perturbation outcome of the naive-versus-robust comparison."""

    naive_positive: bool
    robust_positive: bool
    equivalent: bool


def _verified(S: PositiveLtiSystem, reduced: PositiveLtiSystem,
              tol: Tolerances) -> VerificationRecord:
    """Re-verify Markov equality and positivity; both are guaranteed by
    construction, so a failure aborts as an internal error."""
    horizon = S.dim + reduced.dim
    markov_ok = possys.equivalent(S, reduced, tol)
    positive = all(is_nonneg(M, tol) for M in (reduced.A, reduced.B, reduced.C))
    if not (markov_ok and positive):
        raise VerificationError(
            f"reduction verification failed (markov={markov_ok}, positive={positive}); "
            "tolerance pathology")
    return VerificationRecord(markov_ok, positive, horizon)


def _empty_factorization(n: int) -> Factorization:
    return Factorization(np.zeros((n, 0)), np.zeros((0, n)), [])


def _rpmr_core(S: PositiveLtiSystem, tol: Tolerances, seed: Optional[int],
               force_algebraic: bool, space: str) -> ReductionReport:
    n = S.dim
    diagnostics: list[str] = []
    try:
        basis = possys.reachable_subspace(S, tol)
    except ZeroMatrixError:
        # The target space is trivial and the order-zero reduction is
        # exact with empty factors.
        zero_map = "input" if space == "reachable" else "output"
        diagnostics.append(f"{space} space is trivial (zero {zero_map} map); reduced to order 0")
        F = _empty_factorization(n)
        reduced = possys.reduce(S, F, tol)
        verification = _verified(S, reduced, tol)
        return ReductionReport("minimal", space, n, 0, F, reduced, verification, diagnostics)

    q = basis.dimension
    if q == n:
        diagnostics.append(f"already {space}: the {space} space has full dimension")
        return ReductionReport("none", space, n, n, diagnostics=diagnostics)

    if force_algebraic:
        diagnostics.append("minimal route disabled by flag")
    else:
        F = find_nonneg_factorization(basis, tol)
        if F is not None:
            reduced = possys.reduce(S, F, tol)
            verification = _verified(S, reduced, tol)
            log.info("minimal %s reduction %d -> %d", space, n, q)
            return ReductionReport("minimal", space, n, q, F, reduced, verification, diagnostics)
        diagnostics.append(f"no projector onto the {space} space admits non-negative factors")

    p = choose_p(basis, seed, tol)
    algebra = closure(basis, p, tol)
    if algebra.dimension >= n:
        diagnostics.append("RPMR could not be performed: the algebra enlargement has full dimension")
        return ReductionReport("none", space, n, n, diagnostics=diagnostics, algebra=algebra)

    F = algebra_factorization(algebra, tol)
    # The enlargement need not be A-invariant; exactness only needs the
    # target space inside Im(J), where the projector acts as the identity.
    if rank(np.hstack([F.J, basis.basis]), tol) != algebra.dimension:
        raise VerificationError("algebra enlargement does not contain the target space")
    Ar, Br, Cr = possys.project(S, F.J, F.Jdag)
    reduced = PositiveLtiSystem(Ar, Br, Cr, S.time_domain, tol)
    verification = _verified(S, reduced, tol)
    diagnostics.append(f"algebra enlargement: {q} -> {algebra.dimension} dimensions")
    log.info("algebraic %s reduction %d -> %d", space, n, algebra.dimension)
    return ReductionReport("algebraic", space, n, algebra.dimension, F, reduced,
                           verification, diagnostics, algebra)


def rpmr_reachable(S: PositiveLtiSystem, tol: Tolerances = DEFAULT_TOL,
                   seed: Optional[int] = None,
                   force_algebraic: bool = False) -> ReductionReport:
    """Robust positive reduction onto the reachable space.

    Tries the minimal factorization first; when none exists the reachable
    space is enlarged to the smallest product algebra containing it, which
    always factors non-negatively. Every reduction that is reported has been re-verified
    for positivity and Markov equality. force_algebraic skips the minimal
    route so the two answers can be compared on the same system.
    """
    return _rpmr_core(S, tol, seed, force_algebraic, "reachable")


def rpmr_observable(S: PositiveLtiSystem, tol: Tolerances = DEFAULT_TOL,
                    seed: Optional[int] = None, force_algebraic: bool = False) -> ReductionReport:
    """Robust positive reduction of the observable direction, by duality.

    Runs the reachable pipeline on the transposed system and transposes
    the outcome back; the factor pair is swapped and transposed so that
    (Jdag A J, Jdag B, C J) reproduces the reported reduced system. Only
    the identity-weighted observable complement is searched, so a negative
    outcome is not conclusive.
    """
    dual = _rpmr_core(S.transpose(), tol, seed, force_algebraic, "observable")
    diagnostics = list(dual.diagnostics)
    diagnostics.append("observable search with identity weighting: sufficient test only")
    factorization = None
    if dual.factorization is not None:
        factorization = Factorization(dual.factorization.Jdag.T,
                                      dual.factorization.J.T,
                                      dual.factorization.pivot_rows)
    reduced = dual.reduced_system.transpose() if dual.reduced_system is not None else None
    return ReductionReport(dual.method, "observable", dual.original_dim,
                           dual.reduced_dim, factorization, reduced,
                           dual.verification, diagnostics, dual.algebra)


def perturbation_experiment(S: PositiveLtiSystem, F_naive: Factorization,
                            F_robust: Factorization, perturbations,
                            tol: Tolerances = DEFAULT_TOL) -> list[PerturbationRecord]:
    """Reduce each perturbed system with both factor pairs.

    Records whether each reduced triple is entrywise non-negative and
    whether the robust reduction still reproduces the perturbed Markov
    sequence (it cannot once a perturbation pushes the reachable space
    outside Im(F_robust.J); that is recorded, not raised).
    """
    records = []
    for P in perturbations:
        if (P.dim != S.dim or P.num_inputs != S.num_inputs
                or P.num_outputs != S.num_outputs):
            raise DimensionMismatchError("perturbation dimensions differ from the base system")
        naive = possys.project(P, F_naive.J, F_naive.Jdag)
        robust = possys.project(P, F_robust.J, F_robust.Jdag)
        naive_positive = all(is_nonneg(M, tol) for M in naive)
        robust_positive = all(is_nonneg(M, tol) for M in robust)
        horizon = P.dim + robust[0].shape[0]
        original_seq = possys.markov_parameters(P.A, P.B, P.C, horizon)
        reduced_seq = possys.markov_parameters(*robust, horizon)
        records.append(PerturbationRecord(
            naive_positive, robust_positive,
            possys.markov_match(original_seq, reduced_seq, tol)))
    return records
