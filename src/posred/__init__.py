"""Exact order reduction of positive linear systems with non-negative factors.

A positive system (A, B, C entrywise non-negative) restricted to its
reachable space stays positive only for special projections. This package
decides when the reachable (or, by duality, observable) space admits a
projector Pi = J @ Jdag with J, Jdag >= 0, builds the factors when it
does, and otherwise enlarges the space to the smallest coordinate-product
algebra containing it, which always factors non-negatively. Reductions
built this way reproduce the original impulse response exactly and stay
positive under any positivity-preserving perturbation of the data.
"""
from .errors import (DimensionMismatchError, NonFiniteError, NotInvariantError,
                     NotNonnegativeError, PosredError, RankDeficientError, ZeroMatrixError)
from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerances, as_matrix,
                       column_space_basis, left_inverse)
from .monotone import MonotoneCertificate, is_monotone_nonneg_rect
from .factorize import (Factorization, find_nonneg_factorization,
                        verify_factorization)
from .possys import (PositiveLtiSystem, equivalent, markov_match, project,
                     reachable_subspace, reduce)
from .distalg import DistortedAlgebra, algebra_factorization, choose_p, closure
from .pipeline import (PerturbationRecord, ReductionReport, perturbation_experiment,
                       rpmr_observable, rpmr_reachable)
from .gen import GeneratorSpec, generate_system

__version__ = "0.1.0"

__all__ = [
    "DimensionMismatchError", "NonFiniteError", "NotInvariantError",
    "NotNonnegativeError", "PosredError", "RankDeficientError", "ZeroMatrixError",
    "DEFAULT_TOL", "SubspaceBasis", "Tolerances", "as_matrix",
    "column_space_basis", "left_inverse",
    "MonotoneCertificate", "is_monotone_nonneg_rect",
    "Factorization", "find_nonneg_factorization", "verify_factorization",
    "PositiveLtiSystem", "equivalent", "markov_match", "project",
    "reachable_subspace", "reduce",
    "DistortedAlgebra", "algebra_factorization", "choose_p", "closure",
    "PerturbationRecord", "ReductionReport", "perturbation_experiment",
    "rpmr_observable", "rpmr_reachable",
    "GeneratorSpec", "generate_system",
]
