"""The public API: the exported names are pinned, so adding or dropping
one is a deliberate change to this list."""
import posred

PUBLIC_NAMES = sorted([
    "DEFAULT_TOL", "DimensionMismatchError", "DistortedAlgebra", "Factorization",
    "GeneratorSpec", "MonotoneCertificate", "NonFiniteError", "NotInvariantError",
    "NotNonnegativeError", "NotPositiveError", "PerturbationRecord", "PositiveLtiSystem",
    "PosredError", "RankDeficientError", "ReductionReport", "ReferenceVector",
    "SubspaceBasis", "SupportFailureError", "Tolerances", "UnsupportedCoordinateError",
    "ZeroMatrixError", "algebra_factorization", "as_matrix",
    "choose_p", "closure", "column_space_basis", "equivalent",
    "find_nonneg_factorization", "generate_system", "is_monotone_general",
    "is_monotone_nonneg_rect", "is_nonneg", "left_inverse", "markov_match",
    "nonneg_lstsq", "perturbation_experiment", "project", "rank",
    "reachability_matrix", "reachable_subspace", "reduce", "rpmr_observable",
    "rpmr_reachable", "verify_factorization",
])


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 44
    assert sorted(posred.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(posred, name), name
