"""The public API: the exported names are pinned, so adding or dropping
one is a deliberate change to this list, and so are the records' fields."""
import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import posred

PUBLIC_NAMES = sorted([
    "DEFAULT_TOL", "DimensionMismatchError", "DistortedAlgebra", "Factorization",
    "GeneratorSpec", "MonotoneCertificate", "NonFiniteError", "NotInvariantError",
    "NotNonnegativeError", "PerturbationRecord", "PositiveLtiSystem",
    "PosredError", "RankDeficientError", "ReductionReport",
    "SubspaceBasis", "Tolerances", "algebra_factorization", "as_matrix",
    "choose_p", "closure", "column_space_basis", "equivalent",
    "find_nonneg_factorization", "generate_system",
    "is_monotone_nonneg_rect", "left_inverse", "markov_match",
    "perturbation_experiment", "project",
    "reachable_subspace", "reduce", "rpmr_observable",
    "rpmr_reachable", "verify_factorization",
])


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC_NAMES) == 34
    assert sorted(posred.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(posred, name), name


# Each record with distinct field values in field order, and the values of
# the fields it may leave out.
RECORDS = [
    (posred.Tolerances, {"eq_tol": 1e-1}, {"eq_tol": 1e-8}),
    (posred.Factorization, {"J": "J", "Jdag": "Jdag", "pivot_rows": [0]}, {}),
    (posred.MonotoneCertificate,
     {"monotone": True, "nonneg_left_inverse": "L", "orthogonal_row_set": [1]},
     {"nonneg_left_inverse": None, "orthogonal_row_set": None}),
    (posred.DistortedAlgebra, {"p": "p", "generators": "G", "blocks": ((0,),)}, {}),
    (posred.ReductionReport,
     {"method": "minimal", "space": "reachable", "original_dim": 4, "reduced_dim": 2,
      "factorization": "F", "reduced_system": "S", "diagnostics": ("d",),
      "algebra": "a", "basis": "b"},
     {"factorization": None, "reduced_system": None, "diagnostics": (),
      "algebra": None, "basis": None}),
    (posred.PerturbationRecord,
     {"naive_positive": False, "robust_positive": True, "equivalent": True}, {}),
    (posred.GeneratorSpec,
     {"n": 5, "inputs": 2, "outputs": 3, "reachable_dim": 4, "density": 0.5, "seed": 7},
     {"inputs": 1, "outputs": 1, "reachable_dim": None, "density": 1.0, "seed": 0}),
]


@pytest.mark.parametrize("record, values, defaults", RECORDS,
                         ids=[record.__name__ for record, _, _ in RECORDS])
def test_records_are_immutable_named_tuples(record, values, defaults):
    by_position = record(*values.values())
    assert record._fields == tuple(values)
    assert by_position == record(**values) == record._make(values.values())
    assert by_position == tuple(values.values())
    assert by_position._asdict() == values
    required = {name: value for name, value in values.items() if name not in defaults}
    assert record(**required)._asdict() == {**values, **defaults}
    for name in [*values, "extra"]:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)


@pytest.mark.parametrize("make, expected", [
    (lambda: posred.SubspaceBasis([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
     "SubspaceBasis(dim 2 in R^3)"),
    (lambda: posred.PositiveLtiSystem([[1.0, 0.0], [0.0, 1.0]], [[1.0], [0.0]]),
     "PositiveLtiSystem(n=2, inputs=1, outputs=2, discrete)"),
    (lambda: posred.find_nonneg_factorization(posred.SubspaceBasis([[1.0], [0.0]])),
     "Factorization(J=array([[1.],"),
], ids=["SubspaceBasis", "PositiveLtiSystem", "coordinate-selector"])
def test_reprs_name_the_public_class(make, expected):
    # The coordinate selector is a private subclass that shows itself as
    # the Factorization it is.
    assert repr(make()).startswith(expected)


@pytest.mark.parametrize("rpmr", [posred.rpmr_reachable, posred.rpmr_observable],
                         ids=["rpmr_reachable", "rpmr_observable"])
def test_rpmr_takes_the_system_and_the_tolerance_alone(rpmr):
    # One route: nothing selects or skips the minimal search.
    parameters = inspect.signature(rpmr).parameters
    assert list(parameters) == ["S", "tol"]
    assert parameters["tol"].default is posred.DEFAULT_TOL


def test_no_public_name_is_a_dataclass():
    assert not [name for name in posred.__all__
                if dataclasses.is_dataclass(getattr(posred, name))]


def test_import_loads_every_submodule():
    # Nothing is deferred: import posred loads all eight submodules, with
    # warnings as errors.
    package_root = str(Path(posred.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    submodules = ["posred." + name for name in ("distalg", "errors", "factorize", "gen",
                                                "monotone", "numerics", "pipeline", "possys")]
    proc = subprocess.run([sys.executable, "-W", "error", "-c",
                           f"import sys, posred; print([m for m in {submodules!r} "
                           "if m not in sys.modules])"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
