"""Command-line front end: JSON matrices and systems in, JSON reports out.

Every command that takes --tol (all but monotone and gen) has it checked
before any input is read. A matrix file, the input of monotone, factorize
and algebra, may have no entry below 0 (-0.0 passes). Each command
returns its report (gen: its system) and whether its property holds, and
main alone writes it through _emit and maps the verdict to the exit code.

Exit codes: 0 success (reduction found, property holds), 1 input or
validation error (among them a bad --tol, or a matrix with negative
entries), 2 usage error (reported by argparse), 3 negative result (no
reduction, not monotone, no factorization, verification failed).
"""

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .distalg import algebra_factorization, choose_p, closure
from .errors import NonFiniteError, NotNonnegativeError, PosredError, RankDeficientError
from .factorize import Factorization, find_nonneg_factorization
from .gen import GeneratorSpec, generate_system
from .monotone import is_monotone_nonneg_rect
from .numerics import Tolerances, as_matrix, column_space_basis, left_inverse
from .pipeline import perturbation_experiment, rpmr_observable, rpmr_reachable
from .possys import TIME_DOMAINS, PositiveLtiSystem, markov_match

SCHEMA_VERSION = 2


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_json(path: Optional[str]):
    try:
        text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise CliError(1, f"invalid JSON: {exc}")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(1, str(exc))


def _matrix_from(payload, name: str) -> np.ndarray:
    try:
        return as_matrix(payload, name)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(1, f"{name} is not a 2-D array of numbers: {exc}")


def _load_matrix(path: Optional[str]) -> np.ndarray:
    M = _matrix_from(_load_json(path), "matrix")
    if (M < 0.0).any():
        raise NotNonnegativeError("matrix has negative entries")
    return M


def _raw_system(payload, inputs: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """The CLI's own rules for a system file; the library checks shapes and signs.
    JSON cannot carry the column count of a matrix with no rows, so an
    empty A is 0 x 0 and an empty B is 0 x inputs (an order-0 system)."""
    if not isinstance(payload, dict) or "A" not in payload or "B" not in payload:
        raise CliError(1, "system file must be a JSON object with keys A and B")
    A = np.zeros((0, 0)) if payload["A"] == [] else _matrix_from(payload["A"], "A")
    B = np.zeros((0, inputs)) if payload["B"] == [] else _matrix_from(payload["B"], "B")
    C = np.eye(len(A)) if payload.get("C") is None else _matrix_from(payload["C"], "C")
    time_domain = payload.get("time_domain", "discrete")
    if time_domain not in TIME_DOMAINS:
        raise CliError(1, f"time_domain must be one of {TIME_DOMAINS}")
    return A, B, C, time_domain


def _load_system(path: Optional[str]) -> PositiveLtiSystem:
    return PositiveLtiSystem(*_raw_system(_load_json(path)))


def _system_payload(S: PositiveLtiSystem) -> dict:
    return {"A": S.A.tolist(), "B": S.B.tolist(), "C": S.C.tolist(),
            "time_domain": S.time_domain}


def _emit(args, payload: dict | PositiveLtiSystem) -> None:
    """Write sorted JSON: a report with schema_version stamped on it, or
    gen's system as exactly a system file, which reduce and verify read."""
    payload = (_system_payload(payload) if isinstance(payload, PositiveLtiSystem)
               else {**payload, "schema_version": SCHEMA_VERSION})
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    try:
        if args.output:
            Path(args.output).write_text(text)
        else:
            # Flushed inside the try, so that a full disk or a closed pipe
            # under stdout is one error line and exit 1, not a traceback.
            try:
                sys.stdout.write(text)
                sys.stdout.flush()
            except OSError:
                # The buffer keeps the bytes it failed to write, and the
                # flush at shutdown would fail again ("Exception ignored",
                # exit 120); point fd 1 at the null device so that it
                # succeeds, as Python's docs on SIGPIPE recommend.
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
                raise
    except OSError as exc:
        raise CliError(1, str(exc))


def cmd_reduce(args, tol: Tolerances) -> tuple[dict, bool]:
    system = _load_system(args.input)
    runner = rpmr_observable if args.space == "observable" else rpmr_reachable
    report = runner(system, tol)
    F, reduced = report.factorization, report.reduced_system
    return {
        "method": report.method,
        "space": report.space,
        "original_dim": report.original_dim,
        "reduced_dim": report.reduced_dim,
        "J": F.J.tolist() if F else None,
        "Jdag": F.Jdag.tolist() if F else None,
        "reduced_system": _system_payload(reduced) if reduced is not None else None,
        "diagnostics": list(report.diagnostics),
    }, report.method != "none"


def cmd_monotone(args, tol: None) -> tuple[dict, bool]:
    certificate = is_monotone_nonneg_rect(_load_matrix(args.input))
    L = certificate.nonneg_left_inverse
    return {
        "monotone": certificate.monotone,
        "left_inverse": L.tolist() if L is not None else None,
        "orthogonal_rows": (list(certificate.orthogonal_row_set)
                            if certificate.orthogonal_row_set is not None else None),
    }, certificate.monotone


def cmd_factorize(args, tol: Tolerances) -> tuple[dict, bool]:
    basis = column_space_basis(_load_matrix(args.input), tol)
    factorization = find_nonneg_factorization(basis, tol)
    return {
        "found": factorization is not None,
        "subspace_dim": basis.dimension,
        "pivot_rows": list(factorization.pivot_rows) if factorization else None,
        "J": factorization.J.tolist() if factorization else None,
        "Jdag": factorization.Jdag.tolist() if factorization else None,
    }, factorization is not None


def cmd_algebra(args, tol: Tolerances) -> tuple[dict, bool]:
    basis = column_space_basis(_load_matrix(args.input), tol)
    p = choose_p(basis, tol)
    algebra = closure(basis, p, tol)
    factorization = algebra_factorization(algebra)
    return {
        "p": p.tolist(),
        "blocks": [list(block) for block in algebra.blocks],
        "subspace_dim": basis.dimension,
        "algebra_dim": algebra.dimension,
        "generators": algebra.generators.tolist(),
        "J": factorization.J.tolist(),
        "Jdag": factorization.Jdag.tolist(),
    }, True


def cmd_verify(args, tol: Tolerances) -> tuple[dict, bool]:
    # The original must be a positive system; the reduced file is read raw,
    # because its positivity is what verify reports.
    original = _load_system(args.original)
    reduced = _raw_system(_load_json(args.reduced), original.num_inputs)[:3]
    match = markov_match((original.A, original.B, original.C), reduced, tol)
    positive = all(M.min(initial=0.0) >= 0.0 for M in reduced)
    return {"markov_match": match, "positivity": positive}, match and positive


def cmd_gen(args, tol: None) -> tuple[PositiveLtiSystem, bool]:
    try:
        spec = GeneratorSpec(n=args.n, inputs=args.inputs, outputs=args.outputs,
                             reachable_dim=args.reachable_dim,
                             density=args.density, seed=args.seed)
    except ValueError as exc:
        raise CliError(1, str(exc))
    return generate_system(spec), True


def cmd_perturb(args, tol: Tolerances) -> tuple[dict, bool]:
    for flag, value in (("--delta", args.delta), ("--count", args.count),
                        ("--seed", args.seed)):
        if not 0 <= value < np.inf:
            raise CliError(1, f"{flag} must be finite and non-negative")
    S = _load_system(args.input)
    robust = rpmr_reachable(S, tol)
    if robust.reduced_dim == 0:
        raise CliError(3, "input map is zero; nothing to reduce or perturb")
    if robust.method == "none":
        raise CliError(3, robust.diagnostics[-1])
    basis = robust.basis.basis
    try:
        naive = Factorization(basis, left_inverse(basis, tol), [])
    except RankDeficientError:
        raise CliError(1, "naive comparison pair refused: the left inverse of the "
                          f"{basis.shape[0]}x{basis.shape[1]} reachable basis misses the "
                          f"identity by more than {tol.eq_tol:g} (ill-conditioned basis)")

    # Multiplicative noise on nonzero entries keeps positivity and the zero
    # pattern; one generator draws A's noise for every perturbation, then
    # B's, then C's.
    rng = np.random.default_rng(args.seed)
    # A huge --delta can overflow the perturbed stacks or their projections
    # (NonFiniteError); a --count past numpy's largest array fails the draw.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            perturbed = [np.where(M > 0, M * rng.uniform(1.0, 1.0 + args.delta,
                                                          (args.count, *M.shape)), M)
                         for M in (S.A, S.B, S.C)]
            records = perturbation_experiment(S, naive, robust.factorization, perturbed, tol)
    except NonFiniteError:
        raise CliError(1, f"--delta {args.delta:g} overflows the perturbed systems "
                          "or their projections")
    except ValueError as exc:
        raise CliError(1, f"--count {args.count} is too large: {exc}")

    count = max(len(records), 1)
    return {
        "count": len(records),
        "delta": args.delta,
        "robust_method": robust.method,
        "naive_positive_rate": sum(r.naive_positive for r in records) / count,
        "robust_positive_rate": sum(r.robust_positive for r in records) / count,
        "equivalent_rate": sum(r.equivalent for r in records) / count,
        "records": [r._asdict() for r in records],
    }, True


def _add_io_flags(parser, with_input=True, with_tolerances=True):
    if with_input:
        parser.add_argument("--input", help="input file path (default: stdin)")
    parser.add_argument("--output", help="output file path (default: stdout)")
    if with_tolerances:
        parser.add_argument("--tol", type=float, default=1e-8,
                            help="equality tolerance (default %(default)g); the relative rank "
                                 "tolerance is tol/100 and the sign tolerance tol/10")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posred",
        description="Exact order reduction of positive linear systems with "
                    "non-negative projection factors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a positive system file")
    _add_io_flags(p)
    p.add_argument("--space", choices=("reachable", "observable"), default="reachable")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("monotone", help="test a matrix for monotonicity")
    _add_io_flags(p, with_tolerances=False)
    p.set_defaults(func=cmd_monotone)

    p = sub.add_parser("factorize", help="non-negative projector factors for the "
                                         "column space of a matrix")
    _add_io_flags(p)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("algebra", help="close the column space of a matrix to a "
                                       "product algebra")
    _add_io_flags(p)
    p.set_defaults(func=cmd_algebra)

    p = sub.add_parser("verify", help="check Markov equivalence and positivity of "
                                      "a reduced system file")
    p.add_argument("original", help="original system file")
    p.add_argument("reduced", help="reduced system file")
    _add_io_flags(p, with_input=False)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random positive system")
    _add_io_flags(p, with_input=False, with_tolerances=False)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--inputs", type=int, default=1)
    p.add_argument("--outputs", type=int, default=1)
    p.add_argument("--reachable-dim", dest="reachable_dim", type=int, default=None)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("perturb", help="compare naive and robust reductions under "
                                       "positivity-preserving perturbations")
    _add_io_flags(p)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_perturb)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        try:
            tol = Tolerances(args.tol) if "tol" in args else None
        except ValueError as exc:
            raise CliError(1, str(exc))
        payload, holds = args.func(args, tol)
        _emit(args, payload)
        return 0 if holds else 3
    except (CliError, PosredError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code if isinstance(exc, CliError) else 1
