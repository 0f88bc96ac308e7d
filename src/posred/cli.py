"""Command-line front end: JSON matrices and systems in, JSON reports out.

Exit codes: 0 success (reduction found, property holds), 1 input or
validation error, 2 usage error (reported by argparse), 3 negative result
(no reduction, not monotone, no factorization, verification failed).
The POSRED_LOG environment variable (error|warn|info|debug) controls
logging verbosity.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import numpy as np

from .distalg import algebra_factorization, choose_p, closure
from .errors import NotNonnegativeError, PosredError, RankDeficientError
from .factorize import Factorization, find_nonneg_factorization
from .gen import GeneratorSpec, generate_system
from .monotone import is_monotone_general, is_monotone_nonneg_rect
from .numerics import Tolerances, column_space_basis, is_nonneg, left_inverse
from .pipeline import ReductionReport, perturbation_experiment, rpmr_observable, rpmr_reachable
from .possys import PositiveLtiSystem, markov_match

SCHEMA_VERSION = 1

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


def _configure_logging() -> None:
    level = _LOG_LEVELS.get(os.environ.get("POSRED_LOG", "warn").lower(), logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _tolerances(args) -> Tolerances:
    eq = args.tol if args.tol is not None else 1e-8
    rank_tol = args.rank_tol if args.rank_tol is not None else eq / 100.0
    nonneg = args.nonneg_tol if args.nonneg_tol is not None else eq / 10.0
    try:
        return Tolerances(rank_tol=rank_tol, nonneg_tol=nonneg, eq_tol=eq)
    except ValueError as exc:
        raise CliError(1, str(exc))


def _load_json(path: Optional[str]):
    try:
        text = sys.stdin.read() if path in (None, "-") else Path(path).read_text()
    except OSError as exc:
        raise CliError(1, str(exc))
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(1, f"invalid JSON: {exc}")


def _matrix_from(payload, name: str) -> np.ndarray:
    try:
        M = np.array(payload, dtype=float)
    except (TypeError, ValueError):
        raise CliError(1, f"{name} must be a rectangular 2-D array of numbers")
    if M.ndim != 2:
        raise CliError(1, f"{name} must be 2-D, got {M.ndim} dimension(s)")
    if not np.isfinite(M).all():
        raise CliError(1, f"{name} contains non-finite entries")
    return M


def _load_matrix(path: Optional[str]) -> np.ndarray:
    return _matrix_from(_load_json(path), "matrix")


def _raw_system(payload) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    if not isinstance(payload, dict) or "A" not in payload or "B" not in payload:
        raise CliError(1, "system file must be a JSON object with keys A and B")
    A = _matrix_from(payload["A"], "A")
    B = _matrix_from(payload["B"], "B")
    n = A.shape[0]
    if A.shape[1] != n:
        raise CliError(1, "A must be square")
    if B.shape[0] != n:
        raise CliError(1, f"B must have {n} rows")
    if payload.get("C") is not None:
        C = _matrix_from(payload["C"], "C")
        if C.shape[1] != n:
            raise CliError(1, f"C must have {n} columns")
    else:
        C = np.eye(n)
    time_domain = payload.get("time_domain", "discrete")
    if time_domain not in ("discrete", "continuous"):
        raise CliError(1, "time_domain must be 'discrete' or 'continuous'")
    return A, B, C, time_domain


def _load_system(path: Optional[str], tol: Tolerances) -> PositiveLtiSystem:
    A, B, C, time_domain = _raw_system(_load_json(path))
    return PositiveLtiSystem(A, B, C, time_domain, tol)


def _system_payload(S: PositiveLtiSystem) -> dict:
    return {"A": S.A.tolist(), "B": S.B.tolist(), "C": S.C.tolist(),
            "time_domain": S.time_domain}


def _to_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                lines.append(_to_text(item, indent + 1))
            else:
                lines.append(f"{pad}{key}: {json.dumps(item)}")
        return "\n".join(lines)
    if isinstance(value, list):
        if value and all(isinstance(row, list) for row in value):
            return "\n".join(f"{pad}[{', '.join(f'{x:g}' for x in row)}]" for row in value)
        return "\n".join(f"{pad}- {json.dumps(item)}" for item in value)
    return f"{pad}{json.dumps(value)}"


def _emit(args, payload: dict) -> None:
    if args.format == "text":
        text = _to_text(payload) + "\n"
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def report_to_dict(report: ReductionReport) -> dict:
    # possys.reduce certified every reported reduced system: all Markov
    # coefficients up to n + r (hence all by Cayley-Hamilton) and positivity.
    reduced = report.reduced_system
    return {
        "schema_version": SCHEMA_VERSION,
        "method": report.method,
        "space": report.space,
        "original_dim": report.original_dim,
        "reduced_dim": report.reduced_dim,
        "J": report.factorization.J.tolist() if report.factorization else None,
        "Jdag": report.factorization.Jdag.tolist() if report.factorization else None,
        "reduced_system": _system_payload(reduced) if reduced is not None else None,
        "verification": ({"markov_match": True, "positivity": True,
                          "horizon": report.original_dim + report.reduced_dim}
                         if reduced is not None else None),
        "diagnostics": list(report.diagnostics),
    }


def cmd_reduce(args) -> int:
    tol = _tolerances(args)
    system = _load_system(args.input, tol)
    runner = rpmr_observable if args.space == "observable" else rpmr_reachable
    report = runner(system, tol, force_algebraic=args.force_algebraic)
    _emit(args, report_to_dict(report))
    return 0 if report.method != "none" else 3


def cmd_monotone(args) -> int:
    tol = _tolerances(args)
    X = _load_matrix(args.input)
    try:
        certificate = is_monotone_nonneg_rect(X, tol)
        method = "nonneg-shortcut"
    except (NotNonnegativeError, RankDeficientError):
        certificate = is_monotone_general(X, tol)
        method = "general-oracle"
    L = certificate.nonneg_left_inverse
    _emit(args, {
        "schema_version": SCHEMA_VERSION,
        "monotone": certificate.monotone,
        "method": method,
        "left_inverse": L.tolist() if L is not None else None,
        "orthogonal_rows": (list(certificate.orthogonal_row_set)
                            if certificate.orthogonal_row_set is not None else None),
    })
    return 0 if certificate.monotone else 3


def cmd_factorize(args) -> int:
    tol = _tolerances(args)
    basis = column_space_basis(_load_matrix(args.input), tol)
    factorization = find_nonneg_factorization(basis, tol)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "found": factorization is not None,
        "subspace_dim": basis.dimension,
        "pivot_rows": list(factorization.pivot_rows) if factorization else None,
        "J": factorization.J.tolist() if factorization else None,
        "Jdag": factorization.Jdag.tolist() if factorization else None,
    }
    _emit(args, payload)
    return 0 if factorization is not None else 3


def cmd_algebra(args) -> int:
    tol = _tolerances(args)
    basis = column_space_basis(_load_matrix(args.input), tol)
    p = choose_p(basis, tol)
    algebra = closure(basis, p, tol)
    factorization = algebra_factorization(algebra)
    _emit(args, {
        "schema_version": SCHEMA_VERSION,
        "p": p.p.tolist(),
        "support": [int(i) for i in p.support],
        "blocks": [list(block) for block in algebra.blocks],
        "subspace_dim": basis.dimension,
        "algebra_dim": algebra.dimension,
        "is_algebra": algebra.dimension == basis.dimension,
        "generators": algebra.generators.tolist(),
        "J": factorization.J.tolist(),
        "Jdag": factorization.Jdag.tolist(),
    })
    return 0


def cmd_verify(args) -> int:
    tol = _tolerances(args)
    if args.horizon is not None and args.horizon < 0:
        raise CliError(1, "--horizon must be non-negative")
    original = _raw_system(_load_json(args.original))[:3]
    reduced = _raw_system(_load_json(args.reduced))[:3]
    horizon = (args.horizon if args.horizon is not None
               else original[0].shape[0] + reduced[0].shape[0])
    match = markov_match(original, reduced, horizon, tol)
    positive = all(is_nonneg(M, tol) for M in reduced)
    _emit(args, {
        "schema_version": SCHEMA_VERSION,
        "markov_match": match,
        "positivity": positive,
        "horizon": horizon,
    })
    return 0 if match and positive else 3


def cmd_gen(args) -> int:
    try:
        spec = GeneratorSpec(n=args.n, inputs=args.inputs, outputs=args.outputs,
                             reachable_dim=args.reachable_dim,
                             density=args.density, seed=args.seed)
    except ValueError as exc:
        raise CliError(1, str(exc))
    _emit(args, _system_payload(generate_system(spec)))
    return 0


def cmd_perturb(args) -> int:
    tol = _tolerances(args)
    for flag, value in (("--delta", args.delta), ("--count", args.count)):
        if not 0 <= value < np.inf:
            raise CliError(1, f"{flag} must be finite and non-negative")
    S = _load_system(args.input, tol)
    robust = rpmr_reachable(S, tol)
    if robust.reduced_dim == 0:
        raise CliError(3, "input map is zero; nothing to reduce or perturb")
    if robust.method == "none":
        if robust.algebra is None:  # the closure runs only below full dimension
            raise CliError(3, "system is already reachable; nothing to reduce")
        raise CliError(3, "no robust reduction exists: the algebra enlargement "
                          "has full dimension")
    basis = robust.basis.basis
    naive = Factorization(basis, left_inverse(basis, tol), [])

    # Multiplicative noise on nonzero entries keeps positivity and the zero
    # pattern; perturbation k draws its noise for A, then B, then C from generator k.
    seeds = np.random.default_rng(args.seed).integers(0, 2**63 - 1, args.count)
    generators = [np.random.default_rng(int(s)) for s in seeds]
    perturbed = []
    for M in (S.A, S.B, S.C):
        noise = np.array([g.uniform(1.0, 1.0 + args.delta, M.shape) for g in generators])
        perturbed.append(np.where(M > 0, M * noise.reshape(args.count, *M.shape), M))
    records = perturbation_experiment(S, naive, robust.factorization, perturbed, tol)

    count = max(len(records), 1)
    _emit(args, {
        "schema_version": SCHEMA_VERSION,
        "count": len(records),
        "delta": args.delta,
        "robust_method": robust.method,
        "naive_positive_rate": sum(r.naive_positive for r in records) / count,
        "robust_positive_rate": sum(r.robust_positive for r in records) / count,
        "equivalent_rate": sum(r.equivalent for r in records) / count,
        "records": [asdict(r) for r in records],
    })
    return 0


def _add_io_flags(parser, with_input=True):
    if with_input:
        parser.add_argument("--input", help="input file path (default: stdin)")
    parser.add_argument("--output", help="output file path (default: stdout)")
    parser.add_argument("--tol", type=float, default=None,
                        help="equality tolerance; rank tolerance defaults to tol/100 "
                             "and sign tolerance to tol/10")
    parser.add_argument("--rank-tol", dest="rank_tol", type=float, default=None)
    parser.add_argument("--nonneg-tol", dest="nonneg_tol", type=float, default=None)
    parser.add_argument("--format", choices=("json", "text"), default="json")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posred",
        description="Exact order reduction of positive linear systems with "
                    "non-negative projection factors.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a positive system file")
    _add_io_flags(p)
    p.add_argument("--space", choices=("reachable", "observable"), default="reachable")
    p.add_argument("--force-algebraic", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("monotone", help="test a matrix for monotonicity")
    _add_io_flags(p)
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
    p.add_argument("--horizon", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded random positive system")
    _add_io_flags(p, with_input=False)
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
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except PosredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
