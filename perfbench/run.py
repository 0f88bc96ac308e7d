"""Seeded outside-in benchmark of posred: time to a verified positive reduction.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-search --seed 1 --seconds 30 --trace 0

Workloads (closed loop, one client, one operation at a time):

  small-search  in-process rpmr_reachable on n = 12..16: planted systems,
                whose minimal scan hits at evenly spread depths, beside
                lumped systems, where the scan misses after all C(n, q)
                subsets and a cheap closure follows.
  large-n       in-process rpmr_reachable on n = 40..400, where C(n, q)
                exceeds the subset budget: planted systems (basis layer)
                and lumped systems (closure layer). Most of these fail at
                the seed commit.
  cli-batch     sequential `python -m posred` subprocesses: reduce on the
                cascade and swap fixtures and on small planted systems
                (reachable, and observable on the transposed system), and
                perturb --count.

Each run measures a fixed set of operations: --seconds times the
workload's ROUNDS_PER_SECOND rounds, sized so that posred at the commit
that added this benchmark fills about --seconds. Two versions of posred
are thus judged on the same operations, failures and tail percentile. A
run stops starting operations at its safety limit (SAFETY_FACTOR times
--seconds, at most SAFETY_CAP_S); the operations it did not run count as
failed. Every answer is checked with oracle.py. Timings are scaled to a
nominal host speed by references that posred does not touch (see "host
speed" below); the raw figures are printed. With --trace 0 the run
reports the end-to-end metrics; with --trace 1 it runs half as many
rounds, each operation once plain and once with the spans of spans.py,
and reports the per-layer metrics (means per operation). Human-readable
lines come first; the last line is one JSON object.
"""
import os
import sys

# Pin BLAS/OpenMP to one thread and fix hashing before numpy loads, for
# this process and every subprocess it starts.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
if any(os.environ.get(key) != value for key, value in PINNED.items()):
    os.environ.update(PINNED)
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "posred" / "__init__.py").is_file():
    sys.exit(f"perfbench: no posred sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import systems  # noqa: E402

WORKLOADS = ("small-search", "large-n", "cli-batch")
# Rounds per --second, measured at the commit that added this benchmark on
# a 2-core Intel Xeon VM at 2.1 GHz; the number of rounds, not the clock,
# decides how much a run measures.
ROUNDS_PER_SECOND = {"small-search": 0.44, "large-n": 0.55, "cli-batch": 0.8}
SAFETY_FACTOR = 3
SAFETY_CAP_S = 140
IMPORT_RUNS = 25         # fresh-interpreter imports, spread through the run
CLI_TIMEOUT_S = 20
PERTURB_COUNT = 200
MAX_LISTED = 20          # failed operations listed by name
clock = time.perf_counter


@dataclass
class Op:
    """One operation: a system to reduce, in-process or through the CLI."""
    label: str
    system: object
    space: str = "reachable"
    argv: tuple = ()           # CLI arguments; empty for an in-process call
    payload: str = ""          # CLI standard input


@dataclass
class Outcome:
    wall: float
    order: int                 # reduced order; the original order on failure;
                               # 0 for an operation that is not a reduction
    error: str = ""            # empty when the answer was accepted
    wrong: bool = False        # an answer was returned and rejected
    summary: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("POSRED_LOG", None)
    return env


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            **{key: os.environ[key] for key in PINNED}}


IMPORT_CODE = ("import time; t0 = time.perf_counter(); import numpy; "
               "t1 = time.perf_counter(); import posred; t2 = time.perf_counter(); "
               "print(t1 - t0, t2 - t1)")


def import_time() -> tuple[float, float]:
    """(numpy import, posred's own import) in one fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], env=child_env(),
                         cwd=ROOT, capture_output=True, text=True,
                         timeout=CLI_TIMEOUT_S, check=True).stdout.split()
    return float(out[0]), float(out[1])


def imports_before(k: int, total: int) -> int:
    """How many of the IMPORT_RUNS imports go before operation k of total,
    so that they are spread evenly through the run."""
    return (k + 1) * IMPORT_RUNS // total - k * IMPORT_RUNS // total


# --- host speed ----------------------------------------------------------
# On a shared VM the same run reads up to 1.5x slower from one minute to
# the next while other tenants load the host. So every run also times two
# references that no change to posred moves, and scales its timings to the
# host speed at which each reference takes its nominal time:
#  - before every in-process operation, reference_s(): a fixed subset scan
#    of the same kind as posred's (row blocks of a 16 x 8 basis: rank,
#    inverse, sign test), written with numpy alone. It scales in-process
#    latencies.
#  - in each fresh interpreter of import_time(), the import of numpy that
#    precedes posred's. It scales CLI latencies, which are mostly start-up
#    and imports and do not follow the scan, and setup_s, sample by sample.
REF_NOMINAL_S = 0.007    # about the median reference times on the VM above
NUMPY_NOMINAL_S = 0.075
REF_BASIS = np.random.default_rng(0).random((16, 8))
REF_SUBSETS = [list(c) for c in itertools.islice(itertools.combinations(range(16), 8),
                                                  0, None, 97)][:150]


def reference_s() -> float:
    """Wall time of the fixed reference scan."""
    mask = np.empty(16, dtype=bool)
    start = clock()
    for rows in REF_SUBSETS:
        V0 = REF_BASIS[rows]
        np.linalg.matrix_rank(V0)
        inverse = np.linalg.inv(V0)
        mask[:] = True
        mask[rows] = False
        bool((REF_BASIS[mask] @ inverse >= 0.0).all())
    return clock() - start


# --- workloads -----------------------------------------------------------

SMALL_PLANTED = (12, 13, 14, 15, 16)
SMALL_LUMPED = ((12, 6, 4), (14, 8, 5), (16, 8, 6))          # (n, r, q)
LARGE_PLANTED = (60, 100, 150, 200, 300, 400)
LARGE_LUMPED = ((40, 12, 8), (60, 16, 8), (80, 20, 10), (100, 30, 15))
CLI_PLANTED_N = 8


def op_seed(seed: int, round_: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, round_, index]).generate_state(1)[0])


def payload(S) -> str:
    return json.dumps({"A": S.A.tolist(), "B": S.B.tolist(), "C": S.C.tolist()})


def make_round(posred, workload: str, seed: int, round_: int) -> list[Op]:
    ops = []
    if workload == "small-search":
        # For each size, hit depths follow a golden-ratio sequence from a
        # fixed offset, so any number of rounds samples scan lengths evenly
        # and every seed gets the same scan lengths; the seed varies the
        # systems only. A seeded offset would move the slowest hits, and
        # with them latency_tail_s, from one seed to the next.
        for i, n in enumerate(SMALL_PLANTED):
            depth = (i / len(SMALL_PLANTED) + systems.GOLDEN * round_) % 1.0
            S, _ = systems.planted(posred, n, op_seed(seed, round_, i), depth)
            ops.append(Op(f"planted n={n}", S))
        for i, (n, r, q) in enumerate(SMALL_LUMPED):
            S = systems.lumped(posred, n, r, q, op_seed(seed, round_, 100 + i))
            ops.append(Op(f"lumped n={n} r={r} q={q}", S))
    elif workload == "large-n":
        for i, n in enumerate(LARGE_PLANTED):
            spec = posred.GeneratorSpec(n=n, inputs=2, outputs=2, reachable_dim=n // 2,
                                        density=0.6, seed=op_seed(seed, round_, i))
            ops.append(Op(f"planted n={n}", posred.generate_system(spec)))
        for i, (n, r, q) in enumerate(LARGE_LUMPED):
            S = systems.lumped(posred, n, r, q, op_seed(seed, round_, 100 + i))
            ops.append(Op(f"lumped n={n} r={r} q={q}", S))
    else:
        planted, _ = systems.planted(posred, CLI_PLANTED_N, op_seed(seed, round_, 0),
                                     np.random.default_rng(op_seed(seed, round_, 1)).random())
        dual = planted.transpose()
        for label, S, space in (("cascade", systems.cascade(posred), "reachable"),
                                ("swap", systems.swap(posred), "reachable"),
                                (f"planted n={CLI_PLANTED_N}", planted, "reachable"),
                                (f"planted n={CLI_PLANTED_N} transposed", dual, "observable")):
            ops.append(Op(f"reduce {label} --space {space}", S, space,
                          ("reduce", "--space", space), payload(S)))
        ops.append(Op(f"perturb planted n={CLI_PLANTED_N}", planted, "reachable",
                      ("perturb", "--count", str(PERTURB_COUNT),
                       "--seed", str(op_seed(seed, round_, 2))), payload(planted)))
    return ops


# --- running and checking one operation ----------------------------------

def judge(S, space: str, J, Jdag, reduced) -> str:
    check = oracle.check_observable if space == "observable" else oracle.check
    return check(S.A, S.B, S.C, J, Jdag, *reduced)


def run_inprocess(posred, op: Op, tracer) -> Outcome:
    if tracer:
        tracer.install()
    error = ""
    start = clock()
    try:
        report = posred.rpmr_reachable(op.system)
    except Exception as exc:  # any exception is a failed operation
        error = type(exc).__name__
    wall = clock() - start
    if tracer:
        tracer.uninstall()
    if error:
        return Outcome(wall, op.system.dim, error)
    if report.method == "none":
        return Outcome(wall, op.system.dim, "method none where a reduction exists", True)
    F, R = report.factorization, report.reduced_system
    verdict = judge(op.system, op.space, F.J, F.Jdag, (R.A, R.B, R.C))
    if verdict:
        return Outcome(wall, op.system.dim, verdict, True)
    return Outcome(wall, report.reduced_dim)


def check_perturb(out: dict) -> str:
    records = out["records"]
    if out["count"] != PERTURB_COUNT or len(records) != PERTURB_COUNT:
        return "perturb returned the wrong number of records"
    # Non-negative factors keep every positive perturbation positive.
    if not all(r["robust_positive"] for r in records) or out["robust_positive_rate"] != 1.0:
        return "robust reduction lost positivity under perturbation"
    for key in ("naive_positive", "equivalent"):
        if abs(out[f"{key}_rate"] - sum(r[key] for r in records) / len(records)) > 1e-12:
            return f"{key}_rate disagrees with the records"
    return ""


def run_cli(op: Op, traced: bool) -> Outcome:
    entry = [str(HERE / "clitrace.py")] if traced else ["-m", "posred"]
    full = 0 if op.argv[0] == "perturb" else op.system.dim  # order charged on failure
    start = clock()
    try:
        proc = subprocess.run([sys.executable, *entry, *op.argv], input=op.payload,
                              env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return Outcome(math.inf, full, "timeout")
    wall = clock() - start
    errors = [line for line in proc.stderr.splitlines() if not line.startswith(spans.MARK)]
    marks = [line for line in proc.stderr.splitlines() if line.startswith(spans.MARK)]
    summary = json.loads(marks[-1][len(spans.MARK):]) if marks else {}
    if proc.returncode != 0:
        # Exit code 3 from reduce claims that no reduction exists.
        wrong = op.argv[0] == "reduce" and proc.returncode == 3
        return Outcome(wall, full, f"exit {proc.returncode}: {(errors or ['?'])[-1][:120]}",
                       wrong, summary)
    order = full
    try:
        out = json.loads(proc.stdout)
        if op.argv[0] == "perturb":
            verdict = check_perturb(out)
        else:
            red = out["reduced_system"] or {}
            verdict = judge(op.system, op.space, out["J"], out["Jdag"],
                            (red.get("A"), red.get("B"), red.get("C")))
            order = out["reduced_dim"]
    except (KeyError, TypeError, ValueError) as exc:
        verdict = f"unreadable output: {type(exc).__name__}: {exc}"
    if verdict:
        return Outcome(wall, full, verdict, True, summary)
    return Outcome(wall, order, summary=summary)


def basis_target(op: Op):
    """The system whose reachable space posred's basis layer computes."""
    return op.system.transpose() if op.space == "observable" else op.system


# --- metrics -------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that has at least ten
    samples beyond it; with fewer than 11 samples, the maximum."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli-batch" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# Largest share of the time inside rpmr_* that may fall outside every
# wrapped layer (pipeline.self_s); beyond it the layers no longer cover the
# work and the span check fails.
SPAN_TOLERANCE = 0.10


def per_layer(total: dict, ops: int, deficits: int, startup_s: float,
              numpy_s: float, posred_s: float, overhead_s: float,
              unspanned: float) -> dict:
    """Per-layer metrics: self seconds and counts per operation."""
    own = total["self"]
    values = {
        "possys.basis_s": own["possys.basis"] / ops,
        "possys.basis_dim_deficit": deficits / ops,
        "factorize.search_s": own["factorize.search"] / ops,
        "factorize.subsets_tried": total["subsets_tried"] / ops,
        "factorize.hit_rate": total["search_hits"] / max(total["search_calls"], 1),
        "factorize.budget_skips": total["budget_skips"] / ops,
        "distalg.choose_p_s": own["distalg.choose_p"] / ops,
        "distalg.closure_s": own["distalg.closure"] / ops,
        "distalg.closure_failures": total["closure_failures"] / ops,
        "distalg.excess_dim": total["excess_dim"] / ops,
        "distalg.algebra_factorization_s": own["distalg.algebra_factorization"] / ops,
        "possys.reduce_s": own["possys.reduce"] / ops,
        "possys.project_s": own["possys.project"] / ops,
        "possys.verify_s": own["possys.verify"] / ops,
        "pipeline.self_s": own["pipeline"] / ops,
        "pipeline.perturbation_experiment_s": own["pipeline.perturbation_experiment"] / ops,
        "cli.main_s": own["cli.main"] / ops,
        "cli.startup_s": startup_s / ops,
        "setup.numpy_import_s": numpy_s,
        "setup.posred_import_s": posred_s,
        "trace.overhead_s": overhead_s,
        "trace.unspanned_share": unspanned,
    }
    return {name: {"value": value, "unit": unit(name)} for name, value in values.items()}


def unit(name: str) -> str:
    if name.startswith("setup."):
        return "s"
    if name.endswith("_s"):
        return "s/op"
    return "ratio" if name.endswith(("_rate", "_share")) else "count/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    import posred

    cli = args.workload == "cli-batch"
    tracer = spans.Tracer() if args.trace else None
    rounds = max(1, round(args.seconds * ROUNDS_PER_SECOND[args.workload]
                          / (2 if tracer else 1)))
    planned = rounds * len(make_round(posred, args.workload, args.seed, 0))
    limit = min(SAFETY_FACTOR * args.seconds, SAFETY_CAP_S)
    outcomes: list[Outcome] = []
    imports = []
    refs = []
    overhead = []
    total = spans.empty_summary()
    deficits = 0
    startup_s = 0.0
    absent = set()
    labels, dims = [], 0
    skipped = 0
    start = clock()
    # Rounds are made as they are reached, so that a run holds one round's
    # systems at a time.
    ops = (op for round_ in range(rounds)
           for op in make_round(posred, args.workload, args.seed, round_))
    for k, op in enumerate(ops):
        labels.append(op.label)
        full = 0 if op.argv[:1] == ("perturb",) else op.system.dim
        dims += full
        if clock() - start > limit:
            outcomes.append(Outcome(math.inf, full, f"not run: safety limit of {limit:.0f} s"))
            skipped += 1
            continue
        imports += [import_time() for _ in range(imports_before(k, planned))]
        if not tracer:
            if cli:
                outcomes.append(run_cli(op, False))
            else:
                refs.append(reference_s())
                outcomes.append(run_inprocess(posred, op, None))
            continue
        # Plain and traced runs alternate which goes first, across the run.
        runs = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            runs[traced] = (run_cli(op, traced) if cli
                            else run_inprocess(posred, op, tracer if traced else None))
        plain, traced_out = runs[False], runs[True]
        if cli:
            summary = traced_out.summary or spans.empty_summary()
            absent.update(summary.pop("absent", []))
            startup_s += traced_out.wall - summary["root_s"]
        else:
            summary = spans.summarize(tracer.take())
            absent.update(tracer.absent)
        if summary["basis_dims"]:
            target = basis_target(op)
            true_dim = oracle.reachable_basis(target.A, target.B).shape[1]
            deficits += sum(true_dim - d for d in summary["basis_dims"])
        spans.merge(total, summary)
        overhead.append(traced_out.wall - plain.wall)
        outcomes.append(traced_out if traced_out.error and not plain.error else plain)
    imports += [import_time() for _ in range(IMPORT_RUNS - len(imports))]
    numpy_s = statistics.median(i[0] for i in imports)
    posred_s = statistics.median(i[1] for i in imports)

    attempted = len(outcomes)
    failures = [o for o in outcomes if o.error]
    latencies = [math.inf if o.error else o.wall for o in outcomes]
    raw_p50 = statistics.median(latencies)
    raw_tail, tail_pct = tail(latencies)
    if cli:
        reference = ("numpy import", numpy_s, len(imports), NUMPY_NOMINAL_S)
    elif refs:
        reference = ("reference scan", statistics.median(refs), len(refs), REF_NOMINAL_S)
    else:
        reference = None
    scale = reference[3] / reference[1] if reference else 1.0
    p50, tail_s = raw_p50 * scale, raw_tail * scale
    setup_s = NUMPY_NOMINAL_S * statistics.median((n + p) / n for n, p in imports)
    order_ratio = sum(o.order for o in outcomes) / dims
    print(f"workload {args.workload}: seed {args.seed}, {rounds} rounds, "
          f"{attempted} operations, trace {args.trace}, "
          f"{clock() - start:.1f} s measured")
    if skipped:
        print(f"safety limit of {limit:.0f} s reached: {skipped} operations not run, "
              f"counted as failed")
    kinds = Counter(o.error.split(":")[0] for o in failures)
    print(f"fail_rate {len(failures) / attempted:.4f} ratio "
          f"({len(failures)} failed of {attempted} attempted; {dict(kinds) or 'none'})")
    print(f"wrong answers (rejected by the oracle): {sum(o.wrong for o in outcomes)}")
    for label, o in [(label, o) for label, o in zip(labels, outcomes) if o.error][:MAX_LISTED]:
        print(f"failed: {label}: {o.error}")
    if reference:
        name, median, count, nominal = reference
        print(f"host speed: {name} median {1000 * median:.3f} ms of {count} "
              f"(nominal {1000 * nominal:.0f} ms); latencies scaled by {scale:.4f} from "
              f"raw p50 {raw_p50:.6g} s, raw tail {raw_tail:.6g} s")
    print(f"setup raw: median numpy import {numpy_s:.6g} s + posred import {posred_s:.6g} s")
    scaled = "; scaled to nominal host speed" if reference else ""
    end_to_end = {
        "latency_p50_s": (p50, "s", f"median of {attempted} operations{scaled}"),
        "latency_tail_s": (tail_s, "s", (f"p{tail_pct:.1f}: 10 of {attempted} samples beyond it"
                                         if attempted > 10 else
                                         f"maximum of {attempted} samples") + scaled),
        "order_ratio": (order_ratio, "ratio", "sum reduced order / sum original order"),
        "setup_s": (setup_s, "s", f"median `import posred` of {IMPORT_RUNS} fresh "
                    f"interpreters, each scaled by its own numpy import"),
        "peak_rss_mb": (peak_rss_mb(args.workload), "MB",
                        "CLI subprocesses" if cli else "benchmark process"),
    }
    for name, (value, unit_, note) in end_to_end.items():
        print(f"{name} {value:.6g} {unit_} ({note})")
    metrics = {name: {"value": value, "unit": unit_}
               for name, (value, unit_, _) in end_to_end.items()}
    if tracer:
        inside = total["pipeline_s"]
        unspanned = total["self"]["pipeline"] / inside if inside else 0.0
        metrics = per_layer(total, attempted, deficits, startup_s if cli else 0.0,
                            numpy_s, posred_s, statistics.fmean(overhead or [0.0]),
                            unspanned)
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        print(f"span check: the wrapped layers cover {inside - total['self']['pipeline']:.4f} s "
              f"of {inside:.4f} s inside rpmr_*; pipeline.self_s is "
              f"{100 * unspanned:.2f}% (tolerance {100 * SPAN_TOLERANCE:.0f}%): "
              f"{'ok' if unspanned <= SPAN_TOLERANCE else 'FAILED'}")
        print(f"absent: {sorted(absent) or 'none'}")
    correct = not any(o.wrong for o in outcomes)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
