"""Run the benchmark over several seeds and summarise its steadiness.

Usage, from the root of a checkout:

    python3 perfbench/report.py --workloads small-search cli-batch --seeds 1-10 \\
        --seconds 30 [--trace-seed 1] [--out perfbench/some-record.json] [--label TEXT]

For each workload, runs perfbench/run.py once per seed (--trace 0) and
prints, for every end-to-end metric, the median of the runs and the spread
between their first and third quartiles as a share of the median. With
--trace-seed it adds one traced run per workload. With --out it writes
every run's result line, with the environment, as JSON.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    median = statistics.median(values)
    if any(math.isinf(v) for v in values):
        return median, math.nan
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else math.nan


def finite(value):
    """The record with every infinite or NaN number written as a string,
    so that the file is strict JSON."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [finite(item) for item in value]
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--label", default="", help="what was measured, kept in the record")
    args = parser.parse_args()

    record = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            env, result = run(workload, seed, args.seconds, 0)
            record["env"] = env
            results.append({"seed": seed, **result})
            values = " ".join(f"{name}={m['value']:.5g}" for name, m in result["metrics"].items())
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} {values}", flush=True)
        entry = {"runs": results, "summary": {}}
        for name in results[0]["metrics"]:
            median, rel = spread([r["metrics"][name]["value"] for r in results])
            entry["summary"][name] = {"median": median, "iqr_share": rel}
            print(f"  {name}: median {median:.6g}, quartile spread {100 * rel:.2f}% of median")
        if args.trace_seed is not None:
            _, traced = run(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, **traced}
            for name, metric in traced["metrics"].items():
                print(f"  {name}: {metric['value']:.6g} {metric['unit']}")
        record["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(finite(record), indent=1, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
