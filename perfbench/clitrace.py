"""`python -m posred` with layer spans.

Usage: python perfbench/clitrace.py <posred CLI arguments>

Installs the spans of spans.py, runs posred's __main__ with the given
arguments, and writes one line to standard error: MARK followed by the JSON
summary of the spans. Standard output and the exit code are the CLI's own.
"""
import json
import runpy
import sys

import posred.cli  # noqa: F401  (loads every module whose functions are wrapped)
from spans import MARK, Tracer, summarize


def main() -> int:
    tracer = Tracer()
    tracer.install()
    code = 0
    try:
        runpy.run_module("posred", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.uninstall()
        summary = summarize(tracer.take())
        summary["absent"] = tracer.absent
        print(MARK + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
