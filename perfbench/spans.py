"""Per-layer spans around posred's public functions, installed from outside.

Tracer.install() replaces each target function, in every loaded posred
module that holds it under any name, by a wrapper that records a span:
name, start, end, the enclosing span, the arguments and the result or the
error. Tracer.uninstall() puts the originals back. A target that the
program no longer defines is listed in Tracer.absent instead.

summarize() turns one operation's spans into self times (a span's
duration minus its direct children's) and counters, so the self times of
a call tree add up to its root's duration.
"""
from __future__ import annotations

import importlib
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from systems import lex_rank

# (defining module, function, span name). Every public function that the
# pipeline calls, plus the roots: the rpmr entry points, the perturbation
# experiment and the CLI entry point.
TARGETS = (
    ("posred.pipeline", "rpmr_reachable", "pipeline"),
    ("posred.pipeline", "rpmr_observable", "pipeline"),
    ("posred.pipeline", "perturbation_experiment", "pipeline.perturbation_experiment"),
    ("posred.possys", "reachable_subspace", "possys.basis"),
    ("posred.factorize", "find_nonneg_factorization", "factorize.search"),
    ("posred.distalg", "choose_p", "distalg.choose_p"),
    ("posred.distalg", "closure", "distalg.closure"),
    ("posred.distalg", "algebra_factorization", "distalg.algebra_factorization"),
    ("posred.possys", "reduce", "possys.reduce"),
    ("posred.possys", "project", "possys.project"),
    ("posred.possys", "equivalent", "possys.verify"),
    ("posred.cli", "main", "cli.main"),
)
MARK = "perfbench-spans "  # prefixes the summary line a traced CLI run prints
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


@dataclass
class Span:
    name: str
    parent: int
    args: tuple
    start: float = 0.0
    end: float = 0.0
    result: object = None
    error: str = ""


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else -1, args)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                self._stack.pop()

        return traced

    def install(self) -> None:
        self.absent = []
        originals = []
        for module_name, attr, span_name in TARGETS:
            try:
                original = getattr(importlib.import_module(module_name), attr, None)
            except ImportError:
                original = None
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
            else:
                originals.append((original, span_name))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "posred" or key.startswith("posred."))]
        for original, span_name in originals:
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches = []

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def summarize(spans: list[Span]) -> dict:
    """Self time per span name, root wall time and the layer counters of
    one operation's spans. Counters are read from the arguments and
    results, never from the program's own bookkeeping."""
    children = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            children[span.parent] += span.end - span.start
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    out = {"self": self_s, "root_s": 0.0, "pipeline_s": 0.0, "basis_dims": [], "search_calls": 0,
           "search_hits": 0, "subsets_tried": 0, "budget_skips": 0,
           "closure_failures": 0, "excess_dim": 0}
    for i, span in enumerate(spans):
        duration = span.end - span.start
        self_s[span.name] = self_s.get(span.name, 0.0) + duration - children[i]
        if span.parent < 0:
            out["root_s"] += duration
        if span.name == "pipeline":
            out["pipeline_s"] += duration
        if span.name == "possys.basis" and not span.error:
            out["basis_dims"].append(span.result.dimension)
        elif span.name == "factorize.search":
            basis = span.args[0].basis
            n, m = basis.shape
            if span.error == "BudgetExceededError":
                out["budget_skips"] += 1
                continue
            out["search_calls"] += 1
            if span.result is not None:
                out["search_hits"] += 1
                out["subsets_tried"] += lex_rank(sorted(span.result.pivot_rows), n) + 1
            elif not span.error:
                out["subsets_tried"] += math.comb(n, m)
        elif span.name == "distalg.closure":
            if span.error:
                out["closure_failures"] += 1
            else:
                out["excess_dim"] += span.result.dimension - span.args[0].dimension
    return out


def merge(total: dict, part: dict) -> dict:
    """Add one operation's summary into a running total."""
    for key, value in part.items():
        if key == "self":
            for name, seconds in value.items():
                total["self"][name] = total["self"].get(name, 0.0) + seconds
        elif isinstance(value, list):
            total[key] = total.get(key, []) + value
        else:
            total[key] = total.get(key, 0) + value
    return total


def empty_summary() -> dict:
    return summarize([])
