"""Seeded random positive systems for property suites and the CLI.

With a planted reachable dimension q, the first q coordinates of a random
permutation form an invariant coordinate block containing Im(B), so the
reachable space of the generated system has dimension at most q.
"""
from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from .numerics import _Checked
from .possys import PositiveLtiSystem


class _GeneratorSpec(NamedTuple):
    n: int
    inputs: int = 1
    outputs: int = 1
    reachable_dim: Optional[int] = None
    density: float = 1.0
    seed: int = 0


class GeneratorSpec(_Checked, _GeneratorSpec):
    """Shape, sparsity, planted reachable dimension, and a non-negative seed."""

    __slots__ = ()

    @staticmethod
    def _checked(spec):
        if spec.n < 1 or spec.inputs < 1 or spec.outputs < 1:
            raise ValueError("n, inputs, and outputs must be at least 1")
        if not 0.0 < spec.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if spec.reachable_dim is not None and not 1 <= spec.reachable_dim <= spec.n:
            raise ValueError("reachable_dim must lie in [1, n]")
        if spec.seed < 0:
            raise ValueError("seed must be non-negative")
        return spec


def _dense(rng: np.random.Generator, shape, density: float) -> np.ndarray:
    # Entries bounded away from zero so sign and support tests stay crisp.
    values = rng.uniform(0.1, 1.0, shape)
    if density < 1.0:
        values = np.where(rng.random(shape) < density, values, 0.0)
    return values


def generate_system(spec: GeneratorSpec) -> PositiveLtiSystem:
    """Deterministic for a fixed spec: same spec and seed, same system."""
    rng = np.random.default_rng(spec.seed)
    A = _dense(rng, (spec.n, spec.n), spec.density)
    B = _dense(rng, (spec.n, spec.inputs), spec.density)
    C = _dense(rng, (spec.outputs, spec.n), spec.density)
    if spec.reachable_dim is not None and spec.reachable_dim < spec.n:
        permutation = rng.permutation(spec.n)
        inside = permutation[:spec.reachable_dim]
        outside = permutation[spec.reachable_dim:]
        A[np.ix_(outside, inside)] = 0.0
        B[outside, :] = 0.0
    return PositiveLtiSystem(A, B, C)
