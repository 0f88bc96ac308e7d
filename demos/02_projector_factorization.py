#!/usr/bin/env python3
"""Non-negative full-rank factorization of projectors.

Given a subspace V of R^n, we ask for a projector Pi = J @ Jdag onto V
with both factors entrywise non-negative. The answer does not depend on
which basis of V you start from: some m rows of the basis must form an
invertible block V0 with basis[rest] @ inv(V0) >= 0. Such rows exist
exactly when the cone of the basis rows has m extreme rays, each carried
by a row, so the search drops every row lying in the cone of the others
and keeps the lowest-index row on each extreme ray.
"""
import numpy as np

from posred import SubspaceBasis, find_nonneg_factorization, verify_factorization

np.set_printoptions(precision=3, suppress=True)

print("=== A disguised coordinate plane ===")
V = SubspaceBasis(np.array([[1.0, 2.0],
                            [1.0, 1.0],
                            [0.0, 0.0],
                            [0.0, 0.0]]))
F = find_nonneg_factorization(V)
print("basis columns:\n", V.basis)
print("pivot rows:", F.pivot_rows)
print("J =\n", F.J)
print("Jdag =\n", F.Jdag)
print("verified:", verify_factorization(F, V), "\n")

print("=== Towers sharing a floor ===")
V = SubspaceBasis(np.array([[0.0, 2.0, 0.0],
                            [1.0, 0.0, 4.0],
                            [1.0, 1.0, 1.0],
                            [1.0, 1.0, 1.0]]))
F = find_nonneg_factorization(V)
print("J =\n", F.J)
print("the projector:\n", F.J @ F.Jdag, "\n")

print("=== A span with no such projector ===")
V = SubspaceBasis(np.array([[2.0, 1.0, 0.0],
                            [0.0, 2.0, 1.0],
                            [1.0, 0.0, 2.0],
                            [3.0, 0.0, 0.0]]))
F = find_nonneg_factorization(V)
print("basis columns:\n", V.basis)
print("factorization found?", F is not None)
print("(all four row triples leave a negative entry in basis[rest] @ inv(V0))")

print()
print("=== A mixed-sign line ===")
V = SubspaceBasis(np.array([[1.0], [1.0], [-1.0]]))
print("factorization found?", find_nonneg_factorization(V) is not None)
