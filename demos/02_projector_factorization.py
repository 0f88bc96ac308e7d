#!/usr/bin/env python3
"""Non-negative full-rank factorization of projectors.

Given a subspace V of R^n, we ask for a projector Pi = J @ Jdag onto V
with both factors entrywise non-negative. The search checks one
precondition on the basis: each nonzero row, scaled to unit norm, must
sum above nonneg_tol, as every nonzero row of a non-negative basis does;
a row that fails raises NotNonnegativeError. A non-negative generating
set of V, as the reachable generators A^k B of a positive system are,
always passes, and the answer does not depend on which one you start
from: some m rows of the basis must form an invertible block V0 with
basis[rest] @ inv(V0) >= 0. Such rows exist
exactly when the cone of the basis rows has m extreme rays, each carried
by a row. With the unit rows put on a hyperplane, successive projection
finds them in m steps (pick the largest row, project it out of all
rows), keeping the lowest-index row on each extreme ray, and the sign
test on unit rows certifies the pick.
"""
import numpy as np

from posred import (NotNonnegativeError, SubspaceBasis, find_nonneg_factorization,
                    verify_factorization)

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
print("=== A mixed-sign line is refused ===")
V = SubspaceBasis(np.array([[1.0], [1.0], [-1.0]]))
try:
    find_nonneg_factorization(V)
except NotNonnegativeError as exc:
    print("refused:", exc)
print("(span{(1, 1, -1)} has no non-negative generating set; it has no such")
print(" projector either, as J >= 0 would have to span it)")
