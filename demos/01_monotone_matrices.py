#!/usr/bin/env python3
"""Monotone matrices and their non-negative left inverses.

A matrix X is monotone when X x >= 0 forces x >= 0. That is exactly when
X has an entrywise non-negative left inverse, and again exactly when the
cone spanned by the rows of X contains the whole non-negative orthant.
posred decides non-negative matrices, the ones positive systems produce,
by a purely structural test: a non-negative X, of any rank or shape, is
monotone iff it contains one row per column supported on that column
alone. A matrix with a negative entry is refused, not decided.
"""
import numpy as np

from posred import NotNonnegativeError, is_monotone_nonneg_rect

np.set_printoptions(precision=3, suppress=True)

print("=== A shear: no private row for the second column ===")
X = np.array([[1.0, 0.0],
              [1.0, 1.0]])
print("X =\n", X)
print("monotone?", is_monotone_nonneg_rect(X).monotone)
print("reason: e2 = c1*(1,0) + c2*(1,1) forces c1 = -1, so e2 is not in the cone\n")

print("=== Negative entries are refused ===")
Y = np.array([[2.0, -1.0],
              [-1.0, 2.0]])
print("Y =\n", Y)
try:
    is_monotone_nonneg_rect(Y)
except NotNonnegativeError as exc:
    print("refused:", exc)
print("(inv(Y) is non-negative, so Y is monotone, but deciding a mixed-sign")
print(" matrix is a cone-membership problem, which posred does not solve)\n")

print("=== Square non-negative matrices: generalized permutations only ===")
for M in (np.diag([2.0, 3.0]),
          np.array([[0.0, 5.0], [7.0, 0.0]]),
          np.array([[1.0, 1.0], [0.0, 1.0]])):
    print("M =\n", M, "\nmonotone?", is_monotone_nonneg_rect(M).monotone, "\n")

print("=== Rectangular non-negative matrices: one private row per column ===")
R = np.array([[1.0, 0.0],
              [0.0, 1.0],
              [1.0, 1.0],
              [1.0, 1.0]])
cert = is_monotone_nonneg_rect(R)
print("R =\n", R)
print("monotone?", cert.monotone)
print("orthogonal rows:", cert.orthogonal_row_set)
print("left inverse (selects those rows):\n", cert.nonneg_left_inverse)
print()

S = np.array([[1.0, 1.0],
              [1.0, 2.0],
              [2.0, 1.0]])
print("S =\n", S)
print("every pair of rows overlaps, so S is not monotone:",
      not is_monotone_nonneg_rect(S).monotone)
