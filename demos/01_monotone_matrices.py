#!/usr/bin/env python3
"""Monotone matrices and their non-negative left inverses.

A matrix X is monotone when X x >= 0 forces x >= 0. That is exactly when
X has an entrywise non-negative left inverse, and again exactly when the
cone spanned by the rows of X contains the whole non-negative orthant.
For non-negative matrices there is a purely structural shortcut: a
non-negative X, of any rank or shape, is monotone iff it contains one
row per column supported on that column alone.
"""
import numpy as np

from posred import is_monotone_general, is_monotone_nonneg_rect

np.set_printoptions(precision=3, suppress=True)

print("=== The general cone oracle ===")
X = np.array([[1.0, 0.0],
              [1.0, 1.0]])
print("X =\n", X)
cert = is_monotone_general(X)
print("monotone?", cert.monotone)
print("reason: e2 = c1*(1,0) + c2*(1,1) forces c1 = -1, so e2 is not in the cone\n")

Y = np.array([[2.0, -1.0],
              [-1.0, 2.0]])
cert = is_monotone_general(Y)
print("Y =\n", Y)
print("monotone?", cert.monotone, " (mixed signs are fine for the oracle)")
print("non-negative left inverse:\n", cert.nonneg_left_inverse, "\n")

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
