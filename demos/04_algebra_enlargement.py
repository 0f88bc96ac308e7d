#!/usr/bin/env python3
"""The algebra fallback, and when it is not optimal.

Every subspace closed under the coordinate-wise product
[x ^ y]_i = x_i y_i / p_i is spanned by non-negative idempotents with
disjoint supports, so the projector onto it always factors non-negatively.
Enlarging the reachable space to the smallest such algebra therefore
always yields a positive reduction, but the enlargement can cost
dimensions that the direct minimal-route search would not pay.
"""
import numpy as np

from posred import (PositiveLtiSystem, algebra_factorization, choose_p,
                    closure, reachable_subspace, reduce, rpmr_reachable)

np.set_printoptions(precision=3, suppress=True)


def swap(eps):
    A = np.array([[0.0, eps, 0.0, 0.0],
                  [eps, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 0.0, 1.0]])
    B = np.array([[0.0], [1.0], [1.0], [1.0]])
    return PositiveLtiSystem(A, B)


print("=== eps = 1: reachable space of dimension 2 ===")
S = swap(1.0)
basis = reachable_subspace(S)
print("truncated reachability matrix:\n", basis.basis)

p = choose_p(basis)
print("\nreference vector p =", p, "(sum of the basis columns)")
algebra = closure(basis, p)
print("is the reachable space already product-closed?",
      algebra.dimension == basis.dimension)
print("closure dimension:", algebra.dimension)
print("coordinate blocks:", algebra.blocks)
print("idempotent generators:\n", algebra.generators)
F = algebra_factorization(algebra)
print("factor pair:\nJ =\n", F.J, "\nJdag =\n", F.Jdag)

print("\nminimal route (direct search):")
direct = rpmr_reachable(S)
print("  dims", direct.original_dim, "->", direct.reduced_dim,
      "| A_r =", direct.reduced_system.A.tolist(),
      "| B_r =", direct.reduced_system.B.ravel())

print("algebra route (reduce by the factor pair above, for comparison):")
algebraic = reduce(S, F)
print("  dims", S.dim, "->", algebraic.dim,
      "| A_r =", algebraic.A.tolist(),
      "| B_r =", algebraic.B.ravel())
print("-> both reductions are exact and positive; the algebra pays one",
      "extra dimension because the reachable space is not product-closed")

print("\n=== eps = 2: reachable space of dimension 3 ===")
S = swap(2.0)
basis = reachable_subspace(S)
print("is the reachable space product-closed now?",
      closure(basis, choose_p(basis)).dimension == basis.dimension)
report = rpmr_reachable(S)
print("minimal route dims:", report.original_dim, "->", report.reduced_dim)
print("J =\n", report.factorization.J)
print("here the two routes agree: the found J has orthogonal columns")
