#!/usr/bin/env python3
"""Why the factors must be non-negative: a reduction that silently breaks.

A 4-state positive system has a 2-dimensional reachable space. Reducing
with the Moore-Penrose left inverse of the truncated reachability matrix
happens to give a positive reduced model for the nominal data, but a tiny
positivity-preserving perturbation of the original system pushes the
reduced matrices negative. The non-negative factor pair found by the
minimal-route search cannot be broken that way: products of non-negative
matrices stay non-negative.
"""
import numpy as np

from posred import (Factorization, PositiveLtiSystem, equivalent, left_inverse,
                    perturbation_experiment, project, reachable_subspace,
                    find_nonneg_factorization, rpmr_reachable)

np.set_printoptions(precision=3, suppress=True)


def cascade(eps=0.0):
    A = np.array([[1.0, 1.0 + eps, 0.0, 0.0],
                  [1.0, 0.0, 2.0, 0.0],
                  [0.0, 0.0, 1.0, 2.0],
                  [0.0, 0.0, 3.0, 1.0]])
    B = np.array([[1.0], [1.0 + eps], [0.0], [0.0]])
    return PositiveLtiSystem(A, B)


base = cascade()
basis = reachable_subspace(base)
print("truncated reachability matrix:\n", basis.basis)

naive = Factorization(np.asarray(basis.basis), left_inverse(basis.basis), [])
print("\nMoore-Penrose left inverse (mixed signs!):\n", naive.Jdag)

Ar, Br, _ = project(base, naive.J, naive.Jdag)
print("\nnominal naive reduction is positive by luck:")
print("A_r =\n", Ar, "\nB_r =\n", Br)

perturbed = cascade(0.1)
Ar, Br, _ = project(perturbed, naive.J, naive.Jdag)
print("\nafter a 10% perturbation the same factors give:")
print("A_r =\n", Ar, "\nB_r =\n", Br)
print("-> negative entries: the reduced model is no longer a positive system")

robust = find_nonneg_factorization(basis)
print("\nnon-negative factor pair from the minimal-route search:")
print("J =\n", robust.J, "\nJdag =\n", robust.Jdag)
for eps in (0.0, 0.1):
    Ar, Br, _ = project(cascade(eps), robust.J, robust.Jdag)
    print(f"\neps = {eps}: A_r =\n{Ar}\nB_r = {Br.ravel()}  (still positive)")

print("\n=== batch comparison over 200 random 5% perturbations ===")
rng = np.random.default_rng(0)
batch = []
for seed in range(200):
    gen = np.random.default_rng(seed)
    matrices = [np.where(M > 0, M * gen.uniform(1.0, 1.05, M.shape), M)
                for M in (base.A, base.B, base.C)]
    batch.append(PositiveLtiSystem(*matrices))
records = perturbation_experiment(base, naive, robust, batch)
print("naive reduction positive: ",
      sum(r.naive_positive for r in records), "/ 200")
print("robust reduction positive:",
      sum(r.robust_positive for r in records), "/ 200")
print("robust reduction exact:   ",
      sum(r.equivalent for r in records), "/ 200")

print("\n=== the one-call pipeline ===")
report = rpmr_reachable(base)
print("method:", report.method, "| dims:", report.original_dim, "->", report.reduced_dim)
print("reduced A =\n", report.reduced_system.A)
print("reduced B =\n", report.reduced_system.B)
print("same impulse response:", equivalent(base, report.reduced_system))
