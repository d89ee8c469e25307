"""Inverse nets and invertibility criteria in the finite operator ideal.

The singular system of a full-rank operator yields the net U_m with
T U_m equal to the orthogonal projection onto the leading output directions;
rank-deficient operators are refuted.  Two criteria for dense range - the
smallest singular value and the minimum of ||T* a|| over unit states -
agree on every operator.
"""

import numpy as np

from approxinv import operators

rng = np.random.default_rng(42)
n = 8
t = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

system = operators.svd(t)
print("singular values:", np.round(system.values, 4))
print(f"reconstruction error: {np.abs(system.reconstruct() - t).max():.2e}")

net = operators.right_inverse_net(system)
print("\nprojection identity T U_m = P_m")
u = system.outputs
for m in (1, 4, 8):
    proj = u[:, :m] @ u[:, :m].conj().T
    resid = operators.schatten_norm(t @ net(m) - proj, np.inf)
    print(f"  m={m}:  ||T U_m - P_m||op = {resid:.2e}")

c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
print("\nideal-norm residuals ||T U_m C - C|| (p = 2)")
for m in (2, 4, 6, 8):
    resid = operators.schatten_norm(t @ net(m) @ c - c, 2.0)
    print(f"  m={m}:  {resid:.4f}")

print("\ntwo-criterion agreement at threshold 1e-8")
for label, op in (
    ("full rank", t),
    ("column zeroed", np.where(np.arange(n) == 2, 0.0, 1.0) * t),
):
    smallest = float(operators.singular_values(op)[-1])
    by_state = operators.min_pure_state_norm(op, seed=1)
    print(
        f"  {label}: sigma_min {smallest:.2e} (dense {smallest > 1e-8}),"
        f" min state norm {by_state:.2e} (dense {by_state > 1e-8})"
    )

print("\nideal norms respect the contracts")
f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
one = np.outer(f, g.conj())  # the rank-one operator h -> <h, g> f
print(f"  rank-one ideal norms (all p): {operators.schatten_norm(one, 1.0):.6f}")
print(f"  product of vector norms:     {np.linalg.norm(f) * np.linalg.norm(g):.6f}")
for p in (1.0, 1.5, 2.0):
    print(
        f"  p={p}: op norm {operators.schatten_norm(t, np.inf):.4f} <= ideal norm"
        f" {operators.schatten_norm(t, p):.4f}"
    )
