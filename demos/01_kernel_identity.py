"""Walk through the unit-norm kernel family acting as an approximate identity
on the sampled circle.

The order-n kernel has triangular coefficients, unit algebra norm at every
order, and drives e_n * f -> f for each fixed f while the net itself never
settles down (no limit exists because the algebra has no unit in the
truncation regime).
"""

from approxinv import wiener
from approxinv.core import check_approximate_identity

M = 2048
model = wiener.l1_circle_model(M)

print("kernel norms and coefficients")
for n in (1, 8, 64, 256):
    kernel = wiener.fejer_kernel(M, n)
    print(
        f"  n={n:4d}  ||K_n||_1 = {wiener.l1_norm(kernel):.12f}"
        f"  K^(16) = {kernel.coeff(16).real:.6f}"
    )

print("\nresiduals of K_n acting on the standard test set")
trace = check_approximate_identity(
    model,
    lambda n: wiener.fejer_kernel(M, n),
    wiener.standard_test_set(M),
    schedule=[8, 16, 32, 64, 128],
)
for entry in trace:
    print(f"  n={entry.index:4d}  worst residual = {entry.residual:.6f}")
print(f"  verdict at tol 1e-2: {'pass' if trace[-1].residual <= 1e-2 else 'fail'}")

print("\nthe family is not Cauchy (no limit, hence no unit):")
for n in (8, 32, 128):
    gap = wiener.l1_norm(
        wiener.fejer_kernel(M, n) - wiener.fejer_kernel(M, 2 * n)
    )
    print(f"  ||K_{n} - K_{2*n}||_1 = {gap:.4f}")

print("\ntransform of the family tends to one at each fixed frequency:")
for k in (0, 16):
    path = ", ".join(
        f"{abs(wiener.fejer_kernel(M, n).coeff(k) - 1):.4f}" for n in (16, 32, 64, 128)
    )
    print(f"  |K^(k={k}) - 1| along n: {path}")
