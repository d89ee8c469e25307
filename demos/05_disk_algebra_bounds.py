"""The origin-vanishing disk polynomials as a counterexample model.

No product of two such elements can approach the generating monomial closer
than one third in the sup norm, and no candidate net can act as an
approximate identity.  A dual certificate proves more: on every sampled
circle the mean of p - 1 is -1 and the mean of (f1 f2 - z) conj(z) is -1,
so no deviation falls below 1, and the zero element attains 1.  The
certificates read only the sampled circle moments, so they cover every
element of the family at once instead of a batch of drawn ones.
Multiplication by the generator is nevertheless an isometry, so the model
also separates approximate invertibility from the zero-divisor mechanism.
"""

import numpy as np

from approxinv import disk

sampling = disk.CircleSampling(1024)
rng = np.random.default_rng(3)


def element(degree):
    """An element of degree ``degree``: zero constant term, the other
    coefficients drawn uniformly from the disk of radius
    ``disk.COEFFICIENT_RADIUS``."""
    radius = disk.COEFFICIENT_RADIUS * np.sqrt(rng.random(degree))
    phase = np.exp(2j * np.pi * rng.random(degree))
    return np.concatenate(([0.0], radius * phase))


def sup_norm(p):
    """Sampled sup of |p| on the unit circle (= over the disk, by the
    maximum principle)."""
    return np.abs(disk.poly_eval(p, sampling.circle)).max()


print("sampled sup norms on the circle")
chi = np.array([0.0, 1.0], complex)  # the generator z
cubic = np.array([0.0, 0.5, 0.0, 0.25], complex)
for label, p in (("z", chi), ("z/2 + z^3/4", cubic)):
    print(f"  |{label}|: {sup_norm(p):.4f}")

print("\ninterior values obey the contraction bound |p(z)| <= |z| sup|p|")
for z in (0.5, 0.25 + 0.25j):
    value = abs(disk.poly_eval(cubic, np.asarray(z)))
    bound = abs(z) * sup_norm(cubic)
    print(f"  z={z}:  |p(z)| = {value:.4f} <= {bound:.4f}")

print("\nthe mean-value certificate: every sampled circle averages p - 1 to -1")
p = element(8)
for r in (disk.RADII[0], disk.RADII[-1]):
    mean = (disk.poly_eval(p, r * sampling.circle) - 1.0).mean()
    print(f"  r={r}:  mean of p - 1 = {mean.real:+.12f} {mean.imag:+.1e}i")

zero = np.zeros(9, complex)
annulus = disk.annulus_certificate(sampling, 8)
product = disk.product_certificate(sampling, 8)
print("\ncertified optimum over degree-8 elements with coefficients |a_k| <= 2 (floor: 1/3)")
print(f"  annulus sup|f - 1|:   zero element {disk.annulus_deviation(zero, sampling):.12f}"
      f",  certificate c = {annulus:.1e}, so every element has >= 1 - c")
print(f"  circle sup|f1 f2 - z|: zero pair {disk.product_deviation(zero, zero, sampling):.12f}"
      f",  certificate c = {product:.1e}, so every pair has >= 1 - c")
print("  so the infimum of both objectives is exactly 1, three times the floor")

print("\nmultiplication by the generator preserves the norm")
for _ in range(3):
    p = element(8)
    with_chi = sup_norm(disk.poly_mul(p, chi))
    plain = sup_norm(p)
    print(f"  |p z| = {with_chi:.6f}   |p| = {plain:.6f}")
print("  so the generator is no zero-divisor direction, yet nothing certifies it")
print("  approximately invertible: there is no approximate identity to reach")
