"""Certification in the algebra of grid functions decaying at the boundary.

Plateau functions over growing windows form an approximate identity; an
element is certified approximately invertible exactly when it has no zero on
the grid, with the reciprocal net e/f as the explicit inverse.  Around every
certified element sit perturbations, as close as requested, that vanish
somewhere, so the certified set has empty interior.
"""

import numpy as np

from approxinv import c0

space = c0.GridSpace(10.0, 201, tail_tol=1e-3)
family = c0.WindowFamily(space)
test_set = c0.seeded_elements(space, 3, seed=5, zero_fraction=0.0)

print("plateau members: 1 on the window, linear ramp, 0 outside")
for n in (1, 4, 12):
    e = family.element(n)
    a, b = np.flatnonzero(e == 1.0)[[0, -1]]
    print(f"  n={n:3d}  window indices [{a}, {b}], sup = {c0.sup_norm(e):.1f}")

f = test_set[0]
print("\nresiduals ||f e_n - f|| along the family")
for n in (1, 4, 8, 12):
    resid = c0.sup_norm(f * family.element(n) - f)
    print(f"  n={n:3d}  residual = {resid:.2e}")

print("\ncertification versus zeros on the grid")
for label, element in (
    ("nonvanishing element", c0.seeded_elements(space, 1, 9, zero_fraction=0.0)[0]),
    ("element with a planted zero", c0.seeded_elements(space, 1, 9, zero_fraction=1.0)[0]),
):
    cert = c0.certify(space, element, test_set, family)
    nonvanishing = c0.is_nonvanishing(element, 1e-6)
    print(
        f"  {label}: min|f| = {np.abs(element).min():.2e}, non-vanishing at 1e-6:"
        f" {nonvanishing}, verdict = {cert.verdict}"
    )

print("\nboundary of the certified set: nearby non-certifiable perturbations")
good = c0.seeded_elements(space, 1, 9, zero_fraction=0.0)[0]
for eps in (1e-1, 1e-2):
    perturbed = c0.perturb_to_noninvertible(space, good, eps)
    dist = c0.sup_norm(perturbed - good)
    print(
        f"  eps={eps:g}: distance {dist:.2e}, min|perturbed| = {np.abs(perturbed).min():.1e}"
        f" -> verdict {c0.certify(space, perturbed, test_set, family).verdict}"
    )
