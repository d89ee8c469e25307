"""Spectral division as an explicit right-inverse net, applied to
deconvolution in the p-normed module.

Dividing the triangular kernel coefficients by the coefficients of f gives
members h_n with f * h_n exactly the order-n kernel, so f is certified
approximately invertible whenever its coefficients clear the division floor
on the band.  Pushing the same net through the module recovers g from the
blurred observation f (*) g, with the noiseless error exactly the kernel
approximation error of g.
"""

import numpy as np

from approxinv import banach_module as bm
from approxinv import wiener
from approxinv.core import check_approx_invertible
from approxinv.errors import DivisionFloorError

M = 2048
blur = wiener.poisson_kernel(M, 0.5)
floor = 0.5**300  # admit the whole band used below

print("division exactness ||f * h_n - K_n||_1")
for n in (4, 16, 64):
    h = wiener.wiener_division(blur, n, floor)
    resid = wiener.l1_norm(wiener.convolve(blur, h) - wiener.fejer_kernel(M, n))
    print(f"  n={n:3d}  residual = {resid:.3e}")

print("\ncertification through the division net")
cert = check_approx_invertible(
    wiener.l1_circle_model(M),
    blur,
    wiener.wiener_division_net(blur, floor),
    wiener.standard_test_set(M),
    tol=1e-2,
    schedule=[8, 16, 32, 64, 128],
)
print(f"  verdict: {cert.verdict}, final residual {cert.right_trace[-1].residual:.5f}")

print("\nvanishing coefficients refuse to divide:")
try:
    wiener.wiener_division(wiener.character(M, 1), 4)
except DivisionFloorError as err:
    print(f"  {err}")

rng = np.random.default_rng(0)
band = {k: 0.6 ** abs(k) * np.exp(2j * np.pi * rng.random()) for k in range(-24, 25)}
truth = wiener.CircleSignal.from_band(M, band)
observed = wiener.convolve(blur, truth)


def error(recovered):
    return wiener.lp_norm(recovered - truth, 2.0)


print("\nnoiseless and noisy recovery error across the net")
print("  order   noiseless    sigma=1e-3")
for n in (8, 16, 32, 64, 128):
    clean = error(bm.deconvolve(blur, observed, n, floor))
    noisy = error(bm.deconvolve(blur, bm.add_noise(observed, 1e-3, n), n, floor))
    print(f"  {n:5d}   {clean:.3e}    {noisy:.3e}")
print(
    "  (noiseless error shrinks with the order; the inverse coefficients\n"
    "   amplify noise at deep bands, so the noisy error turns around -\n"
    "   the division floor exists to keep real runs out of that regime)"
)
