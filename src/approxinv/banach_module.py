"""Convolution action of the circle algebra on p-normed signal spaces.

The module space is the same sampled circle carrying the normalized p-norm
``((1/M) sum |.|^p)^(1/p)`` (sup for p = inf) of :func:`wiener.lp_norm`; the
action is circular convolution, exact at grid resolution for band-limited
integrands, with ``||f * b||_p <= ||f||_1 ||b||_p``.  On top of the action
sit the exact kernel-approximation error and the spectral-division
deconvolution experiment: recovering g from b = f (*) g plus optional
complex Gaussian noise.  Noisy error behaviour is reported, never asserted;
the noiseless recovery error is an exact kernel-approximation identity.
"""

from __future__ import annotations

import numpy as np

from .wiener import (
    CircleSignal,
    convolve,
    fejer_kernel,
    lp_norm,
    wiener_division,
)


def add_noise(signal: CircleSignal, sigma: float, seed: int) -> CircleSignal:
    """``signal`` plus complex Gaussian noise: each sample gets independent
    real and imaginary parts of variance sigma^2 / 2 (so E|z|^2 = sigma^2),
    all real parts drawn before the imaginary ones."""
    if sigma < 0:
        raise ValueError("noise level must be nonnegative")
    if sigma == 0.0:
        return signal
    rng = np.random.default_rng(seed)
    M = signal.grid_size
    noisy = np.empty(M, dtype=complex)
    noisy.real = rng.standard_normal(M)
    noisy.imag = rng.standard_normal(M)
    noisy *= sigma / np.sqrt(2.0)
    noisy += signal.values
    np.fft.fft(noisy, norm="forward", out=noisy)
    return CircleSignal(noisy, M, M // 2)


def deconvolve(
    f: CircleSignal, observed: CircleSignal, n: int, floor: float
) -> CircleSignal:
    """Recover g from the observation b = f (*) g through the order-n
    division member.

    The estimate is g_n = h_n * b with h_n the spectral division of f, so
    for a noiseless observation g_n = K_n * g exactly and the recovery error
    equals the order-n kernel approximation error of g.
    """
    return convolve(wiener_division(f, n, floor), observed)


def kernel_tail_error(g: CircleSignal, n: int, p: float) -> float:
    """Exact order-n kernel approximation error ||K_n * g - g||_p, evaluated
    directly from the coefficient action."""
    k = fejer_kernel(g.grid_size, n)
    return lp_norm(convolve(k, g) - g, p)
